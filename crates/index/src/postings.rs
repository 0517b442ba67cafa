//! Positional postings lists, block-coded.
//!
//! Document ids are stored as delta-varint runs in [`BLOCK`]-entry
//! blocks with one skip entry per block (first/last doc id plus the
//! byte offset of the block's payload). Positions are stored in CSR
//! form: one concatenated array plus per-document prefix offsets, so a
//! document's positions are always a contiguous slice — no per-entry
//! allocation, no decode.
//!
//! The block decoder is branch-light: runs of single-byte varints are
//! consumed four at a time off a `u32` load (`w & 0x8080_8080 == 0`
//! means four complete deltas), falling back to a byte-at-a-time LEB128
//! loop only around multi-byte deltas.

/// Identifier of a document inside one [`crate::Index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

/// Entries per coded block. 128 keeps a block inside two cache lines of
/// decoded output while amortizing the skip-entry overhead.
pub const BLOCK: usize = 128;

/// Per-block skip entry: enough to decide whether a target doc id can
/// live in the block (and where its payload starts) without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// First doc id in the block (stored absolutely; the payload only
    /// carries the remaining `len - 1` deltas).
    pub first: u32,
    /// Last doc id in the block — the skip test for intersections.
    pub last: u32,
    /// Byte offset of the block's delta payload.
    pub offset: u32,
}

/// One decoded document entry: the doc id and a borrowed slice of the
/// sorted token positions at which the term occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostingRef<'a> {
    pub doc: DocId,
    pub positions: &'a [u32],
}

/// Append a LEB128 varint.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 varint; returns `(value, next_offset)`. Panics on a
/// truncated buffer — the codec only ever reads its own output.
#[inline]
pub fn read_varint(bytes: &[u8], mut p: usize) -> (u32, usize) {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = bytes[p];
        p += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (v, p);
        }
        shift += 7;
    }
}

/// Encode a strictly-increasing doc id sequence into delta-varint
/// blocks plus skip entries. Empty input yields empty output.
pub fn encode_blocks(docs: &[u32]) -> (Vec<u8>, Vec<SkipEntry>) {
    let mut bytes = Vec::new();
    let mut skips = Vec::with_capacity(docs.len().div_ceil(BLOCK));
    for chunk in docs.chunks(BLOCK) {
        skips.push(SkipEntry {
            first: chunk[0],
            last: *chunk.last().expect("chunks are non-empty"),
            offset: u32::try_from(bytes.len()).expect("postings payload exceeds u32"),
        });
        let mut prev = chunk[0];
        for &d in &chunk[1..] {
            debug_assert!(d > prev, "doc ids must be strictly increasing");
            write_varint(&mut bytes, d - prev);
            prev = d;
        }
    }
    (bytes, skips)
}

/// Number of entries in block `b` of a list with `count` entries.
#[inline]
fn block_len(count: usize, b: usize) -> usize {
    (count - b * BLOCK).min(BLOCK)
}

/// Decode block `b` into `out`, returning the entry count. The hot loop
/// is the unrolled single-byte fast path described in the module docs.
pub fn decode_block(
    bytes: &[u8],
    skips: &[SkipEntry],
    count: usize,
    b: usize,
    out: &mut [u32; BLOCK],
) -> usize {
    let len = block_len(count, b);
    let mut acc = skips[b].first;
    out[0] = acc;
    let mut p = skips[b].offset as usize;
    let mut i = 1usize;
    while i < len {
        // Four single-byte deltas per u32 load while the run lasts.
        while i + 4 <= len && p + 4 <= bytes.len() {
            let w = u32::from_le_bytes([bytes[p], bytes[p + 1], bytes[p + 2], bytes[p + 3]]);
            if w & 0x8080_8080 != 0 {
                break;
            }
            acc += w & 0x7f;
            out[i] = acc;
            acc += (w >> 8) & 0x7f;
            out[i + 1] = acc;
            acc += (w >> 16) & 0x7f;
            out[i + 2] = acc;
            acc += (w >> 24) & 0x7f;
            out[i + 3] = acc;
            p += 4;
            i += 4;
        }
        if i >= len {
            break;
        }
        let (d, np) = read_varint(bytes, p);
        p = np;
        acc += d;
        out[i] = acc;
        i += 1;
    }
    len
}

/// Decode an entire coded list back to its doc id sequence (test
/// helper; query paths decode at most one block at a time).
pub fn decode_all(bytes: &[u8], skips: &[SkipEntry], count: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(count);
    let mut buf = [0u32; BLOCK];
    for b in 0..skips.len() {
        let len = decode_block(bytes, skips, count, b, &mut buf);
        out.extend_from_slice(&buf[..len]);
    }
    out
}

/// Accumulates one term's occurrences during index construction.
/// Documents must be pushed in non-decreasing id order with
/// non-decreasing positions (the index builder guarantees this).
#[derive(Debug, Clone, Default)]
pub(crate) struct PostingsBuilder {
    docs: Vec<u32>,
    pos_starts: Vec<u32>,
    positions: Vec<u32>,
}

impl PostingsBuilder {
    /// Record an occurrence of the term at `pos` in `doc`.
    pub(crate) fn push(&mut self, doc: DocId, pos: u32) {
        match self.docs.last() {
            Some(&last) if last == doc.0 => {
                debug_assert!(self.positions.last().is_none_or(|&p| p <= pos));
            }
            _ => {
                debug_assert!(self.docs.last().is_none_or(|&d| d < doc.0));
                self.docs.push(doc.0);
                self.pos_starts
                    .push(u32::try_from(self.positions.len()).expect("positions exceed u32"));
            }
        }
        self.positions.push(pos);
    }

    /// Freeze into the block-coded form. The frozen arrays are sized
    /// exactly: they live as long as the index.
    pub(crate) fn freeze(mut self) -> Postings {
        let (mut bytes, skips) = encode_blocks(&self.docs);
        self.pos_starts
            .push(u32::try_from(self.positions.len()).expect("positions exceed u32"));
        bytes.shrink_to_fit();
        self.pos_starts.shrink_to_fit();
        self.positions.shrink_to_fit();
        Postings {
            bytes,
            skips,
            count: self.docs.len(),
            pos_starts: self.pos_starts,
            positions: self.positions,
        }
    }
}

/// A term's frozen postings: block-coded doc ids plus CSR positions,
/// sorted by document id (an invariant maintained by construction —
/// documents are indexed in id order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Postings {
    bytes: Vec<u8>,
    skips: Vec<SkipEntry>,
    count: usize,
    /// `count + 1` prefix offsets into `positions`.
    pos_starts: Vec<u32>,
    positions: Vec<u32>,
}

impl Postings {
    /// Number of documents containing the term.
    pub fn doc_count(&self) -> usize {
        self.count
    }

    /// Total number of occurrences across all documents.
    pub fn total_count(&self) -> usize {
        self.positions.len()
    }

    /// Encoded doc-id payload size in bytes (for stats).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len() + self.skips.len() * std::mem::size_of::<SkipEntry>()
    }

    /// The positions slice of the entry at ordinal `k`.
    #[inline]
    fn positions_of(&self, k: usize) -> &[u32] {
        &self.positions[self.pos_starts[k] as usize..self.pos_starts[k + 1] as usize]
    }

    /// Iterate the per-document entries in document-id order, decoding
    /// one block at a time.
    pub fn iter(&self) -> PostingsIter<'_> {
        PostingsIter {
            p: self,
            buf: [0; BLOCK],
            block: 0,
            len: 0,
            i: 0,
        }
    }

    /// A seekable decode cursor over the list.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            p: self,
            buf: [0; BLOCK],
            block: usize::MAX,
            len: 0,
            i: 0,
        }
    }

    /// Look up a single document's entry (skip search plus one block
    /// decode). For ascending batched lookups prefer [`Self::cursor`].
    pub fn get(&self, doc: DocId) -> Option<PostingRef<'_>> {
        let mut cur = self.cursor();
        cur.seek(doc).filter(|r| r.doc == doc)
    }

    /// Term frequency in one document.
    pub fn tf(&self, doc: DocId) -> usize {
        self.get(doc).map_or(0, |r| r.positions.len())
    }
}

/// Block-at-a-time decoding iterator; yields [`PostingRef`]s.
pub struct PostingsIter<'a> {
    p: &'a Postings,
    buf: [u32; BLOCK],
    block: usize,
    len: usize,
    i: usize,
}

impl<'a> Iterator for PostingsIter<'a> {
    type Item = PostingRef<'a>;

    fn next(&mut self) -> Option<PostingRef<'a>> {
        if self.i >= self.len {
            if self.block >= self.p.skips.len() {
                return None;
            }
            self.len = decode_block(
                &self.p.bytes,
                &self.p.skips,
                self.p.count,
                self.block,
                &mut self.buf,
            );
            self.block += 1;
            self.i = 0;
        }
        let k = (self.block - 1) * BLOCK + self.i;
        let r = PostingRef {
            doc: DocId(self.buf[self.i]),
            positions: self.p.positions_of(k),
        };
        self.i += 1;
        Some(r)
    }
}

/// Monotone seek cursor: skips whole blocks via the skip table, decodes
/// at most one block per landing, and resumes in-block from the last
/// position. Feeding ascending targets never re-decodes a block.
pub struct Cursor<'a> {
    p: &'a Postings,
    buf: [u32; BLOCK],
    /// Currently decoded block, `usize::MAX` before the first decode.
    block: usize,
    len: usize,
    i: usize,
}

impl<'a> Cursor<'a> {
    /// Advance to the first entry with `doc >= target` at or after the
    /// cursor's position; `None` once the list is exhausted. Block
    /// selection gallops over the skip table (doubling probes, then a
    /// binary search over the bracketed range), mirroring the galloping
    /// intersection this cursor feeds.
    pub fn seek(&mut self, target: DocId) -> Option<PostingRef<'a>> {
        let skips = &self.p.skips;
        let start = if self.block == usize::MAX {
            0
        } else {
            self.block
        };
        if start >= skips.len() {
            return None;
        }
        let mut b = start;
        if skips[b].last < target.0 {
            let mut step = 1usize;
            while b + step < skips.len() && skips[b + step].last < target.0 {
                step <<= 1;
            }
            let hi = (b + step + 1).min(skips.len());
            b += skips[b..hi].partition_point(|s| s.last < target.0);
            if b >= skips.len() {
                self.block = skips.len();
                return None;
            }
        }
        if b != self.block {
            self.len = decode_block(&self.p.bytes, skips, self.p.count, b, &mut self.buf);
            self.block = b;
            self.i = 0;
        }
        // In-block: the same doubling-probe bracket before binary
        // search, starting from the cursor position.
        let mut lo = self.i;
        if self.buf[lo] < target.0 {
            let mut step = 1usize;
            while lo + step < self.len && self.buf[lo + step] < target.0 {
                step <<= 1;
            }
            let hi = (lo + step + 1).min(self.len);
            lo += self.buf[lo..hi].partition_point(|&d| d < target.0);
        }
        debug_assert!(lo < self.len, "skip entry guaranteed containment");
        self.i = lo;
        let k = self.block * BLOCK + self.i;
        Some(PostingRef {
            doc: DocId(self.buf[self.i]),
            positions: self.p.positions_of(k),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_pairs(pairs: &[(u32, u32)]) -> Postings {
        let mut b = PostingsBuilder::default();
        for &(d, p) in pairs {
            b.push(DocId(d), p);
        }
        b.freeze()
    }

    #[test]
    fn push_groups_by_document() {
        let p = from_pairs(&[(0, 1), (0, 5), (2, 0)]);
        assert_eq!(p.doc_count(), 2);
        assert_eq!(p.total_count(), 3);
        assert_eq!(p.tf(DocId(0)), 2);
        assert_eq!(p.tf(DocId(1)), 0);
        assert_eq!(p.tf(DocId(2)), 1);
        assert_eq!(p.get(DocId(0)).unwrap().positions, &[1, 5]);
    }

    #[test]
    fn get_finds_only_present_docs() {
        let p = from_pairs(&[(0, 0), (3, 0), (7, 0), (9, 0)]);
        assert!(p.get(DocId(7)).is_some());
        assert!(p.get(DocId(4)).is_none());
        assert!(p.get(DocId(10)).is_none());
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let pairs: Vec<(u32, u32)> = (0..300u32).map(|d| (d * 3, d)).collect();
        let p = from_pairs(&pairs);
        let ids: Vec<u32> = p.iter().map(|e| e.doc.0).collect();
        let expect: Vec<u32> = pairs.iter().map(|&(d, _)| d).collect();
        assert_eq!(ids, expect);
        for (e, &(_, pos)) in p.iter().zip(&pairs) {
            assert_eq!(e.positions, &[pos]);
        }
    }

    #[test]
    fn codec_round_trips_across_block_boundaries() {
        for n in [0usize, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
            let docs: Vec<u32> = (0..n as u32).map(|d| d * 7 + 3).collect();
            let (bytes, skips) = encode_blocks(&docs);
            assert_eq!(decode_all(&bytes, &skips, docs.len()), docs, "n={n}");
        }
    }

    #[test]
    fn codec_handles_max_deltas() {
        let docs = vec![0, 1, u32::MAX - 1, u32::MAX];
        let (bytes, skips) = encode_blocks(&docs);
        assert_eq!(decode_all(&bytes, &skips, docs.len()), docs);
    }

    #[test]
    fn cursor_seek_matches_linear_scan() {
        let docs: Vec<u32> = (0..500u32).map(|d| d * 2).collect();
        let pairs: Vec<(u32, u32)> = docs.iter().map(|&d| (d, 0)).collect();
        let p = from_pairs(&pairs);
        let mut cur = p.cursor();
        for target in [0u32, 1, 2, 255, 256, 600, 997, 998] {
            let expect = docs.iter().copied().find(|&d| d >= target);
            let got = cur.seek(DocId(target)).map(|r| r.doc.0);
            assert_eq!(got, expect, "target={target}");
        }
        assert_eq!(cur.seek(DocId(2000)), None);
        // Exhausted cursors stay exhausted.
        assert_eq!(cur.seek(DocId(0)), None);
    }
}
