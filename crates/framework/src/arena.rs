//! The single-file arena snapshot format (`snapshot.ctxr`).
//!
//! A format that decodes every store entry on load — allocate each
//! surface string, hash it into a `HashMap`, copy every packed pair
//! through a byte cursor — spends millions of allocations on a
//! million-concept snapshot before the first query can be served. The
//! arena format has no such step: the whole snapshot is one
//! little-endian file whose sections are already in the stores'
//! in-memory layout, so loading is
//!
//! 1. read the file once into an 8-byte-aligned, `Arc`-owned buffer;
//! 2. verify the header and the whole-file word-folded FNV-1a checksum;
//! 3. validate section bounds/alignment and string-table invariants;
//! 4. hand out typed views (`&[u32]`, `&[u8]`) into the buffer.
//!
//! No per-entry decode happens at any point — the hash index used for
//! concept lookup is itself a section (an open-addressed slot table),
//! written by the offline save and reused verbatim by the online load.
//!
//! ## File layout
//!
//! ```text
//! header (48 B):
//!   0  magic        u64   "ctxrARN1"
//!   8  version      u32   1
//!   12 byte order   u32   0x01020304 (read with native endianness:
//!                         a big-endian host rejects the file instead
//!                         of silently misreading the section casts)
//!   16 epoch        u64   snapshot epoch
//!   24 checksum     u64   word-folded FNV-1a over the file, this field zeroed
//!   32 total_len    u64   file length (fast truncation check)
//!   40 sections     u32   15
//!   44 reserved     u32   0
//! section table (15 × {offset u64, len u64}), offsets 8-byte aligned
//! sections, in table order, zero-padded to 8-byte boundaries
//! ```
//!
//! Sections 0–2 are the Global TID Table's string table (prefix
//! offsets, hash slots, UTF-8 blob); 3–7 the interest store (string
//! table, packed rows, field quantizers); 8–13 the relevance store
//! (string table, range starts, packed pairs, score scale); 14 the
//! ranking model as JSON.
//!
//! **Version policy.** `version` is bumped on any layout change; a
//! loader rejects versions it does not know with a typed `Corrupt`
//! error. New optional sections append to the table (readers ignore
//! trailing entries they do not understand only after a version bump
//! that documents them).
//!
//! Integrity is split in two: the checksum catches *corruption* (any
//! bit flip anywhere fails the load with a typed error), structural
//! validation catches *hostility* (no offset, count or slot value read
//! from the file can cause an out-of-bounds access or a panic later).

use crate::packed::{FieldQuantizer, PackedInterestStore, BYTES_PER_CONCEPT};
use crate::relstore::PackedRelevanceStore;
use crate::tid::{GlobalTidTable, MAX_TID};
use ctxrank_features::InterestFeatures;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The arena snapshot's file name inside a snapshot directory.
pub(crate) const ARENA_FILE: &str = "snapshot.ctxr";

const MAGIC: u64 = u64::from_le_bytes(*b"ctxrARN1");
const VERSION: u32 = 1;
const BYTE_ORDER_MARK: u32 = 0x0102_0304;
const HEADER_LEN: usize = 48;
const CHECKSUM_OFFSET: usize = 24;
const SECTION_COUNT: usize = 15;

// Section table indices. A `S_*_OFFSETS` entry is the base of a
// three-section string table: offsets at `base`, hash slots at
// `base + 1`, the UTF-8 blob at `base + 2`.
const S_TID_OFFSETS: usize = 0;
const S_INT_OFFSETS: usize = 3;
const S_INT_DATA: usize = 6;
const S_INT_QUANT: usize = 7;
const S_REL_OFFSETS: usize = 8;
const S_REL_STARTS: usize = 11;
const S_REL_PAIRS: usize = 12;
const S_REL_SCALE: usize = 13;
const S_MODEL: usize = 14;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a hash of `bytes` — both the string-table slot hash and the
/// building block of the whole-file checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Whole-file checksum: the FNV-1a fold applied to 8-byte
/// little-endian words (the tail zero-padded) with the checksum word
/// itself read as zero. Word granularity costs one multiply per 8
/// bytes instead of per byte, so verification does not dominate the
/// arena load; any single bit flip still changes the folded word and
/// therefore the sum.
fn file_checksum(bytes: &[u8]) -> u64 {
    const CHECKSUM_WORD: usize = CHECKSUM_OFFSET / 8;
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for (idx, chunk) in chunks.by_ref().enumerate() {
        let w = if idx == CHECKSUM_WORD {
            0
        } else {
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
        };
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A byte buffer whose base address is 8-byte aligned (backed by a
/// `Vec<u64>`), so any section at an 8-aligned offset can be viewed as
/// `&[u32]` or `&[u64]` without copying.
pub(crate) struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// Copy `bytes` into aligned storage (one memcpy).
    pub(crate) fn from_bytes(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: the destination allocation holds words.len()*8 >=
        // bytes.len() bytes and u8 has no alignment requirement.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
        Self {
            words,
            len: bytes.len(),
        }
    }

    /// The buffer contents.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: the allocation holds at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

impl fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AlignedBuf({} B)", self.len)
    }
}

/// A byte slice that is either owned (built in memory) or a view into
/// an `Arc`-shared arena buffer (loaded from `snapshot.ctxr`).
#[derive(Clone)]
pub(crate) enum ByteSlab {
    Owned(Vec<u8>),
    Arena {
        buf: Arc<AlignedBuf>,
        off: usize,
        len: usize,
    },
}

impl ByteSlab {
    /// Arena view; `None` when the range is out of bounds.
    fn arena(buf: &Arc<AlignedBuf>, off: usize, len: usize) -> Option<Self> {
        off.checked_add(len).filter(|&end| end <= buf.len)?;
        Some(ByteSlab::Arena {
            buf: Arc::clone(buf),
            off,
            len,
        })
    }

    /// The bytes as an owned, growable vector; an arena view is copied
    /// out once.
    pub(crate) fn to_mut(&mut self) -> &mut Vec<u8> {
        if let ByteSlab::Arena { .. } = self {
            *self = ByteSlab::Owned(self.to_vec());
        }
        match self {
            ByteSlab::Owned(v) => v,
            ByteSlab::Arena { .. } => unreachable!("converted to owned above"),
        }
    }
}

impl Deref for ByteSlab {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            ByteSlab::Owned(v) => v,
            ByteSlab::Arena { buf, off, len } => &buf.bytes()[*off..off + len],
        }
    }
}

impl Default for ByteSlab {
    fn default() -> Self {
        ByteSlab::Owned(Vec::new())
    }
}

impl fmt::Debug for ByteSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteSlab::Owned(v) => write!(f, "ByteSlab::Owned({} B)", v.len()),
            ByteSlab::Arena { len, .. } => write!(f, "ByteSlab::Arena({len} B)"),
        }
    }
}

/// A `u32` slice, owned or cast directly out of the arena buffer.
#[derive(Clone)]
pub(crate) enum U32Slab {
    Owned(Vec<u32>),
    Arena {
        buf: Arc<AlignedBuf>,
        /// Byte offset into the buffer; 4-byte aligned (validated).
        off: usize,
        /// Length in elements.
        len: usize,
    },
}

impl U32Slab {
    /// Arena view over `len_bytes` bytes at `off`; `None` when the
    /// range is misaligned, has a ragged length, or is out of bounds.
    fn arena(buf: &Arc<AlignedBuf>, off: usize, len_bytes: usize) -> Option<Self> {
        if !off.is_multiple_of(4) || !len_bytes.is_multiple_of(4) {
            return None;
        }
        off.checked_add(len_bytes).filter(|&end| end <= buf.len)?;
        Some(U32Slab::Arena {
            buf: Arc::clone(buf),
            off,
            len: len_bytes / 4,
        })
    }

    /// [`ByteSlab::to_mut`] for `u32`s.
    fn to_mut(&mut self) -> &mut Vec<u32> {
        if let U32Slab::Arena { .. } = self {
            *self = U32Slab::Owned(self.to_vec());
        }
        match self {
            U32Slab::Owned(v) => v,
            U32Slab::Arena { .. } => unreachable!("converted to owned above"),
        }
    }
}

impl Deref for U32Slab {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            U32Slab::Owned(v) => v,
            U32Slab::Arena { buf, off, len } => {
                let bytes = &buf.bytes()[*off..off + len * 4];
                // SAFETY: the buffer base is 8-byte aligned and `off`
                // was validated to be a multiple of 4 at construction,
                // so the pointer is aligned for u32; the range holds
                // exactly `len` u32s and lives as long as `buf`.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), *len) }
            }
        }
    }
}

impl Default for U32Slab {
    fn default() -> Self {
        U32Slab::Owned(Vec::new())
    }
}

impl fmt::Debug for U32Slab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            U32Slab::Owned(v) => write!(f, "U32Slab::Owned({})", v.len()),
            U32Slab::Arena { len, .. } => write!(f, "U32Slab::Arena({len})"),
        }
    }
}

/// A frozen string table: `count` strings addressed by dense index,
/// plus an open-addressed hash index for string → index lookup. The
/// same three arrays serve an in-memory build and a zero-copy arena
/// view, so there is exactly one lookup path.
#[derive(Clone)]
pub(crate) struct StrTable {
    /// `count + 1` prefix offsets into `blob`.
    offsets: U32Slab,
    /// Power-of-two slot table; a slot holds `index + 1` (0 = empty).
    /// Load factor ≤ 0.5 by construction.
    slots: U32Slab,
    /// Concatenated UTF-8 string bytes.
    blob: ByteSlab,
}

impl Default for StrTable {
    fn default() -> Self {
        Self::build(std::iter::empty())
    }
}

impl fmt::Debug for StrTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StrTable({} strings)", self.len())
    }
}

impl StrTable {
    /// Build an owned table. When the same key appears twice, lookup
    /// resolves to the *last* occurrence (matching `HashMap::insert`).
    pub(crate) fn build<'a, I: IntoIterator<Item = &'a str>>(keys: I) -> Self {
        let mut table = Self {
            offsets: U32Slab::Owned(vec![0]),
            slots: U32Slab::Owned(Vec::new()),
            blob: ByteSlab::Owned(Vec::new()),
        };
        table.extend(keys);
        table
    }

    /// Append `keys` after the stored strings. The result is
    /// byte-identical to [`Self::build`] over the old keys followed by
    /// the new ones: keys enter the slot table in index order either
    /// way, so while the slot capacity holds only the new keys are
    /// hashed, and when it doubles every key is re-inserted in order.
    pub(crate) fn extend<'a, I: IntoIterator<Item = &'a str>>(&mut self, keys: I) {
        let first = self.len();
        let offsets = self.offsets.to_mut();
        let blob = self.blob.to_mut();
        for k in keys {
            blob.extend_from_slice(k.as_bytes());
            offsets.push(u32::try_from(blob.len()).expect("string table blob exceeds 4 GiB"));
        }
        let count = offsets.len() - 1;
        let cap = (count.max(1) * 2).next_power_of_two();
        let slots = self.slots.to_mut();
        let from = if slots.len() == cap {
            first
        } else {
            *slots = vec![0; cap];
            0
        };
        let key = |i: usize| &blob[offsets[i] as usize..offsets[i + 1] as usize];
        let mask = cap - 1;
        for i in from..count {
            let k = key(i);
            let mut pos = (fnv1a(k) as usize) & mask;
            loop {
                match slots[pos] {
                    0 => {
                        slots[pos] = i as u32 + 1;
                        break;
                    }
                    v if key((v - 1) as usize) == k => {
                        slots[pos] = i as u32 + 1;
                        break;
                    }
                    _ => pos = (pos + 1) & mask,
                }
            }
        }
    }

    /// Assemble a table from (arena) parts, validating every invariant
    /// the accessors rely on: any file bytes that pass cannot cause an
    /// out-of-bounds access, a non-UTF-8 `&str`, or an unbounded probe.
    fn from_parts(offsets: U32Slab, slots: U32Slab, blob: ByteSlab) -> Result<Self, String> {
        let offs: &[u32] = &offsets;
        if offs.is_empty() {
            return Err("string table has no offset entries".into());
        }
        let count = offs.len() - 1;
        if count >= u32::MAX as usize {
            return Err("string table count overflows u32".into());
        }
        if offs[0] != 0 {
            return Err("string table offsets do not start at 0".into());
        }
        if offs.windows(2).any(|w| w[0] > w[1]) {
            return Err("string table offsets are not monotone".into());
        }
        if *offs.last().expect("non-empty") as usize != blob.len() {
            return Err("string table offsets do not cover the blob".into());
        }
        let text = std::str::from_utf8(&blob).map_err(|_| "string table blob is not UTF-8")?;
        if offs.iter().any(|&o| !text.is_char_boundary(o as usize)) {
            return Err("string table offset splits a UTF-8 sequence".into());
        }
        let sl: &[u32] = &slots;
        if !sl.len().is_power_of_two() {
            return Err("string table slot count is not a power of two".into());
        }
        if sl.iter().any(|&v| v as usize > count) {
            return Err("string table slot points past the last string".into());
        }
        Ok(Self {
            offsets,
            slots,
            blob,
        })
    }

    /// Number of stored strings.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The raw bytes of string `i`.
    #[inline]
    pub(crate) fn bytes_at(&self, i: u32) -> &[u8] {
        let a = self.offsets[i as usize] as usize;
        let b = self.offsets[i as usize + 1] as usize;
        &self.blob[a..b]
    }

    /// String `i`. The blob is UTF-8-validated on build/load, so the
    /// fallback arm is unreachable; it exists to keep this path
    /// panic-free even on hostile input.
    #[inline]
    pub(crate) fn str_at(&self, i: u32) -> &str {
        std::str::from_utf8(self.bytes_at(i)).unwrap_or("")
    }

    /// Dense index of `key`, if stored.
    pub(crate) fn lookup(&self, key: &str) -> Option<u32> {
        let slots: &[u32] = &self.slots;
        if slots.is_empty() {
            return None;
        }
        let mask = slots.len() - 1;
        let mut pos = (fnv1a(key.as_bytes()) as usize) & mask;
        // The probe is bounded by the table size so a (hostile) full
        // slot table cannot loop forever.
        for _ in 0..slots.len() {
            match slots[pos] {
                0 => return None,
                v => {
                    let i = v - 1;
                    if self.bytes_at(i) == key.as_bytes() {
                        return Some(i);
                    }
                }
            }
            pos = (pos + 1) & mask;
        }
        None
    }

    fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    fn slots(&self) -> &[u32] {
        &self.slots
    }

    fn blob(&self) -> &[u8] {
        &self.blob
    }
}

/// Everything decoded (viewed) out of one arena file.
pub(crate) struct DecodedArena {
    pub(crate) epoch: u64,
    pub(crate) interest: PackedInterestStore,
    pub(crate) relevance: PackedRelevanceStore,
    pub(crate) tids: GlobalTidTable,
    /// The ranking model JSON (small; copied out of the buffer).
    pub(crate) model_json: Vec<u8>,
}

fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    let mut b = Vec::with_capacity(v.len() * 4);
    for &x in v {
        b.extend_from_slice(&x.to_le_bytes());
    }
    b
}

/// Serialize a snapshot's components into one arena file.
pub(crate) fn encode(
    interest: &PackedInterestStore,
    relevance: &PackedRelevanceStore,
    tids: &GlobalTidTable,
    model_json: &[u8],
    epoch: u64,
) -> Vec<u8> {
    let tid_table = tids.to_str_table();

    fn put(out: &mut Vec<u8>, table: &mut [(u64, u64)], id: usize, bytes: &[u8]) {
        while !out.len().is_multiple_of(8) {
            out.push(0);
        }
        table[id] = (out.len() as u64, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }

    fn str_table(out: &mut Vec<u8>, table: &mut [(u64, u64)], base: usize, t: &StrTable) {
        put(out, table, base, &u32s_to_bytes(t.offsets()));
        put(out, table, base + 1, &u32s_to_bytes(t.slots()));
        put(out, table, base + 2, t.blob());
    }

    let mut out = vec![0u8; HEADER_LEN + SECTION_COUNT * 16];
    let mut table = [(0u64, 0u64); SECTION_COUNT];

    str_table(&mut out, &mut table, S_TID_OFFSETS, &tid_table);

    str_table(&mut out, &mut table, S_INT_OFFSETS, &interest.names);
    put(&mut out, &mut table, S_INT_DATA, &interest.data);
    let mut quant = Vec::with_capacity(InterestFeatures::DIM * 16);
    for q in interest.quantizers.iter() {
        quant.extend_from_slice(&q.lo.to_le_bytes());
        quant.extend_from_slice(&q.hi.to_le_bytes());
    }
    put(&mut out, &mut table, S_INT_QUANT, &quant);

    str_table(&mut out, &mut table, S_REL_OFFSETS, &relevance.names);
    put(
        &mut out,
        &mut table,
        S_REL_STARTS,
        &u32s_to_bytes(&relevance.starts),
    );
    put(
        &mut out,
        &mut table,
        S_REL_PAIRS,
        &u32s_to_bytes(&relevance.pairs),
    );
    put(
        &mut out,
        &mut table,
        S_REL_SCALE,
        &relevance.score_scale.to_le_bytes(),
    );

    put(&mut out, &mut table, S_MODEL, model_json);

    // Header and section table.
    out[0..8].copy_from_slice(&MAGIC.to_le_bytes());
    out[8..12].copy_from_slice(&VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&BYTE_ORDER_MARK.to_le_bytes());
    out[16..24].copy_from_slice(&epoch.to_le_bytes());
    let total = out.len() as u64;
    out[32..40].copy_from_slice(&total.to_le_bytes());
    out[40..44].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    for (i, (off, len)) in table.iter().enumerate() {
        let at = HEADER_LEN + i * 16;
        out[at..at + 8].copy_from_slice(&off.to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&len.to_le_bytes());
    }
    let sum = file_checksum(&out);
    out[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
    out
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

/// Decode (that is: validate and view) an arena buffer. Every failure
/// is a `String` detail the caller wraps into a typed persist error.
pub(crate) fn decode(buf: Arc<AlignedBuf>) -> Result<DecodedArena, String> {
    let b = buf.bytes();
    if b.len() < HEADER_LEN + SECTION_COUNT * 16 {
        return Err(format!("truncated header ({} B)", b.len()));
    }
    if rd_u64(b, 0) != MAGIC {
        return Err("bad magic".into());
    }
    let version = rd_u32(b, 8);
    if version != VERSION {
        return Err(format!("unsupported arena version {version}"));
    }
    // Read with *native* endianness: on a big-endian host this
    // mismatches and the file is rejected instead of the section casts
    // silently misreading little-endian data.
    let bom = u32::from_ne_bytes(b[12..16].try_into().expect("4 bytes"));
    if bom != BYTE_ORDER_MARK {
        return Err("byte-order mismatch (arena snapshots are little-endian)".into());
    }
    let epoch = rd_u64(b, 16);
    if rd_u64(b, 32) != b.len() as u64 {
        return Err(format!(
            "length mismatch: header says {}, file is {}",
            rd_u64(b, 32),
            b.len()
        ));
    }
    if rd_u32(b, 40) as usize != SECTION_COUNT {
        return Err(format!("unexpected section count {}", rd_u32(b, 40)));
    }
    let stored = rd_u64(b, CHECKSUM_OFFSET);
    let computed = file_checksum(b);
    if stored != computed {
        return Err(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        ));
    }

    let mut sections = [(0usize, 0usize); SECTION_COUNT];
    for (i, s) in sections.iter_mut().enumerate() {
        let at = HEADER_LEN + i * 16;
        let off = rd_u64(b, at);
        let len = rd_u64(b, at + 8);
        let end = off.checked_add(len).filter(|&e| e <= b.len() as u64);
        if !off.is_multiple_of(8) || end.is_none() {
            return Err(format!("section {i} out of bounds ({off}+{len})"));
        }
        *s = (off as usize, len as usize);
    }

    let bytes_sec = |i: usize| {
        let (off, len) = sections[i];
        ByteSlab::arena(&buf, off, len).ok_or_else(|| format!("section {i} out of bounds"))
    };
    let u32_sec = |i: usize| {
        let (off, len) = sections[i];
        U32Slab::arena(&buf, off, len)
            .ok_or_else(|| format!("section {i} is not a whole u32 array"))
    };
    let str_table = |base: usize| -> Result<StrTable, String> {
        StrTable::from_parts(u32_sec(base)?, u32_sec(base + 1)?, bytes_sec(base + 2)?)
    };

    // Global TID Table.
    let tid_table = str_table(S_TID_OFFSETS).map_err(|e| format!("tid table: {e}"))?;
    if tid_table.len() > MAX_TID as usize + 1 {
        return Err("tid table exceeds the 22-bit id space".into());
    }
    let tids = GlobalTidTable::from_frozen(tid_table);

    // Interest store.
    let names = str_table(S_INT_OFFSETS).map_err(|e| format!("interest names: {e}"))?;
    let data = bytes_sec(S_INT_DATA)?;
    if data.len() != names.len() * BYTES_PER_CONCEPT {
        return Err(format!(
            "interest data is {} B for {} concepts",
            data.len(),
            names.len()
        ));
    }
    let (qoff, qlen) = sections[S_INT_QUANT];
    if qlen != InterestFeatures::DIM * 16 {
        return Err("quantizer section length mismatch".into());
    }
    let mut quantizers = [FieldQuantizer { lo: 0.0, hi: 0.0 }; InterestFeatures::DIM];
    for (d, q) in quantizers.iter_mut().enumerate() {
        let lo = f64::from_le_bytes(b[qoff + d * 16..qoff + d * 16 + 8].try_into().expect("8"));
        let hi = f64::from_le_bytes(
            b[qoff + d * 16 + 8..qoff + d * 16 + 16]
                .try_into()
                .expect("8"),
        );
        if !lo.is_finite() || !hi.is_finite() || hi < lo {
            return Err(format!("invalid quantizer range for field {d}"));
        }
        *q = FieldQuantizer { lo, hi };
    }
    let interest = PackedInterestStore {
        names: Arc::new(names),
        data,
        quantizers,
    };

    // Relevance store.
    let names = str_table(S_REL_OFFSETS).map_err(|e| format!("relevance names: {e}"))?;
    let starts = u32_sec(S_REL_STARTS)?;
    let pairs = u32_sec(S_REL_PAIRS)?;
    {
        let s: &[u32] = &starts;
        if s.len() != names.len() + 1 {
            return Err("relevance starts do not match the concept count".into());
        }
        if s[0] != 0 || s.windows(2).any(|w| w[0] > w[1]) {
            return Err("relevance starts are not monotone from 0".into());
        }
        if *s.last().expect("non-empty") as usize != pairs.len() {
            return Err("relevance starts do not cover the pair array".into());
        }
    }
    let (soff, slen) = sections[S_REL_SCALE];
    if slen != 8 {
        return Err("score scale section length mismatch".into());
    }
    let score_scale = f64::from_le_bytes(b[soff..soff + 8].try_into().expect("8"));
    if !score_scale.is_finite() {
        return Err("score scale is not finite".into());
    }
    let relevance = PackedRelevanceStore {
        names,
        starts,
        pairs,
        score_scale,
    };

    let model_json = bytes_sec(S_MODEL)?.to_vec();

    Ok(DecodedArena {
        epoch,
        interest,
        relevance,
        tids,
        model_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn str_table_lookup_hit_and_miss() {
        let t = StrTable::build(["alpha", "beta", "gamma"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup("alpha"), Some(0));
        assert_eq!(t.lookup("gamma"), Some(2));
        assert_eq!(t.lookup("delta"), None);
        assert_eq!(t.str_at(1), "beta");
        let all: Vec<&str> = (0..3).map(|i| t.str_at(i)).collect();
        assert_eq!(all, vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn str_table_empty() {
        let t = StrTable::default();
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(""), None);
        assert_eq!(t.lookup("x"), None);
    }

    #[test]
    fn str_table_duplicate_key_last_wins() {
        let t = StrTable::build(["a", "b", "a"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup("a"), Some(2));
        assert_eq!(t.lookup("b"), Some(1));
    }

    #[test]
    fn str_table_empty_string_key() {
        let t = StrTable::build(["", "x"]);
        assert_eq!(t.lookup(""), Some(0));
        assert_eq!(t.str_at(0), "");
    }

    /// Keys from a small alphabet, so duplicates (last wins) and slot
    /// collisions are common.
    fn keys_of(raw: &[(u8, u8)]) -> Vec<String> {
        raw.iter()
            .map(|&(a, b)| match b % 4 {
                0 => String::new(),
                1 => format!("k{a}"),
                2 => format!("k{a} k{}", b % 7),
                _ => format!("ü{}", a % 9),
            })
            .collect()
    }

    fn assert_same_table(a: &StrTable, b: &StrTable) {
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.slots(), b.slots());
        assert_eq!(a.blob(), b.blob());
    }

    proptest! {
        #[test]
        fn str_table_extend_matches_build(
            base in prop::collection::vec((0u8..40, 0u8..=255), 0..40),
            more in prop::collection::vec((0u8..40, 0u8..=255), 0..40),
        ) {
            let (base, more) = (keys_of(&base), keys_of(&more));
            let mut extended = StrTable::build(base.iter().map(String::as_str));
            extended.extend(more.iter().map(String::as_str));
            let all: Vec<&str> = base.iter().chain(&more).map(String::as_str).collect();
            let built = StrTable::build(all.iter().copied());
            assert_same_table(&extended, &built);
            // Every key looks up to its (last) index.
            for (i, k) in all.iter().enumerate() {
                let last = all.iter().rposition(|x| x == k).expect("present");
                prop_assert_eq!(extended.lookup(k), Some(last as u32), "key {} at {}", k, i);
            }
        }
    }

    #[test]
    fn str_table_extend_edge_cases() {
        // Empty extension, empty base, and extensions that cross every
        // slot-capacity doubling up to 64 keys, one key at a time.
        let mut t = StrTable::build(["a", "b"]);
        t.extend(std::iter::empty());
        assert_same_table(&t, &StrTable::build(["a", "b"]));
        let mut t = StrTable::default();
        t.extend(["x", "y", "z"]);
        assert_same_table(&t, &StrTable::build(["x", "y", "z"]));
        let keys: Vec<String> = (0..64).map(|i| format!("key {i}")).collect();
        let mut grown = StrTable::default();
        for (n, k) in keys.iter().enumerate() {
            let before = grown.slots().len();
            grown.extend([k.as_str()]);
            assert_same_table(
                &grown,
                &StrTable::build(keys[..=n].iter().map(String::as_str)),
            );
            if grown.slots().len() != before {
                assert_eq!(grown.slots().len(), 2 * before, "doubled at {n}");
            }
        }
        assert_eq!(grown.slots().len(), 128);
        // An arena-backed table extends into an owned one.
        let base = StrTable::build(["solar flares", "oil"]);
        let mut file = u32s_to_bytes(base.offsets());
        let slots_off = file.len();
        file.extend_from_slice(&u32s_to_bytes(base.slots()));
        let blob_off = file.len();
        file.extend_from_slice(base.blob());
        let buf = Arc::new(AlignedBuf::from_bytes(&file));
        let mut viewed = StrTable::from_parts(
            U32Slab::arena(&buf, 0, slots_off).expect("offsets"),
            U32Slab::arena(&buf, slots_off, blob_off - slots_off).expect("slots"),
            ByteSlab::arena(&buf, blob_off, file.len() - blob_off).expect("blob"),
        )
        .expect("valid parts");
        viewed.extend(["meteor shower"]);
        assert_same_table(
            &viewed,
            &StrTable::build(["solar flares", "oil", "meteor shower"]),
        );
    }

    #[test]
    fn str_table_survives_arena_roundtrip() {
        // Serialize the parts through an aligned buffer and re-assemble.
        let t = StrTable::build(["solar flares", "wall street", "ünïcode"]);
        let mut file = u32s_to_bytes(t.offsets());
        let slots_off = file.len();
        file.extend_from_slice(&u32s_to_bytes(t.slots()));
        let blob_off = file.len();
        file.extend_from_slice(t.blob());
        let buf = Arc::new(AlignedBuf::from_bytes(&file));
        let v = StrTable::from_parts(
            U32Slab::arena(&buf, 0, slots_off).expect("offsets"),
            U32Slab::arena(&buf, slots_off, blob_off - slots_off).expect("slots"),
            ByteSlab::arena(&buf, blob_off, file.len() - blob_off).expect("blob"),
        )
        .expect("valid parts");
        assert_eq!(v.lookup("wall street"), Some(1));
        assert_eq!(v.lookup("ünïcode"), Some(2));
        assert_eq!(v.lookup("missing"), None);
        assert_eq!(v.str_at(2), "ünïcode");
    }

    #[test]
    fn from_parts_rejects_bad_offsets() {
        let bad = StrTable::from_parts(
            U32Slab::Owned(vec![0, 5, 3]),
            U32Slab::Owned(vec![0, 0]),
            ByteSlab::Owned(b"hello".to_vec()),
        );
        assert!(bad.is_err(), "non-monotone offsets must be rejected");

        let bad = StrTable::from_parts(
            U32Slab::Owned(vec![0, 9]),
            U32Slab::Owned(vec![0, 0]),
            ByteSlab::Owned(b"hello".to_vec()),
        );
        assert!(bad.is_err(), "offsets past the blob must be rejected");

        let bad = StrTable::from_parts(
            U32Slab::Owned(vec![0, 5]),
            U32Slab::Owned(vec![0, 0, 0]),
            ByteSlab::Owned(b"hello".to_vec()),
        );
        assert!(bad.is_err(), "non-power-of-two slot table must be rejected");

        let bad = StrTable::from_parts(
            U32Slab::Owned(vec![0, 5]),
            U32Slab::Owned(vec![7, 0]),
            ByteSlab::Owned(b"hello".to_vec()),
        );
        assert!(bad.is_err(), "slot past the last string must be rejected");
    }

    #[test]
    fn from_parts_rejects_invalid_utf8() {
        let bad = StrTable::from_parts(
            U32Slab::Owned(vec![0, 2]),
            U32Slab::Owned(vec![0, 0]),
            ByteSlab::Owned(vec![0xFF, 0xFE]),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn aligned_buf_roundtrips_bytes() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let src: Vec<u8> = (0..n).map(|i| (i * 37 % 251) as u8).collect();
            let buf = AlignedBuf::from_bytes(&src);
            assert_eq!(buf.bytes(), &src[..]);
            assert_eq!(buf.bytes().as_ptr() as usize % 8, 0, "8-byte aligned");
        }
    }

    #[test]
    fn checksum_detects_any_single_bit_flip_in_header() {
        let mut bytes = vec![0u8; 64];
        bytes[..8].copy_from_slice(&MAGIC.to_le_bytes());
        let sum = file_checksum(&bytes);
        bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(file_checksum(&bytes), sum, "checksum field itself excluded");
        // (Bits 192..256 are the checksum field itself and excluded.)
        for bit in [0usize, 77, 300, 511] {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                file_checksum(&flipped),
                sum,
                "bit {bit} must change the sum"
            );
        }
    }
}
