//! Golomb-compressed relevance store — §VI's "even further reduced".
//!
//! The packed store ([`crate::relstore`]) spends 32 bits per
//! `(TID, score)` pair. The paper notes the cost "can be even further
//! reduced through: 1) exploiting the fact that many TIDs are shared by
//! related concepts, 2) using integer compression techniques, such as
//! Golomb Coding". This module is that store: per concept, the sorted
//! TID list is delta-encoded with Golomb/Rice coding and the 10-bit
//! quantized scores are bit-packed alongside. Scoring decodes on read —
//! trading CPU for memory, the classic inverted-index compromise. The
//! `reproduce framework_memory` entry measures the memory side of the
//! trade; no instrument times the decode side.

use crate::golomb::{golomb_decode, golomb_encode, optimal_rice_parameter, GolombEncoded};
use crate::relstore::{MAX_KEYWORDS, MAX_QSCORE};
use crate::tid::{GlobalTidTable, TermId};
use ctxrank_features::RelevantTerms;
use std::collections::{HashMap, HashSet};

/// One concept's compressed keyword block.
#[derive(Debug, Clone)]
struct Block {
    tids: GolombEncoded,
    /// Bit-packed 10-bit quantized scores, in TID order.
    scores: Vec<u8>,
}

/// The compressed per-concept relevance keyword store.
#[derive(Debug, Clone, Default)]
pub struct CompressedRelevanceStore {
    blocks: HashMap<String, Block>,
    score_scale: f64,
}

impl CompressedRelevanceStore {
    /// Build from mined keyword sets, interning terms into `tids`.
    /// Mirrors [`crate::relstore::PackedRelevanceStore::build`] so the
    /// two stores are drop-in comparable.
    ///
    /// Concepts are interned in surface order, whatever order they come
    /// in, so term ids (and with them the Golomb gaps and
    /// [`Self::compressed_bytes`]) do not depend on the caller's
    /// iteration order, e.g. a `HashMap`'s.
    pub fn build<'a>(
        concepts: impl IntoIterator<Item = (&'a str, &'a RelevantTerms)>,
        tids: &mut GlobalTidTable,
    ) -> Self {
        let mut concepts: Vec<(&str, &RelevantTerms)> = concepts.into_iter().collect();
        // Stable, so a repeated surface keeps last-wins semantics.
        concepts.sort_by(|a, b| a.0.cmp(b.0));
        let score_scale = concepts
            .iter()
            .flat_map(|(_, rt)| rt.terms.iter().map(|(_, s)| *s))
            .fold(0.0_f64, f64::max)
            .max(1e-12);

        let mut blocks = HashMap::with_capacity(concepts.len());
        for (surface, rt) in concepts {
            // Quantize, intern, sort by TID, dedup (a term appears once).
            let mut pairs: Vec<(u32, u16)> = rt
                .terms
                .iter()
                .take(MAX_KEYWORDS)
                .map(|(term, score)| {
                    let tid = tids.intern(term);
                    let q = ((score / score_scale) * MAX_QSCORE as f64)
                        .round()
                        .clamp(0.0, MAX_QSCORE as f64) as u16;
                    (tid.0, q)
                })
                .collect();
            pairs.sort_unstable();
            pairs.dedup_by_key(|p| p.0);
            let tid_list: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            let k = optimal_rice_parameter(&tid_list);
            let encoded = golomb_encode(&tid_list, k);
            blocks.insert(
                surface.to_string(),
                Block {
                    tids: encoded,
                    scores: pack_scores(pairs.iter().map(|p| p.1)),
                },
            );
        }
        Self {
            blocks,
            score_scale,
        }
    }

    /// Number of concepts stored.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Bytes of compressed keyword data (TIDs + scores, excluding the
    /// hash index).
    pub fn compressed_bytes(&self) -> usize {
        self.blocks
            .values()
            .map(|b| b.tids.byte_len() + b.scores.len())
            .sum()
    }

    /// Decode the concept's keywords as `(TermId, raw score)`.
    pub fn keywords(&self, surface: &str) -> Option<Vec<(TermId, f64)>> {
        let block = self.blocks.get(surface)?;
        let tids = golomb_decode(&block.tids);
        Some(
            tids.into_iter()
                .enumerate()
                .map(|(i, tid)| {
                    let q = unpack_score(&block.scores, i);
                    (TermId(tid), q as f64 / MAX_QSCORE as f64 * self.score_scale)
                })
                .collect(),
        )
    }

    /// Runtime relevance score: decode-on-read sum of matched keywords.
    pub fn score(&self, surface: &str, context: &HashSet<TermId>) -> f64 {
        match self.keywords(surface) {
            None => 0.0,
            Some(kws) => kws
                .into_iter()
                .filter(|(tid, _)| context.contains(tid))
                .map(|(_, s)| s)
                .sum(),
        }
    }

    /// The global score scale (shared semantics with the packed store).
    pub fn score_scale(&self) -> f64 {
        self.score_scale
    }
}

/// Pack 10-bit scores contiguously.
fn pack_scores(scores: impl Iterator<Item = u16>) -> Vec<u8> {
    let mut out = Vec::new();
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    for s in scores {
        acc = (acc << 10) | (s as u32 & 0x3FF);
        bits += 10;
        while bits >= 8 {
            bits -= 8;
            out.push(((acc >> bits) & 0xFF) as u8);
        }
    }
    if bits > 0 {
        out.push(((acc << (8 - bits)) & 0xFF) as u8);
    }
    out
}

/// Read the `i`-th 10-bit score.
fn unpack_score(packed: &[u8], i: usize) -> u16 {
    let bit = i * 10;
    let mut v: u32 = 0;
    for b in 0..10 {
        let pos = bit + b;
        let byte = packed[pos / 8];
        let bitval = (byte >> (7 - pos % 8)) & 1;
        v = (v << 1) | bitval as u32;
    }
    v as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relstore::PackedRelevanceStore;

    fn rt(pairs: &[(&str, f64)]) -> RelevantTerms {
        RelevantTerms {
            terms: pairs.iter().map(|(t, s)| (t.to_string(), *s)).collect(),
        }
    }

    fn stores() -> (
        CompressedRelevanceStore,
        PackedRelevanceStore,
        GlobalTidTable,
    ) {
        let sets: Vec<(String, RelevantTerms)> = (0..15)
            .map(|i| {
                (
                    format!("c{i:02}"),
                    RelevantTerms {
                        terms: (0..40)
                            .map(|j| (format!("kw{}", (i * 3 + j) % 90), 0.5 + j as f64))
                            .collect(),
                    },
                )
            })
            .collect();
        let mut tids1 = GlobalTidTable::new();
        let compressed =
            CompressedRelevanceStore::build(sets.iter().map(|(s, r)| (s.as_str(), r)), &mut tids1);
        let mut tids2 = GlobalTidTable::new();
        let packed =
            PackedRelevanceStore::build(sets.iter().map(|(s, r)| (s.as_str(), r)), &mut tids2);
        // The input is in surface order, so both builds intern the same
        // terms in the same order.
        (compressed, packed, tids1)
    }

    #[test]
    fn pack_unpack_scores_roundtrip() {
        let scores: Vec<u16> = vec![0, 1, 511, 1023, 777, 3, 1000];
        let packed = pack_scores(scores.iter().copied());
        for (i, &s) in scores.iter().enumerate() {
            assert_eq!(unpack_score(&packed, i), s, "index {i}");
        }
    }

    #[test]
    fn agrees_with_packed_store() {
        let (compressed, packed, tids) = stores();
        let ctx = tids.context_tids(["kw0", "kw7", "kw33", "kw88", "missing"]);
        for i in 0..15 {
            let surface = format!("c{i:02}");
            let a = compressed.score(&surface, &ctx);
            let b = packed.score(&surface, &ctx);
            assert!((a - b).abs() < 1e-9, "{surface}: {a} vs {b}");
        }
    }

    #[test]
    fn compression_actually_saves() {
        let (compressed, packed, _) = stores();
        assert!(
            compressed.compressed_bytes() < packed.packed_bytes(),
            "compressed {} >= packed {}",
            compressed.compressed_bytes(),
            packed.packed_bytes()
        );
    }

    #[test]
    fn keyword_decoding_roundtrips() {
        let mut tids = GlobalTidTable::new();
        let set = rt(&[("alpha", 3.0), ("beta", 7.0), ("gamma", 1.0)]);
        let store = CompressedRelevanceStore::build(vec![("c", &set)], &mut tids);
        let kws = store.keywords("c").expect("stored");
        assert_eq!(kws.len(), 3);
        let max = kws.iter().map(|(_, s)| *s).fold(0.0_f64, f64::max);
        assert!((max - 7.0).abs() < 0.01);
    }

    #[test]
    fn size_does_not_depend_on_input_order() {
        let sets: Vec<(String, RelevantTerms)> = (0..30)
            .map(|i| {
                let terms: Vec<(String, f64)> = (0..12)
                    .map(|j| (format!("kw{}", (i * 7 + j * 13) % 200), 1.0 + j as f64))
                    .collect();
                (format!("c{i}"), RelevantTerms { terms })
            })
            .collect();
        let build = |order: &mut dyn Iterator<Item = &(String, RelevantTerms)>| {
            let mut tids = GlobalTidTable::new();
            CompressedRelevanceStore::build(order.map(|(s, r)| (s.as_str(), r)), &mut tids)
        };
        let forward = build(&mut sets.iter());
        let reversed = build(&mut sets.iter().rev());
        let interleaved = build(&mut sets.iter().step_by(2).chain(sets.iter().skip(1).step_by(2)));
        assert_eq!(forward.compressed_bytes(), reversed.compressed_bytes());
        assert_eq!(forward.compressed_bytes(), interleaved.compressed_bytes());
    }

    #[test]
    fn unknown_and_empty() {
        let mut tids = GlobalTidTable::new();
        let store = CompressedRelevanceStore::build(Vec::new(), &mut tids);
        assert!(store.is_empty());
        assert_eq!(store.score("x", &HashSet::new()), 0.0);
        assert!(store.keywords("x").is_none());
    }
}
