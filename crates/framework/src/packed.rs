//! Packed interestingness vectors — 2 bytes per field, 18 per concept.
//!
//! §VI: "For each concept we have in the system, we first compute the
//! values for these features in the offline process, and employ a
//! normalization that would fit each field to two bytes (this causes a
//! minor decrease in granularity). So the interestingness vectors for 1
//! million concepts would cost 18MB in memory; with the use of efficient
//! data structures, such as hash tables, the vectors for the detected
//! concepts can be retrieved in constant time."
//!
//! The paper fits the quantizers once, offline. A delta publish fits
//! them again for every epoch, so [`PackedInterestStore::update`] does
//! the incremental version: the quantizers are refitted over all rows,
//! but only the rows a delta touched, the rows it appended and the
//! fields whose quantizer moved are quantized again. The result is
//! byte-identical to a full build over the same rows in the same order.

use crate::arena::{ByteSlab, StrTable};
use ctxrank_features::InterestFeatures;
use std::sync::Arc;

/// Bytes used per concept (9 fields × 2 bytes).
pub const BYTES_PER_CONCEPT: usize = InterestFeatures::DIM * 2;

/// Linear quantizer for one feature field: maps `[lo, hi]` onto
/// `0..=u16::MAX`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldQuantizer {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl FieldQuantizer {
    /// Fit to a range.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && hi >= lo);
        Self { lo, hi }
    }

    /// Fit to the observed range of an iterator of values.
    pub fn fit(values: impl IntoIterator<Item = f64>) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Self::observed(lo, hi)
    }

    /// [`Self::fit`] of every field over dense rows, in one pass: the
    /// same `min`/`max` sequence per field, so the same quantizers.
    fn fit_rows(rows: &[[f64; InterestFeatures::DIM]]) -> [Self; InterestFeatures::DIM] {
        let mut lo = [f64::INFINITY; InterestFeatures::DIM];
        let mut hi = [f64::NEG_INFINITY; InterestFeatures::DIM];
        for row in rows {
            for d in 0..InterestFeatures::DIM {
                lo[d] = lo[d].min(row[d]);
                hi[d] = hi[d].max(row[d]);
            }
        }
        std::array::from_fn(|d| Self::observed(lo[d], hi[d]))
    }

    fn observed(lo: f64, hi: f64) -> Self {
        if !lo.is_finite() {
            // No values: a degenerate quantizer.
            return Self { lo: 0.0, hi: 0.0 };
        }
        Self { lo, hi }
    }

    /// Quantize (clamping out-of-range values).
    pub fn quantize(&self, v: f64) -> u16 {
        if self.hi <= self.lo {
            return 0;
        }
        let frac = ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        (frac * u16::MAX as f64).round() as u16
    }

    /// Reconstruct the midpoint value of a quantized cell.
    pub fn dequantize(&self, q: u16) -> f64 {
        self.lo + (q as f64 / u16::MAX as f64) * (self.hi - self.lo)
    }
}

/// The packed per-concept feature store. Concept `i` (dense slot order
/// = build order) owns bytes `i*18..(i+1)*18` of `data`; the surface →
/// slot index is a [`StrTable`], so an arena-loaded store is a pure
/// view into the snapshot buffer. The table sits behind an `Arc`, so
/// successive delta epochs that admit no surface share one copy.
#[derive(Debug, Clone)]
pub struct PackedInterestStore {
    pub(crate) names: Arc<StrTable>,
    /// 18 bytes per concept, contiguous.
    pub(crate) data: ByteSlab,
    pub(crate) quantizers: [FieldQuantizer; InterestFeatures::DIM],
}

impl PackedInterestStore {
    /// Build the store from `(surface, features)` pairs. The quantizers
    /// are fitted per field over the full concept set, as the offline
    /// process would.
    pub fn build(concepts: &[(String, InterestFeatures)]) -> Self {
        Self::build_borrowed(concepts.iter().map(|(s, f)| (s.as_str(), f)))
    }

    /// [`Self::build`] over borrowed pairs: no surface is copied except
    /// into the string table, and each dense row is a flat array.
    pub(crate) fn build_borrowed<'a>(
        concepts: impl IntoIterator<Item = (&'a str, &'a InterestFeatures)>,
    ) -> Self {
        let (surfaces, rows): (Vec<&str>, Vec<[f64; InterestFeatures::DIM]>) =
            concepts.into_iter().map(|(s, f)| (s, f.to_array())).unzip();
        let quantizers: [FieldQuantizer; InterestFeatures::DIM] =
            std::array::from_fn(|d| FieldQuantizer::fit(rows.iter().map(|row| row[d])));

        let mut data = Vec::with_capacity(rows.len() * BYTES_PER_CONCEPT);
        for row in &rows {
            for (q, &v) in quantizers.iter().zip(row) {
                data.extend_from_slice(&q.quantize(v).to_le_bytes());
            }
        }
        Self {
            names: Arc::new(StrTable::build(surfaces)),
            data: ByteSlab::Owned(data),
            quantizers,
        }
    }

    /// Bring the store in line with `rows`, the dense rows of every
    /// concept in row order, after the rows in `touched` changed and
    /// the concepts `admitted` were appended as rows `self.len()..`.
    ///
    /// The result is byte-identical to [`Self::build_borrowed`] over
    /// the same rows. The quantizers are refitted over all rows, one
    /// min/max scan. A field whose quantizer moved is quantized again
    /// in every row; every other field only in the touched and appended
    /// rows, because its quantizer and the other rows' values are the
    /// same as before.
    pub(crate) fn update(
        &mut self,
        rows: &[[f64; InterestFeatures::DIM]],
        touched: &[u32],
        admitted: &[&str],
    ) {
        let first_new = self.len();
        if !admitted.is_empty() {
            Arc::make_mut(&mut self.names).extend(admitted.iter().copied());
        }
        assert_eq!(self.names.len(), rows.len(), "one row per stored concept");
        let quantizers = FieldQuantizer::fit_rows(rows);
        let moved: Vec<usize> = (0..InterestFeatures::DIM)
            .filter(|&d| quantizers[d] != self.quantizers[d])
            .collect();
        self.quantizers = quantizers;

        let data = self.data.to_mut();
        data.resize(rows.len() * BYTES_PER_CONCEPT, 0);
        let put = |cell: &mut [u8], row: &[f64; InterestFeatures::DIM], d: usize| {
            cell[d * 2..d * 2 + 2].copy_from_slice(&quantizers[d].quantize(row[d]).to_le_bytes());
        };
        if !moved.is_empty() {
            for (cell, row) in data.chunks_exact_mut(BYTES_PER_CONCEPT).zip(rows) {
                for &d in &moved {
                    put(cell, row, d);
                }
            }
        }
        let changed = touched.iter().map(|&i| i as usize);
        for i in changed.chain(first_new..rows.len()) {
            let cell = &mut data[i * BYTES_PER_CONCEPT..(i + 1) * BYTES_PER_CONCEPT];
            for d in 0..InterestFeatures::DIM {
                put(cell, &rows[i], d);
            }
        }
    }

    /// Number of concepts stored.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.names.len() == 0
    }

    /// Bytes consumed by the packed vectors (excluding the hash index).
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Reconstruct a concept's dense feature row (with quantization
    /// error), or `None` for unknown surfaces.
    pub fn dense(&self, surface: &str) -> Option<Vec<f64>> {
        let i = self.names.lookup(surface)?;
        let base = i as usize * BYTES_PER_CONCEPT;
        let row = (0..InterestFeatures::DIM)
            .map(|d| {
                let o = base + d * 2;
                let q = u16::from_le_bytes([self.data[o], self.data[o + 1]]);
                self.quantizers[d].dequantize(q)
            })
            .collect();
        Some(row)
    }

    /// The fitted quantizers.
    pub fn quantizers(&self) -> &[FieldQuantizer; InterestFeatures::DIM] {
        &self.quantizers
    }

    /// Whether `surface` has a stored feature row.
    pub fn contains(&self, surface: &str) -> bool {
        self.names.lookup(surface).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_features(seed: u64) -> InterestFeatures {
        InterestFeatures {
            freq_exact: seed * 10,
            freq_phrase_contained: seed * 15,
            unit_score: (seed as f64 * 0.1) % 1.0,
            searchengine_phrase: seed * 3,
            concept_size: (seed % 3 + 1) as u32,
            number_of_chars: (seed % 20 + 4) as u32,
            subconcepts: (seed % 2) as u32,
            high_level_type: (seed % 7) as u8,
            wiki_word_count: (seed * 100 % 5000) as u32,
        }
    }

    fn store() -> (Vec<(String, InterestFeatures)>, PackedInterestStore) {
        let concepts: Vec<(String, InterestFeatures)> = (0..50)
            .map(|i| (format!("concept {i}"), sample_features(i)))
            .collect();
        let store = PackedInterestStore::build(&concepts);
        (concepts, store)
    }

    #[test]
    fn eighteen_bytes_per_concept() {
        let (_, store) = store();
        assert_eq!(BYTES_PER_CONCEPT, 18);
        assert_eq!(store.packed_bytes(), 50 * 18);
    }

    #[test]
    fn roundtrip_is_close() {
        let (concepts, store) = store();
        for (surface, f) in &concepts {
            let original = f.to_dense();
            let packed = store.dense(surface).expect("stored concept");
            for (a, b) in original.iter().zip(&packed) {
                // "Minor decrease in granularity": relative error bounded
                // by one quantization cell.
                assert!(
                    (a - b).abs() <= 1e-3 * (1.0 + a.abs()),
                    "{surface}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn unknown_surface_none() {
        let (_, store) = store();
        assert!(store.dense("never stored").is_none());
    }

    #[test]
    fn quantizer_clamps() {
        let q = FieldQuantizer::new(0.0, 10.0);
        assert_eq!(q.quantize(-5.0), 0);
        assert_eq!(q.quantize(15.0), u16::MAX);
        assert!((q.dequantize(q.quantize(5.0)) - 5.0).abs() < 0.01);
    }

    #[test]
    fn degenerate_quantizer() {
        let q = FieldQuantizer::fit(std::iter::empty());
        assert_eq!(q.quantize(3.0), 0);
        assert_eq!(q.dequantize(0), 0.0);
        let constant = FieldQuantizer::fit([4.0, 4.0]);
        assert_eq!(constant.quantize(4.0), 0);
        assert_eq!(constant.dequantize(0), 4.0);
    }

    #[test]
    fn million_concept_extrapolation_matches_paper() {
        // 1M concepts × 18 B = 18 MB, as §VI states.
        let bytes = 1_000_000usize * BYTES_PER_CONCEPT;
        assert_eq!(bytes, 18_000_000);
    }
}
