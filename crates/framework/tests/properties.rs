//! Property-based tests for the packed production stores.

use ctxrank_features::InterestFeatures;
use ctxrank_framework::{
    golomb_decode, golomb_encode, optimal_rice_parameter, FieldQuantizer, GlobalTidTable,
    OnlineConfig, OnlineCtrAdjuster, PackedInterestStore, PackedRelevanceStore, PropensityTable,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// Golomb/Rice coding round-trips any strictly increasing id list at
    /// any reasonable parameter.
    #[test]
    fn golomb_roundtrip(ids in prop::collection::btree_set(0u32..4_194_303, 0..200),
                        k in 0u32..16) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let enc = golomb_encode(&ids, k);
        prop_assert_eq!(golomb_decode(&enc), ids);
    }

    /// The optimal parameter never loses to a naive fixed choice by much:
    /// decode still round-trips and size is bounded by the raw encoding.
    #[test]
    fn golomb_optimal_parameter_sane(ids in prop::collection::btree_set(0u32..100_000, 1..300)) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let k = optimal_rice_parameter(&ids);
        let enc = golomb_encode(&ids, k);
        prop_assert_eq!(golomb_decode(&enc), ids.clone());
        // Never absurdly larger than 4 bytes/id raw.
        prop_assert!(enc.byte_len() <= ids.len() * 8 + 16);
    }

    /// Quantize/dequantize error is bounded by one cell.
    #[test]
    fn quantizer_error_bounded(lo in -1e6f64..1e6, span in 0.001f64..1e6, v in 0.0f64..1.0) {
        let hi = lo + span;
        let q = FieldQuantizer::new(lo, hi);
        let x = lo + v * span;
        let cell = span / u16::MAX as f64;
        let back = q.dequantize(q.quantize(x));
        prop_assert!((back - x).abs() <= cell + 1e-9, "err {} > cell {}", (back - x).abs(), cell);
    }

    /// The TID table is a bijection over interned terms.
    #[test]
    fn tid_table_bijection(terms in prop::collection::btree_set("[a-z]{1,12}", 0..200)) {
        let mut table = GlobalTidTable::new();
        let terms: Vec<String> = terms.into_iter().collect();
        let ids: Vec<_> = terms.iter().map(|t| table.intern(t)).collect();
        let distinct: BTreeSet<_> = ids.iter().map(|i| i.0).collect();
        prop_assert_eq!(distinct.len(), terms.len());
        for (t, id) in terms.iter().zip(&ids) {
            prop_assert_eq!(table.get(t), Some(*id));
            prop_assert_eq!(table.term(*id), Some(t.as_str()));
        }
    }

    /// Packed interest round-trips every field within quantization
    /// tolerance (relative to the fitted range).
    #[test]
    fn packed_interest_roundtrip(
        rows in prop::collection::vec(
            (0u64..100_000, 0u64..100_000, 0.0f64..1.0, 0u64..10_000,
             1u32..4, 2u32..40, 0u32..5, 0u8..7, 0u32..10_000),
            1..40)
    ) {
        let concepts: Vec<(String, ctxrank_features::InterestFeatures)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (format!("c{i}"), ctxrank_features::InterestFeatures {
                    freq_exact: r.0,
                    freq_phrase_contained: r.1,
                    unit_score: r.2,
                    searchengine_phrase: r.3,
                    concept_size: r.4,
                    number_of_chars: r.5,
                    subconcepts: r.6,
                    high_level_type: r.7,
                    wiki_word_count: r.8,
                })
            })
            .collect();
        let store = PackedInterestStore::build(&concepts);
        for (surface, f) in &concepts {
            let packed = store.dense(surface).expect("stored");
            for (a, b) in f.to_dense().iter().zip(&packed) {
                // One u16 cell of the fitted range; ranges here are at
                // most ~ln(1e5) ≈ 11.5, so tolerance is generous.
                prop_assert!((a - b).abs() < 0.01, "{} vs {}", a, b);
            }
        }
    }

    /// The store's build gives the same quantizers and dequantized rows,
    /// bit for bit, as the reference owned build (one `to_dense` vector
    /// per row, quantizers fitted over those vectors).
    #[test]
    fn packed_interest_build_matches_owned_reference(
        rows in prop::collection::vec(
            (any::<u64>(), 0u64..100_000, -1e6f64..1e6, any::<u64>(),
             any::<u32>(), 2u32..40, any::<u32>(), any::<u8>(), any::<u32>()),
            0..40)
    ) {
        let concepts: Vec<(String, InterestFeatures)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (format!("c{i}"), InterestFeatures {
                    freq_exact: r.0,
                    freq_phrase_contained: r.1,
                    unit_score: r.2,
                    searchengine_phrase: r.3,
                    concept_size: r.4,
                    number_of_chars: r.5,
                    subconcepts: r.6,
                    high_level_type: r.7,
                    wiki_word_count: r.8,
                })
            })
            .collect();
        let store = PackedInterestStore::build(&concepts);

        let dense: Vec<Vec<f64>> = concepts.iter().map(|(_, f)| f.to_dense()).collect();
        let quantizers: [FieldQuantizer; InterestFeatures::DIM] =
            std::array::from_fn(|d| FieldQuantizer::fit(dense.iter().map(|row| row[d])));
        prop_assert_eq!(store.quantizers(), &quantizers);
        for ((surface, _), row) in concepts.iter().zip(&dense) {
            let expected: Vec<u64> = row
                .iter()
                .zip(&quantizers)
                .map(|(&v, q)| q.dequantize(q.quantize(v)).to_bits())
                .collect();
            let got: Vec<u64> = store
                .dense(surface)
                .expect("stored")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(got, expected, "{}", surface);
        }
    }

    /// The packed relevance score equals the reference (float) scoring
    /// within quantization error.
    #[test]
    fn packed_relevance_matches_reference(
        keywords in prop::collection::vec(("[a-z]{2,8}", 0.01f64..50.0), 1..60),
        context_pick in prop::collection::vec(any::<bool>(), 1..60)
    ) {
        // Dedup keyword terms, keep first score.
        let mut seen = std::collections::HashSet::new();
        let kws: Vec<(String, f64)> = keywords
            .into_iter()
            .filter(|(t, _)| seen.insert(t.clone()))
            .collect();
        let rt = ctxrank_features::RelevantTerms { terms: kws.clone() };
        let mut tids = GlobalTidTable::new();
        let store = PackedRelevanceStore::build(vec![("c", &rt)], &mut tids);

        // A context containing a subset of the keywords.
        let chosen: Vec<&(String, f64)> = kws
            .iter()
            .zip(context_pick.iter().cycle())
            .filter(|(_, &pick)| pick)
            .map(|(kw, _)| kw)
            .collect();
        let context = tids.context_tids(chosen.iter().map(|(t, _)| t.as_str()));
        let reference: f64 = chosen.iter().map(|(_, s)| *s).sum();
        let packed = store.score("c", &context);
        let tolerance = kws.len() as f64 * store.score_scale() / 1023.0 + 1e-9;
        prop_assert!(
            (packed - reference).abs() <= tolerance,
            "packed {} vs reference {} (tol {})", packed, reference, tolerance
        );
    }

    /// With an all-ones propensity table the IPW adjuster is
    /// byte-identical to the naive one on any feedback sequence —
    /// including its serialized form (the table never leaks into
    /// online.json).
    #[test]
    fn ipw_adjuster_with_unit_propensities_matches_naive(
        batches in prop::collection::vec(
            (0usize..6, 0usize..12, 0u64..2_000, 0u64..2_000), 0..80),
        table_ranks in 0usize..16
    ) {
        let surfaces = ["a", "b", "c", "d", "e", "f"];
        let mut naive = OnlineCtrAdjuster::new(OnlineConfig::default());
        let mut ipw = OnlineCtrAdjuster::new(OnlineConfig::default());
        ipw.set_propensities(PropensityTable::uniform(table_ranks));
        for &(s, rank, views, raw_clicks) in &batches {
            let surface = surfaces[s];
            let clicks = raw_clicks.min(views);
            naive.record(surface, views, clicks);
            ipw.record_ranked(surface, rank, views, clicks);
        }
        for surface in surfaces {
            prop_assert_eq!(naive.estimates(surface), ipw.estimates(surface));
            prop_assert_eq!(
                naive.adjustment(surface).to_bits(),
                ipw.adjustment(surface).to_bits()
            );
            prop_assert_eq!(naive.ctr_estimate(surface), ipw.ctr_estimate(surface));
        }
        prop_assert_eq!(
            serde_json::to_string(&naive).expect("ser"),
            serde_json::to_string(&ipw).expect("ser")
        );
    }
}
