//! Property-based tests for the feature space.

use ctxrank_features::{
    FeatureExtractor, InterestFeatures, RelevanceModelBuilder, RelevantTerms, SenseConfig,
};
use ctxrank_index::IndexBuilder;
use ctxrank_querylog::{extract_units, QueryLog, UnitConfig};
use proptest::prelude::*;
use std::collections::HashSet;

fn docs_to_index(docs: &[Vec<String>]) -> ctxrank_index::Index {
    let mut b = IndexBuilder::new();
    for d in docs {
        b.add_document(&d.join(" "));
    }
    b.build()
}

proptest! {
    /// Interestingness extraction is total and internally consistent for
    /// arbitrary logs, corpora and concepts.
    #[test]
    fn interestingness_consistent(
        queries in prop::collection::vec((prop::collection::vec("[a-c]{1,3}", 1..4), 1u64..40), 0..25),
        docs in prop::collection::vec(prop::collection::vec("[a-c]{1,3}", 1..20), 1..15),
        concept in prop::collection::vec("[a-c]{1,3}", 1..4),
    ) {
        let mut log = QueryLog::new();
        for (terms, freq) in &queries {
            log.add_terms(terms.clone(), *freq);
        }
        let units = extract_units(&log, &UnitConfig::default());
        let index = docs_to_index(&docs);
        let fx = FeatureExtractor::new(&log, &units, &index, |_| 7, |_| 2);
        let f = fx.interestingness(&concept);
        prop_assert!(f.freq_phrase_contained >= f.freq_exact);
        prop_assert_eq!(f.concept_size as usize, concept.len());
        prop_assert_eq!(f.number_of_chars as usize, concept.join(" ").chars().count());
        prop_assert!((0.0..=1.0).contains(&f.unit_score));
        let dense = f.to_dense();
        prop_assert_eq!(dense.len(), InterestFeatures::DIM);
        prop_assert!(dense.iter().all(|v| v.is_finite()));
    }

    /// `to_dense` and its array twin are one formula: bit-identical on
    /// arbitrary feature values.
    #[test]
    fn to_dense_equals_to_array(
        counts in (any::<u64>(), any::<u64>(), any::<u64>()),
        unit_score in -1e12f64..1e12,
        shape in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u8>(), any::<u32>()),
    ) {
        let f = InterestFeatures {
            freq_exact: counts.0,
            freq_phrase_contained: counts.1,
            unit_score,
            searchengine_phrase: counts.2,
            concept_size: shape.0,
            number_of_chars: shape.1,
            subconcepts: shape.2,
            high_level_type: shape.3,
            wiki_word_count: shape.4,
        };
        let dense: Vec<u64> = f.to_dense().iter().map(|v| v.to_bits()).collect();
        let array: Vec<u64> = f.to_array().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(dense, array);
    }

    /// The context score of mined keywords is monotone in the context:
    /// adding terms never lowers it, and it never exceeds the summation.
    #[test]
    fn relevance_score_monotone(
        keywords in prop::collection::vec(("[a-f]{2,5}", 0.1f64..10.0), 1..30),
        subset_pick in prop::collection::vec(any::<bool>(), 1..30),
    ) {
        let mut seen = HashSet::new();
        let kws: Vec<(String, f64)> = keywords
            .into_iter()
            .filter(|(t, _)| seen.insert(t.clone()))
            .collect();
        let rt = RelevantTerms { terms: kws.clone() };
        let small: HashSet<String> = kws
            .iter()
            .zip(subset_pick.iter().cycle())
            .filter(|(_, &p)| p)
            .map(|((t, _), _)| t.clone())
            .collect();
        let mut large = small.clone();
        large.extend(kws.iter().map(|(t, _)| t.clone()));
        let s_small = rt.score_context(&small);
        let s_large = rt.score_context(&large);
        prop_assert!(s_small <= s_large + 1e-12);
        prop_assert!(s_large <= rt.summation() + 1e-12);
        prop_assert!(s_small >= 0.0);
    }

    /// Sense clustering is total: any corpus/concept yields clusters
    /// whose supports sum to at most the snippet count and whose scores
    /// are finite.
    #[test]
    fn senses_total(
        docs in prop::collection::vec(prop::collection::vec("[a-d]{1,4}", 3..15), 1..12),
        concept in "[a-d]{1,4}",
    ) {
        let index = docs_to_index(&docs);
        let log = QueryLog::new();
        let builder = RelevanceModelBuilder::new(&index, &log);
        let senses =
            builder.mine_snippet_senses(std::slice::from_ref(&concept), &SenseConfig::default());
        let snippet_count = index.phrase_snippets(&[concept], 100, 12).len();
        let support_sum: usize = senses.support.iter().sum();
        prop_assert!(support_sum <= snippet_count);
        for s in &senses.senses {
            for (_, w) in &s.terms {
                prop_assert!(w.is_finite() && *w >= 0.0);
            }
        }
    }

    /// Compiled (interned) relevance scoring is bit-identical to the
    /// legacy String-keyed path: same models, arbitrary contexts, every
    /// mining resource, both known and unknown surfaces.
    #[test]
    fn compiled_relevance_matches_string_path(
        queries in prop::collection::vec((prop::collection::vec("[a-c]{1,3}", 1..4), 1u64..40), 0..25),
        docs in prop::collection::vec(prop::collection::vec("[a-c]{1,3}", 1..20), 1..12),
        concepts in prop::collection::vec(prop::collection::vec("[a-c]{1,3}", 1..3), 1..6),
        context_words in prop::collection::vec("[a-c]{1,4}", 0..30),
    ) {
        let index = docs_to_index(&docs);
        let mut log = QueryLog::new();
        for (terms, freq) in &queries {
            log.add_terms(terms.clone(), *freq);
        }
        let builder = RelevanceModelBuilder::new(&index, &log);
        let text = context_words.join(" ");
        let legacy_ctx = ctxrank_features::RelevanceModel::context_of(&text);
        for resource in ctxrank_features::MiningResource::ALL {
            let model = builder.build(concepts.iter().cloned(), resource);
            let compiled = model.compile();
            let compiled_ctx = compiled.context_of(&text);
            let mut surfaces: Vec<String> =
                concepts.iter().map(|c| c.join(" ")).collect();
            surfaces.push("surface never mined".to_string());
            for surface in &surfaces {
                let legacy = model.score(surface, &legacy_ctx);
                let interned = compiled.score(surface, &compiled_ctx);
                prop_assert_eq!(
                    legacy.to_bits(),
                    interned.to_bits(),
                    "resource {:?} surface {:?}: {} vs {}",
                    resource, surface, legacy, interned
                );
                prop_assert_eq!(
                    model.score_feature(surface, &legacy_ctx).to_bits(),
                    compiled.score_feature(surface, &compiled_ctx).to_bits()
                );
            }
        }
    }
}
