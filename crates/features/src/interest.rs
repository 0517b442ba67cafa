//! The nine interestingness features of Table I.
//!
//! | # | feature | source |
//! |---|---------|--------|
//! | 1 | `freq_exact` | query log: submissions exactly equal to the concept |
//! | 2 | `freq_phrase_contained` | query log: submissions containing the concept as a phrase |
//! | 3 | `unit_score` | mutual information of the concept's terms (§II-B) |
//! | 4 | `searchengine_phrase` | number of results for the concept as a phrase query |
//! | 5 | `concept_size` | number of terms |
//! | 6 | `number_of_chars` | number of characters |
//! | 7 | `subconcepts` | sub-units with ≥ 2 terms and unit score > 0.25 |
//! | 8 | `high_level_type` | taxonomy major type, when the concept is a dictionary entity |
//! | 9 | `wiki_word_count` | Wikipedia article length in words (0 if none) |
//!
//! Counts are kept raw here; [`InterestFeatures::to_dense`] applies the
//! `ln(1 + x)` compression customary for heavy-tailed count features so
//! the linear ranker is not dominated by the tails.

use ctxrank_index::Index;
use ctxrank_querylog::{QueryLog, UnitDictionary};
use ctxrank_text::{Interner, TermId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::RwLock;

/// Threshold used by feature 7: sub-units must have a unit score above
/// this (from the paper: "a unit score of larger than 0.25").
pub const SUBCONCEPT_MIN_SCORE: f64 = 0.25;

/// Raw interestingness features for one concept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct InterestFeatures {
    pub freq_exact: u64,
    pub freq_phrase_contained: u64,
    pub unit_score: f64,
    pub searchengine_phrase: u64,
    pub concept_size: u32,
    pub number_of_chars: u32,
    pub subconcepts: u32,
    /// Taxonomy code (0 = not a dictionary entity).
    pub high_level_type: u8,
    pub wiki_word_count: u32,
}

impl InterestFeatures {
    /// Dimensionality of the dense representation.
    pub const DIM: usize = 9;

    /// Dense vector with `ln(1+x)` on count-like fields.
    pub fn to_dense(&self) -> Vec<f64> {
        self.to_array().to_vec()
    }

    /// [`Self::to_dense`] as a fixed-size array, for callers that keep
    /// many rows and should not allocate one `Vec` per row.
    pub fn to_array(&self) -> [f64; Self::DIM] {
        [
            (self.freq_exact as f64).ln_1p(),
            (self.freq_phrase_contained as f64).ln_1p(),
            self.unit_score,
            (self.searchengine_phrase as f64).ln_1p(),
            self.concept_size as f64,
            self.number_of_chars as f64,
            self.subconcepts as f64,
            self.high_level_type as f64,
            (self.wiki_word_count as f64).ln_1p(),
        ]
    }

    /// Names of the dense dimensions, aligned with [`Self::to_dense`].
    pub fn names() -> [&'static str; Self::DIM] {
        [
            "freq_exact",
            "freq_phrase_contained",
            "unit_score",
            "searchengine_phrase",
            "concept_size",
            "number_of_chars",
            "subconcepts",
            "high_level_type",
            "wiki_word_count",
        ]
    }

    /// The feature-group of each dense dimension, for the Table III
    /// leave-one-group-out ablation.
    pub fn groups() -> [&'static str; Self::DIM] {
        [
            "query_logs",
            "query_logs",
            "query_logs",
            "search_results",
            "text_based",
            "text_based",
            "text_based",
            "taxonomy",
            "other",
        ]
    }
}

/// Pulls the Table I features from the knowledge sources.
///
/// The Wikipedia and taxonomy lookups are injected as closures so this
/// crate stays decoupled from whichever store provides them (the
/// synthetic encyclopedia in the experiments, a real dump in production).
/// Injected lookup: concept terms → Wikipedia article word count.
pub type WikiLookup<'a> = Box<dyn Fn(&[String]) -> u32 + Sync + 'a>;
/// Injected lookup: concept terms → taxonomy major-type code (0 = none).
pub type TypeLookup<'a> = Box<dyn Fn(&[String]) -> u8 + Sync + 'a>;

/// Memo table for [`FeatureExtractor::interestingness`], keyed by interned
/// term-id sequences so repeated candidates (the same concept re-annotated
/// across documents) hash a handful of `u32`s instead of re-joining and
/// re-probing every knowledge source.
#[derive(Default)]
struct InterestCache {
    interner: Interner,
    map: HashMap<Box<[TermId]>, InterestFeatures>,
}

pub struct FeatureExtractor<'a> {
    log: &'a QueryLog,
    units: &'a UnitDictionary,
    corpus: &'a Index,
    wiki_word_count: WikiLookup<'a>,
    entity_type_code: TypeLookup<'a>,
    /// Features are pure functions of the concept terms, so concurrent
    /// threads may race to insert the same key — both compute identical
    /// values and the result is deterministic.
    cache: RwLock<InterestCache>,
}

impl<'a> std::fmt::Debug for FeatureExtractor<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureExtractor").finish_non_exhaustive()
    }
}

impl<'a> FeatureExtractor<'a> {
    /// Assemble an extractor.
    pub fn new(
        log: &'a QueryLog,
        units: &'a UnitDictionary,
        corpus: &'a Index,
        wiki_word_count: impl Fn(&[String]) -> u32 + Sync + 'a,
        entity_type_code: impl Fn(&[String]) -> u8 + Sync + 'a,
    ) -> Self {
        Self {
            log,
            units,
            corpus,
            wiki_word_count: Box::new(wiki_word_count),
            entity_type_code: Box::new(entity_type_code),
            cache: RwLock::new(InterestCache::default()),
        }
    }

    /// Compute all nine features for `concept_terms`, memoized per term
    /// sequence.
    pub fn interestingness(&self, concept_terms: &[String]) -> InterestFeatures {
        {
            let cache = self.cache.read().expect("interest cache poisoned");
            if let Some(ids) = cache.interner.ids_of(concept_terms) {
                if let Some(&hit) = cache.map.get(ids.as_slice()) {
                    return hit;
                }
            }
        }
        let features = self.compute(concept_terms);
        let mut cache = self.cache.write().expect("interest cache poisoned");
        let ids: Box<[TermId]> = concept_terms
            .iter()
            .map(|t| cache.interner.intern(t))
            .collect();
        cache.map.insert(ids, features);
        features
    }

    /// The uncached feature computation.
    fn compute(&self, concept_terms: &[String]) -> InterestFeatures {
        let surface = concept_terms.join(" ");
        InterestFeatures {
            freq_exact: self.log.freq_exact(concept_terms),
            freq_phrase_contained: self.log.freq_phrase_contained(concept_terms),
            // Table I defines unit_score as the mutual information of the
            // concept's terms; MI is undefined for single terms, so those
            // get 0 (their popularity is carried by the freq features).
            unit_score: if concept_terms.len() > 1 {
                self.units.score(concept_terms)
            } else {
                0.0
            },
            searchengine_phrase: self.corpus.phrase_count(concept_terms) as u64,
            concept_size: concept_terms.len() as u32,
            number_of_chars: surface.chars().count() as u32,
            subconcepts: self
                .units
                .subunits_of(concept_terms, 2, SUBCONCEPT_MIN_SCORE)
                as u32,
            high_level_type: (self.entity_type_code)(concept_terms),
            wiki_word_count: (self.wiki_word_count)(concept_terms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxrank_index::IndexBuilder;
    use ctxrank_querylog::{extract_units, UnitConfig};

    fn t(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn setup() -> (QueryLog, UnitDictionary, Index) {
        let mut log = QueryLog::new();
        log.add("global warming", 120);
        log.add("global warming effects", 50);
        log.add("warming", 10);
        for i in 0..40 {
            log.add(&format!("filler term{i}"), 10);
        }
        let units = extract_units(&log, &UnitConfig::default());
        let mut b = IndexBuilder::new();
        b.add_document("report on global warming trends");
        b.add_document("global warming accelerates");
        b.add_document("unrelated sports news");
        (log, units, b.build())
    }

    #[test]
    fn all_nine_features_populated() {
        let (log, units, corpus) = setup();
        let fx = FeatureExtractor::new(&log, &units, &corpus, |_| 842, |_| 4);
        let f = fx.interestingness(&t("global warming"));
        assert_eq!(f.freq_exact, 120);
        assert_eq!(f.freq_phrase_contained, 170);
        assert!(f.unit_score > 0.0);
        assert_eq!(f.searchengine_phrase, 2);
        assert_eq!(f.concept_size, 2);
        assert_eq!(f.number_of_chars, "global warming".len() as u32);
        assert_eq!(f.high_level_type, 4);
        assert_eq!(f.wiki_word_count, 842);
    }

    #[test]
    fn unknown_concept_zeroes() {
        let (log, units, corpus) = setup();
        let fx = FeatureExtractor::new(&log, &units, &corpus, |_| 0, |_| 0);
        let f = fx.interestingness(&t("nonexistent thing"));
        assert_eq!(f.freq_exact, 0);
        assert_eq!(f.freq_phrase_contained, 0);
        assert_eq!(f.unit_score, 0.0);
        assert_eq!(f.searchengine_phrase, 0);
        assert_eq!(f.wiki_word_count, 0);
        assert_eq!(f.high_level_type, 0);
    }

    #[test]
    fn dense_applies_log_compression() {
        let f = InterestFeatures {
            freq_exact: 1000,
            ..InterestFeatures::default()
        };
        let d = f.to_dense();
        assert!((d[0] - 1001f64.ln()).abs() < 1e-9);
        assert_eq!(d.len(), InterestFeatures::DIM);
    }

    #[test]
    fn names_and_groups_aligned() {
        assert_eq!(InterestFeatures::names().len(), InterestFeatures::DIM);
        assert_eq!(InterestFeatures::groups().len(), InterestFeatures::DIM);
        // Table III groups: query logs has 3 members, text-based 3.
        let groups = InterestFeatures::groups();
        assert_eq!(groups.iter().filter(|g| **g == "query_logs").count(), 3);
        assert_eq!(groups.iter().filter(|g| **g == "text_based").count(), 3);
        assert_eq!(groups.iter().filter(|g| **g == "taxonomy").count(), 1);
        assert_eq!(groups.iter().filter(|g| **g == "search_results").count(), 1);
        assert_eq!(groups.iter().filter(|g| **g == "other").count(), 1);
    }

    #[test]
    fn memoized_lookup_returns_identical_features() {
        let (log, units, corpus) = setup();
        use std::sync::atomic::{AtomicU32, Ordering};
        let wiki_calls = AtomicU32::new(0);
        let fx = FeatureExtractor::new(
            &log,
            &units,
            &corpus,
            |_| {
                wiki_calls.fetch_add(1, Ordering::Relaxed);
                842
            },
            |_| 4,
        );
        let first = fx.interestingness(&t("global warming"));
        let second = fx.interestingness(&t("global warming"));
        assert_eq!(first, second);
        // The second call is served from the cache: the injected lookup
        // runs once.
        assert_eq!(wiki_calls.load(Ordering::Relaxed), 1);
        // Different concepts are distinct keys.
        let other = fx.interestingness(&t("warming"));
        assert_ne!(first.concept_size, 0);
        assert_eq!(other.concept_size, 1);
        assert_eq!(wiki_calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn char_count_is_chars_not_bytes() {
        let f = InterestFeatures {
            number_of_chars: "caf\u{e9}".chars().count() as u32,
            ..InterestFeatures::default()
        };
        assert_eq!(f.number_of_chars, 4);
    }
}
