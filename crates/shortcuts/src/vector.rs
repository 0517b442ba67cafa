//! Concept-vector generation (§II-B) — the baseline ranking.
//!
//! Given a document:
//!
//! 1. build a **term vector** of tf·idf scores over a term dictionary
//!    (stop-words removed), normalize weights into `[0, 1]`, punish
//!    weights under a threshold, drop the lowest;
//! 2. build a **unit vector** of all query-log units found in the
//!    document, normalized/punished/pruned the same way;
//! 3. **merge**: a term only in the term vector is added with a punished
//!    weight (it "did not appear as a popular query"); a unit only in the
//!    unit vector keeps its unit weight; a term in both gets the sum;
//! 4. for every **multi-term concept**, add the unit- and term-vector
//!    scores of each constituent term — "this way more specific concepts
//!    eventually bubble up in the overall rank". The maximum possible
//!    final weight is `2 × number of terms`.
//!
//! The resulting score is what the production Contextual Shortcuts used
//! to rank annotations, and is the baseline every experiment in §V
//! compares against (weighted error rate 30.22%).
//!
//! The builder reads one document's [`Projection`] and keeps only
//! per-document state: a dense slot per distinct non-stop term, found by
//! an FNV table on the borrowed token, and the weights of the units that
//! matched, sorted by unit. It allocates a `String` only per output.

use crate::conceptdet::{ConceptDetector, Projection};
use ctxrank_querylog::UnitDictionary;
use ctxrank_text::{FnvBuildHasher, TermId};
use std::collections::HashMap;

/// Thresholds for the §II-B merge.
#[derive(Debug, Clone)]
pub struct ConceptVectorConfig {
    /// Term-vector weights below this are punished...
    pub term_punish_threshold: f64,
    /// ...by multiplying with this factor.
    pub term_punish_factor: f64,
    /// Term-vector weights below this are removed.
    pub term_drop_below: f64,
    /// Unit-vector weights below this are punished...
    pub unit_punish_threshold: f64,
    /// ...by multiplying with this factor.
    pub unit_punish_factor: f64,
    /// Unit-vector weights below this are removed.
    pub unit_drop_below: f64,
    /// Factor applied to term weights that have no unit support (merge
    /// case 1: "we add it to the concept vector, but punish its term
    /// vector weight").
    pub unmatched_term_factor: f64,
    /// Minimum unit score for the detector that finds units in the text.
    pub detector_min_score: f64,
    /// Apply the §II-B step-4 multi-term specificity bonus. On by
    /// default; the `ablation_merge` experiment turns it off.
    pub multiterm_bonus: bool,
}

impl Default for ConceptVectorConfig {
    fn default() -> Self {
        Self {
            term_punish_threshold: 0.25,
            term_punish_factor: 0.5,
            term_drop_below: 0.05,
            unit_punish_threshold: 0.15,
            unit_punish_factor: 0.5,
            unit_drop_below: 0.02,
            unmatched_term_factor: 0.5,
            detector_min_score: 0.02,
            multiterm_bonus: true,
        }
    }
}

/// One concept with its merged §II-B score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredConcept {
    /// Space-joined surface form.
    pub surface: String,
    /// Final merged weight (up to `2 × terms`).
    pub score: f64,
}

/// One distinct non-stop term of a document: its unit-interner id, tf,
/// and tf·idf weight (then normalized and punished).
struct TermSlot<'t> {
    term: &'t str,
    id: Option<TermId>,
    tf: usize,
    weight: f64,
}

/// Builds concept vectors for documents.
pub struct ConceptVectorBuilder<'a> {
    units: &'a UnitDictionary,
    idf: Box<dyn Fn(&str) -> f64 + 'a>,
    config: ConceptVectorConfig,
}

impl<'a> std::fmt::Debug for ConceptVectorBuilder<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConceptVectorBuilder")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> ConceptVectorBuilder<'a> {
    /// Create a builder over a unit dictionary and an idf source (usually
    /// [`ctxrank_index::Index::idf`]).
    pub fn new(
        units: &'a UnitDictionary,
        idf: impl Fn(&str) -> f64 + 'a,
        config: ConceptVectorConfig,
    ) -> Self {
        Self {
            units,
            idf: Box::new(idf),
            config,
        }
    }

    /// Generate the concept vector for a document given as raw text.
    /// Returns concepts sorted by descending score.
    pub fn build(&self, text: &str) -> Vec<ScoredConcept> {
        let tokens: Vec<String> = ctxrank_text::tokenize_terms(text);
        self.build_from_tokens(&tokens)
    }

    /// Generate the concept vector from pre-normalized tokens. Returns
    /// concepts sorted by descending score, ties by surface.
    pub fn build_from_tokens(&self, tokens: &[String]) -> Vec<ScoredConcept> {
        let mut vector = self.build_projected(tokens, &Projection::new(self.units, tokens));
        // Surfaces are unique, so no two entries compare equal.
        vector.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        vector
            .into_iter()
            .map(|(surface, score)| ScoredConcept {
                surface: surface.to_string(),
                score,
            })
            .collect()
    }

    /// The concept vector of `tokens`, projected as `p`, as unsorted
    /// `(surface, score)` pairs borrowing each surface from `tokens` or
    /// from the unit dictionary.
    pub(crate) fn build_projected<'t>(
        &self,
        tokens: &'t [String],
        p: &Projection,
    ) -> Vec<(&'t str, f64)>
    where
        'a: 't,
    {
        let cfg = &self.config;
        let units: &'a UnitDictionary = self.units;

        // 1. Term vector: tf·idf over non-stop-words, normalized,
        //    punished, pruned. One slot per distinct term.
        let mut slot_of: HashMap<&'t str, usize, FnvBuildHasher> =
            HashMap::with_capacity_and_hasher(tokens.len(), FnvBuildHasher::default());
        let mut terms: Vec<TermSlot<'t>> = Vec::with_capacity(tokens.len());
        for (i, token) in tokens.iter().enumerate() {
            if p.stop[i] {
                continue;
            }
            let slot = *slot_of.entry(token).or_insert_with(|| {
                terms.push(TermSlot {
                    term: token,
                    id: p.ids[i],
                    tf: 0,
                    weight: 0.0,
                });
                terms.len() - 1
            });
            terms[slot].tf += 1;
        }
        for t in &mut terms {
            t.weight = ctxrank_index::tf_idf_weight(t.tf, (self.idf)(t.term));
        }
        let max = terms.iter().fold(0.0f64, |a, t| a.max(t.weight));
        for t in &mut terms {
            if max > 0.0 {
                t.weight /= max;
            }
            if t.weight < cfg.term_punish_threshold {
                t.weight *= cfg.term_punish_factor;
            }
        }
        // Pruning: the term vector holds the slots that pass `kept`.
        let kept = |t: &&TermSlot| t.weight >= cfg.term_drop_below;
        let kept_term = |term: &str| slot_of.get(term).map(|&s| &terms[s]).filter(kept);

        // 2. Unit vector: units found in the document with their best
        //    score, normalized/punished/pruned. Sorted by unit index.
        let mut detector = ConceptDetector::new(units);
        detector.min_score = cfg.detector_min_score;
        let mut unit_w: Vec<(u32, f64)> = detector
            .detect_projected(p)
            .into_iter()
            .map(|m| (m.unit, m.unit_score))
            .collect();
        unit_w.sort_unstable_by_key(|&(u, _)| u);
        unit_w.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.max(next.1);
            }
            same
        });
        let max = unit_w.iter().fold(0.0f64, |a, &(_, w)| a.max(w));
        unit_w.retain_mut(|(_, w)| {
            if max > 0.0 {
                *w /= max;
            }
            if *w < cfg.unit_punish_threshold {
                *w *= cfg.unit_punish_factor;
            }
            *w >= cfg.unit_drop_below
        });
        // Weight of the single-term unit for interner id `id`, zero when
        // none survives.
        let single_unit_w = |id: Option<TermId>| -> f64 {
            id.and_then(|id| units.single_unit(id))
                .and_then(|u| unit_w.binary_search_by_key(&u, |&(v, _)| v).ok())
                .map_or(0.0, |i| unit_w[i].1)
        };

        // 3. Merge into the concept vector.
        let mut out: Vec<(&'t str, f64)> = Vec::with_capacity(terms.len() + unit_w.len());
        for t in terms.iter().filter(kept) {
            let unit_weight = single_unit_w(t.id);
            out.push(if unit_weight > 0.0 {
                // Case 3: in both — sum the weights.
                (t.term, t.weight + unit_weight)
            } else {
                // Case 1: term only — punish.
                (t.term, t.weight * cfg.unmatched_term_factor)
            });
        }
        for &(u, w) in &unit_w {
            // Case 2: unit only — add with its unit weight. A unit whose
            // surface is a kept term was merged above.
            let surface = units.surface(u);
            if kept_term(surface).is_none() {
                out.push((surface, w));
            }
        }

        // 4. Multi-term bonus: add each constituent term's unit- and
        //    term-vector scores.
        if cfg.multiterm_bonus {
            for (surface, score) in &mut out {
                if surface.contains(' ') {
                    for part in surface.split(' ') {
                        *score += kept_term(part).map_or(0.0, |t| t.weight)
                            + single_unit_w(units.interner().get(part));
                    }
                }
            }
        }
        out
    }

    /// The configured thresholds.
    pub fn config(&self) -> &ConceptVectorConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxrank_querylog::{extract_units, QueryLog, UnitConfig};

    fn units() -> UnitDictionary {
        let mut log = QueryLog::new();
        log.add("global warming", 90);
        log.add("global warming report", 40);
        log.add("polar bears", 70);
        log.add("polar bears habitat", 20);
        for i in 0..40 {
            log.add(&format!("filler queryterm{i}"), 12);
        }
        extract_units(&log, &UnitConfig::default())
    }

    /// idf source: every term moderately distinctive, "common" cheap.
    fn idf(term: &str) -> f64 {
        if term == "common" {
            0.2
        } else {
            3.0
        }
    }

    #[test]
    fn multiterm_concepts_bubble_up() {
        let u = units();
        let b = ConceptVectorBuilder::new(&u, idf, ConceptVectorConfig::default());
        let text = "global warming threatens polar bears habitat said the report \
                    common common common";
        let v = b.build(text);
        assert!(!v.is_empty());
        // The top concept should be one of the multi-term units, not a
        // bare single term.
        assert!(
            v[0].surface.contains(' '),
            "expected multi-term on top, got {:?}",
            v[0]
        );
    }

    #[test]
    fn score_bounded_by_two_per_term() {
        let u = units();
        let b = ConceptVectorBuilder::new(&u, idf, ConceptVectorConfig::default());
        let v = b.build("global warming global warming polar bears");
        for c in &v {
            let n = c.surface.split(' ').count() as f64;
            assert!(
                c.score <= 2.0 * n + 1e-9,
                "{} score {} exceeds 2x{}",
                c.surface,
                c.score,
                n
            );
        }
    }

    #[test]
    fn stopwords_never_scored() {
        let u = units();
        let b = ConceptVectorBuilder::new(&u, idf, ConceptVectorConfig::default());
        let v = b.build("the global warming and the polar bears");
        for c in &v {
            assert!(!ctxrank_text::is_stopword(&c.surface));
        }
    }

    #[test]
    fn term_only_entries_punished() {
        let u = units();
        let cfg = ConceptVectorConfig::default();
        let b = ConceptVectorBuilder::new(&u, idf, cfg.clone());
        // "zebra" is not a unit; it can appear only via the term vector.
        let v = b.build("zebra zebra zebra zebra global warming");
        let zebra = v.iter().find(|c| c.surface == "zebra");
        if let Some(z) = zebra {
            // Punished: max possible normalized weight is 1.0, so the
            // merged score is at most the unmatched factor.
            assert!(z.score <= cfg.unmatched_term_factor + 1e-9);
        }
    }

    #[test]
    fn sorted_descending() {
        let u = units();
        let b = ConceptVectorBuilder::new(&u, idf, ConceptVectorConfig::default());
        let v = b.build("global warming report polar bears habitat filler queryterm1");
        for w in v.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn empty_document() {
        let u = units();
        let b = ConceptVectorBuilder::new(&u, idf, ConceptVectorConfig::default());
        assert!(b.build("").is_empty());
        assert!(b.build("the of and").is_empty());
    }

    #[test]
    fn deterministic_given_same_input() {
        let u = units();
        let b = ConceptVectorBuilder::new(&u, idf, ConceptVectorConfig::default());
        let text = "global warming polar bears report habitat";
        assert_eq!(b.build(text), b.build(text));
    }
}
