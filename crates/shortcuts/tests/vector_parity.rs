//! Parity of the id-space concept-vector builder against the string-keyed
//! builder it replaced.
//!
//! The reference below is that builder's body: a `HashMap<&str, usize>`
//! of term counts, a `HashMap<String, f64>` term vector (normalized,
//! punished, pruned), a dense per-unit weight array over the whole
//! dictionary and a `HashMap<&str, f64>` merge. The property: on
//! arbitrary token streams and configurations, `build_from_tokens`
//! returns the same surfaces in the same order with bit-identical scores.

use ctxrank_querylog::{extract_units, QueryLog, UnitConfig, UnitDictionary};
use ctxrank_shortcuts::{
    ConceptDetector, ConceptVectorBuilder, ConceptVectorConfig, ScoredConcept,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Units with shared prefixes, 1–3 terms, an in-unit stop-word and terms
/// shared across units.
fn units() -> UnitDictionary {
    let mut log = QueryLog::new();
    log.add("global warming", 80);
    log.add("global warming effects", 30);
    log.add("global economy", 40);
    log.add("bank of america", 35);
    log.add("america economy", 25);
    log.add("polar bears", 50);
    log.add("warming", 60);
    for i in 0..40 {
        log.add(&format!("pad filler{i}"), 10);
    }
    extract_units(&log, &UnitConfig::default())
}

/// Unit terms, stop-words, words no unit contains, and tokens containing
/// a space (one of them a multi-term unit's surface).
const VOCAB: &[&str] = &[
    "global",
    "warming",
    "effects",
    "economy",
    "bank",
    "of",
    "america",
    "polar",
    "bears",
    "the",
    "and",
    "pad",
    "filler1",
    "zebra",
    "unknownword",
    "zzz",
    "global warming",
    "polar zebra",
];

/// Distinct idf values per term, including zero.
fn idf(term: &str) -> f64 {
    match term {
        "zzz" => 0.0,
        "economy" => 0.2,
        _ => [1.3, 2.7, 4.1, 0.6][term.len() % 4],
    }
}

/// The string-keyed builder `build_from_tokens` replaced.
fn build_reference(
    units: &UnitDictionary,
    cfg: &ConceptVectorConfig,
    tokens: &[String],
) -> Vec<ScoredConcept> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for t in tokens {
        if !ctxrank_text::is_stopword(t) {
            *counts.entry(t).or_insert(0) += 1;
        }
    }
    let mut term_vec: HashMap<String, f64> = HashMap::new();
    for (t, &c) in &counts {
        term_vec.insert(t.to_string(), ctxrank_index::tf_idf_weight(c, idf(t)));
    }
    let max = term_vec.values().copied().fold(0.0, f64::max);
    if max > 0.0 {
        for w in term_vec.values_mut() {
            *w /= max;
        }
    }
    for w in term_vec.values_mut() {
        if *w < cfg.term_punish_threshold {
            *w *= cfg.term_punish_factor;
        }
    }
    term_vec.retain(|_, w| *w >= cfg.term_drop_below);
    let term_w = |t: &str| term_vec.get(t).copied().unwrap_or(0.0);

    let mut detector = ConceptDetector::new(units);
    detector.min_score = cfg.detector_min_score;
    let mut unit_w: Vec<f64> = vec![0.0; units.len()];
    let mut matched: Vec<u32> = Vec::new();
    for m in detector.detect_ids(tokens) {
        let w = &mut unit_w[m.unit as usize];
        if *w == 0.0 {
            matched.push(m.unit);
        }
        *w = w.max(m.unit_score);
    }
    matched.sort_unstable();
    let max = matched
        .iter()
        .fold(0.0f64, |a, &u| a.max(unit_w[u as usize]));
    if max > 0.0 {
        for &u in &matched {
            unit_w[u as usize] /= max;
        }
    }
    matched.retain(|&u| {
        let w = &mut unit_w[u as usize];
        if *w < cfg.unit_punish_threshold {
            *w *= cfg.unit_punish_factor;
        }
        if *w < cfg.unit_drop_below {
            *w = 0.0;
            false
        } else {
            true
        }
    });
    let single_unit_w = |term: &str| -> f64 {
        units
            .interner()
            .get(term)
            .and_then(|id| units.single_unit(id))
            .map_or(0.0, |u| unit_w[u as usize])
    };

    let mut merged: HashMap<&str, f64> = HashMap::new();
    for (term, &w) in &term_vec {
        let unit_weight = single_unit_w(term);
        if unit_weight > 0.0 {
            merged.insert(term, w + unit_weight);
        } else {
            merged.insert(term, w * cfg.unmatched_term_factor);
        }
    }
    for &u in &matched {
        merged.entry(units.surface(u)).or_insert(unit_w[u as usize]);
    }

    let mut out: Vec<ScoredConcept> = merged
        .iter()
        .map(|(surface, &base)| {
            let mut score = base;
            if cfg.multiterm_bonus && surface.contains(' ') {
                for p in surface.split(' ') {
                    score += term_w(p) + single_unit_w(p);
                }
            }
            ScoredConcept {
                surface: surface.to_string(),
                score,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.surface.cmp(&b.surface))
    });
    out
}

proptest! {
    /// Same surfaces, same order, bit-identical scores, over token streams
    /// (empty included) and every threshold the configuration exposes.
    #[test]
    fn build_from_tokens_matches_string_keyed_reference(
        indices in prop::collection::vec(0..VOCAB.len(), 0..48),
        term_pick in (0usize..3, 0usize..2, 0usize..3),
        unit_pick in (0usize..3, 0usize..2, 0usize..3),
        detector_pick in 0usize..4,
        unmatched_pick in 0usize..3,
        multiterm_bonus in any::<bool>(),
    ) {
        let tokens: Vec<String> = indices.iter().map(|&i| VOCAB[i].to_string()).collect();
        let thresholds = [0.0, 0.25, 0.6];
        let factors = [0.5, 0.9];
        let drops = [0.0, 0.05, 0.3];
        let cfg = ConceptVectorConfig {
            term_punish_threshold: thresholds[term_pick.0],
            term_punish_factor: factors[term_pick.1],
            term_drop_below: drops[term_pick.2],
            unit_punish_threshold: thresholds[unit_pick.0],
            unit_punish_factor: factors[unit_pick.1],
            unit_drop_below: drops[unit_pick.2],
            unmatched_term_factor: [0.5, 1.0, 0.1][unmatched_pick],
            detector_min_score: [0.0, 0.02, 0.05, 0.5][detector_pick],
            multiterm_bonus,
        };
        let u = units();
        let got = ConceptVectorBuilder::new(&u, idf, cfg.clone()).build_from_tokens(&tokens);
        let want = build_reference(&u, &cfg, &tokens);
        let surfaces = |v: &[ScoredConcept]| v.iter().map(|c| c.surface.clone()).collect::<Vec<_>>();
        prop_assert_eq!(surfaces(&got), surfaces(&want));
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.score.to_bits(), w.score.to_bits(), "{}", g.surface);
        }
    }
}
