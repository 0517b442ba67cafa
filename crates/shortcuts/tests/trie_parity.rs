//! Parity of the trie-walking concept detector against a legacy
//! String-keyed reference implementation.
//!
//! The detector used to probe every candidate window by joining its
//! tokens into a fresh `String` and hashing it against a
//! `HashMap<String, Unit>`. The interned rewrite walks a `PhraseTrie`
//! over term ids instead. These properties prove the two strategies are
//! result-identical on arbitrary token streams — same spans, same
//! surfaces (`UnitDictionary::surface` of the matched unit), bit-identical
//! scores — and that detection is independent of the worker-pool thread
//! count.

use ctxrank_querylog::{extract_units, QueryLog, UnitConfig, UnitDictionary};
use ctxrank_shortcuts::ConceptDetector;
use proptest::prelude::*;
use std::collections::HashMap;

/// A unit dictionary with overlapping prefixes, 1–3 term units, an
/// in-unit stop-word and shared terms across units.
fn units() -> UnitDictionary {
    let mut log = QueryLog::new();
    log.add("global warming", 80);
    log.add("global warming effects", 30);
    log.add("global economy", 40);
    log.add("bank of america", 35);
    log.add("america economy", 25);
    log.add("warming", 60);
    for i in 0..40 {
        log.add(&format!("pad filler{i}"), 10);
    }
    extract_units(&log, &UnitConfig::default())
}

/// Tokens that exercise every branch: unit terms, prefixes that dead-end,
/// stop-words, and words no unit contains.
fn vocab() -> Vec<&'static str> {
    vec![
        "global",
        "warming",
        "effects",
        "economy",
        "bank",
        "of",
        "america",
        "the",
        "and",
        "unknownword",
        "zzz",
        "pad",
        "filler1",
    ]
}

/// Strategy for a token stream, as indices into [`vocab`].
fn token_indices() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..vocab().len(), 0..30)
}

fn to_tokens(indices: &[usize]) -> Vec<String> {
    let words = vocab();
    indices.iter().map(|&i| words[i].to_string()).collect()
}

/// One detection of the reference scan.
#[derive(Debug)]
struct RefMatch {
    token_start: usize,
    token_len: usize,
    surface: String,
    unit_score: f64,
}

/// The legacy detector: longest-window-first probing of a
/// `HashMap<String, f64>` keyed by space-joined surfaces.
fn detect_reference(
    dict: &UnitDictionary,
    tokens: &[String],
    min_score: f64,
    max_terms: usize,
    allow_single: bool,
) -> Vec<RefMatch> {
    let by_surface: HashMap<String, f64> =
        dict.iter().map(|u| (u.terms.join(" "), u.score)).collect();
    let shortest = if allow_single { 1 } else { 2 };
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ctxrank_text::is_stopword(&tokens[i]) {
            i += 1;
            continue;
        }
        let longest = max_terms.min(tokens.len() - i);
        let mut matched: Option<(usize, String, f64)> = None;
        for len in (shortest..=longest).rev() {
            if ctxrank_text::is_stopword(&tokens[i + len - 1]) {
                continue;
            }
            let surface = tokens[i..i + len].join(" ");
            if let Some(&score) = by_surface.get(&surface) {
                if score >= min_score {
                    matched = Some((len, surface, score));
                    break;
                }
            }
        }
        match matched {
            Some((len, surface, unit_score)) => {
                out.push(RefMatch {
                    token_start: i,
                    token_len: len,
                    surface,
                    unit_score,
                });
                i += len;
            }
            None => i += 1,
        }
    }
    out
}

proptest! {
    /// Trie detection equals the String-keyed reference on arbitrary
    /// token streams, across score thresholds and the single-term toggle.
    #[test]
    fn trie_detect_matches_string_reference(
        indices in token_indices(),
        score_pick in 0..5usize,
        allow_single in any::<bool>(),
    ) {
        let tokens = to_tokens(&indices);
        let min_score = [0.0, 0.02, 0.05, 0.3, 0.9][score_pick];
        let u = units();
        let mut det = ConceptDetector::new(&u);
        det.min_score = min_score;
        det.allow_single = allow_single;
        let got = det.detect_ids(&tokens);
        let want = detect_reference(&u, &tokens, min_score, det.max_terms, allow_single);
        prop_assert_eq!(got.len(), want.len(), "match counts differ");
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.token_start, w.token_start);
            prop_assert_eq!(g.token_len, w.token_len);
            prop_assert_eq!(u.surface(g.unit), w.surface.as_str());
            // Scores travel different paths (trie payload vs HashMap
            // value) but originate from the same unit: bit-identical.
            prop_assert_eq!(g.unit_score.to_bits(), w.unit_score.to_bits());
        }
    }

    /// The unit index `detect_ids` reports resolves to exactly the joined
    /// token window, and carries that unit's score.
    #[test]
    fn detect_ids_surfaces_resolve(indices in token_indices()) {
        let tokens = to_tokens(&indices);
        let u = units();
        let det = ConceptDetector::new(&u);
        for m in det.detect_ids(&tokens) {
            prop_assert_eq!(
                u.surface(m.unit),
                tokens[m.token_start..m.token_start + m.token_len].join(" ")
            );
            prop_assert_eq!(m.unit_score.to_bits(), u.unit(m.unit).score.to_bits());
        }
    }

    /// Detection through the worker pool agrees with the serial loop at
    /// every thread count — results depend only on the input order.
    #[test]
    fn detect_independent_of_thread_count(
        doc_indices in prop::collection::vec(token_indices(), 1..8),
    ) {
        let docs: Vec<Vec<String>> = doc_indices.iter().map(|d| to_tokens(d)).collect();
        let u = units();
        let det = ConceptDetector::new(&u);
        let serial: Vec<Vec<_>> = docs.iter().map(|d| det.detect_ids(d)).collect();
        for threads in [1usize, 2, 3, 8] {
            let parallel = ctxrank_parallel::par_map(threads, &docs, |d| det.detect_ids(d));
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }
}
