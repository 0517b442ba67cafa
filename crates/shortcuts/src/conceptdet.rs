//! Query-log concept detection.
//!
//! §II-A: "Concepts are detected using data from search engine query
//! logs, thus allowing the system to detect things of interest that go
//! beyond editorially reviewed terms." The detector scans a normalized
//! token stream for phrases present in a [`UnitDictionary`] whose score
//! clears a threshold, longest match first.
//!
//! The scan runs on a [`Projection`] of the tokens: their ids in the
//! dictionary's interner and their stop-word flags. `Pipeline::process`
//! projects a document once for this detector and the concept-vector
//! builder; [`ConceptDetector::detect_ids`] projects, then scans.

use ctxrank_querylog::UnitDictionary;
use ctxrank_text::TermId;

/// A token stream in a unit dictionary's id space: one interner id
/// (`None` for a term no unit contains) and one stop-word flag per token.
pub(crate) struct Projection {
    pub(crate) ids: Vec<Option<TermId>>,
    pub(crate) stop: Vec<bool>,
}

impl Projection {
    /// Project `tokens` (already normalized) into `units`' id space.
    pub(crate) fn new(units: &UnitDictionary, tokens: &[String]) -> Self {
        Self {
            ids: units.interner().map_tokens(tokens),
            stop: tokens
                .iter()
                .map(|t| ctxrank_text::is_stopword(t))
                .collect(),
        }
    }
}

/// An allocation-free concept detection: the matched unit is referenced
/// by its dictionary index (its surface is [`UnitDictionary::surface`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConceptIdMatch {
    /// Token index where the concept starts.
    pub token_start: usize,
    /// Number of tokens covered.
    pub token_len: usize,
    /// Index of the matched unit (see [`UnitDictionary::unit`]).
    pub unit: u32,
    /// The unit score of the matched concept.
    pub unit_score: f64,
}

/// Detector over the unit dictionary.
#[derive(Debug)]
pub struct ConceptDetector<'a> {
    units: &'a UnitDictionary,
    /// Minimum unit score a phrase needs to be detected.
    pub min_score: f64,
    /// Maximum phrase length considered.
    pub max_terms: usize,
    /// Detect single-term concepts too? The production system supports a
    /// large single-term concept set; turning this off restricts
    /// detection to multi-term units.
    pub allow_single: bool,
}

impl<'a> ConceptDetector<'a> {
    /// Create a detector with the platform defaults.
    pub fn new(units: &'a UnitDictionary) -> Self {
        Self {
            units,
            min_score: 0.05,
            max_terms: 4,
            allow_single: true,
        }
    }

    /// Scan `tokens` (already normalized) for concepts. Longest match
    /// wins at each position; matches never overlap; stop-words never
    /// start or end a concept.
    ///
    /// The scan projects the tokens into the dictionary's id space once,
    /// then probes all window lengths at each position with a single
    /// incremental trie descent — no per-window string joins or hashes.
    /// A token unknown to the dictionary cuts every phrase through it.
    /// Matches carry the unit's dictionary index, so scoring loops can
    /// accumulate per unit with zero allocation per match.
    pub fn detect_ids(&self, tokens: &[String]) -> Vec<ConceptIdMatch> {
        self.detect_projected(&Projection::new(self.units, tokens))
    }

    /// [`Self::detect_ids`] over an already projected token stream.
    pub(crate) fn detect_projected(&self, p: &Projection) -> Vec<ConceptIdMatch> {
        let (ids, stop) = (&p.ids, &p.stop);
        let shortest = if self.allow_single { 1 } else { 2 };
        let mut out = Vec::new();
        let mut i = 0;
        while i < ids.len() {
            if stop[i] {
                i += 1;
                continue;
            }
            let longest = self.max_terms.min(ids.len() - i);
            // Walk the trie forward, remembering the longest qualifying
            // match; a low-scoring longer unit never shadows a shorter
            // qualifying one. A concept must not end with a stop-word.
            let mut matched: Option<(usize, u32, f64)> = None;
            let mut node = self.units.root();
            for len in 1..=longest {
                let Some(t) = ids[i + len - 1] else { break };
                let Some(next) = self.units.step(node, t) else {
                    break;
                };
                node = next;
                if len < shortest || stop[i + len - 1] {
                    continue;
                }
                if let Some(idx) = self.units.unit_index_at(node) {
                    let score = self.units.unit(idx).score;
                    if score >= self.min_score {
                        matched = Some((len, idx, score));
                    }
                }
            }
            match matched {
                Some((len, unit, unit_score)) => {
                    out.push(ConceptIdMatch {
                        token_start: i,
                        token_len: len,
                        unit,
                        unit_score,
                    });
                    i += len;
                }
                None => i += 1,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxrank_querylog::{extract_units, QueryLog, UnitConfig};

    fn t(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn units() -> UnitDictionary {
        let mut log = QueryLog::new();
        log.add("global warming", 80);
        log.add("global warming effects", 30);
        log.add("auto insurance", 60);
        log.add("cheap auto insurance", 25);
        for i in 0..40 {
            log.add(&format!("noise filler {i}"), 10);
        }
        extract_units(&log, &UnitConfig::default())
    }

    /// Surfaces of the detected units, in document order.
    fn surfaces<'u>(u: &'u UnitDictionary, found: &[ConceptIdMatch]) -> Vec<&'u str> {
        found.iter().map(|m| u.surface(m.unit)).collect()
    }

    #[test]
    fn detects_multiterm_concept() {
        let u = units();
        let det = ConceptDetector::new(&u);
        let found = det.detect_ids(&t("scientists say global warming accelerates"));
        let found = surfaces(&u, &found);
        assert!(found.contains(&"global warming"), "{found:?}");
    }

    #[test]
    fn longest_match_preferred() {
        let u = units();
        let det = ConceptDetector::new(&u);
        let found = det.detect_ids(&t("find cheap auto insurance online"));
        let best = found
            .iter()
            .find(|m| u.surface(m.unit).contains("auto insurance"))
            .expect("insurance concept");
        // "cheap auto insurance" should win over "auto insurance" if it
        // was extracted as a 3-term unit; either way it covers >= 2 terms.
        assert!(best.token_len >= 2);
    }

    #[test]
    fn no_overlap() {
        let u = units();
        let det = ConceptDetector::new(&u);
        let found = det.detect_ids(&t("global warming global warming"));
        for pair in found.windows(2) {
            assert!(pair[0].token_start + pair[0].token_len <= pair[1].token_start);
        }
    }

    #[test]
    fn stopwords_never_start_concepts() {
        let u = units();
        let det = ConceptDetector::new(&u);
        let found = det.detect_ids(&t("the and of global warming"));
        for s in surfaces(&u, &found) {
            assert!(!ctxrank_text::is_stopword(
                s.split(' ').next().expect("term")
            ));
        }
    }

    #[test]
    fn min_score_filters() {
        let u = units();
        let mut det = ConceptDetector::new(&u);
        det.min_score = 2.0; // impossible
        assert!(det.detect_ids(&t("global warming effects")).is_empty());
    }

    #[test]
    fn single_term_toggle() {
        let u = units();
        let mut det = ConceptDetector::new(&u);
        det.allow_single = false;
        let found = det.detect_ids(&t("insurance quotes today"));
        assert!(found.iter().all(|m| m.token_len >= 2));
    }

    #[test]
    fn empty_tokens() {
        let u = units();
        let det = ConceptDetector::new(&u);
        assert!(det.detect_ids(&[]).is_empty());
    }
}
