//! The end-to-end annotation pipeline.
//!
//! §II: "A sequence of pre-processing steps handles HTML parsing,
//! tokenization, sentence, and paragraph boundary detection. Next,
//! specialized detectors discover entities of various pre-defined types
//! ... as well as abstract concepts derived from search engine query
//! logs. Finally, a sequence of post-processing steps handles collision
//! detection between overlapping entities, disambiguation, filtering, and
//! output annotation."
//!
//! [`Pipeline::process`] runs that flow and returns the plain text with
//! its [`Annotation`]s, each carrying the baseline concept-vector score
//! (§II-B) that the ranking experiments compare against. The concept
//! detector, the concept-vector builder and the stop-word filter share
//! one projection of the tokens into the unit dictionary's id space.

use crate::conceptdet::{ConceptDetector, Projection};
use crate::dictionary::EntityDictionary;
use crate::patterns::{detect_patterns, PatternType};
use crate::vector::{ConceptVectorBuilder, ConceptVectorConfig};
use ctxrank_querylog::UnitDictionary;
use ctxrank_text::{FnvBuildHasher, Span};
use std::collections::HashMap;

/// What kind of thing an annotation is.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectionKind {
    /// Email / URL / phone. Always annotated, never ranked (§II-A).
    Pattern(PatternType),
    /// A dictionary named entity with taxonomy metadata.
    Entity {
        type_code: u8,
        subtype: String,
        geo: Option<(f64, f64)>,
    },
    /// A query-log concept.
    Concept,
}

impl DetectionKind {
    /// Is this a pattern-based entity?
    pub fn is_pattern(&self) -> bool {
        matches!(self, DetectionKind::Pattern(_))
    }
}

/// One annotated span in the processed document.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Byte span into [`ProcessedDoc::text`].
    pub span: Span,
    /// Normalized surface form (lower-case, space-joined terms).
    pub surface: String,
    pub kind: DetectionKind,
    /// Baseline concept-vector score (§II-B); 0 for pattern entities.
    pub score: f64,
    /// Fractional position of the span start in the document, `[0, 1)` —
    /// used by the click model's position bias.
    pub position_frac: f64,
}

/// Output of the pipeline: plain text plus its annotations in document
/// order.
#[derive(Debug, Clone)]
pub struct ProcessedDoc {
    pub text: String,
    pub annotations: Vec<Annotation>,
}

impl ProcessedDoc {
    /// Annotations that are subject to ranking (entities and concepts,
    /// not patterns).
    pub fn rankable(&self) -> impl Iterator<Item = &Annotation> {
        self.annotations.iter().filter(|a| !a.kind.is_pattern())
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Concept-vector thresholds.
    pub vector: ConceptVectorConfig,
    /// Minimum unit score for concept detection.
    pub concept_min_score: f64,
    /// Context window (tokens) for dictionary disambiguation.
    pub disambiguation_window: usize,
    /// Drop rankable annotations whose surface is shorter than this many
    /// characters (filtering step).
    pub min_surface_chars: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            vector: ConceptVectorConfig::default(),
            concept_min_score: 0.05,
            disambiguation_window: 10,
            min_surface_chars: 2,
        }
    }
}

impl PipelineConfig {
    /// Default configuration with the §II-B multi-term bonus toggled —
    /// the one knob experiment builds vary.
    pub fn with_multiterm_bonus(bonus: bool) -> Self {
        let mut config = Self::default();
        config.vector.multiterm_bonus = bonus;
        config
    }
}

/// The assembled platform.
pub struct Pipeline<'a> {
    dictionary: &'a EntityDictionary,
    units: &'a UnitDictionary,
    /// `Sync` so one pipeline can annotate stories from worker threads.
    idf: Box<dyn Fn(&str) -> f64 + Sync + 'a>,
    config: PipelineConfig,
}

impl<'a> std::fmt::Debug for Pipeline<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> Pipeline<'a> {
    /// Assemble a pipeline from its knowledge sources.
    pub fn new(
        dictionary: &'a EntityDictionary,
        units: &'a UnitDictionary,
        idf: impl Fn(&str) -> f64 + Sync + 'a,
        config: PipelineConfig,
    ) -> Self {
        Self {
            dictionary,
            units,
            idf: Box::new(idf),
            config,
        }
    }

    /// Run the full pipeline over a (possibly HTML) document.
    pub fn process(&self, raw: &str) -> ProcessedDoc {
        // Pre-processing: HTML → plain text → offset-preserving tokens →
        // sentence ids (multi-token matches must not straddle a sentence
        // boundary; that is what §II's boundary detection is for).
        let text = ctxrank_text::strip_html(raw);
        let tokens = ctxrank_text::tokenize(&text);
        let norm: Vec<String> = tokens
            .iter()
            .map(|t| ctxrank_text::normalize_term(t.text))
            .collect();
        let sentence_spans = ctxrank_text::sentences(&text);
        // Token starts are non-decreasing and sentence spans are sorted,
        // so one merge pass assigns every token its sentence. Tokens
        // outside any sentence get a unique id (never "same sentence").
        let mut si = 0;
        let sentence_of: Vec<usize> = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| {
                while si < sentence_spans.len() && sentence_spans[si].end <= t.start {
                    si += 1;
                }
                match sentence_spans.get(si) {
                    Some(s) if s.contains(t.start) => si,
                    _ => usize::MAX - i,
                }
            })
            .collect();
        let same_sentence = |start: usize, len: usize| -> bool {
            len <= 1
                || sentence_of[start..start + len]
                    .windows(2)
                    .all(|w| w[0] == w[1])
        };
        let doc_len = text.len().max(1) as f64;

        // Detection. A candidate is flagged if it covers only stop-words.
        let projection = Projection::new(self.units, &norm);
        let stop_only =
            |start: usize, len: usize| projection.stop[start..start + len].iter().all(|&s| s);
        let candidate = |span: Span, surface, kind, stop: bool| {
            let position_frac = span.start as f64 / doc_len;
            let annotation = Annotation {
                span,
                surface,
                kind,
                score: 0.0,
                position_frac,
            };
            (annotation, stop)
        };
        let mut candidates: Vec<(Annotation, bool)> = Vec::new();
        for m in detect_patterns(&text) {
            let kind = DetectionKind::Pattern(m.kind);
            candidates.push(candidate(m.span, m.of(&text).to_string(), kind, false));
        }
        for m in self
            .dictionary
            .detect(&norm, self.config.disambiguation_window)
        {
            if !same_sentence(m.token_start, m.token_len) {
                continue;
            }
            let span = token_span(&tokens, m.token_start, m.token_len);
            let entry = self.dictionary.entry(&m);
            let kind = DetectionKind::Entity {
                type_code: entry.type_code,
                subtype: entry.subtype.clone(),
                geo: entry.geo,
            };
            let stop = stop_only(m.token_start, m.token_len);
            candidates.push(candidate(span, m.surface, kind, stop));
        }
        let mut detector = ConceptDetector::new(self.units);
        detector.min_score = self.config.concept_min_score;
        // Id-space detection: the unit dictionary already stores each
        // unit's joined surface, so no per-match join is needed and
        // matches dropped by the sentence filter cost nothing.
        for m in detector.detect_projected(&projection) {
            if !same_sentence(m.token_start, m.token_len) {
                continue;
            }
            let span = token_span(&tokens, m.token_start, m.token_len);
            let surface = self.units.surface(m.unit).to_string();
            let stop = stop_only(m.token_start, m.token_len);
            candidates.push(candidate(span, surface, DetectionKind::Concept, stop));
        }

        // Collision resolution: patterns first, then longer spans, then
        // entities over concepts.
        candidates.sort_by_key(|(a, _)| {
            (
                a.span.start,
                !a.kind.is_pattern(),
                std::cmp::Reverse(a.span.len()),
                matches!(a.kind, DetectionKind::Concept),
            )
        });
        let mut kept = keep_filtered(candidates, self.config.min_surface_chars);

        // Scoring: attach the §II-B concept-vector score to rankable
        // annotations (deduplicated by surface — the vector is per
        // document, not per occurrence).
        let builder = ConceptVectorBuilder::new(self.units, &self.idf, self.config.vector.clone());
        let scores: HashMap<&str, f64, FnvBuildHasher> = builder
            .build_projected(&norm, &projection)
            .into_iter()
            .collect();
        for a in &mut kept {
            if !a.kind.is_pattern() {
                a.score = scores.get(a.surface.as_str()).copied().unwrap_or(0.0);
            }
        }

        kept.sort_by_key(|a| a.span.start);
        ProcessedDoc {
            text,
            annotations: kept,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

/// Byte span covering tokens `[start, start + len)`.
fn token_span(tokens: &[ctxrank_text::Token<'_>], start: usize, len: usize) -> Span {
    Span {
        start: tokens[start].start,
        end: tokens[start + len - 1].end,
    }
}

/// Collision resolution and filtering over start-sorted candidates: keep
/// each that overlaps no earlier kept one, then drop rankable ones too
/// short or flagged as only stop-words. Kept spans are disjoint, so the
/// one reaching furthest decides each collision: a non-empty candidate
/// collides iff it starts before that span ends, an empty one iff it
/// lies strictly inside it.
fn keep_filtered(sorted: Vec<(Annotation, bool)>, min_surface_chars: usize) -> Vec<Annotation> {
    let mut reach = Span { start: 0, end: 0 };
    let mut kept = Vec::with_capacity(sorted.len());
    for (a, stop_only) in sorted {
        let s = a.span;
        if s.start < reach.end && (!s.is_empty() || reach.start < s.start) {
            continue;
        }
        if s.end > reach.end {
            reach = s;
        }
        if a.kind.is_pattern() || (a.surface.len() >= min_surface_chars && !stop_only) {
            kept.push(a);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::DictionaryEntry;
    use ctxrank_querylog::{extract_units, QueryLog, UnitConfig};
    use proptest::prelude::*;

    fn t(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn knowledge() -> (EntityDictionary, UnitDictionary) {
        let mut dict = EntityDictionary::new();
        dict.insert(DictionaryEntry {
            terms: t("cuba"),
            type_code: 2,
            subtype: "country".into(),
            geo: Some((21.5, -77.8)),
            context_terms: vec![],
        });
        dict.insert(DictionaryEntry {
            terms: t("obama"),
            type_code: 1,
            subtype: "politician".into(),
            geo: None,
            context_terms: vec![],
        });
        let mut log = QueryLog::new();
        log.add("political prisoners", 60);
        log.add("human rights", 80);
        log.add("human rights watch", 25);
        for i in 0..40 {
            log.add(&format!("padding query{i}"), 10);
        }
        let units = extract_units(&log, &UnitConfig::default());
        (dict, units)
    }

    fn idf(_: &str) -> f64 {
        2.5
    }

    const SNIPPET: &str = "Obama said talks with Cuba require progress on releasing \
        political prisoners and improving human rights.";

    #[test]
    fn detects_entities_and_concepts() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process(SNIPPET);
        let surfaces: Vec<&str> = doc.annotations.iter().map(|a| a.surface.as_str()).collect();
        assert!(surfaces.contains(&"obama"), "{surfaces:?}");
        assert!(surfaces.contains(&"cuba"), "{surfaces:?}");
        assert!(surfaces.contains(&"human rights"), "{surfaces:?}");
    }

    #[test]
    fn spans_point_into_text() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process(SNIPPET);
        for a in &doc.annotations {
            let spanned = a.span.of(&doc.text).to_lowercase();
            assert_eq!(spanned, a.surface, "span/surface mismatch");
        }
    }

    #[test]
    fn html_is_stripped_first() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process("<p><b>Obama</b> visits <i>Cuba</i></p>");
        assert!(!doc.text.contains('<'));
        assert!(doc.annotations.iter().any(|a| a.surface == "obama"));
    }

    #[test]
    fn patterns_always_annotated() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process("Email press@whitehouse.gov or call 555-123-4567.");
        let patterns: Vec<_> = doc
            .annotations
            .iter()
            .filter(|a| a.kind.is_pattern())
            .collect();
        assert_eq!(patterns.len(), 2);
        for a in patterns {
            assert_eq!(a.score, 0.0);
        }
    }

    #[test]
    fn no_overlapping_annotations() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process(SNIPPET);
        for pair in doc.annotations.windows(2) {
            assert!(
                pair[0].span.end <= pair[1].span.start,
                "overlap: {:?} {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn rankable_excludes_patterns() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process("Obama (contact: x@y.org) on human rights");
        assert!(doc.rankable().all(|a| !a.kind.is_pattern()));
        assert!(doc.rankable().count() >= 2);
    }

    #[test]
    fn scores_attached_to_rankables() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process(SNIPPET);
        let hr = doc
            .annotations
            .iter()
            .find(|a| a.surface == "human rights")
            .expect("human rights detected");
        assert!(hr.score > 0.0, "concept should carry a vector score");
    }

    #[test]
    fn position_fraction_monotone() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process(SNIPPET);
        for pair in doc.annotations.windows(2) {
            assert!(pair[0].position_frac <= pair[1].position_frac);
        }
        for a in &doc.annotations {
            assert!((0.0..1.0).contains(&a.position_frac));
        }
    }

    #[test]
    fn entity_metadata_preserved() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process("Cuba announced reforms.");
        let cuba = doc
            .annotations
            .iter()
            .find(|a| a.surface == "cuba")
            .expect("cuba");
        match &cuba.kind {
            DetectionKind::Entity {
                type_code,
                subtype,
                geo,
            } => {
                assert_eq!(*type_code, 2);
                assert_eq!(subtype, "country");
                assert_eq!(*geo, Some((21.5, -77.8)));
            }
            other => panic!("expected entity, got {other:?}"),
        }
    }

    #[test]
    fn empty_document() {
        let (dict, units) = knowledge();
        let p = Pipeline::new(&dict, &units, idf, PipelineConfig::default());
        let doc = p.process("");
        assert!(doc.annotations.is_empty());
        assert!(doc.text.is_empty());
    }

    /// The quadratic collision scan and surface-splitting filter that
    /// [`keep_filtered`] replaced.
    fn keep_filtered_reference(
        sorted: Vec<Annotation>,
        min_surface_chars: usize,
    ) -> Vec<Annotation> {
        let mut kept: Vec<Annotation> = Vec::new();
        for c in sorted {
            if kept.iter().all(|k| !k.span.overlaps(&c.span)) {
                kept.push(c);
            }
        }
        kept.retain(|a| {
            a.kind.is_pattern()
                || (a.surface.len() >= min_surface_chars
                    && !a.surface.split(' ').all(ctxrank_text::is_stopword))
        });
        kept
    }

    proptest! {
        /// The one-pass collision and filter equals the reference on
        /// random start-sorted candidates: empty sets, empty, nested and
        /// equal-start spans, all three kinds, stop-word-only surfaces.
        #[test]
        fn collision_pass_matches_quadratic_reference(
            raw in prop::collection::vec(
                (0usize..24, 0usize..7, 0u8..3, prop::collection::vec(0usize..6, 1..4)),
                0..24,
            ),
            min_surface_chars in 0usize..6,
        ) {
            const WORDS: [&str; 6] = ["the", "of", "a", "cuba", "human", "x"];
            let mut candidates: Vec<(Annotation, bool)> = raw
                .iter()
                .map(|(start, len, kind, words)| {
                    let words: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                    let kind = match kind {
                        0 => DetectionKind::Pattern(PatternType::Email),
                        1 => DetectionKind::Entity { type_code: 1, subtype: "x".into(), geo: None },
                        _ => DetectionKind::Concept,
                    };
                    // The flag `process` derives from the projection.
                    let stop_only = words.iter().all(|w| ctxrank_text::is_stopword(w));
                    let annotation = Annotation {
                        span: Span { start: *start, end: start + len },
                        surface: words.join(" "),
                        kind,
                        score: 0.0,
                        position_frac: 0.0,
                    };
                    (annotation, stop_only)
                })
                .collect();
            // Stable: candidates sharing a start keep their random order.
            candidates.sort_by_key(|(a, _)| a.span.start);
            let want = keep_filtered_reference(
                candidates.iter().map(|(a, _)| a.clone()).collect(),
                min_surface_chars,
            );
            prop_assert_eq!(keep_filtered(candidates, min_surface_chars), want);
        }
    }
}
