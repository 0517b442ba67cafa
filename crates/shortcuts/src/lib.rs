//! The Contextual Shortcuts entity-detection platform (§II).
//!
//! "The Contextual Shortcuts entity detection platform ... is designed to
//! detect interesting named entities and concepts (the key concepts) in
//! unstructured text, and annotate them with intelligent hyperlinks."
//! This crate is that platform:
//!
//! * [`patterns`] — pattern-based detectors for emails, URLs and phone
//!   numbers ("primarily detected by regular expressions"; ours are
//!   hand-rolled scanners with the same semantics). Pattern entities are
//!   always annotated and skip relevance ranking (§II-A).
//! * [`dictionary`] — editorially-reviewed named-entity dictionaries with
//!   the type taxonomy and geo metadata, matched longest-first, plus
//!   disambiguation of ambiguous surfaces.
//! * [`conceptdet`] — the query-log concept detector over a unit
//!   dictionary.
//! * [`vector`] — concept-vector generation (§II-B): the tf·idf term
//!   vector merged with the unit vector, including the punish/threshold
//!   rules and the multi-term specificity bonus. The resulting score is
//!   the *baseline* ranking the paper compares against.
//! * [`pipeline`] — the end-to-end flow: pre-processing (HTML, tokens,
//!   sentences), all detectors, collision resolution between overlapping
//!   spans, filtering, and annotated output.

pub mod conceptdet;
pub mod dictionary;
pub mod patterns;
pub mod pipeline;
pub mod vector;

pub use conceptdet::{ConceptDetector, ConceptIdMatch};
pub use dictionary::{DictionaryEntry, EntityDictionary};
pub use patterns::{detect_patterns, PatternType};
pub use pipeline::{Annotation, DetectionKind, Pipeline, PipelineConfig};
pub use vector::{ConceptVectorBuilder, ConceptVectorConfig, ScoredConcept};
