//! # ctxrank — Contextual Ranking of Keywords Using Click Data
//!
//! A from-scratch Rust reproduction of Irmak, von Brzeski & Kraft,
//! *Contextual Ranking of Keywords Using Click Data* (ICDE 2009): the
//! Contextual Shortcuts user-centric entity-detection platform, the
//! click-data-driven learning-to-rank pipeline for key concepts, and every
//! substrate the paper depends on.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names; see each crate for its own documentation:
//!
//! * [`text`] — tokenizer, Porter stemmer, boundary detection, windowing.
//! * [`synth`] — the synthetic world standing in for Yahoo!'s proprietary
//!   query logs, corpus, news stories and click tracking (see `DESIGN.md`).
//! * [`index`] — inverted-index search engine (tf·idf, phrase queries,
//!   snippets).
//! * [`querylog`] — unit extraction via mutual information, query
//!   frequencies, related suggestions and the Prisma-style refinement tool.
//! * [`shortcuts`] — the entity-detection platform itself: detectors,
//!   taxonomy NER, concept-vector generation, the annotation pipeline.
//! * [`features`] — the interestingness feature space (Table I) and the
//!   relevance-keyword miner (§IV-B).
//! * [`ltr`] — pairwise ranking SVM with cross-validation.
//! * [`eval`] — weighted error rate, NDCG, editorial and A/B harnesses.
//! * [`framework`] — the §VI production framework: packed feature stores,
//!   the global TID table, Golomb coding, the immutable [`Snapshot`]
//!   serving artifact, the runtime ranker, and snapshot
//!   hot-swap via [`ServiceHandle`].
//! * [`serve`] — the dependency-free HTTP/1.1 network front door:
//!   micro-batched `/rank`, backpressure with load shedding, Prometheus
//!   `/metrics`, graceful drain, hot-swap under live traffic.
//!
//! [`Snapshot`]: framework::Snapshot
//! [`ServiceHandle`]: framework::ServiceHandle

/// The most commonly used types, importable in one line:
/// `use ctxrank::prelude::*;`
pub mod prelude {
    pub use ctxrank_eval::{ndcg_at_k, weighted_pair_stats, CtrBuckets, ErrorRateAccumulator};
    pub use ctxrank_features::{
        FeatureExtractor, InterestFeatures, MiningResource, RelevanceModel, RelevanceModelBuilder,
    };
    pub use ctxrank_framework::{
        load_service, load_snapshot, save_service, save_snapshot, OnlineCtrAdjuster, PersistError,
        RuntimeRanker, ServiceHandle, Snapshot, SnapshotBuilder,
    };
    pub use ctxrank_index::{Index, IndexBuilder};
    pub use ctxrank_ltr::{train, RankGroup, RankModel, SvmConfig};
    pub use ctxrank_querylog::{extract_units, QueryLog, UnitConfig, UnitDictionary};
    pub use ctxrank_serve::{ServeConfig, Server};
    pub use ctxrank_shortcuts::{
        Annotation, DictionaryEntry, EntityDictionary, Pipeline, PipelineConfig,
    };
    pub use ctxrank_synth::{SynthWorld, WorldConfig};
    pub use ctxrank_text::{stem, stemmed_terms, tokenize};
}

pub use ctxrank_eval as eval;
pub use ctxrank_features as features;
pub use ctxrank_framework as framework;
pub use ctxrank_index as index;
pub use ctxrank_ltr as ltr;
pub use ctxrank_querylog as querylog;
pub use ctxrank_serve as serve;
pub use ctxrank_shortcuts as shortcuts;
pub use ctxrank_synth as synth;
pub use ctxrank_text as text;
