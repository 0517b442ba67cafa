//! Experiment harness: everything the `reproduce` binary and the
//! repo benchmark share.
//!
//! [`Experiment::build`] assembles the full §III pipeline over a
//! `SynthWorld`: unit extraction, the entity dictionary, the Shortcuts
//! annotation pipeline, click simulation with the paper's data-cleaning
//! rules, 2500/500 character windowing, feature extraction and the three
//! relevance models. [`rankers`] then evaluates any ranking policy
//! (random, concept-vector baseline, relevance-only, learned models)
//! with weighted error rate and NDCG under five-fold cross-validation —
//! the protocol behind Tables III–V and Figures 1–3.

pub mod dataset;
pub mod debias;
pub mod experiment;
pub mod production;
pub mod rankers;
pub mod report;
pub mod stages;

pub use dataset::{Dataset, Item, WindowGroup};
pub use debias::{run_debias_experiment, DebiasConfig, DebiasReport};
pub use experiment::{Experiment, ExperimentConfig};
pub use production::{build_projector, build_runtime_ranker, build_snapshot};
pub use rankers::{evaluate_fixed, evaluate_learned, EvalResult, FeatureSet};
pub use report::{fmt_pct, print_table};
pub use stages::{
    FeatureArtifact, FeatureStage, MiningArtifact, MiningStage, PublishStage, TrainArtifact,
    TrainStage, WorldArtifact, WorldStage,
};
