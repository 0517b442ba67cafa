//! Experiment assembly: world → pipeline → clicks → features → dataset.
//!
//! The pipeline itself lives in [`crate::stages`] as typed stages;
//! [`Experiment::build`] is the canonical composition of them.

use crate::dataset::Dataset;
use crate::stages::{FeatureArtifact, FeatureStage, MiningStage, WorldArtifact, WorldStage};
use ctxrank_features::RelevanceModel;
use ctxrank_querylog::{UnitConfig, UnitDictionary};
use ctxrank_shortcuts::{DictionaryEntry, EntityDictionary, Pipeline, PipelineConfig};
use ctxrank_synth::{ClickConfig, SynthWorld, WorldConfig};
use std::collections::HashMap;

/// Experiment-level configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    pub world: WorldConfig,
    pub units: UnitConfig,
    pub clicks: ClickConfig,
    /// Seed for click simulation and fold splitting.
    pub seed: u64,
    /// Keyword weighting for the relevance miner.
    pub keyword_weighting: ctxrank_features::KeywordWeighting,
    /// Minimum support for related-query suggestions.
    pub min_suggestion_freq: u64,
    /// Character-window size for position-bias control (§V-A.1).
    pub window_size: usize,
    /// Overlap between consecutive windows.
    pub window_overlap: usize,
    /// Keywords mined per concept (the paper's m = 100).
    pub relevance_m: usize,
    /// §II-B multi-term bonus in the baseline concept vector.
    pub multiterm_bonus: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            units: UnitConfig::default(),
            clicks: ClickConfig::default(),
            seed: 0x2009,
            keyword_weighting: ctxrank_features::KeywordWeighting::RawTf,
            min_suggestion_freq: 25,
            window_size: ctxrank_text::window::PAPER_WINDOW_SIZE,
            window_overlap: ctxrank_text::window::PAPER_OVERLAP,
            relevance_m: ctxrank_features::relevance::PAPER_M,
            multiterm_bonus: true,
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests and examples.
    pub fn small(seed: u64) -> Self {
        Self {
            world: WorldConfig::small(seed),
            units: UnitConfig::default(),
            clicks: ClickConfig::default(),
            seed,
            keyword_weighting: ctxrank_features::KeywordWeighting::RawTf,
            min_suggestion_freq: 25,
            window_size: ctxrank_text::window::PAPER_WINDOW_SIZE,
            window_overlap: ctxrank_text::window::PAPER_OVERLAP,
            relevance_m: ctxrank_features::relevance::PAPER_M,
            multiterm_bonus: true,
        }
    }
}

/// Headline corpus statistics (the paper reports 870 stories, 6420
/// concepts, 16549 clicks, 947 windows).
#[derive(Debug, Clone, Copy, Default)]
pub struct DatasetStats {
    pub stories_generated: usize,
    pub stories_kept: usize,
    pub windows: usize,
    pub concept_instances: usize,
    pub total_clicks: u64,
}

/// The fully assembled experiment.
pub struct Experiment {
    pub world: SynthWorld,
    pub units: UnitDictionary,
    pub dictionary: EntityDictionary,
    /// Relevance models indexed by [`crate::dataset::resource_index`].
    pub relevance_models: [RelevanceModel; 3],
    /// Raw (unscaled) Table I features per dataset surface.
    pub interest_raw: HashMap<String, ctxrank_features::InterestFeatures>,
    pub dataset: Dataset,
    pub stats: DatasetStats,
    pub config: ExperimentConfig,
}

impl Experiment {
    /// Run the full offline pipeline with the default worker count
    /// ([`ctxrank_parallel::num_threads`]; override with the
    /// `CTXRANK_THREADS` environment variable).
    pub fn build(config: ExperimentConfig) -> Self {
        Self::build_with_threads(config, ctxrank_parallel::num_threads())
    }

    /// Run the full offline pipeline on `threads` workers by composing
    /// the typed stages: [`WorldStage`] → [`MiningStage`] →
    /// [`FeatureStage`]. ([`crate::stages::TrainStage`] and
    /// [`crate::stages::PublishStage`] continue from the finished
    /// experiment — see [`crate::production::build_snapshot`].)
    ///
    /// Inside the stages, four independent loops fan out across the
    /// workers: per-story annotation, per-surface interestingness
    /// features, the three mining-resource relevance models, and
    /// per-story window/item assembly. Output is byte-identical at any
    /// thread count: the parallel stages run the same per-item closures
    /// and collect by input index, so ordering never depends on
    /// scheduling.
    pub(crate) fn build_with_threads(config: ExperimentConfig, threads: usize) -> Self {
        let world = WorldStage::run(&config);
        let mining = MiningStage::run(&config, &world, threads);
        let features = FeatureStage::run(&config, &world, &mining, threads);
        let WorldArtifact {
            world,
            units,
            dictionary,
            ..
        } = world;
        let FeatureArtifact {
            interest_raw,
            relevance_models,
            dataset,
            stats,
        } = features;
        Self {
            world,
            units,
            dictionary,
            relevance_models,
            interest_raw,
            dataset,
            stats,
            config,
        }
    }

    /// The Shortcuts annotation pipeline wired over this experiment's
    /// own knowledge sources — the same wiring [`MiningStage`] used
    /// during the build. Benchmarks and reports should call this
    /// instead of re-deriving the dictionary and unit list.
    pub fn annotation_pipeline(&self) -> Pipeline<'_> {
        Pipeline::new(
            &self.dictionary,
            &self.units,
            |t| self.world.corpus.idf(t),
            PipelineConfig::with_multiterm_bonus(self.config.multiterm_bonus),
        )
    }
}

/// Build the editorial dictionary from the universe's named entities,
/// with topic words as disambiguation context.
pub fn build_dictionary(world: &SynthWorld) -> EntityDictionary {
    let mut dict = EntityDictionary::new();
    for c in world.universe.all() {
        if let Some((hlt, subtype)) = c.entity_type {
            let context_terms = c
                .topic
                .map(|t| world.lexicon.topic(t)[..12.min(world.lexicon.topic(t).len())].to_vec())
                .unwrap_or_default();
            dict.insert(DictionaryEntry {
                terms: c.terms.clone(),
                type_code: hlt.code(),
                subtype: subtype.to_string(),
                geo: c.geo,
                context_terms,
            });
        }
    }
    dict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::resource_index;
    use ctxrank_features::MiningResource;

    #[test]
    fn small_experiment_builds() {
        let exp = Experiment::build(ExperimentConfig::small(3));
        assert!(exp.stats.stories_kept > 20, "{:?}", exp.stats);
        assert!(exp.stats.windows > 20, "{:?}", exp.stats);
        assert!(exp.stats.concept_instances > 50, "{:?}", exp.stats);
        assert!(exp.stats.total_clicks > 100, "{:?}", exp.stats);
        // Every group has >= 2 items and CTR labels in [0, 1].
        for g in &exp.dataset.groups {
            assert!(g.items.len() >= 2);
            for i in &g.items {
                assert!((0.0..=1.0).contains(&i.ctr));
                assert_eq!(i.interest.len(), 9);
            }
        }
    }

    #[test]
    fn relevance_feature_tracks_ground_truth() {
        let exp = Experiment::build(ExperimentConfig::small(4));
        let snip = resource_index(MiningResource::Snippets);
        let (mut rel_sum, mut rel_n) = (0.0, 0);
        let (mut irr_sum, mut irr_n) = (0.0, 0);
        for g in &exp.dataset.groups {
            for i in &g.items {
                if i.gt_relevance > 0.9 {
                    rel_sum += i.relevance[snip];
                    rel_n += 1;
                } else if i.gt_relevance < 0.1 {
                    irr_sum += i.relevance[snip];
                    irr_n += 1;
                }
            }
        }
        assert!(rel_n > 0 && irr_n > 0);
        let rel_mean = rel_sum / rel_n as f64;
        let irr_mean = irr_sum / irr_n as f64;
        assert!(
            rel_mean > irr_mean,
            "snippet relevance should separate relevant ({rel_mean}) from irrelevant ({irr_mean})"
        );
    }

    /// The parallel build must be indistinguishable from the sequential
    /// reference build: same dataset, same stats, same metrics.
    #[test]
    fn parallel_build_is_identical_to_serial() {
        let serial = Experiment::build_with_threads(ExperimentConfig::small(11), 1);
        let parallel = Experiment::build_with_threads(ExperimentConfig::small(11), 4);

        assert_eq!(
            serial.stats.stories_generated,
            parallel.stats.stories_generated
        );
        assert_eq!(serial.stats.stories_kept, parallel.stats.stories_kept);
        assert_eq!(serial.stats.windows, parallel.stats.windows);
        assert_eq!(
            serial.stats.concept_instances,
            parallel.stats.concept_instances
        );
        assert_eq!(serial.stats.total_clicks, parallel.stats.total_clicks);

        // Every group, item, feature vector and label — not just counts.
        assert_eq!(serial.dataset.groups, parallel.dataset.groups);

        // And a downstream metric computed from each dataset agrees exactly.
        let a = crate::evaluate_fixed(&serial.dataset, |i| i.baseline_score);
        let b = crate::evaluate_fixed(&parallel.dataset, |i| i.baseline_score);
        assert_eq!(a.ndcg, b.ndcg);
        assert_eq!(a.weighted_error, b.weighted_error);
        assert_eq!(a.error, b.error);
    }

    #[test]
    fn default_build_matches_serial_under_env_override() {
        // `build` picks its worker count from the environment/machine; it
        // must still be the same experiment.
        let serial = Experiment::build_with_threads(ExperimentConfig::small(12), 1);
        let auto = Experiment::build(ExperimentConfig::small(12));
        assert_eq!(serial.dataset.groups, auto.dataset.groups);
        assert_eq!(serial.stats.total_clicks, auto.stats.total_clicks);
    }

    #[test]
    fn deterministic_build() {
        let a = Experiment::build(ExperimentConfig::small(5));
        let b = Experiment::build(ExperimentConfig::small(5));
        assert_eq!(a.stats.windows, b.stats.windows);
        assert_eq!(a.stats.total_clicks, b.stats.total_clicks);
    }
}
