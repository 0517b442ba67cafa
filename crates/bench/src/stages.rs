//! Typed build stages for the offline pipeline.
//!
//! [`crate::Experiment::build`] used to be one monolithic function; it is
//! now a composition of five stages, each consuming and producing named
//! artifact structs:
//!
//! ```text
//! WorldStage ──▶ MiningStage ──▶ FeatureStage ──▶ TrainStage ──▶ PublishStage
//!  WorldArtifact  MiningArtifact  FeatureArtifact  TrainArtifact  Arc<Snapshot>
//! ```
//!
//! * [`WorldStage`] generates the synthetic world and derives the shared
//!   knowledge sources (unit dictionary, entity dictionary, the
//!   surface → concept candidate index).
//! * [`MiningStage`] annotates every story through the Shortcuts
//!   pipeline, simulates clicks, applies the §V-A.1 cleaning rules, and
//!   **emits the surviving click reports as events into an append-only
//!   [`SegmentStore`]** — the hand-off between mining and features is
//!   the event log, not a monolithic click artifact.
//! * [`FeatureStage`] replays the sealed segments to recover per-story
//!   click outcomes, extracts the Table I interestingness features,
//!   mines the three relevance models, and assembles the windowed,
//!   CTR-labelled dataset.
//! * [`TrainStage`] trains the deployed combined linear model on the
//!   full dataset.
//! * [`PublishStage`] packs the stores and freezes everything into an
//!   immutable [`ctxrank_framework::Snapshot`] — implemented as the
//!   *bootstrap case* of the [`SnapshotProjector`], so a full build and
//!   an incremental delta publish are the same projection applied to
//!   different prefixes of the log.
//!
//! The stages preserve the monolith's exact computation order, so
//! `Experiment::build` remains bit-identical to the pre-decomposition
//! pipeline at every thread count: parallel loops still collect by
//! input index and every cross-surface pass walks surfaces in sorted
//! order.

use crate::dataset::{resource_index, Dataset, Item, WindowGroup};
use crate::experiment::{build_dictionary, DatasetStats, ExperimentConfig};
use crate::rankers::FeatureSet;
use ctxrank_features::{
    FeatureExtractor, InterestFeatures, MiningResource, RelevanceModel, RelevanceModelBuilder,
};
use ctxrank_framework::{
    FrozenParts, GlobalTidTable, PackedRelevanceStore, Snapshot, SnapshotProjector,
};
use ctxrank_ltr::{train, RankGroup, RankModel, SvmConfig};
use ctxrank_querylog::{extract_units, Event, SegmentConfig, SegmentStore, UnitDictionary};
use ctxrank_shortcuts::{EntityDictionary, Pipeline, PipelineConfig};
use ctxrank_synth::news::ground_truth_relevance;
use ctxrank_synth::{clicks::simulate_story, ConceptId, SynthWorld};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One entity detection inside a story, as mined from the annotation
/// pipeline (first occurrence of each surface only).
#[derive(Debug, Clone)]
pub struct EntityMention {
    pub surface: String,
    pub concept: ConceptId,
    /// Ground-truth relevance of the disambiguated concept to the story.
    pub gt_relevance: f64,
    /// Byte offset of the first occurrence (window membership test).
    pub byte_offset: usize,
    /// Fractional position in the document (§V-A.1 position bias).
    pub position_frac: f64,
    /// Baseline concept-vector score (§II-B).
    pub baseline_score: f64,
}

/// One annotated story, ready for click simulation.
#[derive(Debug, Clone)]
pub struct AnnotatedStory {
    pub story: usize,
    /// Normalized text as produced by the pipeline.
    pub text: String,
    pub entities: Vec<EntityMention>,
}

/// Product of [`WorldStage`]: the synthetic world plus the derived
/// knowledge sources every later stage reads.
pub struct WorldArtifact {
    pub world: SynthWorld,
    pub units: UnitDictionary,
    pub dictionary: EntityDictionary,
    /// Surface -> candidate concept ids (ambiguous surfaces have > 1).
    pub by_surface: HashMap<String, Vec<ConceptId>>,
}

/// Product of [`MiningStage`]: the annotated stories plus the sealed
/// click-event log. Click outcomes travel as [`Event::Click`] records in
/// `store` — downstream stages replay the log instead of receiving a
/// monolithic click artifact, so the same code path serves both the
/// offline bootstrap and incremental delta ingestion.
pub struct MiningArtifact {
    /// Stories surviving the §V-A.1 filter, in story order.
    pub stories: Vec<AnnotatedStory>,
    /// Distinct surfaces across the kept stories, sorted so downstream
    /// passes walk them in a reproducible order.
    pub surfaces: Vec<String>,
    /// The event log: one `Event::Click` per (story, entity), appended in
    /// story order and sealed.
    pub store: SegmentStore,
}

/// Product of [`FeatureStage`]: features, relevance models, and the
/// windowed dataset.
pub struct FeatureArtifact {
    /// Raw (unscaled) Table I features per dataset surface.
    pub interest_raw: HashMap<String, InterestFeatures>,
    /// Relevance models indexed by [`resource_index`].
    pub relevance_models: [RelevanceModel; 3],
    pub dataset: Dataset,
    pub stats: DatasetStats,
}

/// Product of [`TrainStage`]: the deployed combined linear model.
pub struct TrainArtifact {
    pub model: RankModel,
}

/// Generates the synthetic world and its derived knowledge sources.
pub struct WorldStage;

impl WorldStage {
    pub fn run(config: &ExperimentConfig) -> WorldArtifact {
        let world = SynthWorld::generate(config.world.clone());
        let units = extract_units(&world.query_log, &config.units);
        let dictionary = build_dictionary(&world);
        let mut by_surface: HashMap<String, Vec<ConceptId>> = HashMap::new();
        for c in world.universe.all() {
            by_surface.entry(c.surface()).or_default().push(c.id);
        }
        WorldArtifact {
            world,
            units,
            dictionary,
            by_surface,
        }
    }
}

/// Annotates stories, simulates clicks, applies the §V-A.1 cleaning.
pub struct MiningStage;

impl MiningStage {
    pub fn run(config: &ExperimentConfig, world: &WorldArtifact, threads: usize) -> MiningArtifact {
        // Annotate every story with the Shortcuts pipeline (scoped so the
        // pipeline's borrows end before the artifact is returned).
        let pipeline = Pipeline::new(
            &world.dictionary,
            &world.units,
            |t| world.world.corpus.idf(t),
            PipelineConfig::with_multiterm_bonus(config.multiterm_bonus),
        );
        let annotated: Vec<AnnotatedStory> =
            ctxrank_parallel::par_map(threads, &world.world.news, |story| {
                let doc = pipeline.process(&story.text);
                let mut seen: HashSet<&str> = HashSet::new();
                let mut entities = Vec::new();
                for a in doc.rankable() {
                    if !seen.insert(a.surface.as_str()) {
                        continue; // first occurrence only, as the click report aggregates
                    }
                    let Some(cands) = world.by_surface.get(&a.surface) else {
                        continue; // outside the supported concept set
                    };
                    // Ambiguity: prefer the sense matching the story topic.
                    let cid = *cands
                        .iter()
                        .find(|&&c| world.world.universe.get(c).topic == Some(story.topic))
                        .or_else(|| {
                            cands.iter().find(|&&c| {
                                story.secondary_topic.is_some_and(|(st, _)| {
                                    world.world.universe.get(c).topic == Some(st)
                                })
                            })
                        })
                        .unwrap_or(&cands[0]);
                    let gt = ground_truth_relevance(
                        world.world.universe.get(cid),
                        story.topic,
                        story.center,
                        story.secondary_topic,
                    );
                    entities.push(EntityMention {
                        surface: a.surface.clone(),
                        concept: cid,
                        gt_relevance: gt,
                        byte_offset: a.span.start,
                        position_frac: a.position_frac,
                        baseline_score: a.score,
                    });
                }
                AnnotatedStory {
                    story: story.id,
                    text: doc.text,
                    entities,
                }
            });
        drop(pipeline);

        // Click simulation + the §V-A.1 cleaning rules. Surviving click
        // reports are emitted into the event log: one `Event::Click` per
        // (story, entity), in mention order, so replay reconstructs every
        // per-story click report exactly.
        let mut store = SegmentStore::in_memory(SegmentConfig::default());
        let mut stories: Vec<AnnotatedStory> = Vec::new();
        for sd in annotated {
            if sd.entities.len() < 2 {
                continue;
            }
            let mentions: Vec<(ConceptId, f64, f64)> = sd
                .entities
                .iter()
                .map(|e| (e.concept, e.gt_relevance, e.position_frac))
                .collect();
            let clicks = simulate_story(
                config.seed,
                sd.story,
                &world.world.universe,
                &mentions,
                &config.clicks,
            );
            if clicks.passes_paper_filter() {
                for (e, r) in sd.entities.iter().zip(&clicks.records) {
                    store
                        .append(&Event::Click {
                            story: sd.story as u64,
                            surface: e.surface.clone(),
                            views: clicks.views,
                            clicks: r.clicks,
                        })
                        .expect("in-memory event log accepts appends");
                }
                stories.push(sd);
            }
        }
        store.seal().expect("in-memory event log seals");

        // Sorted so every downstream pass (feature extraction, relevance
        // mining) walks surfaces in a reproducible order rather than
        // whatever the dedup set happens to hash to.
        let surfaces: Vec<String> = {
            let distinct: HashSet<&str> = stories
                .iter()
                .flat_map(|sd| sd.entities.iter().map(|e| e.surface.as_str()))
                .collect();
            let mut surfaces: Vec<String> = distinct.into_iter().map(str::to_string).collect();
            surfaces.sort_unstable();
            surfaces
        };

        MiningArtifact {
            stories,
            surfaces,
            store,
        }
    }
}

/// Extracts interestingness features, mines the relevance models, and
/// assembles the windowed dataset.
pub struct FeatureStage;

/// One story's replayed click outcome: the annotated story, its view
/// count, and the (surface, clicks) records in log order.
type StoryClickInput<'a> = (&'a AnnotatedStory, u64, Vec<(String, u64)>);

impl FeatureStage {
    pub fn run(
        config: &ExperimentConfig,
        world: &WorldArtifact,
        mining: &MiningArtifact,
        threads: usize,
    ) -> FeatureArtifact {
        // Interestingness features, one per distinct surface.
        let extractor = FeatureExtractor::new(
            &world.world.query_log,
            &world.units,
            &world.world.corpus,
            |terms: &[String]| {
                world
                    .by_surface
                    .get(&terms.join(" "))
                    .and_then(|ids| ids.first())
                    .map_or(0, |&id| world.world.encyclopedia.word_count(id))
            },
            |terms: &[String]| {
                world
                    .by_surface
                    .get(&terms.join(" "))
                    .and_then(|ids| ids.first())
                    .and_then(|&id| world.world.universe.get(id).entity_type)
                    .map_or(0, |(hlt, _)| hlt.code())
            },
        );
        let per_surface_feats: Vec<InterestFeatures> =
            ctxrank_parallel::par_map(threads, &mining.surfaces, |s| {
                let terms: Vec<String> = s.split(' ').map(str::to_string).collect();
                extractor.interestingness(&terms)
            });
        let mut interest_cache: HashMap<String, Vec<f64>> = HashMap::new();
        let mut interest_raw: HashMap<String, InterestFeatures> = HashMap::new();
        for (s, feats) in mining.surfaces.iter().zip(per_surface_feats) {
            interest_cache.insert(s.clone(), feats.to_dense());
            interest_raw.insert(s.clone(), feats);
        }
        drop(extractor);

        // Relevance models for the three resources over the dataset's
        // concepts.
        let mut builder = RelevanceModelBuilder::new(&world.world.corpus, &world.world.query_log);
        builder.m = config.relevance_m;
        builder.min_idf = 3.2;
        builder.min_suggestion_freq = config.min_suggestion_freq;
        builder.weighting = config.keyword_weighting;
        let concept_term_lists: Vec<Vec<String>> = mining
            .surfaces
            .iter()
            .map(|s| s.split(' ').map(str::to_string).collect())
            .collect();
        // Each resource mines its concepts in parallel from the shared
        // (immutable) builder: splitting by concept rather than by
        // resource keeps every worker busy until Prisma, the slowest
        // resource, is done. Built in `resource_index` order.
        let relevance_models: [RelevanceModel; 3] = [
            MiningResource::Snippets,
            MiningResource::Prisma,
            MiningResource::Suggestions,
        ]
        .map(|resource| {
            let mined = ctxrank_parallel::par_map(threads, &concept_term_lists, |terms| {
                (terms.join(" "), builder.mine(terms, resource))
            });
            RelevanceModel::from_mined(resource, mined)
        });
        drop(builder);

        // Windowing and item assembly. The relevance models are compiled
        // onto interned stem ids first: window scoring then probes dense
        // bitmaps instead of hashing stem strings per (surface, window)
        // pair, with bit-identical sums.
        let compiled: Vec<ctxrank_features::CompiledRelevance> =
            relevance_models.iter().map(|m| m.compile()).collect();
        let mut groups: Vec<WindowGroup> = Vec::new();
        let mut stats = DatasetStats {
            stories_generated: world.world.news.len(),
            stories_kept: mining.stories.len(),
            ..DatasetStats::default()
        };
        // Recover per-story click outcomes by replaying the event log.
        // Events were appended in story order, one per entity mention, so
        // grouping by story id and walking each group in order rebuilds
        // the original click reports bit-exactly.
        let mut replayed: HashMap<u64, (u64, Vec<(String, u64)>)> = HashMap::new();
        for event in mining
            .store
            .replay()
            .expect("mining stage sealed an intact event log")
        {
            if let Event::Click {
                story,
                surface,
                views,
                clicks,
            } = event
            {
                let entry = replayed.entry(story).or_insert_with(|| (views, Vec::new()));
                entry.1.push((surface, clicks));
            }
        }
        let story_inputs: Vec<StoryClickInput> = mining
            .stories
            .iter()
            .map(|sd| {
                let (views, recs) = replayed
                    .remove(&(sd.story as u64))
                    .expect("every kept story has click events in the log");
                (sd, views, recs)
            })
            .collect();
        let per_story_groups: Vec<Vec<WindowGroup>> =
            ctxrank_parallel::par_map(threads, &story_inputs, |(sd, views, recs)| {
                // Surface → concept is injective per story (first
                // occurrence only), so mapping replayed surfaces through
                // the annotation recovers the concept-keyed CTR map with
                // the monolith's exact insert/overwrite order.
                let concept_of: HashMap<&str, ConceptId> = sd
                    .entities
                    .iter()
                    .map(|e| (e.surface.as_str(), e.concept))
                    .collect();
                let ctr_of: HashMap<ConceptId, f64> = recs
                    .iter()
                    .map(|(surface, clicks)| {
                        let concept = *concept_of
                            .get(surface.as_str())
                            .expect("replayed surface belongs to its story");
                        let ctr = if *views == 0 {
                            0.0
                        } else {
                            *clicks as f64 / *views as f64
                        };
                        (concept, ctr)
                    })
                    .collect();
                let windows = ctxrank_text::window::windows(
                    &sd.text,
                    config.window_size,
                    config.window_overlap,
                );
                let mut story_groups = Vec::new();
                for (w_idx, w) in windows.iter().enumerate() {
                    let members: Vec<&EntityMention> = sd
                        .entities
                        .iter()
                        .filter(|e| w.contains(e.byte_offset))
                        .collect();
                    if members.len() < 2 {
                        continue;
                    }
                    let stems = ctxrank_text::stemmed_terms(w.of(&sd.text));
                    let contexts: Vec<Vec<bool>> = compiled
                        .iter()
                        .map(|c| c.context_from_stems(&stems))
                        .collect();
                    let items: Vec<Item> = members
                        .iter()
                        .map(|&e| {
                            let mut relevance = [0.0; 3];
                            let mut relevance_raw = [0.0; 3];
                            for (i, model) in compiled.iter().enumerate() {
                                relevance_raw[i] = model.score(&e.surface, &contexts[i]);
                                relevance[i] = relevance_raw[i].ln_1p();
                            }
                            Item {
                                surface: e.surface.clone(),
                                concept: e.concept,
                                ctr: ctr_of.get(&e.concept).copied().unwrap_or(0.0),
                                baseline_score: e.baseline_score,
                                interest: interest_cache[&e.surface].clone(),
                                relevance,
                                relevance_raw,
                                position_frac: e.position_frac,
                                gt_relevance: e.gt_relevance,
                            }
                        })
                        .collect();
                    story_groups.push(WindowGroup {
                        story: sd.story,
                        window: w_idx,
                        items,
                    });
                }
                story_groups
            });
        for ((_, _, recs), story_groups) in story_inputs.iter().zip(per_story_groups) {
            stats.total_clicks += recs.iter().map(|(_, clicks)| clicks).sum::<u64>();
            for g in story_groups {
                stats.concept_instances += g.items.len();
                groups.push(g);
            }
        }
        stats.windows = groups.len();

        FeatureArtifact {
            interest_raw,
            relevance_models,
            dataset: Dataset::new(groups),
            stats,
        }
    }
}

/// Trains the deployed model: a linear ranking SVM on all ten features
/// (interestingness + the snippet-mined relevance, §V-A.6).
pub struct TrainStage;

impl TrainStage {
    pub fn run(dataset: &Dataset) -> TrainArtifact {
        let feature_set = FeatureSet::InterestPlusRelevance(MiningResource::Snippets);
        let groups: Vec<RankGroup> = dataset
            .groups
            .iter()
            .map(|g| {
                RankGroup::from_pairs(
                    g.items
                        .iter()
                        .map(|item| (feature_set.features(item), item.ctr)),
                )
            })
            .filter(|g| {
                g.instances
                    .iter()
                    .any(|a| g.instances.iter().any(|b| a.label > b.label))
            })
            .collect();
        TrainArtifact {
            model: train(&groups, &SvmConfig::default()),
        }
    }
}

/// Packs the stores and freezes the serving artifact.
///
/// The full build is the *bootstrap case* of the delta projection: the
/// stage assembles the frozen (re-mined/retrained) parts and hands the
/// interestingness base to [`SnapshotProjector::bootstrap`], which packs
/// the stores and claims the first epoch. Incremental delta publishes
/// later reuse the very same projector, so bootstrap-then-deltas is
/// bit-exact with a fresh full build over the concatenated log.
pub struct PublishStage;

impl PublishStage {
    pub fn run(
        interest_raw: &HashMap<String, InterestFeatures>,
        relevance_models: &[RelevanceModel; 3],
        trained: TrainArtifact,
    ) -> Arc<Snapshot> {
        Self::run_bootstrap(interest_raw, relevance_models, trained).1
    }

    /// Like [`PublishStage::run`], but also returns the projector so the
    /// caller can keep folding sealed click segments into incremental
    /// delta publishes against the bootstrapped snapshot.
    pub fn run_bootstrap(
        interest_raw: &HashMap<String, InterestFeatures>,
        relevance_models: &[RelevanceModel; 3],
        trained: TrainArtifact,
    ) -> (SnapshotProjector, Arc<Snapshot>) {
        // Packed relevance store over the snippet-mined keywords (the
        // resource the production system uses, §V-A.6).
        let mut tids = GlobalTidTable::new();
        let snippets = &relevance_models[resource_index(MiningResource::Snippets)];
        // The store interns keywords in row order, so rows go in sorted:
        // term ids (and with them the order relevance is summed in and
        // the arena bytes) must not depend on `HashMap` iteration.
        let mut surfaces: Vec<&String> = interest_raw.keys().collect();
        surfaces.sort_unstable();
        let keyword_sets: Vec<(&str, &ctxrank_features::RelevantTerms)> = surfaces
            .into_iter()
            .filter_map(|s| snippets.terms(s).map(|rt| (s.as_str(), rt)))
            .collect();
        let relevance = PackedRelevanceStore::build(keyword_sets, &mut tids);

        let frozen = FrozenParts {
            relevance,
            tids,
            model: trained.model,
        };
        SnapshotProjector::bootstrap(frozen, interest_raw.iter().map(|(s, f)| (s.clone(), *f)))
            .expect("publish stage supplies every snapshot component")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_compose_into_the_same_experiment() {
        let config = ExperimentConfig::small(7);
        let threads = 1;
        let world = WorldStage::run(&config);
        let mining = MiningStage::run(&config, &world, threads);
        assert!(!mining.stories.is_empty());
        assert!(mining.surfaces.windows(2).all(|w| w[0] < w[1]), "sorted");
        // Every kept story's click report lives in the sealed log.
        assert_eq!(mining.store.active_events(), 0, "log sealed after mining");
        let expected_events: u64 = mining
            .stories
            .iter()
            .map(|sd| sd.entities.len() as u64)
            .sum();
        assert_eq!(mining.store.sealed_events(), expected_events);
        let features = FeatureStage::run(&config, &world, &mining, threads);
        assert_eq!(features.stats.stories_kept, mining.stories.len());
        assert_eq!(features.stats.windows, features.dataset.groups.len());

        let exp = crate::Experiment::build_with_threads(config, 1);
        assert_eq!(exp.stats.windows, features.stats.windows);
        assert_eq!(exp.stats.total_clicks, features.stats.total_clicks);
        assert_eq!(exp.dataset.groups.len(), features.dataset.groups.len());
    }

    #[test]
    fn publish_stage_freezes_a_snapshot() {
        let exp = crate::Experiment::build(ExperimentConfig::small(7));
        let trained = TrainStage::run(&exp.dataset);
        let snap = PublishStage::run(&exp.interest_raw, &exp.relevance_models, trained);
        assert!(snap.epoch() > 0);
        assert!(!snap.model().is_rbf());
        assert!(!snap.interest().is_empty());
    }

    #[test]
    fn publish_bootstrap_returns_a_live_projector() {
        let exp = crate::Experiment::build(ExperimentConfig::small(7));
        let trained = TrainStage::run(&exp.dataset);
        let (projector, snap) =
            PublishStage::run_bootstrap(&exp.interest_raw, &exp.relevance_models, trained);
        assert_eq!(projector.epoch(), snap.epoch());
        assert_eq!(projector.surfaces(), exp.interest_raw.len());
        assert_eq!(projector.folded_seq(), 0, "no segments folded yet");
    }

    #[test]
    fn term_ids_do_not_depend_on_hashmap_order() {
        let exp = crate::Experiment::build(ExperimentConfig::small(7));
        // The same entries in a second map: its own `RandomState`, so
        // its own iteration order.
        let recollected: HashMap<String, InterestFeatures> = exp
            .interest_raw
            .iter()
            .map(|(s, f)| (s.clone(), *f))
            .collect();
        let bootstrap = |interest_raw| {
            let trained = TrainStage::run(&exp.dataset);
            PublishStage::run(interest_raw, &exp.relevance_models, trained)
        };
        let a = bootstrap(&exp.interest_raw);
        let b = bootstrap(&recollected);

        assert_eq!(a.tids().len(), b.tids().len());
        assert!(a.tids().len() > 100, "a vocabulary worth ordering");
        for i in 0..a.tids().len() as u32 {
            let id = ctxrank_framework::TermId(i);
            assert_eq!(a.tids().term(id), b.tids().term(id), "term {i}");
        }

        let (a, b) = (
            ctxrank_framework::RuntimeRanker::from_snapshot(a),
            ctxrank_framework::RuntimeRanker::from_snapshot(b),
        );
        for g in exp.dataset.groups.iter().take(20) {
            let text = &exp.world.news[g.story].text;
            let candidates: Vec<String> = g.items.iter().map(|i| i.surface.clone()).collect();
            let (ra, rb) = (a.rank(text, &candidates), b.rank(text, &candidates));
            assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.surface, y.surface);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
                assert_eq!(x.relevance.to_bits(), y.relevance.to_bits());
            }
        }
    }
}
