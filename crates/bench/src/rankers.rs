//! Ranking policies and their cross-validated evaluation.

use crate::dataset::{Dataset, Item};
use ctxrank_eval::{ErrorRateAccumulator, NdcgAccumulator};
use ctxrank_features::MiningResource;
use ctxrank_ltr::{train, KernelKind, RankGroup, SvmConfig};

/// Which feature subset a learned model sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureSet {
    /// The nine Table I features.
    AllInterest,
    /// Table III ablation: all interestingness features except one group
    /// (`"query_logs"`, `"taxonomy"`, `"search_results"`, `"other"`,
    /// `"text_based"`).
    InterestWithout(&'static str),
    /// Interestingness + the relevance score from one resource (Table V).
    InterestPlusRelevance(MiningResource),
}

impl FeatureSet {
    /// Assemble the feature vector for one item.
    pub fn features(&self, item: &Item) -> Vec<f64> {
        match self {
            FeatureSet::AllInterest => item.interest.clone(),
            FeatureSet::InterestWithout(group) => {
                let groups = ctxrank_features::InterestFeatures::groups();
                item.interest
                    .iter()
                    .zip(groups.iter())
                    .filter(|(_, g)| **g != *group)
                    .map(|(v, _)| *v)
                    .collect()
            }
            FeatureSet::InterestPlusRelevance(r) => {
                let mut v = item.interest.clone();
                v.push(item.relevance_for(*r));
                v
            }
        }
    }
}

/// One policy's evaluation outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalResult {
    /// Eq. 5 weighted error rate.
    pub weighted_error: f64,
    /// Eq. 4 plain error rate.
    pub error: f64,
    /// NDCG@1, @2, @3 (Eq. 6 gains).
    pub ndcg: [f64; 3],
}

/// Evaluate a fixed (training-free) scorer over the whole dataset.
pub fn evaluate_fixed(dataset: &Dataset, scorer: impl Fn(&Item) -> f64) -> EvalResult {
    let mut err = ErrorRateAccumulator::new();
    let mut ndcg = NdcgAccumulator::new(&[1, 2, 3]);
    for g in &dataset.groups {
        let scores: Vec<f64> = g.items.iter().map(&scorer).collect();
        let ctrs: Vec<f64> = g.items.iter().map(|i| i.ctr).collect();
        let gains: Vec<f64> = ctrs.iter().map(|&c| dataset.buckets.gain(c)).collect();
        err.add(&scores, &ctrs);
        ndcg.add(&scores, &gains);
    }
    let m = ndcg.means();
    EvalResult {
        weighted_error: err.weighted_error_rate(),
        error: err.error_rate(),
        ndcg: [m[0], m[1], m[2]],
    }
}

/// A deterministic pseudo-random scorer (the "Random" baseline): hashes
/// the item identity with a seed.
pub fn random_scorer(seed: u64) -> impl Fn(&Item) -> f64 {
    move |item: &Item| {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        seed.hash(&mut h);
        item.surface.hash(&mut h);
        item.concept.0.hash(&mut h);
        (item.position_frac.to_bits()).hash(&mut h);
        (h.finish() % 1_000_003) as f64
    }
}

/// Train and evaluate a ranking SVM under story-level k-fold
/// cross-validation.
///
/// `tiebreak_relevance` adds an infinitesimal preference for the
/// higher-relevance concept, as §V-A.6 does for the combined model
/// ("in case of ties, we decided to favor concepts that have higher
/// relevance scores").
pub fn evaluate_learned(
    dataset: &Dataset,
    feature_set: FeatureSet,
    svm: &SvmConfig,
    k_folds: usize,
    fold_seed: u64,
    tiebreak_relevance: bool,
) -> EvalResult {
    // Folds are independent: train/evaluate them on worker threads and
    // merge the accumulators afterwards (results are identical to the
    // sequential order because the metrics are commutative sums).
    let folds = dataset.story_folds(k_folds, fold_seed);
    let fold_results: Vec<(ErrorRateAccumulator, NdcgAccumulator)> = std::thread::scope(|scope| {
        let handles: Vec<_> = folds
            .iter()
            .map(|(train_groups, test_groups)| {
                scope.spawn(move || {
                    run_fold(
                        dataset,
                        feature_set,
                        svm,
                        train_groups,
                        test_groups,
                        tiebreak_relevance,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fold worker panicked"))
            .collect()
    });

    let mut err = ErrorRateAccumulator::new();
    let mut ndcg = NdcgAccumulator::new(&[1, 2, 3]);
    for (fold_err, fold_ndcg) in fold_results {
        err.merge(&fold_err);
        ndcg.merge(&fold_ndcg);
    }

    let m = ndcg.means();
    EvalResult {
        weighted_error: err.weighted_error_rate(),
        error: err.error_rate(),
        ndcg: [m[0], m[1], m[2]],
    }
}

/// Train on one fold's training groups and score its test groups.
fn run_fold(
    dataset: &Dataset,
    feature_set: FeatureSet,
    svm: &SvmConfig,
    train_groups: &[usize],
    test_groups: &[usize],
    tiebreak_relevance: bool,
) -> (ErrorRateAccumulator, NdcgAccumulator) {
    let mut err = ErrorRateAccumulator::new();
    let mut ndcg = NdcgAccumulator::new(&[1, 2, 3]);
    let training: Vec<RankGroup> = train_groups
        .iter()
        .map(|&g| {
            let group = &dataset.groups[g];
            RankGroup::from_pairs(
                group
                    .items
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
    if training.is_empty() {
        return (err, ndcg);
    }
    let model = train(&training, svm);
    for &g in test_groups {
        let group = &dataset.groups[g];
        let scores: Vec<f64> = group
            .items
            .iter()
            .map(|item| {
                let base = model.score(&feature_set.features(item));
                if tiebreak_relevance {
                    base + 1e-9 * item.relevance_raw_for(MiningResource::Snippets)
                } else {
                    base
                }
            })
            .collect();
        let ctrs: Vec<f64> = group.items.iter().map(|i| i.ctr).collect();
        let gains: Vec<f64> = ctrs.iter().map(|&c| dataset.buckets.gain(c)).collect();
        err.add(&scores, &ctrs);
        ndcg.add(&scores, &gains);
    }
    (err, ndcg)
}

/// Cross-validated per-group scores: every dataset group is scored by
/// the model of the fold in which it was held out. Enables paired
/// significance tests between policies
/// ([`ctxrank_eval::paired_permutation_wer`]).
pub fn cv_scores(
    dataset: &Dataset,
    feature_set: FeatureSet,
    svm: &SvmConfig,
    k_folds: usize,
    fold_seed: u64,
    tiebreak_relevance: bool,
) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); dataset.groups.len()];
    for (train_groups, test_groups) in dataset.story_folds(k_folds, fold_seed) {
        let training: Vec<RankGroup> = train_groups
            .iter()
            .map(|&g| {
                let group = &dataset.groups[g];
                RankGroup::from_pairs(
                    group
                        .items
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
        if training.is_empty() {
            continue;
        }
        let model = train(&training, svm);
        for &g in &test_groups {
            out[g] = dataset.groups[g]
                .items
                .iter()
                .map(|item| {
                    let base = model.score(&feature_set.features(item));
                    if tiebreak_relevance {
                        base + 1e-9 * item.relevance_raw_for(MiningResource::Snippets)
                    } else {
                        base
                    }
                })
                .collect();
        }
    }
    out
}

/// Train with both kernels ("we test with both linear and the radial
/// basis function kernels ... and report the best result").
pub fn evaluate_best_kernel(
    dataset: &Dataset,
    feature_set: FeatureSet,
    k_folds: usize,
    seed: u64,
    tiebreak_relevance: bool,
) -> EvalResult {
    let linear = evaluate_learned(
        dataset,
        feature_set,
        &SvmConfig {
            kernel: KernelKind::Linear,
            seed,
            ..SvmConfig::default()
        },
        k_folds,
        seed,
        tiebreak_relevance,
    );
    let rbf = evaluate_learned(
        dataset,
        feature_set,
        &SvmConfig {
            kernel: KernelKind::Rbf {
                gamma: 0.1,
                dim: 256,
            },
            seed,
            ..SvmConfig::default()
        },
        k_folds,
        seed,
        tiebreak_relevance,
    );
    if rbf.weighted_error < linear.weighted_error {
        rbf
    } else {
        linear
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::WindowGroup;
    use ctxrank_synth::ConceptId;

    /// A dataset where interest\[0\] perfectly predicts CTR.
    fn easy_dataset(n_stories: usize) -> Dataset {
        let groups = (0..n_stories)
            .map(|s| WindowGroup {
                story: s,
                window: 0,
                items: (0..4)
                    .map(|i| {
                        let ctr = 0.01 * (i + 1) as f64 + s as f64 * 1e-5;
                        Item {
                            surface: format!("c{s}-{i}"),
                            concept: ConceptId((s * 4 + i) as u32),
                            ctr,
                            baseline_score: 0.0,
                            interest: {
                                let mut v = vec![0.0; 9];
                                v[0] = ctr * 100.0;
                                v
                            },
                            relevance: [ctr * 10.0; 3],
                            relevance_raw: [ctr * 10.0; 3],
                            position_frac: 0.0,
                            gt_relevance: 0.5,
                        }
                    })
                    .collect(),
            })
            .collect();
        Dataset::new(groups)
    }

    #[test]
    fn learned_model_beats_random_on_easy_data() {
        let ds = easy_dataset(25);
        let random = evaluate_fixed(&ds, random_scorer(1));
        let learned = evaluate_learned(
            &ds,
            FeatureSet::AllInterest,
            &SvmConfig::default(),
            5,
            1,
            false,
        );
        assert!(
            learned.weighted_error < 0.05,
            "learned WER {}",
            learned.weighted_error
        );
        assert!(
            (random.weighted_error - 0.5).abs() < 0.15,
            "random WER {}",
            random.weighted_error
        );
        assert!(learned.ndcg[0] > random.ndcg[0]);
    }

    #[test]
    fn fixed_perfect_scorer_zero_error() {
        let ds = easy_dataset(10);
        let r = evaluate_fixed(&ds, |i| i.ctr);
        assert_eq!(r.weighted_error, 0.0);
        assert!((r.ndcg[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ablation_removes_dimensions() {
        let ds = easy_dataset(5);
        let item = &ds.groups[0].items[0];
        let full = FeatureSet::AllInterest.features(item);
        let without_ql = FeatureSet::InterestWithout("query_logs").features(item);
        let with_rel = FeatureSet::InterestPlusRelevance(MiningResource::Snippets).features(item);
        assert_eq!(full.len(), 9);
        assert_eq!(without_ql.len(), 6);
        assert_eq!(with_rel.len(), 10);
    }

    #[test]
    fn random_scorer_deterministic() {
        let ds = easy_dataset(3);
        let a = evaluate_fixed(&ds, random_scorer(7));
        let b = evaluate_fixed(&ds, random_scorer(7));
        assert_eq!(a, b);
    }
}
