//! Reproduces the paper's evaluation: every table, figure, ablation and
//! diagnostic under `results/`, from one process.
//!
//! ```sh
//! cargo run --release -p ctxrank-bench --bin reproduce              # all of results/
//! cargo run --release -p ctxrank-bench --bin reproduce -- table3_interestingness ablation_m
//! ```
//!
//! Each `NAME` is the stem of a results file; it runs the entry that
//! writes that file (`fig1_ndcg_interestingness` runs Table III, whose
//! rows Figure 1 repeats). An unknown name exits with status 2. Output
//! goes to `results/` under the working directory and is byte-identical
//! across processes and `CTXRANK_THREADS` values.
//!
//! Every distinct `ExperimentConfig` is built once. The default
//! experiment (and, on first use, its runtime ranker) answers every
//! entry that reads it, plus the default-valued row of each sweep. It is
//! dropped before the remaining sweep variants are built, one at a time,
//! so a single experiment is alive at any moment.

use ctxrank_bench::rankers::{
    cv_scores, evaluate_best_kernel, evaluate_fixed, evaluate_learned, random_scorer, EvalResult,
    FeatureSet,
};
use ctxrank_bench::report::{print_ndcg_figure, print_table, write_json};
use ctxrank_bench::{build_runtime_ranker, Experiment, ExperimentConfig, Item};
use ctxrank_eval::editorial::{StudyCell, Tally};
use ctxrank_eval::{
    paired_permutation_wer, weighted_pair_stats, ErrorRateAccumulator, NdcgAccumulator, PairStats,
    PeriodStats,
};
use ctxrank_features::{
    KeywordWeighting, MiningResource, RelevanceModel, RelevanceModelBuilder, SenseConfig,
};
use ctxrank_framework::{
    CompressedRelevanceStore, GlobalTidTable, MemoryReport, OnlineConfig, OnlineCtrAdjuster,
    RankedConcept, RuntimeRanker,
};
use ctxrank_ltr::{train, KernelKind, RankGroup, SvmConfig};
use ctxrank_shortcuts::{Pipeline, PipelineConfig};
use ctxrank_synth::clicks::simulate_story;
use ctxrank_synth::judges::{JudgeConfig, JudgePanel, Rating};
use ctxrank_synth::news::{generate_news, ground_truth_relevance, NewsConfig};
use ctxrank_synth::rng::binomial;
use ctxrank_synth::{ConceptId, ConceptSpec, NewsStory};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One registry entry: the results files it writes and how to compute them.
struct Entry {
    /// `(file stem, experiment tag)` per written file, in output order.
    /// The first stem names the entry.
    files: &'static [(&'static str, &'static str)],
    run: Run,
}

enum Run {
    /// One output per file, read off the default experiment.
    Default(fn(&Defaults) -> Vec<Output>),
    /// One table with a row per config variant.
    Sweep(fn() -> Sweep),
}

struct Sweep {
    title: &'static str,
    variants: Vec<Variant>,
    row: Policy,
}

/// A ranking policy's evaluation on one experiment.
type Policy = fn(&Experiment) -> EvalResult;

struct Variant {
    label: String,
    /// The swept fields hold their default values, so the default
    /// experiment stands in for this variant's.
    is_default: bool,
    config: ExperimentConfig,
}

enum Output {
    /// Technique rows, written by `report::write_json`.
    Rows(Vec<(String, EvalResult)>),
    /// A JSON object; the entry's tag is prepended as `"experiment"`.
    Json(Value),
}

/// The default experiment, shared by every entry that reads it.
struct Defaults {
    exp: Experiment,
    ranker: OnceCell<RuntimeRanker>,
}

impl Defaults {
    fn ranker(&self) -> &RuntimeRanker {
        self.ranker.get_or_init(|| build_runtime_ranker(&self.exp))
    }
}

impl Entry {
    fn name(&self) -> &'static str {
        self.files[0].0
    }
}

const ENTRIES: &[Entry] = &[
    Entry {
        files: &[("table2_summation", "table2_summation")],
        run: Run::Default(table2_summation),
    },
    Entry {
        files: &[
            ("table3_interestingness", "table3"),
            ("fig1_ndcg_interestingness", "fig1"),
        ],
        run: Run::Default(table3_interestingness),
    },
    Entry {
        files: &[
            ("table4_relevance", "table4"),
            ("fig2_ndcg_relevance", "fig2"),
        ],
        run: Run::Default(table4_relevance),
    },
    Entry {
        files: &[("table5_all_features", "table5"), ("fig3_ndcg_all", "fig3")],
        run: Run::Default(table5_all_features),
    },
    Entry {
        files: &[("ablation_kernel", "ablation_kernel")],
        run: Run::Default(ablation_kernel),
    },
    Entry {
        files: &[("feature_selection", "feature_selection")],
        run: Run::Default(feature_selection),
    },
    Entry {
        files: &[("significance_test", "significance_test")],
        run: Run::Default(significance_test),
    },
    Entry {
        files: &[("ambiguity_senses", "ambiguity_senses")],
        run: Run::Default(ambiguity_senses),
    },
    Entry {
        files: &[("framework_memory", "framework_memory")],
        run: Run::Default(framework_memory),
    },
    Entry {
        files: &[("table6_editorial", "table6_editorial")],
        run: Run::Default(table6_editorial),
    },
    Entry {
        files: &[("online_adaptation", "online_adaptation")],
        run: Run::Default(online_adaptation),
    },
    Entry {
        files: &[("realworld_ab", "realworld_ab")],
        run: Run::Default(realworld_ab),
    },
    Entry {
        files: &[("ablation_m", "ablation_m")],
        run: Run::Sweep(ablation_m),
    },
    Entry {
        files: &[("ablation_merge", "ablation_merge")],
        run: Run::Sweep(ablation_merge),
    },
    Entry {
        files: &[("ablation_weighting", "ablation_weighting")],
        run: Run::Sweep(ablation_weighting),
    },
    Entry {
        files: &[("ablation_window", "ablation_window")],
        run: Run::Sweep(ablation_window),
    },
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let entries = select(&names).unwrap_or_else(|unknown| {
        let known: Vec<&str> = ENTRIES
            .iter()
            .flat_map(|e| e.files.iter().map(|f| f.0))
            .collect();
        eprintln!(
            "reproduce: unknown name {unknown:?}\nknown names: {}",
            known.join(" ")
        );
        std::process::exit(2)
    });
    std::fs::create_dir_all("results").expect("create results/");

    let sweeps: Vec<(&Entry, Sweep)> = entries
        .iter()
        .filter_map(|&entry| match entry.run {
            Run::Sweep(sweep) => Some((entry, sweep())),
            Run::Default(_) => None,
        })
        .collect();

    // Every entry that reads the default experiment, and the sweeps'
    // default-valued rows. The experiment drops at the end of the block.
    let default_rows: Vec<Vec<Option<EvalResult>>> = {
        let defaults = Defaults {
            exp: Experiment::build(ExperimentConfig::default()),
            ranker: OnceCell::new(),
        };
        let stats = &defaults.exp.stats;
        println!(
            "dataset: {} stories kept, {} windows, {} concept instances, {} clicks",
            stats.stories_kept, stats.windows, stats.concept_instances, stats.total_clicks
        );
        for entry in &entries {
            if let Run::Default(run) = entry.run {
                write(entry, run(&defaults));
            }
        }
        let row = |sweep: &Sweep, v: &Variant| v.is_default.then(|| (sweep.row)(&defaults.exp));
        sweeps
            .iter()
            .map(|(_, sweep)| sweep.variants.iter().map(|v| row(sweep, v)).collect())
            .collect()
    };

    // The other variants, one experiment alive at a time.
    for ((entry, sweep), rows) in sweeps.into_iter().zip(default_rows) {
        let rows: Vec<(String, EvalResult)> = sweep
            .variants
            .into_iter()
            .zip(rows)
            .map(|(variant, row)| {
                let row = row.unwrap_or_else(|| (sweep.row)(&Experiment::build(variant.config)));
                (variant.label, row)
            })
            .collect();
        print_table(sweep.title, &rows);
        write(entry, vec![Output::Rows(rows)]);
    }
}

/// The entries that write any of `names`, in registry order; every entry
/// when `names` is empty. Errs with the first name no entry writes.
fn select(names: &[String]) -> Result<Vec<&'static Entry>, String> {
    let writes = |entry: &Entry, name: &str| entry.files.iter().any(|f| f.0 == name);
    if let Some(unknown) = names
        .iter()
        .find(|name| !ENTRIES.iter().any(|e| writes(e, name)))
    {
        return Err(unknown.clone());
    }
    Ok(ENTRIES
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|name| writes(e, name)))
        .collect())
}

fn write(entry: &Entry, outputs: Vec<Output>) {
    assert_eq!(outputs.len(), entry.files.len(), "{}", entry.name());
    for (&(stem, tag), output) in entry.files.iter().zip(outputs) {
        let path = format!("results/{stem}.json");
        let written = match output {
            Output::Rows(rows) => write_json(&path, tag, &rows),
            Output::Json(Value::Map(mut fields)) => {
                fields.insert(0, ("experiment".to_string(), Value::Str(tag.to_string())));
                serde_json::to_string_pretty(&Value::Map(fields))
                    .map_err(std::io::Error::from)
                    .and_then(|text| std::fs::write(&path, text))
            }
            Output::Json(_) => panic!("{path}: a JSON report must be an object"),
        };
        written.unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

// ---------------------------------------------------------------------
// Tables II–VI and Figures 1–3 (§IV-C, §V).
// ---------------------------------------------------------------------

/// Each labelled policy's row on `exp`.
fn evaluate(exp: &Experiment, policies: &[(&str, Policy)]) -> Vec<(String, EvalResult)> {
    policies
        .iter()
        .map(|(label, policy)| (label.to_string(), policy(exp)))
        .collect()
}

fn random(exp: &Experiment) -> EvalResult {
    evaluate_fixed(&exp.dataset, random_scorer(1))
}

fn concept_vector(exp: &Experiment) -> EvalResult {
    evaluate_fixed(&exp.dataset, |i| i.baseline_score)
}

fn snippet_relevance(exp: &Experiment) -> EvalResult {
    evaluate_fixed(&exp.dataset, |i| {
        i.relevance_raw_for(MiningResource::Snippets)
    })
}

fn interestingness_model(exp: &Experiment) -> EvalResult {
    evaluate_best_kernel(&exp.dataset, FeatureSet::AllInterest, 5, 7, false)
}

fn combined_model(exp: &Experiment) -> EvalResult {
    evaluate_best_kernel(
        &exp.dataset,
        FeatureSet::InterestPlusRelevance(MiningResource::Snippets),
        5,
        7,
        true,
    )
}

/// Table II — relevance-keyword summations. Specific concepts tower over
/// general phrases: junk "get much lower chance of getting identified as
/// relevant in any context since their relevant terms end up having
/// small scores" (§IV-C). Computed as the paper describes, from literal
/// tf·idf snippet keyword scores over every concept in the universe.
fn table2_summation(d: &Defaults) -> Vec<Output> {
    let world = &d.exp.world;
    let mut builder = RelevanceModelBuilder::new(&world.corpus, &world.query_log);
    builder.min_idf = 3.2;
    builder.weighting = KeywordWeighting::RawTf;

    let mut rows: Vec<(String, f64, bool)> = Vec::new();
    for c in world.universe.all() {
        let mined = builder.mine(&c.terms, MiningResource::Snippets);
        rows.push((c.surface(), mined.summation(), c.is_junk()));
    }
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

    println!("\n=== Table II: concepts and their summation values ===");
    println!("{:<42} {:>12} {:>9}", "Concept", "Summation", "class");
    for (s, sum, junk) in rows.iter().take(3) {
        let class = if *junk { "junk" } else { "specific" };
        println!("{s:<42} {sum:>12.1} {class:>9}");
    }
    println!("{:^65}", "...");
    for (s, sum, _) in rows.iter().filter(|r| r.2).take(3) {
        println!("{:<42} {:>12.1} {:>9}", s, sum, "junk");
    }

    let (mut spec_sum, mut spec_n, mut junk_sum, mut junk_n) = (0.0, 0usize, 0.0, 0usize);
    for (_, sum, junk) in &rows {
        if *junk {
            junk_sum += sum;
            junk_n += 1;
        } else {
            spec_sum += sum;
            spec_n += 1;
        }
    }
    let spec_mean = spec_sum / spec_n.max(1) as f64;
    let junk_mean = junk_sum / junk_n.max(1) as f64;
    let median = |junk: bool| {
        let mut v: Vec<f64> = rows.iter().filter(|r| r.2 == junk).map(|r| r.1).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    };
    let half = rows.len() / 2;
    let junk_in_top = rows[..half].iter().filter(|r| r.2).count();
    println!(
        "\nspecific concepts: n={spec_n}, mean summation {spec_mean:.1}, median {:.1}\n\
         junk concepts:     n={junk_n}, mean summation {junk_mean:.1}, median {:.1}\n\
         ratio specific/junk = {:.1}x (paper: ~9000 vs ~1800, ~5x)\n\
         junk concepts in the top half of the ranking: {junk_in_top}/{junk_n}",
        median(false),
        median(true),
        spec_mean / junk_mean.max(1e-9)
    );

    vec![Output::Json(json!({
        "specific_mean": spec_mean,
        "junk_mean": junk_mean,
        "ratio": spec_mean / junk_mean.max(1e-9),
        "junk_in_top_half": junk_in_top,
        "top3": rows.iter().take(3).map(|(s, v, _)| json!({"concept": s, "summation": v})).collect::<Vec<_>>(),
    }))]
}

/// Table III and Figure 1 — interestingness features. Paper: Random
/// 50.01 %, Concept Vector 30.22 %, All Features 23.69 %, and
/// leave-one-group-out ablations within a point of All Features.
fn table3_interestingness(d: &Defaults) -> Vec<Output> {
    let exp = &d.exp;
    let mut rows = evaluate(
        exp,
        &[
            ("Random", random),
            ("Concept Vector Score", concept_vector),
            ("All Features", interestingness_model),
        ],
    );
    for (label, group) in [
        ("- Query Logs", "query_logs"),
        ("- Taxonomy Based", "taxonomy"),
        ("- Search Results", "search_results"),
        ("- Other", "other"),
        ("- Text Based", "text_based"),
    ] {
        rows.push((
            label.to_string(),
            evaluate_best_kernel(
                &exp.dataset,
                FeatureSet::InterestWithout(group),
                5,
                7,
                false,
            ),
        ));
    }
    print_table(
        "Table III: weighted error rates with interestingness features",
        &rows,
    );
    println!(
        "\npaper: Random 50.01 / Concept Vector 30.22 / All 23.69;\n\
         ablations: 24.50 (-QL), 24.47 (-Tax), 23.80 (-SR), 23.78 (-Other), 23.73 (-Text)"
    );

    let mut fig1 = rows[..3].to_vec();
    fig1[2].0 = "Interestingness Model".to_string();
    print_ndcg_figure("Figure 1: NDCG@k with interestingness features", &fig1);
    vec![Output::Rows(rows), Output::Rows(fig1)]
}

/// Table IV and Figure 2 — relevance score alone, per mining resource.
/// Paper: Prisma 32.32 %, Query Suggestions 31.23 %, Snippets 24.86 %.
fn table4_relevance(d: &Defaults) -> Vec<Output> {
    let exp = &d.exp;
    let mut rows = evaluate(
        exp,
        &[("Random", random), ("Concept Vector Score", concept_vector)],
    );
    for r in MiningResource::ALL {
        rows.push((
            format!("{r:?}"),
            evaluate_fixed(&exp.dataset, |i| i.relevance_raw_for(r)),
        ));
    }
    print_table(
        "Table IV: weighted error rates, relevance score only",
        &rows,
    );
    println!(
        "\npaper: Prisma 32.32 / Query Suggestions 31.23 / Snippets 24.86\n\
         (our Prisma comparator lacks the proprietary tool's full weaknesses; see EXPERIMENTS.md)"
    );
    print_ndcg_figure("Figure 2: NDCG@k, relevance score only", &rows);
    vec![Output::Rows(rows.clone()), Output::Rows(rows)]
}

/// Table V and Figure 3 — interestingness + snippet relevance. Paper:
/// the combined model wins by a wide margin, 18.66 %.
fn table5_all_features(d: &Defaults) -> Vec<Output> {
    let exp = &d.exp;
    let rows = evaluate(
        exp,
        &[
            ("Random", random),
            ("Concept Vector Score", concept_vector),
            ("Best Interestingness Model", interestingness_model),
            ("Best Relevance (Snippets)", snippet_relevance),
            ("Interestingness + Relevance", combined_model),
        ],
    );
    print_table(
        "Table V: weighted error rates when all features are used",
        &rows,
    );
    println!(
        "\npaper: Random 50.01 / Concept Vector 30.22 / Interestingness 23.69 /\n\
         Relevance 24.86 / Interestingness+Relevance 18.66"
    );
    let fig3: Vec<_> = [0, 1, 4].map(|i| rows[i].clone()).to_vec();
    print_ndcg_figure("Figure 3: NDCG@k with all features", &fig3);
    vec![Output::Rows(rows), Output::Rows(fig3)]
}

/// Table VI — the editorial study: top-3 entities per News story and
/// top-2 per Answers snippet, picked by the concept-vector score and by
/// the learned ranker, judged on interestingness and relevance. Paper:
/// the combined non-interesting / non-relevant share falls 23.3 % →
/// 12.8 %; the News Very:Somewhat relevance ratio rises 1.82 → 2.52.
fn table6_editorial(d: &Defaults) -> Vec<Output> {
    let exp = &d.exp;
    let ranker = d.ranker();
    // Fresh evaluation corpora, disjoint from the training stories.
    let news = generate_news(
        exp.config.world.seed ^ 0xed17,
        &exp.world.lexicon,
        &exp.world.universe,
        &NewsConfig {
            num_stories: 400,
            ..NewsConfig::default()
        },
    );
    let answers = generate_news(
        exp.config.world.seed ^ 0xa25,
        &exp.world.lexicon,
        &exp.world.universe,
        &NewsConfig {
            num_stories: 800,
            min_sentences: 3,
            max_sentences: 7,
            min_on_topic: 2,
            max_on_topic: 4,
            ..NewsConfig::default()
        },
    );
    let by_surface = concepts_by_surface(exp);
    let pipeline = annotation_pipeline(exp);
    let mut judges = JudgePanel::new(exp.config.seed ^ 0x6ed, JudgeConfig::default());

    // Judge the top-k picks of one ranking policy over one corpus.
    let mut study = |stories: &[NewsStory], top_k: usize, learned: bool| -> StudyCell {
        let mut cell = StudyCell::default();
        for story in stories {
            let doc = pipeline.process(&story.text);
            let mut candidates: Vec<(String, f64)> = Vec::new();
            let mut seen = HashSet::new();
            for a in doc.rankable() {
                if by_surface.contains_key(&a.surface) && seen.insert(a.surface.clone()) {
                    candidates.push((a.surface.clone(), a.score));
                }
            }
            if candidates.is_empty() {
                continue;
            }
            let picks: Vec<String> = if learned {
                let surfaces: Vec<String> = candidates.iter().map(|(s, _)| s.clone()).collect();
                ranker
                    .top_n(&doc.text, &surfaces, top_k)
                    .into_iter()
                    .map(|r| r.surface)
                    .collect()
            } else {
                candidates.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
                candidates.into_iter().take(top_k).map(|(s, _)| s).collect()
            };
            for surface in picks {
                let spec = exp
                    .world
                    .universe
                    .get(on_topic(exp, &by_surface[&surface], story));
                let gt_rel =
                    ground_truth_relevance(spec, story.topic, story.center, story.secondary_topic);
                let j = judges.judge(spec.interestingness, gt_rel);
                tally(&mut cell.interestingness, j.interestingness);
                tally(&mut cell.relevance, j.relevance);
            }
        }
        cell
    };
    let cv_news = study(&news, 3, false);
    let cv_answers = study(&answers, 2, false);
    let lr_news = study(&news, 3, true);
    let lr_answers = study(&answers, 2, true);

    println!("\n=== Table VI: editorial study ===");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "", "CV News", "CV Answers", "LR News", "LR Answers"
    );
    let cells = [cv_news, cv_answers, lr_news, lr_answers];
    print_scale("Interestingness", cells.map(|c| c.interestingness));
    print_scale("Relevance", cells.map(|c| c.relevance));
    let cv_bad = (cv_news.combined_bad_fraction() + cv_answers.combined_bad_fraction()) / 2.0;
    let lr_bad = (lr_news.combined_bad_fraction() + lr_answers.combined_bad_fraction()) / 2.0;
    println!(
        "\ncombined non-interesting/non-relevant: concept vector {:.1}% -> ranking algorithm {:.1}% \
         ({:.1}% decrease; paper: 23.3% -> 12.8%, 45.1% decrease)",
        cv_bad * 100.0,
        lr_bad * 100.0,
        (1.0 - lr_bad / cv_bad.max(1e-12)) * 100.0
    );
    println!(
        "News Very:Somewhat relevance ratio: {:.2} -> {:.2} (paper: 1.82 -> 2.52)",
        cv_news.relevance.very_to_somewhat_ratio(),
        lr_news.relevance.very_to_somewhat_ratio()
    );

    vec![Output::Json(json!({
        "concept_vector": {"news": cv_news, "answers": cv_answers},
        "ranking_algorithm": {"news": lr_news, "answers": lr_answers},
        "combined_bad": {"concept_vector": cv_bad, "ranking_algorithm": lr_bad},
    }))]
}

fn tally(t: &mut Tally, r: Rating) {
    match r {
        Rating::Very => t.very += 1,
        Rating::Somewhat => t.somewhat += 1,
        Rating::Not => t.not += 1,
        Rating::CantTell => t.cant_tell += 1,
    }
}

fn print_scale(name: &str, cells: [Tally; 4]) {
    println!("{name}:");
    let shares = cells.map(|t| {
        [
            t.frac_very(),
            t.frac_somewhat(),
            t.frac_not(),
            t.frac_cant_tell(),
        ]
        .map(|f| f * 100.0)
    });
    for (i, label) in ["Very", "Somewhat", "Not", "Can't Tell"].iter().enumerate() {
        let [a, b, c, d] = shares.map(|s| s[i]);
        println!("  {label:<26} {a:>9.1}% {b:>9.1}% {c:>9.1}% {d:>9.1}%");
    }
}

// ---------------------------------------------------------------------
// Ablations (§V-A design choices).
// ---------------------------------------------------------------------

/// The ranking-SVM kernel: §V-A.3 tests "both linear and the radial
/// basis function kernels ... and report[s] the best result"; this
/// reports each.
fn ablation_kernel(d: &Defaults) -> Vec<Output> {
    let mut kernels = vec![("linear".to_string(), KernelKind::Linear)];
    for gamma in [0.5, 0.1] {
        let label = format!("rbf (gamma {gamma}, 256 features)");
        kernels.push((label, KernelKind::Rbf { gamma, dim: 256 }));
    }
    let mut rows = Vec::new();
    for (fs_label, fs, tiebreak) in [
        ("interestingness", FeatureSet::AllInterest, false),
        (
            "interestingness + relevance",
            FeatureSet::InterestPlusRelevance(MiningResource::Snippets),
            true,
        ),
    ] {
        for (k_label, kernel) in &kernels {
            let svm = SvmConfig {
                kernel: *kernel,
                seed: 7,
                ..SvmConfig::default()
            };
            rows.push((
                format!("{fs_label}, {k_label}"),
                evaluate_learned(&d.exp.dataset, fs, &svm, 5, 7, tiebreak),
            ));
        }
    }
    print_table("Ablation: ranking-SVM kernel", &rows);
    vec![Output::Rows(rows)]
}

/// m, the number of relevance keywords per concept (the paper fixes
/// m = 100).
fn ablation_m() -> Sweep {
    let default = ExperimentConfig::default();
    let variants = [10usize, 25, 50, 100, 200].map(|m| Variant {
        label: format!("m = {m}"),
        is_default: m == default.relevance_m,
        config: ExperimentConfig {
            relevance_m: m,
            ..default.clone()
        },
    });
    Sweep {
        title: "Ablation: keywords per concept (snippet relevance only)",
        variants: variants.into(),
        row: snippet_relevance,
    }
}

/// The §II-B multi-term specificity bonus ("more specific concepts
/// eventually bubble up").
fn ablation_merge() -> Sweep {
    let default = ExperimentConfig::default();
    let variants = [("with", true), ("without", false)].map(|(with, bonus)| Variant {
        label: format!("{with} multi-term bonus"),
        is_default: bonus == default.multiterm_bonus,
        config: ExperimentConfig {
            multiterm_bonus: bonus,
            ..default.clone()
        },
    });
    Sweep {
        title: "Ablation: §II-B multi-term bonus (concept-vector baseline)",
        variants: variants.into(),
        row: concept_vector,
    }
}

/// Keyword weighting for relevance mining: raw `tf·idf`, log-damped
/// `(1+ln tf)·idf` and presence (`idf` only); see EXPERIMENTS.md for why
/// presence measures the coverage §V-A.5 relies on.
fn ablation_weighting() -> Sweep {
    let default = ExperimentConfig::default();
    let variants = [
        ("raw tf x idf", KeywordWeighting::RawTf),
        ("(1 + ln tf) x idf", KeywordWeighting::LogTf),
        ("presence (idf only)", KeywordWeighting::Presence),
    ]
    .map(|(label, w)| Variant {
        label: label.to_string(),
        is_default: w == default.keyword_weighting,
        config: ExperimentConfig {
            keyword_weighting: w,
            ..default.clone()
        },
    });
    Sweep {
        title: "Ablation: keyword weighting (snippet relevance only)",
        variants: variants.into(),
        row: snippet_relevance,
    }
}

/// The §V-A.1 position-bias window (paper: 2500 chars / 500 overlap),
/// with the overlap fixed at 20 %.
fn ablation_window() -> Sweep {
    let default = ExperimentConfig::default();
    let variants = [1000usize, 2500, 5000, 20000].map(|size| Variant {
        label: if size >= 20000 {
            format!("window {size} (no split in practice)")
        } else {
            format!("window {size} / overlap {}", size / 5)
        },
        is_default: size == default.window_size && size / 5 == default.window_overlap,
        config: ExperimentConfig {
            window_size: size,
            window_overlap: size / 5,
            ..default.clone()
        },
    });
    Sweep {
        title: "Ablation: window size (combined model)",
        variants: variants.into(),
        row: combined_model,
    }
}

// ---------------------------------------------------------------------
// Diagnostics: §IV-A feature selection, significance, §IV-C ambiguity.
// ---------------------------------------------------------------------

/// §IV-A feature selection: the idf-of-terms candidates and the
/// regular-query search feature were "not useful and eliminated". Re-run
/// the selection: the nine Table I features against the same nine plus
/// each rejected candidate, under five-fold cross-validation.
fn feature_selection(d: &Defaults) -> Vec<Output> {
    let exp = &d.exp;
    // The rejected candidate features per surface.
    let mut extra: HashMap<String, (f64, f64, f64)> = HashMap::new();
    for surface in exp.interest_raw.keys() {
        let terms: Vec<String> = surface.split(' ').map(str::to_string).collect();
        // Candidate A: result count for the concept as a *regular*
        // (conjunctive) query rather than a phrase query.
        let regular = (exp.world.corpus.conjunctive_count(&terms) as f64).ln_1p();
        // Candidates B/C: mean and minimum idf of the constituent terms.
        let idfs: Vec<f64> = terms.iter().map(|t| exp.world.corpus.idf(t)).collect();
        let mean_idf = idfs.iter().sum::<f64>() / idfs.len().max(1) as f64;
        let min_idf = idfs.iter().cloned().fold(f64::INFINITY, f64::min);
        extra.insert(surface.clone(), (regular, mean_idf, min_idf));
    }
    let with = |item: &Item, picks: &[usize]| {
        let (a, b, c) = extra[&item.surface];
        let mut f = item.interest.clone();
        f.extend(picks.iter().map(|&k| [a, b, c][k]));
        f
    };
    let rows = [
        ("Table I features (9)", &[][..]),
        ("+ searchengine_regular", &[0]),
        ("+ term idf (mean, min)", &[1, 2]),
        ("+ all rejected candidates", &[0, 1, 2]),
    ]
    .map(|(label, picks)| (label.to_string(), evaluate_custom(exp, |i| with(i, picks))));
    print_table("§IV-A feature selection: rejected candidates", &rows);
    vec![Output::Rows(rows.into())]
}

/// Evaluate a custom per-item feature assembly under 5-fold CV.
fn evaluate_custom(exp: &Experiment, features: impl Fn(&Item) -> Vec<f64>) -> EvalResult {
    let ds = &exp.dataset;
    let mut err = ErrorRateAccumulator::new();
    let mut ndcg = NdcgAccumulator::new(&[1, 2, 3]);
    for (train_groups, test_groups) in ds.story_folds(5, 7) {
        let training: Vec<RankGroup> = train_groups
            .iter()
            .map(|&g| {
                RankGroup::from_pairs(
                    ds.groups[g]
                        .items
                        .iter()
                        .map(|item| (features(item), item.ctr)),
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
        let model = train(&training, &SvmConfig::default());
        for &g in &test_groups {
            let group = &ds.groups[g];
            let scores: Vec<f64> = group
                .items
                .iter()
                .map(|i| model.score(&features(i)))
                .collect();
            let ctrs: Vec<f64> = group.items.iter().map(|i| i.ctr).collect();
            let gains: Vec<f64> = ctrs.iter().map(|&c| ds.buckets.gain(c)).collect();
            err.add(&scores, &ctrs);
            ndcg.add(&scores, &gains);
        }
    }
    let m = ndcg.means();
    EvalResult {
        weighted_error: err.weighted_error_rate(),
        error: err.error_rate(),
        ndcg: [m[0], m[1], m[2]],
    }
}

/// Paired permutation tests (10 000 permutations over per-window
/// weighted pair statistics) behind the paper's "significantly lower"
/// claims.
fn significance_test(d: &Defaults) -> Vec<Output> {
    const PERMUTATIONS: usize = 10_000;
    let exp = &d.exp;
    let svm = SvmConfig::default();
    let baseline: Vec<Vec<f64>> = exp
        .dataset
        .groups
        .iter()
        .map(|g| g.items.iter().map(|i| i.baseline_score).collect())
        .collect();
    let interest = cv_scores(&exp.dataset, FeatureSet::AllInterest, &svm, 5, 7, false);
    let combined = cv_scores(
        &exp.dataset,
        FeatureSet::InterestPlusRelevance(MiningResource::Snippets),
        &svm,
        5,
        7,
        true,
    );
    let per_group = |scores: &[Vec<f64>]| -> Vec<PairStats> {
        exp.dataset
            .groups
            .iter()
            .zip(scores)
            .map(|(g, s)| {
                let ctrs: Vec<f64> = g.items.iter().map(|i| i.ctr).collect();
                weighted_pair_stats(s, &ctrs)
            })
            .collect()
    };
    let (b, i, c) = (
        per_group(&baseline),
        per_group(&interest),
        per_group(&combined),
    );

    println!("\n=== paired permutation tests ({PERMUTATIONS} permutations) ===");
    println!(
        "{:<46} {:>8} {:>8} {:>10}",
        "comparison (A vs B)", "WER A", "WER B", "p-value"
    );
    let mut rows = Vec::new();
    for (label, a, b) in [
        ("combined vs concept-vector baseline", &c, &b),
        ("combined vs interestingness-only", &c, &i),
        ("interestingness-only vs baseline", &i, &b),
    ] {
        let per_doc: Vec<(PairStats, PairStats)> =
            a.iter().copied().zip(b.iter().copied()).collect();
        let out = paired_permutation_wer(&per_doc, PERMUTATIONS, 0x51);
        println!(
            "{:<46} {:>7.2}% {:>7.2}% {:>10.5}",
            label,
            out.wer_a * 100.0,
            out.wer_b * 100.0,
            out.p_value
        );
        rows.push(json!({
            "comparison": label,
            "wer_a": out.wer_a,
            "wer_b": out.wer_b,
            "p_value": out.p_value,
        }));
    }
    vec![Output::Json(json!({
        "permutations": PERMUTATIONS,
        "rows": rows,
    }))]
}

/// §IV-C ambiguous concepts: they "cluster poorly globally", but local
/// sense clusters can boost their scores. Compares the pooled snippet
/// relevance model with the sense-clustered one on contexts drawn from
/// each sense's topic.
fn ambiguity_senses(d: &Defaults) -> Vec<Output> {
    let world = &d.exp.world;
    let mut builder = RelevanceModelBuilder::new(&world.corpus, &world.query_log);
    builder.min_idf = 3.2;
    // The production store keeps a bounded keyword budget per concept
    // (§VI). Ambiguity hurts exactly when the senses have to share that
    // budget — mine under a tight budget to expose it. Sense clusters
    // get the same per-sense budget.
    builder.m = 20;

    // Ambiguous surfaces: one surface shared by concepts in >= 2 topics,
    // walked in surface order so the rows and the two means repeat bit
    // for bit across processes.
    let mut by_surface: BTreeMap<String, Vec<&ConceptSpec>> = BTreeMap::new();
    for c in world.universe.all() {
        by_surface.entry(c.surface()).or_default().push(c);
    }
    let ambiguous: Vec<(&String, &Vec<&ConceptSpec>)> = by_surface
        .iter()
        .filter(|(_, specs)| {
            let topics: BTreeSet<_> = specs.iter().filter_map(|s| s.topic).collect();
            topics.len() >= 2
        })
        .collect();
    println!(
        "\n=== §IV-C ambiguous concepts ===\nambiguous surfaces in the universe: {} (planted: {})",
        ambiguous.len(),
        world.config.universe.num_ambiguous
    );

    let mut rows = Vec::new();
    let mut pooled_sum = 0.0;
    let mut sense_sum = 0.0;
    for (surface, specs) in &ambiguous {
        let terms: Vec<String> = surface.split(' ').map(str::to_string).collect();
        let pooled = builder.mine(&terms, MiningResource::Snippets);
        let senses = builder.mine_snippet_senses(&terms, &SenseConfig::default());

        // One on-topic story context per sense.
        let mut contexts = Vec::new();
        for spec in specs.iter().take(2) {
            let topic = spec.topic.expect("ambiguous specs are specific");
            if let Some(story) = world
                .news
                .iter()
                .filter(|s| s.topic == topic)
                .min_by(|a, b| {
                    let da = ctxrank_synth::lexicon::center_distance(a.center, spec.center);
                    let db = ctxrank_synth::lexicon::center_distance(b.center, spec.center);
                    da.partial_cmp(&db).expect("finite")
                })
            {
                contexts.push(RelevanceModel::context_of(&story.text));
            }
        }
        if contexts.len() < 2 {
            continue;
        }

        // Pooling dilutes an ambiguous concept's keyword mass across
        // senses, so its *minority* sense scores low in its own context;
        // local clusters restore it. Measure the weaker of the two
        // on-topic scores under each model.
        let weakest_pooled = contexts
            .iter()
            .map(|c| pooled.score_context(c))
            .fold(f64::INFINITY, f64::min);
        let weakest_sense = contexts
            .iter()
            .map(|c| senses.score_context(c))
            .fold(f64::INFINITY, f64::min);
        // And whether the sense model can actually tell the two apart.
        let discriminates = senses.num_senses() >= 2
            && senses.best_sense(&contexts[0]) != senses.best_sense(&contexts[1]);
        pooled_sum += weakest_pooled;
        sense_sum += weakest_sense;

        println!(
            "{:<28} senses {}  minority-sense score: pooled {:>7.1}  sense-aware {:>7.1}  discriminates {}",
            surface,
            senses.num_senses(),
            weakest_pooled,
            weakest_sense,
            discriminates
        );
        rows.push(json!({
            "surface": surface,
            "num_senses": senses.num_senses(),
            "minority_pooled": weakest_pooled,
            "minority_sense_aware": weakest_sense,
            "discriminates": discriminates,
        }));
    }
    let n = rows.len().max(1) as f64;
    println!(
        "mean minority-sense on-topic score: pooled {:.1} vs sense-aware {:.1}",
        pooled_sum / n,
        sense_sum / n
    );
    vec![Output::Json(json!({
        "rows": rows,
        "pooled_mean_minority": pooled_sum / n,
        "sense_mean_minority": sense_sum / n,
    }))]
}

// ---------------------------------------------------------------------
// The runtime framework (§VI), online adaptation (§VIII) and the
// production A/B (§V-C).
// ---------------------------------------------------------------------

/// §VI memory accounting: the paper budgets 18 B of packed
/// interestingness and ≤ 400 B of relevance keywords per concept, and
/// suggests Golomb coding. Measures the built stores and extrapolates to
/// one million concepts.
fn framework_memory(d: &Defaults) -> Vec<Output> {
    let exp = &d.exp;
    let ranker = d.ranker();
    let report = MemoryReport::measure(ranker.interest(), ranker.relevance(), ranker.tids());
    // The actual Golomb-backed store, not just the projection.
    let snippets =
        &exp.relevance_models[ctxrank_bench::dataset::resource_index(MiningResource::Snippets)];
    let compressed = CompressedRelevanceStore::build(
        exp.interest_raw
            .keys()
            .filter_map(|s| snippets.terms(s).map(|rt| (s.as_str(), rt))),
        &mut GlobalTidTable::new(),
    );

    println!("\n=== §VI framework memory accounting ===");
    println!("concepts stored:              {}", report.num_concepts);
    println!("terms in Global TID Table:    {}", report.num_terms);
    println!(
        "interestingness store:        {} bytes ({:.1} B/concept; paper: 18)",
        report.interest_bytes,
        report.interest_bytes_per_concept()
    );
    println!(
        "relevance store:              {} bytes ({:.1} B/concept; paper: <= 400)",
        report.relevance_bytes,
        report.relevance_bytes_per_concept()
    );
    println!(
        "after Golomb coding the TIDs: {} bytes ({:.1}% saved, projected)",
        report.golomb_relevance_bytes,
        report.golomb_saving() * 100.0
    );
    println!(
        "CompressedRelevanceStore:     {} bytes ({:.1}% saved, measured end-to-end)",
        compressed.compressed_bytes(),
        (1.0 - compressed.compressed_bytes() as f64 / report.relevance_bytes as f64) * 100.0
    );
    println!(
        "extrapolated to 1M concepts:  {:.1} MB (paper: ~418 MB before compression)",
        report.extrapolate_bytes(1_000_000) as f64 / 1e6
    );

    vec![Output::Json(json!({
        "num_concepts": report.num_concepts,
        "num_terms": report.num_terms,
        "interest_bytes_per_concept": report.interest_bytes_per_concept(),
        "relevance_bytes_per_concept": report.relevance_bytes_per_concept(),
        "golomb_saving": report.golomb_saving(),
        "compressed_store_bytes": compressed.compressed_bytes(),
        "extrapolated_1m_bytes": report.extrapolate_bytes(1_000_000),
    }))]
}

/// §VIII online reaction to world events: a cold concept's true CTR
/// jumps ~10x for a few feedback batches, then reverts. The static model
/// cannot react; the online adjuster (fast/slow CTR averages) boosts the
/// concept within a batch or two and decays the boost afterwards.
/// Reports its mean rank per batch under both rankers.
fn online_adaptation(d: &Defaults) -> Vec<Output> {
    const BATCHES: usize = 14;
    const EVENT_START: usize = 4;
    const EVENT_END: usize = 8;
    const STORIES_PER_BATCH: usize = 40;
    const VIEWS_PER_STORY: u64 = 400;

    let exp = &d.exp;
    let ranker = d.ranker();
    let universe = &exp.world.universe;
    let mut adjuster = OnlineCtrAdjuster::new(OnlineConfig {
        // Model scores span several units after standardization; let the
        // boost be strong enough to carry a bottom-ranked concept to the
        // top during a genuine event.
        gain: 2.5,
        max_adjust: 6.0,
        ..OnlineConfig::default()
    });
    let mut r = StdRng::seed_from_u64(0x0e1);
    let spec_of = |surface: &str| universe.all().iter().find(|c| c.surface() == surface);

    // The coldest specific concept the dataset knows, and a fixed slate
    // from its topic (hot competitors included).
    let mut known: Vec<&str> = exp.interest_raw.keys().map(String::as_str).collect();
    known.sort();
    let event_surface = known
        .iter()
        .filter_map(|s| {
            universe
                .all()
                .iter()
                .find(|c| c.surface() == *s && !c.is_junk())
        })
        .min_by(|a, b| {
            a.interestingness
                .partial_cmp(&b.interestingness)
                .expect("finite")
        })
        .expect("a cold concept")
        .surface();
    let event_topic = spec_of(&event_surface)
        .and_then(|c| c.topic)
        .expect("event concept has a topic");
    let mut slate: Vec<String> = universe
        .of_topic(event_topic)
        .filter(|c| exp.interest_raw.contains_key(&c.surface()))
        .map(|c| c.surface())
        .take(8)
        .collect();
    if !slate.contains(&event_surface) {
        slate.push(event_surface.clone());
    }
    let stories: Vec<&NewsStory> = exp
        .world
        .news
        .iter()
        .filter(|s| s.topic == event_topic)
        .take(STORIES_PER_BATCH)
        .collect();

    println!("\n=== §VIII online adaptation: breaking-news simulation ===");
    println!(
        "event concept: {event_surface:?} (slate of {} same-topic candidates)",
        slate.len()
    );
    println!(
        "{:>5} {:>8} {:>14} {:>14} {:>12}",
        "batch", "phase", "static rank", "online rank", "adjustment"
    );
    let mut batches = Vec::new();
    for batch in 0..BATCHES {
        let event_active = (EVENT_START..EVENT_END).contains(&batch);

        // The event concept's rank under both policies.
        let pos = |ranked: &[RankedConcept]| {
            ranked
                .iter()
                .position(|x| x.surface == event_surface)
                .expect("event concept in slate") as f64
                + 1.0
        };
        let mut static_rank_sum = 0.0;
        let mut online_rank_sum = 0.0;
        for story in &stories {
            static_rank_sum += pos(&ranker.rank(&story.text, &slate));
            online_rank_sum += pos(&ranker.rank_online(&story.text, &slate, &adjuster));
        }
        let n = stories.len() as f64;

        // The batch's click feedback: every slate concept gets its usual
        // CTR; the event concept's CTR spikes during the event.
        for surface in &slate {
            let spec = spec_of(surface).expect("slate concept");
            let ctr = if *surface == event_surface && event_active {
                0.08 // the world event: everyone clicks
            } else {
                0.06 * spec.interestingness.powf(0.8) + 0.002
            };
            let views = VIEWS_PER_STORY * STORIES_PER_BATCH as u64;
            adjuster.record(surface, views, binomial(&mut r, views, ctr));
        }

        let adjustment = adjuster.adjustment(&event_surface);
        let phase = if event_active { "EVENT" } else { "quiet" };
        println!(
            "{batch:>5} {phase:>8} {:>14.2} {:>14.2} {adjustment:>12.3}",
            static_rank_sum / n,
            online_rank_sum / n,
        );
        batches.push(json!({
            "batch": batch,
            "event_active": event_active,
            "static_rank": static_rank_sum / n,
            "online_rank": online_rank_sum / n,
            "adjustment": adjustment,
        }));
    }
    vec![Output::Json(json!({
        "event_concept": event_surface,
        "batches": batches,
    }))]
}

/// §V-C production A/B: fifteen treatment weeks annotating only each
/// story's top-3 by the learned ranker, against twenty baseline weeks
/// annotating every rankable detection. Paper: weekly views −52.5 %,
/// clicks −2.0 %, CTR +100.1 %. Fresh stories and click draws per week.
fn realworld_ab(d: &Defaults) -> Vec<Output> {
    const BASELINE_WEEKS: u32 = 20;
    const TREATMENT_WEEKS: u32 = 15;
    const STORIES_PER_WEEK: usize = 60;
    const TOP_K: usize = 3;

    let exp = &d.exp;
    let ranker = d.ranker();
    let by_surface = concepts_by_surface(exp);
    let pipeline = annotation_pipeline(exp);
    let run_period = |weeks: u32, seed_base: u64, annotate_top_k: bool| -> PeriodStats {
        let mut stats = PeriodStats::new(weeks);
        for week in 0..weeks {
            let stories = generate_news(
                seed_base ^ (week as u64).wrapping_mul(0xab1),
                &exp.world.lexicon,
                &exp.world.universe,
                &NewsConfig {
                    num_stories: STORIES_PER_WEEK,
                    ..NewsConfig::default()
                },
            );
            for story in &stories {
                let doc = pipeline.process(&story.text);
                // Candidate entities with ground truth.
                let mut seen = HashSet::new();
                let mut entities: Vec<(String, ConceptId, f64, f64)> = Vec::new();
                for a in doc.rankable() {
                    if !seen.insert(a.surface.clone()) {
                        continue;
                    }
                    let Some(cands) = by_surface.get(&a.surface) else {
                        continue;
                    };
                    let cid = on_topic(exp, cands, story);
                    let gt = ground_truth_relevance(
                        exp.world.universe.get(cid),
                        story.topic,
                        story.center,
                        story.secondary_topic,
                    );
                    entities.push((a.surface.clone(), cid, gt, a.position_frac));
                }
                // The annotation policy under test.
                let annotated: Vec<(ConceptId, f64, f64)> = if annotate_top_k {
                    let surfaces: Vec<String> = entities.iter().map(|e| e.0.clone()).collect();
                    ranker
                        .top_n(&doc.text, &surfaces, TOP_K)
                        .iter()
                        .filter_map(|r| entities.iter().find(|e| e.0 == r.surface))
                        .map(|e| (e.1, e.2, e.3))
                        .collect()
                } else {
                    entities.iter().map(|e| (e.1, e.2, e.3)).collect()
                };
                if annotated.is_empty() {
                    continue;
                }
                let clicks = simulate_story(
                    seed_base ^ 0x5109,
                    story.id + week as usize * STORIES_PER_WEEK,
                    &exp.world.universe,
                    &annotated,
                    &exp.config.clicks,
                );
                // Each annotation is viewed once per story view (§III).
                stats.record(clicks.views * annotated.len() as u64, clicks.total_clicks());
            }
        }
        stats
    };
    let before = run_period(BASELINE_WEEKS, 0xbe4e, false);
    let after = run_period(TREATMENT_WEEKS, 0x7bea, true);

    println!("\n=== §V-C real-world A/B ===");
    for (period, weeks, stats) in [
        ("baseline", BASELINE_WEEKS, &before),
        ("treatment (top-3 annotations)", TREATMENT_WEEKS, &after),
    ] {
        println!(
            "{period}, {weeks} weeks: weekly views {:.0}, weekly clicks {:.0}, CTR {:.4}",
            stats.weekly_views(),
            stats.weekly_clicks(),
            stats.ctr()
        );
    }
    println!(
        "views {:+.1}%  clicks {:+.1}%  CTR {:+.1}%  (paper: views -52.5%, clicks -2.0%, CTR +100.1%)",
        after.views_delta_pct(&before),
        after.clicks_delta_pct(&before),
        after.ctr_delta_pct(&before)
    );

    vec![Output::Json(json!({
        "before": before,
        "after": after,
        "views_delta_pct": after.views_delta_pct(&before),
        "clicks_delta_pct": after.clicks_delta_pct(&before),
        "ctr_delta_pct": after.ctr_delta_pct(&before),
    }))]
}

fn concepts_by_surface(exp: &Experiment) -> HashMap<String, Vec<ConceptId>> {
    let mut by_surface: HashMap<String, Vec<ConceptId>> = HashMap::new();
    for c in exp.world.universe.all() {
        by_surface.entry(c.surface()).or_default().push(c.id);
    }
    by_surface
}

/// The candidate concept in the story's topic, else the first.
fn on_topic(exp: &Experiment, candidates: &[ConceptId], story: &NewsStory) -> ConceptId {
    *candidates
        .iter()
        .find(|&&c| exp.world.universe.get(c).topic == Some(story.topic))
        .unwrap_or(&candidates[0])
}

fn annotation_pipeline(exp: &Experiment) -> Pipeline<'_> {
    Pipeline::new(
        &exp.dictionary,
        &exp.units,
        |t| exp.world.corpus.idf(t),
        PipelineConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_files_match_results() {
        let names: BTreeSet<&str> = ENTRIES.iter().map(Entry::name).collect();
        assert_eq!(names.len(), ENTRIES.len(), "duplicate entry name");

        let mut written: Vec<String> = ENTRIES
            .iter()
            .flat_map(|e| e.files.iter().map(|f| format!("{}.json", f.0)))
            .collect();
        written.sort();
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut committed: Vec<String> = std::fs::read_dir(results)
            .expect("results/")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .collect();
        committed.sort();
        assert_eq!(written, committed);
    }

    #[test]
    fn names_select_their_entries() {
        let names = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            select(&args).map(|es| es.iter().map(|e| e.name()).collect::<Vec<_>>())
        };
        assert_eq!(names(&[]).expect("all").len(), ENTRIES.len());
        assert_eq!(
            names(&["ablation_window", "fig3_ndcg_all", "table2_summation"]),
            Ok(vec![
                "table2_summation",
                "table5_all_features",
                "ablation_window"
            ])
        );
        assert_eq!(names(&["table7"]), Err("table7".to_string()));
    }

    #[test]
    fn each_sweep_has_exactly_one_default_variant() {
        for entry in ENTRIES {
            if let Run::Sweep(sweep) = entry.run {
                let defaults = sweep().variants.iter().filter(|v| v.is_default).count();
                assert_eq!(defaults, 1, "{}", entry.name());
            }
        }
    }
}
