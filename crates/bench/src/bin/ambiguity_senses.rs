//! §IV-C — ambiguous concepts and local sense clusters.
//!
//! The paper: ambiguous concepts ("Madonna", "Jaguar") cluster poorly
//! globally, but "there would be some good local clusters ... if such
//! clusters can be identified then the scores can be boosted". The
//! synthetic universe plants ambiguous surfaces (one surface, two
//! concepts in different topics); this experiment compares the pooled
//! snippet relevance model against the sense-clustered one
//! (`ctxrank_features::senses`) on contexts drawn from each sense's
//! topic.

use ctxrank_features::{MiningResource, RelevanceModel, RelevanceModelBuilder, SenseConfig};
use ctxrank_synth::{SynthWorld, WorldConfig};
use std::collections::{BTreeMap, BTreeSet};

fn main() {
    let world = SynthWorld::generate(WorldConfig::default());
    let mut builder = RelevanceModelBuilder::new(&world.corpus, &world.query_log);
    builder.min_idf = 3.2;
    // The production store keeps a bounded keyword budget per concept
    // (§VI). Ambiguity hurts exactly when the senses have to share that
    // budget — mine under a tight budget to expose it. Sense clusters
    // get the same per-sense budget.
    builder.m = 20;

    // Ambiguous surfaces: one surface shared by concepts in >= 2 topics,
    // walked in surface order so the rows and the two means repeat
    // bit for bit across processes.
    let mut by_surface: BTreeMap<String, Vec<&ctxrank_synth::ConceptSpec>> = BTreeMap::new();
    for c in world.universe.all() {
        by_surface.entry(c.surface()).or_default().push(c);
    }
    let ambiguous: Vec<(&String, &Vec<&ctxrank_synth::ConceptSpec>)> = by_surface
        .iter()
        .filter(|(_, specs)| {
            let topics: BTreeSet<_> = specs.iter().filter_map(|s| s.topic).collect();
            topics.len() >= 2
        })
        .collect();
    println!(
        "ambiguous surfaces in the universe: {} (planted: {})",
        ambiguous.len(),
        world.config.universe.num_ambiguous
    );

    let mut rows = Vec::new();
    let mut pooled_contrast_sum = 0.0;
    let mut sense_contrast_sum = 0.0;
    let mut n = 0.0;
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

        // The paper's prediction: pooling dilutes an ambiguous concept's
        // keyword mass across senses, so its *minority* sense scores low
        // in its own context; local clusters restore it. Measure the
        // weaker of the two on-topic scores under each model.
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
        pooled_contrast_sum += weakest_pooled;
        sense_contrast_sum += weakest_sense;
        n += 1.0;

        println!(
            "{:<28} senses {}  minority-sense score: pooled {:>7.1}  sense-aware {:>7.1}  discriminates {}",
            surface,
            senses.num_senses(),
            weakest_pooled,
            weakest_sense,
            discriminates
        );
        rows.push(serde_json::json!({
            "surface": surface,
            "num_senses": senses.num_senses(),
            "minority_pooled": weakest_pooled,
            "minority_sense_aware": weakest_sense,
            "discriminates": discriminates,
        }));
    }

    if n > 0.0 {
        println!(
            "\nmean minority-sense on-topic score: pooled {:.1} vs sense-aware {:.1} \
             (the local-cluster boost the paper anticipates)",
            pooled_contrast_sum / n,
            sense_contrast_sum / n
        );
    }

    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/ambiguity_senses.json",
        serde_json::to_string_pretty(&serde_json::json!({
            "experiment": "ambiguity_senses",
            "rows": rows,
            "pooled_mean_minority": pooled_contrast_sum / n.max(1.0),
            "sense_mean_minority": sense_contrast_sum / n.max(1.0),
        }))
        .expect("serialize"),
    )
    .ok();
}
