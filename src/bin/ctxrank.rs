//! `ctxrank` — command-line front end.
//!
//! ```text
//! ctxrank demo                         annotate a built-in example snippet
//! ctxrank annotate <file|->           annotate a document (plain text or HTML)
//! ctxrank world [--seed N]            generate a synthetic world and print stats
//! ctxrank stem <word>...              Porter-stem words
//! ```
//!
//! `annotate` builds its knowledge (query log, corpus, dictionary) from a
//! small synthetic world so the command works out of the box; a real
//! deployment would load a persisted artifact via
//! `ctxrank::framework::load_service` instead.

use ctxrank::prelude::*;
use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("demo") => cmd_annotate_text(DEMO_SNIPPET),
        Some("annotate") => match args.get(1).map(String::as_str) {
            Some("-") => {
                let mut buf = String::new();
                if std::io::stdin().read_to_string(&mut buf).is_err() {
                    eprintln!("error: could not read stdin");
                    2
                } else {
                    cmd_annotate_text(&buf)
                }
            }
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => cmd_annotate_text(&text),
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    2
                }
            },
            None => {
                eprintln!("usage: ctxrank annotate <file|->");
                2
            }
        },
        Some("world") => {
            let seed = args
                .iter()
                .position(|a| a == "--seed")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(42u64);
            cmd_world(seed)
        }
        Some("stem") => {
            for w in &args[1..] {
                println!("{w} -> {}", stem(&w.to_lowercase()));
            }
            0
        }
        _ => {
            eprintln!(
                "ctxrank — contextual ranking of keywords (ICDE 2009 reproduction)\n\n\
                 usage:\n  ctxrank demo\n  ctxrank annotate <file|->\n  \
                 ctxrank world [--seed N]\n  ctxrank stem <word>..."
            );
            2
        }
    };
    std::process::exit(code);
}

const DEMO_SNIPPET: &str = "President Bush's position was similar to that of New \
    York Sen. Clinton, who argued at a debate with Obama last week in Texas that \
    there should be no talks with Cuba until it makes progress on releasing \
    political prisoners and improving human rights. Contact press@example.org.";

/// Annotate arbitrary text with a demo knowledge base.
fn cmd_annotate_text(text: &str) -> i32 {
    // Small but real knowledge: a query log for units and a corpus for idf.
    let mut log = QueryLog::new();
    for (q, f) in [
        ("political prisoners", 90),
        ("political prisoners cuba", 25),
        ("human rights", 160),
        ("human rights watch", 40),
        ("presidential debate", 30),
    ] {
        log.add(q, f);
    }
    for i in 0..40 {
        log.add(&format!("background query{i}"), 10);
    }
    let units = extract_units(&log, &UnitConfig::default());

    let mut corpus = IndexBuilder::new();
    corpus.add_document(
        "cuba rejects calls to release political prisoners amid human rights pressure",
    );
    corpus.add_document("the human rights watch report criticized detention conditions");
    corpus.add_document("presidential debate covered foreign policy");
    corpus.add_document("markets rallied as tech earnings beat expectations");
    let corpus = corpus.build();

    let mut dictionary = EntityDictionary::new();
    for (surface, code, subtype, geo) in [
        ("cuba", 2u8, "country", Some((21.5, -77.8))),
        ("obama", 1, "politician", None),
        ("clinton", 1, "politician", None),
        ("bush", 1, "politician", None),
        ("texas", 2, "region", Some((31.0, -99.0))),
        ("new york", 2, "region", Some((43.0, -75.0))),
    ] {
        dictionary.insert(DictionaryEntry {
            terms: surface.split(' ').map(str::to_string).collect(),
            type_code: code,
            subtype: subtype.to_string(),
            geo,
            context_terms: Vec::new(),
        });
    }

    let pipeline = Pipeline::new(
        &dictionary,
        &units,
        |t| corpus.idf(t),
        PipelineConfig::default(),
    );
    let doc = pipeline.process(text);
    if doc.annotations.is_empty() {
        println!("(no entities detected)");
        return 0;
    }
    println!("{:<26} {:<12} {:>8}  span", "surface", "kind", "score");
    for a in &doc.annotations {
        let kind = match &a.kind {
            ctxrank::shortcuts::DetectionKind::Pattern(p) => format!("{p:?}").to_lowercase(),
            ctxrank::shortcuts::DetectionKind::Entity { subtype, .. } => subtype.clone(),
            ctxrank::shortcuts::DetectionKind::Concept => "concept".to_string(),
        };
        println!(
            "{:<26} {:<12} {:>8.3}  {}..{}",
            a.surface, kind, a.score, a.span.start, a.span.end
        );
    }
    0
}

/// Generate a small synthetic world and print its statistics.
fn cmd_world(seed: u64) -> i32 {
    let world = SynthWorld::generate(WorldConfig::small(seed));
    println!("seed: {seed}");
    println!("concepts:        {}", world.universe.len());
    println!("  junk:          {}", world.universe.junk().count());
    println!("distinct queries: {}", world.query_log.num_distinct());
    println!("query volume:     {}", world.query_log.total_freq());
    println!("web documents:    {}", world.corpus.num_docs());
    println!("wiki articles:    {}", world.encyclopedia.num_articles());
    println!("news stories:     {}", world.news.len());
    let units = extract_units(&world.query_log, &UnitConfig::default());
    println!(
        "units extracted:  {} ({} multi-term)",
        units.len(),
        units.iter().filter(|u| u.terms.len() > 1).count()
    );
    0
}
