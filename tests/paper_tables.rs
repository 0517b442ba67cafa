//! The paper tables the docs quote are the ones the code writes: every
//! measured cell of README's headline table and of EXPERIMENTS.md
//! Tables III–V equals its `results/*.json` weighted error rate at the
//! printed precision; and every `--bin NAME` / `--example NAME` the docs
//! tell a reader to run names a target that exists.
//!
//! `cargo run --release -p ctxrank-bench --bin reproduce` regenerates
//! `results/`, and CI checks that it leaves the committed files
//! unchanged; this test closes the loop from those files to the prose.

use serde_json::Value;

/// README's headline table: (row label, `table5_all_features` technique).
const HEADLINE: &[(&str, &str)] = &[
    ("Random", "Random"),
    ("Concept-vector baseline (§II-B)", "Concept Vector Score"),
    (
        "Learned, interestingness only",
        "Best Interestingness Model",
    ),
    ("Relevance only (snippets)", "Best Relevance (Snippets)"),
    ("**Learned, all features**", "Interestingness + Relevance"),
];

const TABLE3: &[(&str, &str)] = &[
    ("Random", "Random"),
    ("Concept Vector Score", "Concept Vector Score"),
    ("All features", "All Features"),
    ("− Query Logs", "- Query Logs"),
    ("− Taxonomy", "- Taxonomy Based"),
    ("− Search Results", "- Search Results"),
    ("− Other (wiki)", "- Other"),
    ("− Text Based", "- Text Based"),
];

const TABLE4: &[(&str, &str)] = &[
    ("Prisma", "Prisma"),
    ("Query suggestions", "Suggestions"),
    ("**Snippets**", "Snippets"),
];

const TABLE5: &[(&str, &str)] = &[
    ("Random", "Random"),
    ("Concept Vector Score", "Concept Vector Score"),
    ("Best interestingness model", "Best Interestingness Model"),
    ("Best relevance (snippets)", "Best Relevance (Snippets)"),
    (
        "**Interestingness + relevance**",
        "Interestingness + Relevance",
    ),
];

fn repo_file(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

/// `technique`'s weighted error rate in `results/{file}.json`.
fn weighted_error(file: &str, technique: &str) -> f64 {
    let report: Value =
        serde_json::from_str(&repo_file(&format!("results/{file}.json"))).expect("results JSON");
    let Some(Value::Seq(rows)) = report.get("rows") else {
        panic!("{file}: no rows");
    };
    rows.iter()
        .find(|row| row.get("technique").and_then(Value::as_str) == Some(technique))
        .and_then(|row| row.get("weighted_error_rate"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{file}: no row {technique:?}"))
}

/// The first markdown table after `heading`: (first cell, last cell) of
/// each body row.
fn table<'a>(doc: &'a str, heading: &str) -> Vec<(&'a str, &'a str)> {
    let (_, section) = doc
        .split_once(heading)
        .unwrap_or_else(|| panic!("no heading {heading:?}"));
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            (cells[0], cells[cells.len() - 1])
        })
        .collect()
}

/// Every mismatch between a doc table's measured column and the results
/// file, as one line per cell.
fn mismatches(doc: &str, heading: &str, file: &str, rows: &[(&str, &str)]) -> Vec<String> {
    let quoted = table(doc, heading);
    let labels: Vec<&str> = quoted.iter().map(|(label, _)| *label).collect();
    let expected: Vec<&str> = rows.iter().map(|(label, _)| *label).collect();
    assert_eq!(labels, expected, "rows of {heading:?}");

    let mut out = Vec::new();
    for (&(label, cell), &(_, technique)) in quoted.iter().zip(rows) {
        let printed = cell.trim_matches('*').trim_end_matches('%').trim();
        let decimals = printed.split_once('.').map_or(0, |(_, frac)| frac.len());
        let actual = format!("{:.decimals$}", weighted_error(file, technique) * 100.0);
        if printed != actual {
            out.push(format!(
                "{heading} / {label}: doc says {printed} %, results/{file}.json says {actual} %"
            ));
        }
    }
    out
}

#[test]
fn readme_headline_matches_results() {
    let readme = repo_file("README.md");
    let diff = mismatches(
        &readme,
        "## Headline result",
        "table5_all_features",
        HEADLINE,
    );
    assert!(diff.is_empty(), "\n{}", diff.join("\n"));
}

#[test]
fn experiments_tables_iii_to_v_match_results() {
    let experiments = repo_file("EXPERIMENTS.md");
    let mut diff = mismatches(
        &experiments,
        "## Table III —",
        "table3_interestingness",
        TABLE3,
    );
    diff.extend(mismatches(
        &experiments,
        "## Table IV —",
        "table4_relevance",
        TABLE4,
    ));
    diff.extend(mismatches(
        &experiments,
        "## Table V —",
        "table5_all_features",
        TABLE5,
    ));
    assert!(diff.is_empty(), "\n{}", diff.join("\n"));
}

/// Stems of the `*.rs` files directly under `dir` (none when it is
/// absent).
fn rs_stems(dir: &std::path::Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| {
            path.file_stem()
                .expect("file stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// Every `NAME` that follows `flag` and whitespace in `doc`.
fn flag_arguments<'a>(doc: &'a str, flag: &str) -> Vec<&'a str> {
    doc.match_indices(flag)
        .filter_map(|(at, _)| {
            let rest = &doc[at + flag.len()..];
            let name = rest.trim_start();
            if name.len() == rest.len() {
                return None; // `--bins`, `--examples`: not this flag
            }
            let end = name
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(name.len());
            Some(&name[..end])
        })
        .collect()
}

#[test]
fn docs_run_only_targets_in_the_tree() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut bins = rs_stems(&root.join("src/bin"));
    let mut examples = rs_stems(&root.join("examples"));
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("dir entry").path();
        bins.extend(rs_stems(&krate.join("src/bin")));
        examples.extend(rs_stems(&krate.join("examples")));
    }
    let docs = ["README.md", "EXPERIMENTS.md", "DESIGN.md"].map(|doc| (doc, repo_file(doc)));
    let mut missing = Vec::new();
    for (flag, targets) in [("--bin", &bins), ("--example", &examples)] {
        let mut seen = 0;
        for (doc, text) in &docs {
            for name in flag_arguments(text, flag) {
                seen += 1;
                if !targets.iter().any(|t| t == name) {
                    missing.push(format!("{doc}: `{flag} {name}` names no target"));
                }
            }
        }
        assert!(
            seen > 0,
            "the docs run no `{flag}` target: the scan is broken"
        );
    }
    assert!(missing.is_empty(), "\n{}", missing.join("\n"));
}
