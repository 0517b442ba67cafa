//! Console reporting helpers shared by the `reproduce` entries.

use crate::rankers::EvalResult;

/// Format a fraction as a percentage with two decimals.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Print a two-column table (technique, weighted error rate) in the
/// paper's layout.
pub fn print_table(title: &str, rows: &[(String, EvalResult)]) {
    println!("\n=== {title} ===");
    println!("{:<42} {:>14}", "Technique", "Weighted ER");
    for (name, r) in rows {
        println!("{:<42} {:>14}", name, fmt_pct(r.weighted_error));
    }
}

/// Print an NDCG figure (one series per technique, k = 1, 2, 3).
pub fn print_ndcg_figure(title: &str, rows: &[(String, EvalResult)]) {
    println!("\n=== {title} ===");
    println!(
        "{:<42} {:>8} {:>8} {:>8}",
        "Technique", "ndcg@1", "ndcg@2", "ndcg@3"
    );
    for (name, r) in rows {
        println!(
            "{:<42} {:>8.3} {:>8.3} {:>8.3}",
            name, r.ndcg[0], r.ndcg[1], r.ndcg[2]
        );
    }
}

/// Write the rows as a JSON report next to the console output so
/// EXPERIMENTS.md can reference machine-readable results.
pub fn write_json(
    path: &str,
    experiment: &str,
    rows: &[(String, EvalResult)],
) -> std::io::Result<()> {
    #[derive(serde::Serialize)]
    struct Row<'a> {
        technique: &'a str,
        weighted_error_rate: f64,
        error_rate: f64,
        ndcg: [f64; 3],
    }
    #[derive(serde::Serialize)]
    struct Report<'a> {
        experiment: &'a str,
        rows: Vec<Row<'a>>,
    }
    let report = Report {
        experiment,
        rows: rows
            .iter()
            .map(|(n, r)| Row {
                technique: n,
                weighted_error_rate: r.weighted_error,
                error_rate: r.error,
                ndcg: r.ndcg,
            })
            .collect(),
    };
    std::fs::write(path, serde_json::to_string_pretty(&report)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(0.3022), "30.22%");
        assert_eq!(fmt_pct(0.0), "0.00%");
    }

    #[test]
    fn json_report_roundtrips() {
        let rows = vec![(
            "Random".to_string(),
            EvalResult {
                weighted_error: 0.5,
                error: 0.5,
                ndcg: [0.4, 0.5, 0.6],
            },
        )];
        let path = std::env::temp_dir().join("ctxrank_report_test.json");
        write_json(path.to_str().expect("utf8 path"), "test", &rows).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains("\"weighted_error_rate\": 0.5"));
        std::fs::remove_file(path).ok();
    }
}
