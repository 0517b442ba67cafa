//! What a run reports and how two runs are compared: the metric
//! contract read from `BENCHMARK.json`, the result file with its
//! machine fingerprint, the driver's one-line JSON, and `compare`.

use serde_json::{json, Value};
use std::path::Path;

/// One measured value. Where it is the median of several windows (or
/// set-ups), `spread` is their quartile distance over that median
/// ([`crate::stats::spread`]) and how many they were.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<(f64, usize)>,
    /// Samples behind the value, where it is a percentile.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            spread: None,
            n: None,
        }
    }

    /// The median of `values`, with their spread beside it.
    pub fn median_of(name: impl Into<String>, unit: &'static str, values: &[f64]) -> Self {
        let mut m = Self::new(name, crate::stats::median(values), unit);
        m.spread = Some((crate::stats::spread(values), values.len()));
        m
    }

    pub fn with_n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the runner needs. The file is the one
/// place names, units and bounds are written down; the runner checks
/// what it measured against it instead of keeping a second list.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Gate>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            format!(
                "cannot read {}: {e} (run from the repo root)",
                path.display()
            )
        })?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| match v.get(key) {
            Some(Value::Seq(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json: missing array \"{key}\"")),
        };
        let text_of = |item: &Value, key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without \"{key}\""))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Gate {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    lower_is_better: text_of(m, "better")? == "lower",
                    bound: m
                        .get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("BENCHMARK.json: end_to_end entry without \"bound\"")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list("per_layer")?
            .iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        Ok(Self {
            workloads,
            end_to_end,
            per_layer,
        })
    }
}

/// One output check: what was compared and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub compared: u64,
    pub mismatched: u64,
}

/// Everything one workload run produced.
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub end_to_end: Vec<Metric>,
    /// Filled on traced runs only.
    pub per_layer: Vec<Metric>,
    /// Requests / documents / publish cycles attempted, plus every
    /// comparison an output check made.
    pub attempted: u64,
    /// Non-200, transport error or failed comparison.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// FNV-1a over a fixed 256-operation output sample.
    pub output_checksum: u64,
    /// Windows, percentile ranks and other context for the result file.
    pub detail: Value,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .checks
                .iter()
                .all(|c| c.mismatched == 0 && c.compared > 0)
    }

    /// `<workload> <metric> <value> <unit>` per metric, spread and
    /// sample count beside it where they exist.
    pub fn print(&self) {
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let mut line = format!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
            if let Some((s, of)) = m.spread {
                line.push_str(&format!(" spread={s:.4}/{of}"));
            }
            if let Some(n) = m.n {
                line.push_str(&format!(" n={n}"));
            }
            println!("{line}");
        }
        println!(
            "{} failed_ratio {} ratio attempted={} failed={}",
            self.workload,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted,
            self.failed
        );
        for c in &self.checks {
            println!(
                "{} check {} compared={} mismatched={}",
                self.workload, c.name, c.compared, c.mismatched
            );
        }
        println!(
            "{} output_checksum {:016x} fnv1a64",
            self.workload, self.output_checksum
        );
    }

    /// The result file: every metric with its spread, the checks, the
    /// checksum and the machine that produced them.
    pub fn to_file_json(&self, fingerprint: &Value) -> Value {
        let metrics = |list: &[Metric]| {
            Value::Map(
                list.iter()
                    .map(|m| {
                        let mut entry = vec![
                            ("value".to_string(), json!(m.value)),
                            ("unit".to_string(), json!(m.unit)),
                        ];
                        if let Some((s, of)) = m.spread {
                            entry.push(("spread".to_string(), json!(s)));
                            entry.push(("spread_of".to_string(), json!(of)));
                        }
                        if let Some(n) = m.n {
                            entry.push(("n".to_string(), json!(n)));
                        }
                        (m.name.clone(), Value::Map(entry))
                    })
                    .collect(),
            )
        };
        json!({
            "workload": self.workload,
            "traced": self.traced,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "output_checksum": format!("{:016x}", self.output_checksum),
            "end_to_end": metrics(&self.end_to_end),
            "per_layer": metrics(&self.per_layer),
            "checks": Value::Seq(
                self.checks
                    .iter()
                    .map(|c| json!({"name": c.name, "compared": c.compared, "mismatched": c.mismatched}))
                    .collect()
            ),
            "detail": self.detail.clone(),
            "machine": fingerprint.clone(),
        })
    }

    /// The measured metric behind every `(name, unit)` the contract
    /// declares, traced list or untraced. A name that was not measured,
    /// is not finite or carries another unit is an error.
    pub fn declared(&self, spec: &Spec, traced: bool) -> Result<Vec<&Metric>, String> {
        let (wanted, have): (Vec<(&str, &str)>, &[Metric]) = if traced {
            let names = spec.per_layer.iter();
            (
                names.map(|(n, u)| (n.as_str(), u.as_str())).collect(),
                &self.per_layer,
            )
        } else {
            let gates = spec.end_to_end.iter();
            (
                gates.map(|g| (g.name.as_str(), g.unit.as_str())).collect(),
                &self.end_to_end,
            )
        };
        wanted
            .into_iter()
            .map(|(name, unit)| {
                let m = have
                    .iter()
                    .find(|m| m.name == name)
                    .ok_or_else(|| format!("{}: {name} was not measured", self.workload))?;
                if m.unit != unit || !m.value.is_finite() {
                    return Err(format!(
                        "{}: {name} = {} {}, declared in {unit}",
                        self.workload, m.value, m.unit
                    ));
                }
                Ok(m)
            })
            .collect()
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics` — the end-to-end list untraced, the per-layer list
    /// traced, each name as `BENCHMARK.json` spells it.
    pub fn driver_line(&self, spec: &Spec) -> Result<String, String> {
        let metrics = self
            .declared(spec, self.traced)?
            .into_iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect();
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Map(metrics),
        });
        serde_json::to_string(&line).map_err(|e| e.to_string())
    }
}

/// Where and how a result was produced; written into every result file.
pub fn fingerprint(seed: u64, seconds: u64, windows: u32, lanes: usize) -> Value {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            // Keep git from walking out of the checkout: it may look in
            // the working directory, not above it.
            .env(
                "GIT_CEILING_DIRECTORIES",
                std::env::current_dir()
                    .ok()
                    .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
                    .unwrap_or_default(),
            )
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    json!({
        "nproc": nproc,
        "lanes": lanes,
        "effective_workers": ctxrank_parallel::effective_workers(ctxrank_parallel::num_threads(), usize::MAX),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "rustc": run("rustc", &["-V"]),
        "git_rev": run("git", &["rev-parse", "--short", "HEAD"]),
        "seed": seed,
        "seconds": seconds,
        "windows": windows,
    })
}

/// `compare <dirA> <dirB>`: one row per (workload, end-to-end metric)
/// with base, candidate, their ratio, the bound and a verdict. Returns
/// the table and whether every row is `same` or `better`.
pub fn compare(spec: &Spec, base_dir: &Path, cand_dir: &Path) -> Result<(String, bool), String> {
    let load = |dir: &Path, workload: &str| -> Result<Option<Value>, String> {
        let path = dir.join(format!("{workload}.json"));
        if !path.exists() {
            return Ok(None);
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut table = format!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>6}  {}\n",
        "workload", "metric", "base", "candidate", "ratio", "bound", "verdict"
    );
    let mut all_ok = true;
    let mut rows = 0;
    for workload in &spec.workloads {
        let (Some(a), Some(b)) = (load(base_dir, workload)?, load(cand_dir, workload)?) else {
            continue;
        };
        for gate in &spec.end_to_end {
            let field = |side: &Value, key: &str| {
                side.get("end_to_end")
                    .and_then(|m| m.get(&gate.name))
                    .and_then(|m| m.get(key))
                    .and_then(Value::as_f64)
            };
            let (Some(base), Some(cand)) = (field(&a, "value"), field(&b, "value")) else {
                return Err(format!(
                    "{workload}: {} missing from a result file",
                    gate.name
                ));
            };
            // A median of n windows is uncertain by about their spread
            // over √n.
            let uncertainty = |side: &Value| {
                field(side, "spread").unwrap_or(0.0)
                    / field(side, "spread_of").unwrap_or(1.0).sqrt()
            };
            let verdict = verdict(gate, base, cand, uncertainty(&a).max(uncertainty(&b)));
            all_ok &= matches!(verdict, "same" | "better");
            rows += 1;
            table.push_str(&format!(
                "{:<16} {:<12} {:>12.4} {:>12.4} {:>8.3} {:>6.2}  {}\n",
                workload,
                gate.name,
                base,
                cand,
                cand / base,
                gate.bound,
                verdict
            ));
        }
    }
    if rows == 0 {
        return Err("no workload has a result file in both directories".to_string());
    }
    Ok((table, all_ok))
}

/// `unresolved` when a run's own uncertainty about its value exceeds the
/// bound (the comparison cannot tell a regression from noise); otherwise
/// `worse` / `better` when the candidate is beyond the bound, else `same`.
pub fn verdict(gate: &Gate, base: f64, cand: f64, uncertainty: f64) -> &'static str {
    if uncertainty > gate.bound {
        return "unresolved";
    }
    // Normalise to "lower is better".
    let (base, cand) = if gate.lower_is_better {
        (base, cand)
    } else {
        (cand, base)
    };
    if cand > base * (1.0 + gate.bound) {
        "worse"
    } else if cand * (1.0 + gate.bound) < base {
        "better"
    } else {
        "same"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower: bool) -> Gate {
        Gate {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(verdict(&gate(true), 1.0, 1.05, 0.02), "same");
        assert_eq!(verdict(&gate(true), 1.0, 1.2, 0.02), "worse");
        assert_eq!(verdict(&gate(true), 1.0, 0.8, 0.02), "better");
        assert_eq!(verdict(&gate(false), 100.0, 80.0, 0.02), "worse");
        assert_eq!(verdict(&gate(false), 100.0, 120.0, 0.02), "better");
        assert_eq!(verdict(&gate(false), 100.0, 95.0, 0.02), "same");
        assert_eq!(verdict(&gate(true), 1.0, 1.2, 0.3), "unresolved");
    }

    #[test]
    fn spec_parses_the_contract_shape() {
        let spec = Spec::parse(
            r#"{"command":["x"],"paths":["benchmark"],"run_seconds":10,
                "workloads":[{"name":"a","why":"w"},{"name":"b","why":"w"}],
                "end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1},
                              {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.2}],
                "per_layer":[{"name":"serve.render_us","unit":"us","better":"lower"}]}"#,
        )
        .expect("spec");
        assert_eq!(spec.workloads, ["a", "b"]);
        assert!(spec.end_to_end[0].lower_is_better && !spec.end_to_end[1].lower_is_better);
        assert_eq!(spec.end_to_end[1].bound, 0.2);
        assert_eq!(
            spec.per_layer,
            [("serve.render_us".to_string(), "us".to_string())]
        );
        assert!(Spec::parse("{}").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_declared_metrics() {
        let spec = Spec::parse(
            r#"{"workloads":[{"name":"a","why":"w"}],
                "end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}],
                "per_layer":[{"name":"serve.render_us","unit":"us","better":"lower"}]}"#,
        )
        .expect("spec");
        let mut run = RunResult {
            workload: "a".into(),
            traced: false,
            end_to_end: vec![
                Metric::new("p50_ms", 0.8125, "ms"),
                Metric::new("extra", 1.0, "s"),
            ],
            per_layer: vec![Metric::new("serve.render_us", 1.5, "us")],
            attempted: 10,
            failed: 0,
            checks: vec![Check {
                name: "c",
                compared: 4,
                mismatched: 0,
            }],
            output_checksum: 0,
            detail: Value::Null,
        };
        assert_eq!(
            run.driver_line(&spec).expect("line"),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":0.8125,"unit":"ms"}}}"#
        );
        run.traced = true;
        assert!(run
            .driver_line(&spec)
            .expect("line")
            .contains("serve.render_us"));
        run.checks[0].mismatched = 1;
        assert!(run
            .driver_line(&spec)
            .expect("line")
            .starts_with(r#"{"correct":false"#));
        run.per_layer.clear();
        assert!(
            run.driver_line(&spec).is_err(),
            "an unmeasured metric is an error"
        );
    }
}
