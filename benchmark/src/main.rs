//! The repo benchmark.
//!
//! ```text
//! ctxrank-benchmark run --workload <name|all> --seed <u64> [--seconds <n>]
//!                       [--trace <0|1>] [--out <dir>] [--smoke]
//! ctxrank-benchmark compare <dirA> <dirB>
//! ```
//!
//! `run` builds the fixture, runs the workload, checks its outputs,
//! prints every metric as `<workload> <metric> <value> <unit>`, writes
//! `<out>/<workload>.json` (and `<workload>.trace.json` when traced)
//! and ends with the one-line JSON object the driver reads. See
//! `benchmark/README.md` for the metric glossary.

mod fixture;
mod http;
mod ingest;
mod load;
mod probes;
mod report;
mod run;
mod stats;
mod trace;

use report::{Metric, RunResult, Spec};
use run::{Env, Options, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

const USAGE: &str = "usage:
  ctxrank-benchmark run --workload <rank_miss|rank_zipf|rank_sharded|ingest_publish|annotate_batch|all>
                        --seed <u64> [--seconds <1..60>] [--trace <0|1>] [--out <dir>] [--smoke]
  ctxrank-benchmark compare <dirA> <dirB>
Run from the repository root: names, units and bounds are read from ./BENCHMARK.json.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [base, candidate] = args else {
        return Err(USAGE.to_string());
    };
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    let (table, all_ok) = report::compare(&spec, Path::new(base), Path::new(candidate))?;
    print!("{table}");
    Ok(all_ok)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--smoke" => opts.smoke = true,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    if opts.smoke {
        // Every name of the contract in one quick traced pass.
        opts.trace = true;
        if opts.seconds == 0 {
            opts.seconds = 2;
        }
    } else if opts.seconds == 0 {
        opts.seconds = 12;
    }
    if !(1..=60).contains(&opts.seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if workload == "all" {
        return run_all(args);
    }
    let workload = Workload::parse(&workload)
        .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?;
    if !spec.workloads.iter().any(|name| name == workload.name()) {
        return Err(format!(
            "BENCHMARK.json does not list workload {}",
            workload.name()
        ));
    }

    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let result = run_workload(workload, &opts);
    result.print();
    let file = opts.out.join(format!("{}.json", workload.name()));
    let machine = report::fingerprint(opts.seed, opts.seconds, run::WINDOWS, opts.lanes());
    let text =
        serde_json::to_string_pretty(&result.to_file_json(&machine)).map_err(|e| e.to_string())?;
    std::fs::write(&file, text + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
    if opts.smoke {
        // Every name of the contract, end to end and per layer, was
        // measured, finite and in the declared unit.
        result.declared(&spec, false)?;
    }
    println!("{}", result.driver_line(&spec)?);
    Ok(result.correct())
}

/// `--workload all`: every workload in a process of its own, one after
/// the other, so each sees a fresh allocator, thread pool and peak-RSS
/// mark — exactly what a single-workload run sees.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_correct = true;
    for w in Workload::ALL {
        // The same command line; a later `--workload` overrides `all`.
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w.name()])
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn run_workload(workload: Workload, opts: &Options) -> RunResult {
    let dir = opts.dir(workload);
    std::fs::create_dir_all(&dir).expect("create the workload's output directory");

    // Set-up is everything before warm-up. It is built three times and
    // the median reported, because one build does not repeat within a
    // tenth on a shared box; traced and smoke runs build once.
    let builds = if opts.trace { 1 } else { 3 };
    let mut setup_s = Vec::with_capacity(builds);
    let mut env = None;
    for _ in 0..builds {
        if let Some(previous) = env.take() {
            Env::tear_down(previous);
        }
        let t = Instant::now();
        env = Some(Env::set_up(workload, opts));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one build");

    let mut trace = Trace::new(Instant::now());
    let measured = run::measure(workload, &mut env, opts, &mut trace);
    let peak_rss_mb = peak_rss_mb();
    let per_layer = if opts.trace {
        probes::layer_metrics(workload, &mut env, opts, &measured, &mut trace)
    } else {
        Vec::new()
    };
    env.tear_down();
    if opts.trace {
        let file = opts.out.join(format!("{}.trace.json", workload.name()));
        std::fs::write(&file, trace.to_json()).expect("write the trace file");
    }
    // Only the result and trace files outlive the run.
    let _ = std::fs::remove_dir_all(&dir);

    let mut end_to_end = vec![Metric::median_of("setup_s", "s", &setup_s)];
    end_to_end.extend(measured.end_to_end);
    end_to_end.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB"));
    RunResult {
        workload: workload.name().to_string(),
        traced: opts.trace,
        end_to_end,
        per_layer,
        attempted: measured.attempted,
        failed: measured.failed,
        checks: measured.checks,
        output_checksum: measured.output_checksum,
        detail: measured.detail,
    }
}

/// `VmHWM` of this process — generator and in-process servers together
/// — in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1e3
}
