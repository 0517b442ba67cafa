//! Machine-readable §VI throughput report.
//!
//! Re-runs the paper-shaped corpus (1445 docs, ~2.5 KB, ~6.45
//! candidates each) through the stemmer, ranker and annotation
//! components — serial and parallel — plus the whole
//! `Experiment::build` pipeline, and writes `BENCH_throughput.json` at
//! the repository root so the perf trajectory stays comparable across
//! PRs.
//!
//! Every parallel component is swept over requested thread counts
//! 1/2/4/8/16 and emits **one row per swept count**:
//! `{component, threads, workers, serial_mb_s, parallel_mb_s, speedup}`.
//! `threads` is the requested fan-out, `workers` the count
//! [`ctxrank_parallel::par_map`] actually used after the hardware cap —
//! the recorded number is what was measured, never a guess. When the
//! cap collapses a request to one effective worker, the pooled path
//! *is* the inline serial path (same code, same bytes), so the row
//! reports the measured serial time for both columns instead of timing
//! the identical path twice and recording noise as a speedup.
//!
//! One single-threaded format row completes the report:
//! `postings_decode` (scalar varint loop vs the unrolled block decoder
//! over the same coded postings).
//!
//! Two streaming-ingestion rows cover the event-sourced path:
//! `click_ingest` (durable segment append+seal rate vs the in-memory
//! codec ceiling, with `events_per_s`) and `delta_publish` (bootstrap
//! rebuild vs one incremental append→seal→fold→publish cycle, with the
//! cycle's click-to-served-epoch latency in `publish_ms`).
//!
//! Knobs: `CTXRANK_THREADS` (raises the fan-out cap), `PERF_REPORT_REPS`
//! (best-of-N timing, default 3).

use ctxrank_bench::{build_projector, build_runtime_ranker, Experiment, ExperimentConfig};
use ctxrank_index::{decode_all, encode_blocks, read_varint, BLOCK};
use ctxrank_querylog::{Event, SegmentConfig, SegmentStore, StdSegmentFs};
use ctxrank_synth::{EventStream, StreamConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NUM_DOCS: usize = 1445;
const TARGET_DOC_BYTES: usize = 2500;
/// Requested thread counts for the scaling sweep.
const SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

struct Fixture {
    exp: Experiment,
    docs: Vec<String>,
    candidates: Vec<Vec<String>>,
    ranker: ctxrank_framework::RuntimeRanker,
    total_bytes: usize,
}

fn fixture() -> Fixture {
    let exp = Experiment::build(ExperimentConfig::small(0xbe7c4));
    let ranker = build_runtime_ranker(&exp);
    let surfaces: Vec<String> = {
        let mut s: Vec<String> = exp.interest_raw.keys().cloned().collect();
        s.sort_unstable();
        s
    };
    let mut docs = Vec::with_capacity(NUM_DOCS);
    let mut candidates = Vec::with_capacity(NUM_DOCS);
    let mut total_bytes = 0;
    for i in 0..NUM_DOCS {
        let story = &exp.world.news[i % exp.world.news.len()];
        let mut text = story.text.clone();
        let mut cut = TARGET_DOC_BYTES.min(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
        total_bytes += text.len();
        let n = if i % 20 < 9 { 6 } else { 7 };
        let cands: Vec<String> = (0..n)
            .map(|j| surfaces[(i * 7 + j * 13) % surfaces.len()].clone())
            .collect();
        docs.push(text);
        candidates.push(cands);
    }
    Fixture {
        exp,
        docs,
        candidates,
        ranker,
        total_bytes,
    }
}

/// Best-of-N wall time, in seconds.
fn best_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-N wall time for two workloads with their reps interleaved
/// (S P S P …), so machine-load drift hits both columns evenly instead
/// of skewing whichever ran second.
fn best_pair<A, B>(reps: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64) {
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(a());
        best_a = best_a.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(b());
        best_b = best_b.min(t.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn row(
    component: &str,
    bytes: usize,
    threads: usize,
    workers: usize,
    serial_s: f64,
    parallel_s: f64,
) -> serde_json::Value {
    let mb = bytes as f64 / 1e6;
    serde_json::json!({
        "component": component,
        "threads": threads,
        "workers": workers,
        "serial_mb_s": round2(mb / serial_s),
        "parallel_mb_s": round2(mb / parallel_s),
        "speedup": round2(serial_s / parallel_s),
    })
}

/// Sweep one component over [`SWEEP`]: one row per requested thread
/// count. Rows whose request collapses to one effective worker reuse
/// the single measured serial time for both columns (the pooled path is
/// the inline path there — see the module docs); true multi-worker rows
/// measure serial and parallel interleaved.
fn sweep_component(
    component: &str,
    bytes: usize,
    items: usize,
    reps: usize,
    mut serial: impl FnMut() -> usize,
    mut parallel: impl FnMut(usize) -> usize,
) -> Vec<serde_json::Value> {
    let serial_once = best_secs(reps, &mut serial);
    SWEEP
        .iter()
        .map(|&t| {
            let workers = ctxrank_parallel::effective_workers(t, items);
            let (s, p) = if workers == 1 {
                (serial_once, serial_once)
            } else {
                best_pair(reps, &mut serial, || parallel(t))
            };
            eprintln!("perf_report: {component} threads={t} workers={workers}");
            row(component, bytes, t, workers, s, p)
        })
        .collect()
}

/// The `postings_decode` row: the same delta-varint block-coded
/// postings decoded by a scalar one-varint-at-a-time loop ("serial")
/// and by the unrolled block decoder ("parallel"). Throughput basis is
/// the coded byte size.
fn postings_decode_row(reps: usize) -> serde_json::Value {
    // ~2M doc ids with mixed small/occasionally-large gaps, so both the
    // single-byte fast path and the multi-byte fallback are exercised.
    const N: usize = 2_000_000;
    let mut docs = Vec::with_capacity(N);
    let mut id = 0u32;
    let mut state = 0x9E37_79B9u32;
    for _ in 0..N {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        id += 1 + (state % 9) + if state.is_multiple_of(97) { 5000 } else { 0 };
        docs.push(id);
    }
    let (bytes, skips) = encode_blocks(&docs);
    let count = docs.len();

    // Scalar baseline: same format, one varint per step, no unrolling.
    let scalar = || {
        let mut out = Vec::with_capacity(count);
        for (b, skip) in skips.iter().enumerate() {
            let len = (count - b * BLOCK).min(BLOCK);
            let mut acc = skip.first;
            out.push(acc);
            let mut p = skip.offset as usize;
            for _ in 1..len {
                let (d, np) = read_varint(&bytes, p);
                p = np;
                acc += d;
                out.push(acc);
            }
        }
        out.len()
    };
    let unrolled = || decode_all(&bytes, &skips, count).len();
    assert_eq!(decode_all(&bytes, &skips, count), docs, "decoder parity");

    let (scalar_s, unrolled_s) = best_pair(reps, scalar, unrolled);
    row("postings_decode", bytes.len(), 1, 1, scalar_s, unrolled_s)
}

/// `ctxrank_<name> <value>` scraped from a live server's `/metrics`.
fn scrape_counter(addr: std::net::SocketAddr, name: &str) -> u64 {
    let (status, _, body) =
        ctxrank_serve::client::one_shot(addr, "GET", "/metrics", None).expect("scrape metrics");
    assert_eq!(status, 200);
    let prefix = format!("{name} ");
    body.lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The two `server_openloop` rows: cached and uncached modes, each with
/// its own max-sustainable-RPS ladder result. The latency columns of
/// both rows come from the highest ladder rung *both* modes measured —
/// one rung past the weaker mode's maximum, which is exactly where the
/// cache's effect is structural (the uncached server is past its SLO
/// there) rather than scheduler noise. The cached row also records the
/// hit rate observed across its whole ladder.
fn openloop_rows(
    exp: &Experiment,
    handle: &Arc<ctxrank_framework::ServiceHandle>,
) -> Vec<serde_json::Value> {
    use ctxrank_bench::{
        max_sustainable_rps, openloop_server_config, run_open_loop, OpenLoopConfig,
    };
    use std::time::Duration;

    let duration_ms: u64 = std::env::var("OPENLOOP_DURATION_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);
    let slo_ms: u64 = std::env::var("OPENLOOP_SLO_P99_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let bodies = ctxrank_bench::openloop_bodies(exp, 128);
    let base = OpenLoopConfig {
        offered_rps: 0.0, // set per run
        duration: Duration::from_millis(duration_ms),
        // Must stay ≤ the server's 16 workers: a worker owns its
        // keep-alive connection, so surplus lanes starve (openloop.rs).
        connections: 16,
        zipf_exponent: 1.2,
        seed: 0xb0a7,
        slo_p99: Duration::from_millis(slo_ms),
    };
    // Doubling rungs until either mode breaks its SLO. The top rungs
    // are beyond what one core can serve uncached, so the ladder — not
    // a cap — decides each mode's max; the no-coordinated-omission
    // latency accounting also fails a rung honestly when the *harness*
    // can no longer hold the schedule.
    let ladder: Vec<f64> = (0..11).map(|i| 100.0 * f64::from(1 << i)).collect();

    // Per-mode: warm up, climb the ladder, and hand back a closure-free
    // record of what happened.
    let run_mode = |cache_bytes: usize| {
        let server =
            ctxrank_serve::Server::start(Arc::clone(handle), openloop_server_config(cache_bytes))
                .expect("start openloop server");
        let addr = server.local_addr();
        let warm = OpenLoopConfig {
            offered_rps: 50.0,
            duration: Duration::from_millis(300),
            ..base.clone()
        };
        run_open_loop(addr, &bodies, &warm);
        let (max_rps, ladder_reports) = max_sustainable_rps(addr, &bodies, &base, &ladder);
        for r in &ladder_reports {
            eprintln!(
                "perf_report: openloop cache={cache_bytes} offered={} p99={:.2}ms ok={} shed={} errors={}",
                r.offered_rps, r.p99_ms, r.ok, r.shed, r.errors
            );
        }
        // Cache counters over the whole ladder (0/0 when disabled).
        let hits = scrape_counter(addr, "ctxrank_cache_hits_total");
        let misses = scrape_counter(addr, "ctxrank_cache_misses_total");
        server.shutdown();
        let hit_rate = hits as f64 / ((hits + misses).max(1)) as f64;
        (max_rps, ladder_reports, hit_rate)
    };

    // Uncached baseline (every request ranks for real), then the same
    // snapshot and workload with an 8 MiB result cache.
    let (uncached_max, uncached_reports, _) = run_mode(0);
    let (cached_max, cached_reports, hit_rate) = run_mode(8 << 20);

    // Latency columns: the highest rung present in both ladders. Both
    // climbed the same rung sequence, so that is the shorter ladder's
    // last rung — one past the weaker mode's sustainable maximum.
    let rungs = uncached_reports.len().min(cached_reports.len());
    assert!(rungs > 0, "openloop ladder produced no reports");
    let uncached = &uncached_reports[rungs - 1];
    let cached = &cached_reports[rungs - 1];
    let comparison_rps = uncached.offered_rps;

    let mode_row =
        |mode: &str, report: &ctxrank_bench::OpenLoopReport, max_rps: f64, hit_rate: f64| {
            let mut value = report.to_json();
            if let serde_json::Value::Map(entries) = &mut value {
                entries.insert(0, ("mode".to_string(), serde_json::Value::Str(mode.into())));
                entries.insert(
                    0,
                    (
                        "component".to_string(),
                        serde_json::Value::Str("server_openloop".into()),
                    ),
                );
                entries.push((
                    "max_sustainable_rps".to_string(),
                    serde_json::json!(max_rps),
                ));
                entries.push((
                    "cache_hit_rate".to_string(),
                    serde_json::json!(round2(hit_rate)),
                ));
            }
            value
        };
    eprintln!(
        "perf_report: openloop comparison_rps={comparison_rps:.0} uncached_p99={:.2}ms \
         cached_p99={:.2}ms hit_rate={hit_rate:.2} uncached_max={uncached_max} cached_max={cached_max}",
        uncached.p99_ms, cached.p99_ms
    );
    vec![
        mode_row("uncached", uncached, uncached_max, 0.0),
        mode_row("cached", cached, cached_max, hit_rate),
    ]
}

/// The `click_ingest` row: one synthetic click/query stream appended
/// through the event log's durable path (`StdSegmentFs`-backed
/// segments with auto-seal, "serial") and through an in-memory store
/// ("parallel" — the codec/buffer ceiling the durable path chases).
/// The extra `events_per_s` field is the durable rate, the number the
/// streaming pipeline actually ingests at.
fn click_ingest_row(reps: usize) -> serde_json::Value {
    const EVENTS: u64 = 200_000;
    let events: Vec<Event> =
        EventStream::new(&StreamConfig::of_magnitude(0xC11C, EVENTS)).collect();
    let mut encoded = Vec::new();
    for e in &events {
        e.encode_into(&mut encoded);
    }
    let bytes = encoded.len();

    let scratch = std::env::temp_dir().join(format!("ctxrank-perf-ingest-{}", std::process::id()));
    let durable_dir = scratch.join("segments");
    let (durable_s, memory_s) = best_pair(
        reps,
        || {
            let _ = std::fs::remove_dir_all(&durable_dir);
            let mut store = SegmentStore::open(
                Arc::new(StdSegmentFs),
                &durable_dir,
                SegmentConfig::default(),
            )
            .expect("open ingest store");
            for e in &events {
                store.append(e).expect("durable append");
            }
            store.seal().expect("final durable seal");
            store.sealed_events()
        },
        || {
            let mut store = SegmentStore::in_memory(SegmentConfig::default());
            for e in &events {
                store.append(e).expect("in-memory append");
            }
            store.seal().expect("final in-memory seal");
            store.sealed_events()
        },
    );
    let _ = std::fs::remove_dir_all(&scratch);

    let mut value = row("click_ingest", bytes, 1, 1, durable_s, memory_s);
    if let serde_json::Value::Map(entries) = &mut value {
        entries.push((
            "events_per_s".to_string(),
            serde_json::json!((EVENTS as f64 / durable_s).round()),
        ));
    }
    eprintln!(
        "perf_report: click_ingest {:.0} events/s durable ({EVENTS} events, {bytes} bytes)",
        EVENTS as f64 / durable_s
    );
    value
}

/// The `delta_publish` row: click-to-served-epoch latency through the
/// event-sourced path. "Serial" is what a monolithic pipeline needs to
/// serve fresh clicks — a full bootstrap rebuild plus a fold of the
/// sealed log; "parallel" is one incremental cycle: append a click
/// batch, sync and seal it, fold only the delta and publish the next
/// epoch through the same `ServiceHandle`. The extra `publish_ms`
/// field is the incremental cycle's latency; CI holds it under a
/// second.
fn delta_publish_row(fx: &Fixture, reps: usize) -> serde_json::Value {
    const BATCH: usize = 1_000;
    let mut feed = EventStream::new(&StreamConfig::of_magnitude(
        0xDE17A,
        (BATCH * (reps + 1)) as u64,
    ));
    let seed_batch: Vec<Event> = feed.by_ref().take(BATCH).collect();
    let mut encoded = Vec::new();
    for e in &seed_batch {
        e.encode_into(&mut encoded);
    }
    let batch_bytes = encoded.len();

    let scratch = std::env::temp_dir().join(format!("ctxrank-perf-delta-{}", std::process::id()));
    let mut store = SegmentStore::open(Arc::new(StdSegmentFs), &scratch, SegmentConfig::default())
        .expect("open delta store");
    for e in &seed_batch {
        store.append(e).expect("seed append");
    }
    store.seal().expect("seed seal");

    // The rebuild a batch pipeline pays to serve those clicks: the
    // whole offline build (mining, features, train, pack) plus a fold
    // of everything sealed.
    let rebuild_config = ExperimentConfig::small(0xbe7c4);
    let serial_s = best_secs(reps, || {
        let exp = Experiment::build_serial(rebuild_config.clone());
        let (mut projector, snapshot) = build_projector(&exp);
        let handle = ctxrank_framework::ServiceHandle::new(snapshot);
        projector
            .publish_from(&store, &handle)
            .expect("bootstrap publish");
        handle.epoch()
    });

    // The incremental path: a live projector already caught up, paying
    // only for the new batch.
    let (mut projector, snapshot) = build_projector(&fx.exp);
    let handle = ctxrank_framework::ServiceHandle::new(snapshot);
    projector
        .publish_from(&store, &handle)
        .expect("catch-up publish");
    let delta_s = best_secs(reps, || {
        for e in feed.by_ref().take(BATCH) {
            store.append(&e).expect("delta append");
        }
        store.sync().expect("delta sync");
        store.seal().expect("delta seal");
        projector
            .publish_from(&store, &handle)
            .expect("delta publish");
        handle.epoch()
    });
    let _ = std::fs::remove_dir_all(&scratch);

    let mut value = row("delta_publish", batch_bytes, 1, 1, serial_s, delta_s);
    if let serde_json::Value::Map(entries) = &mut value {
        entries.push((
            "publish_ms".to_string(),
            serde_json::json!(round2(delta_s * 1e3)),
        ));
    }
    eprintln!(
        "perf_report: delta_publish {:.2}ms per {BATCH}-click batch (rebuild {:.2}s)",
        delta_s * 1e3,
        serial_s
    );
    value
}

/// The two `debias_eval` rows: the position-bias debiasing experiment
/// on a PBM-biased log and on an unbiased control log, both at the
/// pinned CI seed. Each row records the paired golden-NDCG means, the
/// exact sign-test tally and the verdict the CI gate asserts on
/// (`"win"` under bias, `"tie"` without).
fn debias_rows() -> Vec<serde_json::Value> {
    use ctxrank_bench::{run_debias_experiment, DebiasConfig};
    [true, false]
        .into_iter()
        .map(|biased| {
            let report = run_debias_experiment(&DebiasConfig {
                biased,
                ..DebiasConfig::default()
            });
            let round4 = |x: f64| (x * 1e4).round() / 1e4;
            eprintln!(
                "perf_report: debias_eval mode={} ndcg_ipw={:.4} ndcg_naive={:.4} p={:.4} verdict={}",
                report.mode,
                report.outcome.mean_ndcg_treatment,
                report.outcome.mean_ndcg_control,
                report.outcome.sign_test.p_value,
                report.outcome.verdict.label()
            );
            serde_json::json!({
                "component": "debias_eval",
                "mode": report.mode,
                "stories": report.stories,
                "events": report.events,
                "ndcg_ipw": round4(report.outcome.mean_ndcg_treatment),
                "ndcg_naive": round4(report.outcome.mean_ndcg_control),
                "wins_ipw": report.outcome.sign_test.wins_a,
                "wins_naive": report.outcome.sign_test.wins_b,
                "ties": report.outcome.sign_test.ties,
                "p_value": report.outcome.sign_test.p_value,
                "verdict": report.outcome.verdict.label(),
            })
        })
        .collect()
}

fn main() {
    let reps: usize = std::env::var("PERF_REPORT_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    eprintln!(
        "perf_report: hardware_threads={} reps={reps} sweep={SWEEP:?}",
        ctxrank_parallel::hardware_threads()
    );

    let fx = fixture();
    let docs: Vec<(&str, &[String])> = fx
        .docs
        .iter()
        .zip(&fx.candidates)
        .map(|(d, c)| (d.as_str(), c.as_slice()))
        .collect();
    let mut rows: Vec<serde_json::Value> = Vec::new();

    // Stemmer component (paper: 7.9 MB/s).
    rows.extend(sweep_component(
        "stemmer_component",
        fx.total_bytes,
        fx.docs.len(),
        reps,
        || {
            fx.docs
                .iter()
                .map(|d| fx.ranker.stem_document(d).len())
                .sum::<usize>()
        },
        |t| {
            ctxrank_parallel::par_map(t, &fx.docs, |d| fx.ranker.stem_document(d).len())
                .into_iter()
                .sum::<usize>()
        },
    ));

    // Ranker component (paper: 2.4 MB/s).
    rows.extend(sweep_component(
        "ranker_component",
        fx.total_bytes,
        docs.len(),
        reps,
        || {
            docs.iter()
                .map(|(d, c)| fx.ranker.rank(d, c).len())
                .sum::<usize>()
        },
        |t| {
            fx.ranker
                .rank_batch_with_threads(&docs, t)
                .iter()
                .map(Vec::len)
                .sum::<usize>()
        },
    ));

    // Annotation component: the full Shortcuts pipeline (pre-processing,
    // interned-trie detection, collision resolution, vector scoring),
    // wired exactly as the experiment build wired it.
    let pipeline = fx.exp.annotation_pipeline();
    rows.extend(sweep_component(
        "annotation_component",
        fx.total_bytes,
        fx.docs.len(),
        reps,
        || {
            fx.docs
                .iter()
                .map(|d| pipeline.process(d).annotations.len())
                .sum::<usize>()
        },
        |t| {
            ctxrank_parallel::par_map(t, &fx.docs, |d| pipeline.process(d).annotations.len())
                .into_iter()
                .sum::<usize>()
        },
    ));
    drop(pipeline);

    // Whole offline pipeline; throughput over the raw story bytes.
    let config = ExperimentConfig::small(0xbe7c4);
    let corpus_bytes: usize = Experiment::build_serial(config.clone())
        .world
        .news
        .iter()
        .map(|s| s.text.len())
        .sum();
    rows.extend(sweep_component(
        "experiment_build",
        corpus_bytes,
        usize::MAX,
        reps,
        || Experiment::build_serial(config.clone()).stats.windows,
        |t| {
            Experiment::build_with_threads(config.clone(), t)
                .stats
                .windows
        },
    ));

    // Snapshot hot-swap: single-reader throughput on a static snapshot
    // ("serial") vs the aggregate throughput of `workers` concurrent
    // readers while a publisher continuously swaps rebuilt snapshots
    // underneath them ("parallel"). The read path must scale
    // with readers and never stall on a publish, so speedup ≥ 1.0 at
    // any worker count is the pass condition.
    let snap_a = ctxrank_bench::build_snapshot(&fx.exp);
    let snap_b = ctxrank_bench::build_snapshot(&fx.exp);
    let handle = ctxrank_framework::ServiceHandle::new(snap_a.clone());
    rows.extend(sweep_component(
        "snapshot_swap",
        fx.total_bytes,
        docs.len(),
        reps,
        || {
            docs.iter()
                .map(|(d, c)| handle.rank(d, c).len())
                .sum::<usize>()
        },
        |t| {
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let publisher = scope.spawn(|| {
                    let mut flip = false;
                    while !stop.load(Ordering::Acquire) {
                        handle.publish(if flip { snap_a.clone() } else { snap_b.clone() });
                        flip = !flip;
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                });
                let ranked = ctxrank_parallel::par_map(t, &docs, |(d, c)| handle.rank(d, c).len())
                    .into_iter()
                    .sum::<usize>();
                stop.store(true, Ordering::Release);
                publisher.join().expect("publisher");
                ranked
            })
        },
    ));

    // Network serving layer: micro-batched keep-alive `/rank` traffic
    // ("parallel") vs one request per connection at batch size 1
    // ("serial"), both against a real server on a loopback port. The
    // speedup is connection amortization plus batch coalescing — one
    // snapshot/adjuster read per 16 documents instead of per document.
    // One row: the axis here is batching at a fixed client count, not
    // the par_map fan-out.
    let workload = ctxrank_bench::loopback_workload(&fx.exp);
    let snapshot = ctxrank_bench::build_snapshot(&fx.exp);
    let serve_handle = std::sync::Arc::new(ctxrank_framework::ServiceHandle::new(snapshot));
    let loopback_one_shot = {
        let server = ctxrank_serve::Server::start(
            std::sync::Arc::clone(&serve_handle),
            ctxrank_bench::loopback_config(1),
        )
        .expect("start baseline server");
        let addr = server.local_addr();
        // Untimed warmup pass: fault in stacks, warm the accept path.
        ctxrank_bench::drive_loopback_pass(addr, &workload.bodies, false);
        let secs = best_secs(reps, || {
            ctxrank_bench::drive_loopback_pass(addr, &workload.bodies, false)
        });
        server.shutdown();
        secs
    };
    let loopback_batched = {
        let server = ctxrank_serve::Server::start(
            std::sync::Arc::clone(&serve_handle),
            ctxrank_bench::loopback_config(16),
        )
        .expect("start batched server");
        let addr = server.local_addr();
        ctxrank_bench::drive_loopback_pass(addr, &workload.bodies, true);
        let secs = best_secs(reps, || {
            ctxrank_bench::drive_loopback_pass(addr, &workload.bodies, true)
        });
        server.shutdown();
        secs
    };
    rows.push(row(
        "server_loopback",
        workload.doc_bytes,
        ctxrank_bench::LOOPBACK_CLIENTS,
        ctxrank_bench::LOOPBACK_CLIENTS,
        loopback_one_shot,
        loopback_batched,
    ));

    // Scatter-gather router: the same keep-alive `/rank` workload
    // against one unsharded server ("serial") vs the router fronting a
    // 2-way partition of the same snapshot ("parallel"). The column
    // pair prices the scatter hop + merge relative to the
    // single-process baseline; bit-identity of the answers themselves
    // is asserted by the cluster integration tests.
    {
        let full = ctxrank_bench::build_snapshot(&fx.exp);
        let parts = ctxrank_framework::partition_snapshot(&full, 2).expect("partition snapshot");
        let baseline = ctxrank_serve::Server::start(
            std::sync::Arc::new(ctxrank_framework::ServiceHandle::new(full)),
            ctxrank_bench::loopback_config(1),
        )
        .expect("start unsharded server");
        let shards: Vec<ctxrank_serve::Server> = parts
            .iter()
            .map(|part| {
                ctxrank_serve::Server::start(
                    std::sync::Arc::new(ctxrank_framework::ServiceHandle::new(
                        part.snapshot.clone(),
                    )),
                    ctxrank_bench::loopback_config(1).as_shard(part.bounds),
                )
                .expect("start shard server")
            })
            .collect();
        let sg = std::sync::Arc::new(ctxrank_router::ScatterGather::new(
            shards
                .iter()
                .map(|s| ctxrank_router::ShardSpec::single(s.local_addr()))
                .collect(),
            ctxrank_router::RouterConfig::default(),
        ));
        let router =
            ctxrank_router::RouterServer::start(sg, ctxrank_router::RouterServerConfig::default())
                .expect("start router");
        // Untimed warmup: fault in both paths, fill the router's
        // per-backend connection pools.
        ctxrank_bench::drive_loopback_pass(baseline.local_addr(), &workload.bodies, true);
        ctxrank_bench::drive_loopback_pass(router.local_addr(), &workload.bodies, true);
        let (unsharded_s, routed_s) = best_pair(
            reps,
            || ctxrank_bench::drive_loopback_pass(baseline.local_addr(), &workload.bodies, true),
            || ctxrank_bench::drive_loopback_pass(router.local_addr(), &workload.bodies, true),
        );
        let shard_count = shards.len();
        router.shutdown();
        for s in shards {
            s.shutdown();
        }
        baseline.shutdown();
        eprintln!(
            "perf_report: router_scatter_gather unsharded={unsharded_s:.3}s routed={routed_s:.3}s"
        );
        rows.push(row(
            "router_scatter_gather",
            workload.doc_bytes,
            ctxrank_bench::LOOPBACK_CLIENTS,
            shard_count,
            unsharded_s,
            routed_s,
        ));
    }

    // Open-loop tail latency: Poisson arrivals at a fixed offered rate
    // (latency measured from the scheduled arrival — no coordinated
    // omission), Zipf query mix over a fixed body pool, with and
    // without the epoch-keyed result cache. Each mode first climbs a
    // rate ladder to its max sustainable RPS under the p99 SLO, then
    // both run at the same comparison rate so the p99 columns are
    // directly comparable. Knobs: `OPENLOOP_DURATION_MS` (per measured
    // run, default 1500) and `OPENLOOP_SLO_P99_MS` (default 50).
    rows.extend(openloop_rows(&fx.exp, &serve_handle));

    // Format row: unrolled vs scalar postings decode.
    rows.push(postings_decode_row(reps));

    // Streaming-ingestion rows: durable append+seal rate and the
    // click-to-served-epoch latency of an incremental delta publish.
    rows.push(click_ingest_row(reps));
    rows.push(delta_publish_row(&fx, reps));

    // Debiasing-experiment rows: IPW vs naive §VIII adjusters on
    // PBM-biased and unbiased logs at the pinned seed.
    rows.extend(debias_rows());

    let report = serde_json::Value::Seq(rows);
    let json = serde_json::to_string_pretty(&report).expect("serialize report");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_throughput.json");
    println!("{json}");
    eprintln!("perf_report: wrote {path}");
}
