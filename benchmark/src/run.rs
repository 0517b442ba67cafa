//! The five workloads: set-up, warm-up, measured phase, output checks.
//!
//! Every workload returns a [`Measured`]: its end-to-end numbers and
//! checks, plus whatever its measured phase already learned about the
//! layers (counter deltas, the writer's cycle log), which the traced
//! pass in `probes.rs` builds on.

use crate::fixture::{self, Bodies, Booted, Cluster, Mix, Offline};
use crate::http::Conn;
use crate::ingest::Writer;
use crate::load::{self, ClosedLoop, LaneOut, Segment, WindowStats};
use crate::report::{Check, Metric};
use crate::stats::{self, Scrape, FNV_OFFSET};
use crate::trace::Trace;
use ctxrank_framework::{RuntimeRanker, ServiceHandle};
use ctxrank_serve::{render_rank_response, Server};
use serde_json::{json, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RankMiss,
    RankZipf,
    RankSharded,
    IngestPublish,
    AnnotateBatch,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RankMiss,
        Workload::RankZipf,
        Workload::RankSharded,
        Workload::IngestPublish,
        Workload::AnnotateBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RankMiss => "rank_miss",
            Workload::RankZipf => "rank_zipf",
            Workload::RankSharded => "rank_sharded",
            Workload::IngestPublish => "ingest_publish",
            Workload::AnnotateBatch => "annotate_batch",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct Options {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    pub trace: bool,
    pub out: PathBuf,
    /// Small world, short warm-up: exercises every code path quickly.
    pub smoke: bool,
}

/// Every end-to-end value is the median over this many windows of the
/// measured phase: a disturbance on this shared box has to last for
/// more than half of them to move the result.
pub const WINDOWS: u32 = 5;

impl Options {
    /// Generator threads = connections.
    pub fn lanes(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(4)
    }

    /// One window of the measured phase.
    fn window(&self) -> Duration {
        Duration::from_secs(self.seconds) / WINDOWS
    }

    fn min_warm_up(&self) -> Duration {
        Duration::from_millis(if self.smoke { 300 } else { 2_000 })
    }

    /// Length of the extra traced stretch after the measured windows.
    pub fn trace_stretch(&self) -> Duration {
        Duration::from_millis(if self.smoke { 300 } else { 1_500 })
    }

    pub fn dir(&self, workload: Workload) -> PathBuf {
        self.out.join(workload.name())
    }
}

/// The unsharded server of a run and the handle it serves.
pub struct Serving {
    pub booted: Booted,
    pub server: Server,
}

impl Serving {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// What set-up built. Traced passes add the parts their workload did
/// not need.
pub struct Env {
    pub offline: Offline,
    pub bodies: Arc<Bodies>,
    /// None on `annotate_batch`.
    pub serving: Option<Serving>,
    /// Only on `rank_sharded`.
    pub cluster: Option<Cluster>,
    /// Only on `annotate_batch`.
    pub docs: Vec<String>,
}

impl Env {
    pub fn set_up(workload: Workload, opts: &Options) -> Self {
        let offline = Offline::build(opts.smoke);
        let bodies = Arc::new(Bodies::from_experiment(&offline.exp));
        let mut env = Self {
            offline,
            bodies,
            serving: None,
            cluster: None,
            docs: Vec::new(),
        };
        if workload == Workload::AnnotateBatch {
            env.docs = fixture::annotate_docs(&env.offline.exp);
        } else {
            env.ensure_serving(opts, workload);
        }
        if workload == Workload::RankSharded {
            env.ensure_cluster();
        }
        env
    }

    /// Boot the unsharded server unless set-up already did.
    pub fn ensure_serving(&mut self, opts: &Options, workload: Workload) {
        let snapshot = &self.offline.snapshot;
        self.serving.get_or_insert_with(|| {
            let booted = fixture::boot_service(snapshot, &opts.dir(workload).join("snapshot"));
            let server = fixture::start_server(&booted.handle);
            Serving { booted, server }
        });
    }

    /// Start shards and router unless set-up already did.
    pub fn ensure_cluster(&mut self) {
        let snapshot = &self.offline.snapshot;
        self.cluster.get_or_insert_with(|| Cluster::start(snapshot));
    }

    /// Stop every server. All client connections are closed by now.
    pub fn tear_down(self) {
        if let Some(cluster) = self.cluster {
            cluster.shutdown();
        }
        if let Some(serving) = self.serving {
            serving.server.shutdown();
        }
    }
}

/// What a workload's measured phase produced.
pub struct Measured {
    /// `ops_per_s`, `p50_ms`, `tail_ms` first, then the workload's own
    /// extras; `setup_s` and `peak_rss_mb` are added by the caller.
    pub end_to_end: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub output_checksum: u64,
    pub detail: Value,
    /// `/metrics` of the workload's rank server(s) before and after
    /// the measured windows.
    pub serve_counters: Option<(Scrape, Scrape)>,
    /// The same for the router front.
    pub router_counters: Option<(Scrape, Scrape)>,
    /// Median routed window ops/s over median twin window ops/s.
    pub routed_over_direct: Option<f64>,
    /// The `querylog` / delta metrics of the writer's cycle log.
    pub writer_layers: Option<Vec<Metric>>,
    /// Lateness of the paced writer's ticks.
    pub tick_late_us: Vec<f64>,
    /// p50 of the traced stretch's requests over the p50 of the same
    /// requests in the measured windows.
    pub traced_over_untraced: Option<f64>,
}

/// The median over `windows` of one of their columns.
fn window_median(
    name: &str,
    unit: &'static str,
    windows: &[WindowStats],
    column: fn(&WindowStats) -> f64,
) -> Metric {
    Metric::median_of(name, unit, &windows.iter().map(column).collect::<Vec<_>>())
}

impl Measured {
    /// A result that knows nothing about the layers yet.
    fn new(
        end_to_end: Vec<Metric>,
        detail: Value,
        attempted: u64,
        failed: u64,
        checks: Vec<Check>,
        output_checksum: u64,
    ) -> Self {
        Self {
            end_to_end,
            attempted,
            failed,
            checks,
            output_checksum,
            detail,
            serve_counters: None,
            router_counters: None,
            routed_over_direct: None,
            writer_layers: None,
            tick_late_us: Vec::new(),
            traced_over_untraced: None,
        }
    }

    /// The usual case: every end-to-end value is a median over the
    /// measured windows.
    fn of_windows(
        windows: &[WindowStats],
        unit_of_work: &str,
        attempted: u64,
        failed: u64,
        checks: Vec<Check>,
        output_checksum: u64,
    ) -> Self {
        let n = windows.iter().map(|w| w.n).min().unwrap_or(0);
        Self::new(
            vec![
                window_median("ops_per_s", "1/s", windows, |w| w.ops_per_s),
                window_median("p50_ms", "ms", windows, |w| w.p50_ms).with_n(n),
                window_median("tail_ms", "ms", windows, |w| w.tail_ms).with_n(n),
            ],
            json!({
                "unit_of_work": unit_of_work,
                "tail_quantile": windows.first().map_or(0.5, |w| w.tail_quantile),
                "windows": Value::Seq(windows.iter().map(window_json).collect()),
            }),
            attempted,
            failed,
            checks,
            output_checksum,
        )
    }

    pub fn p50_ms(&self) -> f64 {
        self.end_to_end[1].value
    }
}

fn window_json(w: &WindowStats) -> Value {
    json!({
        "ops_per_s": w.ops_per_s,
        "p50_ms": w.p50_ms,
        "tail_ms": w.tail_ms,
        "n": w.n,
        "failed": w.failed,
    })
}

pub fn measure(workload: Workload, env: &mut Env, opts: &Options, trace: &mut Trace) -> Measured {
    match workload {
        Workload::RankMiss => rank_unsharded(env, opts, trace, Mix::Miss),
        Workload::RankZipf => rank_unsharded(env, opts, trace, Mix::Zipf),
        Workload::RankSharded => rank_sharded(env, opts, trace),
        Workload::IngestPublish => ingest_publish(env, opts, trace),
        Workload::AnnotateBatch => annotate_batch(env, opts, trace),
    }
}

// ---------------------------------------------------------------- rank

/// Let the lanes run until at least the minimum warm-up has passed and,
/// on the Zipf mix, the result cache holds 95 % of its budget (at most
/// five times the minimum, 10 s): the windows must see the cache's
/// steady state, not its fill.
fn warm_up(opts: &Options, mix: Mix, addr: SocketAddr) {
    let begin = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let elapsed = begin.elapsed();
        if elapsed < opts.min_warm_up() {
            continue;
        }
        let filled = mix != Mix::Zipf
            || load::scrape(&[addr]).get("ctxrank_cache_bytes")
                >= 0.95 * fixture::CACHE_BYTES as f64;
        if filled || elapsed >= opts.min_warm_up() * 5 {
            return;
        }
    }
}

/// Record the traced stretch's requests as spans and return their p50
/// over `untraced_p50_ms`.
fn trace_requests(
    trace: &mut Trace,
    lanes: &[LaneOut],
    seg: &Segment,
    untraced_p50_ms: f64,
) -> f64 {
    let traced_p50_ms = load::trace_requests(trace, "workload.request", lanes, seg);
    stats::ratio(traced_p50_ms, untraced_p50_ms)
}

/// Requests the lanes made, and how many of them failed (non-200,
/// transport error, malformed body, or an epoch that went backwards).
fn lane_totals(lanes: &[LaneOut]) -> (u64, u64) {
    let attempted: usize = lanes.iter().map(|l| l.recs.len()).sum();
    let failed: u64 = lanes
        .iter()
        .map(|l| l.recs.iter().filter(|r| !r.ok).count() as u64 + l.epoch_regressions)
        .sum();
    (attempted as u64, failed)
}

/// Every sampled response must equal what the product's own functions
/// compute in-process for the same request at the same epoch.
fn check_sampled(lanes: &[LaneOut], bodies: &Bodies, handle: &ServiceHandle) -> Check {
    let mut check = Check {
        name: "sampled_responses_equal_in_process_rank",
        compared: 0,
        mismatched: 0,
    };
    for s in lanes.iter().flat_map(|l| &l.sampled) {
        check.compared += 1;
        if s.body != expected_body(bodies, handle, s.index) {
            check.mismatched += 1;
        }
    }
    check
}

fn expected_body(bodies: &Bodies, handle: &ServiceHandle, index: u64) -> Vec<u8> {
    let (text, candidates) = bodies.doc(index);
    let (epoch, mut ranked) = handle.rank_batch_online(&[(text.as_str(), candidates)]);
    render_rank_response(epoch, &ranked.remove(0)).body
}

/// Number of operations in the fixed output sample.
const SAMPLE_OPS: u64 = 256;

/// Send the fixed sample (body indices `0..256`, the same on every
/// seed and commit) and return the response bodies.
fn fixed_sample(bodies: &Bodies, addr: SocketAddr) -> Vec<Vec<u8>> {
    let mut conn = Conn::connect(addr).expect("connect for the fixed sample");
    let (mut payload, mut body) = (Vec::new(), Vec::new());
    (0..SAMPLE_OPS)
        .map(|index| {
            bodies.render(index, &mut payload);
            match conn.request("POST", "/rank", &payload, &mut body) {
                Ok(200) => body.clone(),
                _ => Vec::new(),
            }
        })
        .collect()
}

/// Fold one ranked concept into an output checksum: its surface and
/// its score to six decimals. The last bits of a score are left out
/// because they are not an output the product repeats: relevance is
/// summed in term-id order, and term ids are assigned in `HashMap`
/// iteration order, which differs in every process.
fn checksum_concept(h: u64, surface: &str, score: f64) -> u64 {
    stats::fnv1a(
        stats::fnv1a(h, surface.as_bytes()),
        format!("{score:.6}").as_bytes(),
    )
}

/// Checksum of `/rank` response bodies: every result in ranked order.
/// The epoch is left out; it counts this process's snapshot builds.
fn checksum_bodies(sample: &[Vec<u8>]) -> u64 {
    sample.iter().fold(FNV_OFFSET, |h, body| {
        let parsed: Option<Value> = serde_json::from_slice(body).ok();
        let Some(Value::Seq(results)) = parsed.as_ref().and_then(|v| v.get("results")) else {
            return stats::fnv1a(h, b"<no results>");
        };
        results.iter().fold(h, |h, r| {
            let surface = r.get("surface").and_then(Value::as_str).unwrap_or("");
            let score = r.get("score").and_then(Value::as_f64).unwrap_or(f64::NAN);
            checksum_concept(h, surface, score)
        })
    })
}

fn check_fixed_sample(sample: &[Vec<u8>], bodies: &Bodies, handle: &ServiceHandle) -> Check {
    let mismatched = sample
        .iter()
        .zip(0..)
        .filter(|(body, index)| **body != expected_body(bodies, handle, *index))
        .count();
    Check {
        name: "fixed_sample_equals_in_process_rank",
        compared: sample.len() as u64,
        mismatched: mismatched as u64,
    }
}

fn rank_unsharded(env: &mut Env, opts: &Options, trace: &mut Trace, mix: Mix) -> Measured {
    let serving = env.serving.as_ref().expect("set-up booted a server");
    let addr = serving.addr();
    let origin = trace.origin();
    let lanes = ClosedLoop::start(
        &env.bodies,
        mix,
        opts.seed,
        opts.lanes(),
        vec![addr],
        origin,
    );
    warm_up(opts, mix, addr);
    let before = load::scrape(&[addr]);
    let windows: Vec<Segment> = (0..WINDOWS)
        .map(|_| load::hold(origin, 0, opts.window()))
        .collect();
    let after = load::scrape(&[addr]);
    let traced = opts
        .trace
        .then(|| load::hold(origin, 0, opts.trace_stretch()));
    let lanes = lanes.stop();

    let stats: Vec<WindowStats> = windows
        .iter()
        .map(|w| load::window_stats(&lanes, w))
        .collect();
    let handle = &serving.booted.handle;
    let sample = fixed_sample(&env.bodies, addr);
    let checks = vec![
        check_sampled(&lanes, &env.bodies, handle),
        check_fixed_sample(&sample, &env.bodies, handle),
    ];
    let (attempted, failed) = lane_totals(&lanes);
    let mut m = Measured::of_windows(
        &stats,
        "POST /rank round trip",
        attempted + checks.iter().map(|c| c.compared).sum::<u64>(),
        failed + checks.iter().map(|c| c.mismatched).sum::<u64>(),
        checks,
        checksum_bodies(&sample),
    );
    m.serve_counters = Some((before, after));
    m.traced_over_untraced = traced.map(|seg| trace_requests(trace, &lanes, &seg, m.p50_ms()));
    m
}

fn rank_sharded(env: &mut Env, opts: &Options, trace: &mut Trace) -> Measured {
    const ROUTED: usize = 0;
    const TWIN: usize = 1;
    let serving = env.serving.as_ref().expect("set-up booted the twin");
    let cluster = env.cluster.as_ref().expect("set-up started the cluster");
    let (router, twin) = (cluster.router.local_addr(), serving.addr());
    let shards = cluster.shard_addrs();
    let origin = trace.origin();
    let lanes = ClosedLoop::start(
        &env.bodies,
        Mix::Miss,
        opts.seed,
        opts.lanes(),
        vec![router, twin],
        origin,
    );
    std::thread::sleep(opts.min_warm_up());
    // Routed windows (three quarters of the phase) with a short twin
    // window between each two: the twin sees the same minutes of this
    // shared box as the router does.
    let before = (load::scrape(&shards), load::scrape(&[router]));
    let window = |target, length: Duration| {
        lanes.switch(target);
        // The lanes reconnect on a switch; let that finish first.
        std::thread::sleep(Duration::from_millis(20));
        load::hold(origin, target, length)
    };
    let mut routed = vec![window(ROUTED, opts.window() * 3 / 4)];
    let mut direct = Vec::new();
    for _ in 1..WINDOWS {
        direct.push(window(TWIN, opts.window() * 5 / 16));
        routed.push(window(ROUTED, opts.window() * 3 / 4));
    }
    let after = (load::scrape(&shards), load::scrape(&[router]));
    let traced = opts
        .trace
        .then(|| load::hold(origin, ROUTED, opts.trace_stretch()));
    let lanes = lanes.stop();

    let routed: Vec<WindowStats> = routed
        .iter()
        .map(|w| load::window_stats(&lanes, w))
        .collect();
    let direct: Vec<WindowStats> = direct
        .iter()
        .map(|w| load::window_stats(&lanes, w))
        .collect();
    // The merged body must be byte-equal to the unsharded answer:
    // sampled responses of both targets against the in-process ranker,
    // and the fixed sample through both fronts against each other.
    let handle = &serving.booted.handle;
    let (via_router, via_twin) = (
        fixed_sample(&env.bodies, router),
        fixed_sample(&env.bodies, twin),
    );
    let checks = vec![
        check_sampled(&lanes, &env.bodies, handle),
        Check {
            name: "routed_sample_equals_unsharded_twin",
            compared: SAMPLE_OPS,
            mismatched: via_router
                .iter()
                .zip(&via_twin)
                .filter(|(a, b)| a != b || a.is_empty())
                .count() as u64,
        },
    ];
    let (attempted, failed) = lane_totals(&lanes);
    let mut m = Measured::of_windows(
        &routed,
        "POST /rank round trip through the router",
        attempted + checks.iter().map(|c| c.compared).sum::<u64>(),
        failed + checks.iter().map(|c| c.mismatched).sum::<u64>(),
        checks,
        checksum_bodies(&via_router),
    );
    let ops =
        |ws: &[WindowStats]| stats::median(&ws.iter().map(|w| w.ops_per_s).collect::<Vec<_>>());
    m.routed_over_direct = Some(stats::ratio(ops(&routed), ops(&direct)));
    if let Value::Map(detail) = &mut m.detail {
        detail.push((
            "twin_windows".to_string(),
            Value::Seq(direct.iter().map(window_json).collect()),
        ));
    }
    m.serve_counters = Some((before.0, after.0));
    m.router_counters = Some((before.1, after.1));
    m.traced_over_untraced = traced.map(|seg| trace_requests(trace, &lanes, &seg, m.p50_ms()));
    m
}

// -------------------------------------------------------------- ingest

/// Documents the served snapshot and the freshly folded one must rank
/// identically.
const FOLD_CHECK_DOCS: u64 = 200;

/// Upper bound on how much one publish grows the process: the handle
/// keeps every snapshot it ever served (2.7 MB each on this world).
const PUBLISH_FOOTPRINT: usize = 4 << 20;

fn ingest_publish(env: &mut Env, opts: &Options, trace: &mut Trace) -> Measured {
    let serving = env.serving.as_ref().expect("set-up booted a server");
    let addr = serving.addr();
    let handle = Arc::clone(&serving.booted.handle);
    let origin = trace.origin();
    let paced_cycles = opts.seconds as usize * 20;
    // Eight back-to-back batches per chunk, one chunk per window.
    let unpaced_chunk = 8;
    let traced_cycles = if opts.trace {
        (opts.trace_stretch().as_millis() / 50) as usize + 10
    } else {
        0
    };
    fixture::back_memory(
        (paced_cycles + unpaced_chunk * WINDOWS as usize + traced_cycles) * PUBLISH_FOOTPRINT,
    );

    // One reader lane runs the Zipf mix the whole time; every publish
    // also invalidates the epoch-keyed cache under it.
    let reader = ClosedLoop::start(&env.bodies, Mix::Zipf, opts.seed, 1, vec![addr], origin);
    std::thread::sleep(opts.min_warm_up());

    let mut writer = Writer::new(
        &opts.dir(Workload::IngestPublish).join("segments"),
        opts.seed,
        &mut env.offline.projector,
        Arc::clone(&handle),
        origin,
    );
    let before = load::scrape(&[addr]);
    // Paced: one batch per tick for the whole measured phase.
    let paced_start = trace.now_ns();
    let paced = writer.run(paced_cycles, true, false);
    let paced_end = trace.now_ns();
    // Unpaced: how fast clicks can become served epochs, in chunks so
    // one disturbed stretch cannot set the rate.
    let unpaced_events_per_s: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let begin = Instant::now();
            writer.run(unpaced_chunk, false, false);
            (unpaced_chunk * crate::ingest::BATCH_EVENTS) as f64 / begin.elapsed().as_secs_f64()
        })
        .collect();
    let after = load::scrape(&[addr]);
    // Traced: paced again, with `delta_from` timed on its own.
    let traced = opts.trace.then(|| {
        let start_ns = trace.now_ns();
        writer.run(traced_cycles, true, true);
        Segment {
            start_ns,
            end_ns: trace.now_ns(),
            target: 0,
        }
    });
    let reader = reader.stop();

    // The served snapshot must rank like a fresh projector folded once
    // over the whole replayed log: bootstrap + deltas ≡ one fold.
    let events = writer.store().replay().expect("replay the store");
    let (mut fresh, base) = ctxrank_bench::build_projector(&env.offline.exp);
    let delta = fresh.fold(&events);
    let folded = base
        .merge_delta(&mut fresh, &delta)
        .expect("fold the log once");
    let (served, folded) = (
        RuntimeRanker::from_snapshot(handle.current()),
        RuntimeRanker::from_snapshot(folded),
    );
    let mut fold_check = Check {
        name: "served_snapshot_equals_one_fold_of_replay",
        compared: FOLD_CHECK_DOCS,
        mismatched: 0,
    };
    let mut checksum = FNV_OFFSET;
    for index in 0..FOLD_CHECK_DOCS {
        let (text, candidates) = env.bodies.doc(index);
        let (a, b) = (
            served.rank(&text, candidates),
            folded.rank(&text, candidates),
        );
        let same = a.len() == b.len()
            && a.iter().zip(&b).all(|(x, y)| {
                x.surface == y.surface
                    && x.score.to_bits() == y.score.to_bits()
                    && x.relevance.to_bits() == y.relevance.to_bits()
            });
        fold_check.mismatched += u64::from(!same);
        checksum = a
            .iter()
            .fold(checksum, |h, r| checksum_concept(h, &r.surface, r.score));
    }

    let cycles = &writer.cycles;
    let served_ms = stats::sorted(
        cycles[paced.clone()]
            .iter()
            .map(|c| c.click_to_served_ms())
            .collect(),
    );
    let tail_q = stats::tail_quantile(served_ms.len());
    // The reader over the paced phase, window by window.
    let window_ns = (paced_end - paced_start) / u64::from(WINDOWS);
    let read: Vec<WindowStats> = (0..u64::from(WINDOWS))
        .map(|w| {
            let seg = Segment {
                start_ns: paced_start + w * window_ns,
                end_ns: paced_start + (w + 1) * window_ns,
                target: 0,
            };
            load::window_stats(&reader, &seg)
        })
        .collect();
    let read_p50_ms = window_median("read_p50_ms", "ms", &read, |w| w.p50_ms);
    let (read_attempted, read_failed) = lane_totals(&reader);
    let mut m = Measured::new(
        vec![
            window_median("ops_per_s", "1/s", &read, |w| w.ops_per_s),
            Metric::new("p50_ms", stats::percentile(&served_ms, 0.5), "ms").with_n(served_ms.len()),
            Metric::new("tail_ms", stats::percentile(&served_ms, tail_q), "ms")
                .with_n(served_ms.len()),
            Metric::median_of("unpaced_events_per_s", "1/s", &unpaced_events_per_s),
            read_p50_ms.clone(),
            window_median("read_tail_ms", "ms", &read, |w| w.tail_ms),
        ],
        json!({
            "unit_of_work": "ops_per_s: reader requests/s beside the paced writer; p50_ms, tail_ms: click to served epoch, paced",
            "tail_quantile": tail_q,
            "paced_cycles": paced.len(),
            "unpaced_cycles": unpaced_chunk * WINDOWS as usize,
            "reader_windows": Value::Seq(read.iter().map(window_json).collect()),
        }),
        read_attempted + cycles.len() as u64 + fold_check.compared,
        read_failed + fold_check.mismatched,
        vec![
            Check {
                name: "reader_epochs_monotone",
                compared: read_attempted,
                mismatched: reader.iter().map(|l| l.epoch_regressions).sum(),
            },
            fold_check,
        ],
        checksum,
    );
    m.serve_counters = Some((before, after));
    m.tick_late_us = cycles.iter().filter_map(|c| c.late_us).collect();
    // The traced requests here are the reader's, so their base is the
    // reader's untraced p50.
    m.traced_over_untraced =
        traced.map(|seg| trace_requests(trace, &reader, &seg, read_p50_ms.value));
    if opts.trace {
        writer.record_spans(trace);
        m.writer_layers = Some(writer.layer_metrics());
    }
    writer.remove_files();
    m
}

// ------------------------------------------------------------ annotate

fn annotate_batch(env: &mut Env, opts: &Options, _trace: &mut Trace) -> Measured {
    let pipeline = env.offline.exp.annotation_pipeline();
    let docs = &env.docs;
    let mut cursor = 0;
    // One thread, document after document, until `until`; per-document
    // `process` times in ms.
    let mut pass = |length: Duration| {
        let begin = Instant::now();
        let mut ms = Vec::new();
        while begin.elapsed() < length {
            let doc = &docs[cursor % docs.len()];
            cursor += 1;
            let t = Instant::now();
            std::hint::black_box(pipeline.process(std::hint::black_box(doc)));
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        (begin.elapsed().as_secs_f64(), ms)
    };
    pass(opts.min_warm_up());
    let windows: Vec<WindowStats> = (0..WINDOWS)
        .map(|_| {
            let (secs, ms) = pass(opts.window());
            let ms = stats::sorted(ms);
            let tail_quantile = stats::tail_quantile(ms.len());
            WindowStats {
                ops_per_s: ms.len() as f64 / secs,
                p50_ms: stats::percentile(&ms, 0.5),
                tail_ms: stats::percentile(&ms, tail_quantile),
                tail_quantile,
                n: ms.len(),
                failed: 0,
            }
        })
        .collect();
    let processed = cursor as u64;

    // One thread and the pool must annotate identically.
    let single: Vec<_> = docs.iter().map(|d| pipeline.process(d)).collect();
    let pooled = ctxrank_parallel::par_map(opts.lanes(), docs, |d| pipeline.process(d));
    let mismatched = single
        .iter()
        .zip(&pooled)
        .filter(|(a, b)| a.text != b.text || a.annotations != b.annotations)
        .count() as u64;
    let mut checksum = FNV_OFFSET;
    for doc in single.iter().take(SAMPLE_OPS as usize) {
        for a in &doc.annotations {
            checksum = stats::fnv1a(checksum, a.surface.as_bytes());
            checksum = stats::fnv1a(checksum, &(a.span.start as u64).to_le_bytes());
            checksum = stats::fnv1a(checksum, &(a.span.end as u64).to_le_bytes());
            checksum = stats::fnv1a(checksum, &a.score.to_bits().to_le_bytes());
        }
    }
    let check = Check {
        name: "single_thread_equals_par_map",
        compared: docs.len() as u64,
        mismatched,
    };
    let mut m = Measured::of_windows(
        &windows,
        "Pipeline::process of one 2.5 KB document, one thread",
        processed + check.compared,
        check.mismatched,
        vec![check],
        checksum,
    );
    let mean_bytes = docs.iter().map(String::len).sum::<usize>() as f64 / docs.len() as f64;
    // The paper's unit: the same windows as `ops_per_s`, in bytes.
    let mut mb_per_s = m.end_to_end[0].clone();
    mb_per_s.name = "mb_per_s".to_string();
    mb_per_s.value *= mean_bytes / 1e6;
    mb_per_s.unit = "MB/s";
    m.end_to_end.push(mb_per_s);
    m
}
