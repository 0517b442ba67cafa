//! The traced pass: after a workload's measured phase, every layer is
//! probed from outside — a span around each public function the serving,
//! routing, ingest and annotation paths are made of — on the fixture the
//! workload just ran on.
//!
//! The probes are the same on every workload (a layer's cost does not
//! depend on which traffic mix ran before), so every per-layer name is
//! measured on every traced run. What the measured phase itself saw —
//! counter deltas of the workload's servers, the writer's cycle log, the
//! routed/twin throughput ratio — takes precedence over the probe's
//! stand-in where the workload exercised that layer.

use crate::fixture;
use crate::http::Conn;
use crate::ingest::Writer;
use crate::load::{self, ClosedLoop};
use crate::report::Metric;
use crate::run::{Env, Measured, Options, Workload};
use crate::stats::{self, Scrape};
use crate::trace::Trace;
use ctxrank_serve::{query_hash, render_rank_response, Metrics, ResultCache};
use ctxrank_shortcuts::{detect_patterns, ConceptDetector, ConceptVectorBuilder, PipelineConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many operations each probe replays.
fn ops(opts: &Options, full: u64) -> u64 {
    if opts.smoke {
        full / 10
    } else {
        full
    }
}

/// Body indices of the probes: unique, and clear of both the Zipf keys
/// and the lanes' own unique range.
fn probe_index(i: u64) -> u64 {
    (1 << 62) + i
}

pub fn layer_metrics(
    workload: Workload,
    env: &mut Env,
    opts: &Options,
    measured: &Measured,
    trace: &mut Trace,
) -> Vec<Metric> {
    let mut out = Vec::new();
    env.ensure_serving(opts, workload);
    env.ensure_cluster();
    let serving = env.serving.as_ref().expect("ensured above");
    let cluster = env.cluster.as_ref().expect("ensured above");

    // bench: the five stage runs of this run's set-up.
    let s = env.offline.stages;
    for (name, secs) in [
        ("bench.world_s", s.world),
        ("bench.mining_s", s.mining),
        ("bench.feature_s", s.feature),
        ("bench.train_s", s.train),
        ("bench.publish_s", s.publish),
    ] {
        out.push(Metric::new(name, secs, "s"));
    }

    let booted = &serving.booted;
    out.extend([
        Metric::new("framework.snapshot_save_ms", booted.save_ms, "ms"),
        Metric::new("framework.snapshot_load_ms", booted.load_ms, "ms"),
        Metric::new(
            "framework.snapshot_bytes",
            booted.snapshot_bytes as f64,
            "B",
        ),
        Metric::new("framework.partition_ms", cluster.partition_ms, "ms"),
    ]);

    let addr = serving.addr();
    let (replay_p50_us, replay_counters) = serve_over_http(env, opts, addr, trace, &mut out);
    let counters = measured.serve_counters.as_ref().unwrap_or(&replay_counters);
    serve_counters(counters, &mut out);
    serve_in_process(env, opts, trace, &mut out);
    // The request's round trip, less every step timed on its own: socket
    // I/O, thread hand-off and whatever no span names.
    let queue_wait_us = mean_us(&replay_counters, "ctxrank_queue_wait_seconds");
    let named: f64 = [
        "serve.json_parse",
        "serve.cache_probe",
        "framework.rank",
        "serve.render",
    ]
    .iter()
    .map(|name| trace.p50_us(name))
    .sum();
    out.push(Metric::new(
        "serve.residual_us",
        replay_p50_us - queue_wait_us - named,
        "us",
    ));

    router(env, opts, measured, trace, &mut out);
    let late_us = open_loop(env, opts, addr, &mut out);
    let late_us = stats::sorted(
        late_us
            .into_iter()
            .chain(measured.tick_late_us.iter().copied())
            .collect(),
    );
    out.push(Metric::new(
        "gen.late_us_p99",
        stats::percentile(&late_us, stats::tail_quantile(late_us.len())),
        "us",
    ));

    let annotate_ratio = annotate(env, opts, measured, trace, &mut out);
    out.push(Metric::new(
        "trace.overhead_ratio",
        measured.traced_over_untraced.unwrap_or(annotate_ratio),
        "ratio",
    ));

    // Last: the probe's publishes move the handle's epoch.
    match &measured.writer_layers {
        Some(layers) => out.extend(layers.iter().cloned()),
        None => {
            let serving = env.serving.as_ref().expect("ensured above");
            let mut writer = Writer::new(
                &opts.dir(workload).join("segments"),
                opts.seed,
                &mut env.offline.projector,
                Arc::clone(&serving.booted.handle),
                trace.origin(),
            );
            writer.run(ops(opts, 40) as usize, false, true);
            writer.record_spans(trace);
            out.extend(writer.layer_metrics());
            writer.remove_files();
        }
    }
    out
}

/// Mean of a Prometheus histogram in µs.
fn mean_us((before, after): &(Scrape, Scrape), name: &str) -> f64 {
    stats::ratio(
        before.delta(after, &format!("{name}_sum")),
        before.delta(after, &format!("{name}_count")),
    ) * 1e6
}

/// `serve` as counted by the servers themselves.
fn serve_counters(counters: &(Scrape, Scrape), out: &mut Vec<Metric>) {
    let (before, after) = counters;
    let d = |name: &str| before.delta(after, name);
    let (hits, misses) = (
        d("ctxrank_cache_hits_total"),
        d("ctxrank_cache_misses_total"),
    );
    out.push(Metric::new(
        "serve.cache_hit_ratio",
        stats::ratio(hits, hits + misses),
        "ratio",
    ));
    out.push(Metric::new(
        "serve.cache_evictions_per_miss",
        stats::ratio(d("ctxrank_cache_evictions_total"), misses),
        "ratio",
    ));
    out.push(Metric::new(
        "serve.queue_wait_us_mean",
        mean_us(counters, "ctxrank_queue_wait_seconds"),
        "us",
    ));
    out.push(Metric::new(
        "serve.batch_size_mean",
        stats::ratio(
            d("ctxrank_rank_batched_docs_total"),
            d("ctxrank_rank_batches_total"),
        ),
        "count",
    ));
    out.push(Metric::new(
        "serve.shed_total",
        d("ctxrank_shed_total"),
        "count",
    ));
    out.push(Metric::new(
        "serve.timeout_total",
        d("ctxrank_timeout_total"),
        "count",
    ));
    out.push(Metric::new(
        "serve.io_error_total",
        d("ctxrank_io_error_total"),
        "count",
    ));
}

/// One round trip on a warm connection, inside a span.
fn timed_request(
    trace: &mut Trace,
    span: &'static str,
    op: u64,
    conn: &mut Conn,
    (method, path): (&str, &str),
    payload: &[u8],
) {
    // Room for any reply, so the span holds no allocation.
    let mut body = Vec::with_capacity(4096);
    let start = trace.now_ns();
    let status = conn
        .request(method, path, payload, &mut body)
        .expect("probe request");
    let end = trace.now_ns();
    assert_eq!(status, 200, "{method} {path} answered {status}");
    trace.push(span, start, end, None, op);
}

/// The HTTP side of `serve`: `/healthz` round trips (the server's
/// floor) and a closed-loop replay of unique `/rank` bodies with
/// `/metrics` scraped around it. Returns the replay's p50 and scrapes.
fn serve_over_http(
    env: &Env,
    opts: &Options,
    addr: SocketAddr,
    trace: &mut Trace,
    out: &mut Vec<Metric>,
) -> (f64, (Scrape, Scrape)) {
    let mut conn = Conn::connect(addr).expect("probe connect");
    for op in 0..ops(opts, 500) {
        timed_request(
            trace,
            "serve.healthz",
            op,
            &mut conn,
            ("GET", "/healthz"),
            b"",
        );
    }
    drop(conn);
    out.push(Metric::new(
        "serve.http_overhead_us",
        trace.p50_us("serve.healthz"),
        "us",
    ));

    let origin = trace.origin();
    let lanes = ClosedLoop::start(
        &env.bodies,
        fixture::Mix::Miss,
        opts.seed ^ 0x7ACE,
        opts.lanes(),
        vec![addr],
        origin,
    );
    std::thread::sleep(Duration::from_millis(100));
    let before = load::scrape(&[addr]);
    let seg = load::hold(origin, 0, opts.trace_stretch());
    let after = load::scrape(&[addr]);
    let lanes = lanes.stop();
    let p50_ms = load::trace_requests(trace, "http.rank_miss", &lanes, &seg);
    (p50_ms * 1e3, (before, after))
}

/// `serve` and `framework` in-process, single-threaded: one parent span
/// per request, one child per public function the request passes
/// through on the server.
fn serve_in_process(env: &Env, opts: &Options, trace: &mut Trace, out: &mut Vec<Metric>) {
    let handle = &env
        .serving
        .as_ref()
        .expect("ensured by the caller")
        .booted
        .handle;
    // A cache of its own, small enough that inserts run at capacity.
    let (cache, metrics) = (ResultCache::new(256 << 10, 16), Metrics::default());
    let ranker = handle.ranker();
    let mut payload = Vec::new();
    for op in 0..ops(opts, 2_000) {
        env.bodies.render(probe_index(op), &mut payload);
        let parent = trace.open("inproc.rank_request", op);
        let (text, candidates) = trace.time("serve.json_parse", Some(parent), op, || {
            let v: serde_json::Value = serde_json::from_slice(&payload).expect("probe body parses");
            let text = v
                .get("text")
                .and_then(|t| t.as_str())
                .expect("text")
                .to_string();
            let candidates: Vec<String> = match v.get("candidates") {
                Some(serde_json::Value::Seq(items)) => items
                    .iter()
                    .map(|c| c.as_str().expect("candidate").to_string())
                    .collect(),
                _ => panic!("probe body without candidates"),
            };
            (text, candidates)
        });
        let (epoch, mut ranked) = trace.time("framework.rank", Some(parent), op, || {
            handle.rank_batch_online(&[(text.as_str(), candidates.as_slice())])
        });
        let response = trace.time("serve.render", Some(parent), op, || {
            render_rank_response(epoch, &ranked.remove(0))
        });
        let body: Arc<[u8]> = Arc::from(response.body.as_slice());
        trace.time("serve.cache_insert", Some(parent), op, || {
            cache.insert(epoch, query_hash(&text, &candidates), body, &metrics);
        });
        let hit = trace.time("serve.cache_probe", Some(parent), op, || {
            cache.get(epoch, query_hash(&text, &candidates), &metrics)
        });
        assert!(hit.is_some(), "the probe's own insert must hit");
        trace.time("framework.stem", Some(parent), op, || {
            ranker.stem_document(&text)
        });
        trace.time("framework.context_tids", Some(parent), op, || {
            ranker.context_tids_cached(&text)
        });
        trace.close(parent);
    }
    for (metric, span) in [
        ("serve.json_parse_us", "serve.json_parse"),
        ("serve.cache_probe_us", "serve.cache_probe"),
        ("serve.cache_insert_us", "serve.cache_insert"),
        ("serve.render_us", "serve.render"),
        ("framework.rank_us", "framework.rank"),
        ("framework.stem_us", "framework.stem"),
        ("framework.context_tids_us", "framework.context_tids"),
    ] {
        out.push(Metric::new(metric, trace.p50_us(span), "us"));
    }

    // The micro-batcher's shape: sixteen documents per call.
    let batches = ops(opts, 2_000) / 16;
    for op in 0..batches {
        let docs: Vec<(String, &[String])> = (0..16)
            .map(|i| env.bodies.doc(probe_index(op * 16 + i)))
            .collect();
        let refs: Vec<(&str, &[String])> = docs.iter().map(|(t, c)| (t.as_str(), *c)).collect();
        trace.time("framework.rank_batch16", None, op, || {
            handle.rank_batch_online(&refs)
        });
    }
    out.push(Metric::new(
        "framework.rank_batch16_us_per_doc",
        trace.p50_us("framework.rank_batch16") / 16.0,
        "us",
    ));
}

/// `router`: the gather without its HTTP front, one shard's round trip,
/// the routed and the direct round trip, and the router's own counters.
fn router(
    env: &Env,
    opts: &Options,
    measured: &Measured,
    trace: &mut Trace,
    out: &mut Vec<Metric>,
) {
    let cluster = env.cluster.as_ref().expect("ensured by the caller");
    let direct = env.serving.as_ref().expect("ensured by the caller").addr();
    let front = cluster.router.local_addr();
    let before = load::scrape(&[front]);
    let connect = |addr| Conn::connect(addr).expect("probe connect");
    let (mut to_shard, mut to_front, mut to_direct) = (
        connect(cluster.shard_addrs()[0]),
        connect(front),
        connect(direct),
    );
    let mut payload = Vec::new();
    let mut unique = 10_000;
    let mut fresh_body = |payload: &mut Vec<u8>| {
        unique += 1;
        env.bodies.render(probe_index(unique), payload);
    };
    // The four paths take turns request by request, so a drift of the
    // box moves all of them alike and their differences stay meaningful.
    let rank = ("POST", "/rank");
    for op in 0..ops(opts, 500) {
        fresh_body(&mut payload);
        let body = std::str::from_utf8(&payload).expect("bodies are UTF-8");
        trace
            .time("router.gather", None, op, || cluster.sg.rank(body))
            .expect("gather");
        fresh_body(&mut payload);
        timed_request(trace, "router.shard_rtt", op, &mut to_shard, rank, &payload);
        fresh_body(&mut payload);
        timed_request(trace, "http.routed", op, &mut to_front, rank, &payload);
        fresh_body(&mut payload);
        timed_request(trace, "http.direct", op, &mut to_direct, rank, &payload);
    }
    drop((to_shard, to_front, to_direct));
    let after = load::scrape(&[front]);

    let gather = trace.p50_us("router.gather");
    let shard_rtt = trace.p50_us("router.shard_rtt");
    let (routed, unrouted) = (trace.p50_us("http.routed"), trace.p50_us("http.direct"));
    out.push(Metric::new("router.gather_us", gather, "us"));
    out.push(Metric::new("router.shard_rtt_us", shard_rtt, "us"));
    out.push(Metric::new(
        "router.fanout_overhead_us",
        gather - shard_rtt,
        "us",
    ));
    out.push(Metric::new("router.front_us", routed - gather, "us"));
    // Throughput ratio of the workload's own routed and twin windows
    // where it has them; of one sequential connection each otherwise.
    out.push(Metric::new(
        "router.routed_over_direct",
        measured
            .routed_over_direct
            .unwrap_or_else(|| stats::ratio(unrouted, routed)),
        "ratio",
    ));
    let probe = (before, after);
    let (before, after) = measured.router_counters.as_ref().unwrap_or(&probe);
    let d = |name: &str| before.delta(after, name);
    out.push(Metric::new(
        "router.fanout_per_request",
        stats::ratio(
            d("ctxrank_router_fanout_total"),
            d("ctxrank_router_requests_total"),
        ),
        "count",
    ));
    out.push(Metric::new(
        "router.epoch_mismatch_total",
        d("ctxrank_router_epoch_mismatch_total"),
        "count",
    ));
    out.push(Metric::new(
        "router.failover_total",
        d("ctxrank_router_failover_total"),
        "count",
    ));
    out.push(Metric::new(
        "router.errors_total",
        d("ctxrank_router_errors_total"),
        "count",
    ));
}

/// One Poisson pass at 1,000 requests/s of unique bodies, latency from
/// the due time. A diagnostic: on a shared box its tail is not steady
/// enough to gate on. Returns how late each send ran.
fn open_loop(env: &Env, opts: &Options, addr: SocketAddr, out: &mut Vec<Metric>) -> Vec<f64> {
    let pass = load::open_loop(
        &env.bodies,
        addr,
        opts.seed,
        opts.lanes(),
        1_000.0,
        opts.trace_stretch(),
    );
    assert_eq!(pass.failed, 0, "open-loop requests failed");
    let lat = stats::sorted(pass.lat_ms);
    out.push(Metric::new("open.p50_ms", stats::percentile(&lat, 0.5), "ms").with_n(lat.len()));
    out.push(
        Metric::new(
            "open.p99_ms",
            stats::percentile(&lat, stats::tail_quantile(lat.len())),
            "ms",
        )
        .with_n(lat.len()),
    );
    pass.late_us
}

/// `text` and `shortcuts`: `Pipeline::process` per document, then each
/// stage it is made of called on its own. Returns traced over untraced
/// per-document p50, which only `annotate_batch` can state.
fn annotate(
    env: &Env,
    opts: &Options,
    measured: &Measured,
    trace: &mut Trace,
    out: &mut Vec<Metric>,
) -> f64 {
    let exp = &env.offline.exp;
    let built;
    let docs: &[String] = if env.docs.is_empty() {
        built = fixture::annotate_docs(exp);
        &built
    } else {
        &env.docs
    };
    let docs = &docs[..(ops(opts, 500) as usize).min(docs.len())];
    let pipeline = exp.annotation_pipeline();
    let config = PipelineConfig::with_multiterm_bonus(exp.config.multiterm_bonus);
    let idf = |t: &str| exp.world.corpus.idf(t);
    // First the documents through `process` alone, exactly as the
    // measured loop runs them; the stage-by-stage replay comes after, so
    // it cannot disturb the caches the `process` spans see.
    let mut annotations_seen = 0;
    for (op, raw) in docs.iter().enumerate() {
        let processed = trace.time("shortcuts.process", None, op as u64, || {
            pipeline.process(raw)
        });
        annotations_seen += processed.annotations.len();
    }
    let mut tokens_seen = 0;
    for (op, raw) in docs.iter().enumerate() {
        let op = op as u64;
        let parent = trace.open("annotate.stages", op);
        let text = trace.time("text.strip_html", Some(parent), op, || {
            ctxrank_text::strip_html(raw)
        });
        let tokens = trace.time("text.tokenize", Some(parent), op, || {
            ctxrank_text::tokenize(&text)
        });
        let norm: Vec<String> = trace.time("text.normalize", Some(parent), op, || {
            tokens
                .iter()
                .map(|t| ctxrank_text::normalize_term(t.text))
                .collect()
        });
        trace.time("text.sentences", Some(parent), op, || {
            ctxrank_text::sentences(&text)
        });
        trace.time("shortcuts.patterns", Some(parent), op, || {
            detect_patterns(&text)
        });
        trace.time("shortcuts.dictionary", Some(parent), op, || {
            exp.dictionary.detect(&norm, config.disambiguation_window)
        });
        trace.time("shortcuts.concepts", Some(parent), op, || {
            let mut detector = ConceptDetector::new(&exp.units);
            detector.min_score = config.concept_min_score;
            detector.detect_ids(&norm)
        });
        trace.time("shortcuts.vector", Some(parent), op, || {
            ConceptVectorBuilder::new(&exp.units, idf, config.vector.clone())
                .build_from_tokens(&norm)
        });
        trace.close(parent);
        tokens_seen += tokens.len();
    }
    let stages = [
        ("text.strip_html_us", "text.strip_html"),
        ("text.tokenize_us", "text.tokenize"),
        ("text.normalize_us", "text.normalize"),
        ("text.sentences_us", "text.sentences"),
        ("shortcuts.patterns_us", "shortcuts.patterns"),
        ("shortcuts.dictionary_us", "shortcuts.dictionary"),
        ("shortcuts.concepts_us", "shortcuts.concepts"),
        ("shortcuts.vector_us", "shortcuts.vector"),
    ];
    let mut staged = 0.0;
    for (metric, span) in stages {
        let p50 = trace.p50_us(span);
        staged += p50;
        out.push(Metric::new(metric, p50, "us"));
    }
    let process_us = trace.p50_us("shortcuts.process");
    // Sentence assignment, collision resolution, filtering, scoring
    // hand-off: what `process` does beyond the stages timed above.
    out.push(Metric::new(
        "shortcuts.resolve_residual_us",
        process_us - staged,
        "us",
    ));
    out.push(Metric::new(
        "text.tokens_per_doc",
        tokens_seen as f64 / docs.len() as f64,
        "count",
    ));
    out.push(Metric::new(
        "shortcuts.annotations_per_doc",
        annotations_seen as f64 / docs.len() as f64,
        "count",
    ));

    // parallel: the same documents through the pool and through one
    // thread.
    let t = Instant::now();
    let single: usize = docs
        .iter()
        .map(|d| pipeline.process(d).annotations.len())
        .sum();
    let single_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pooled: usize = ctxrank_parallel::par_map(opts.lanes(), docs, |d| {
        pipeline.process(d).annotations.len()
    })
    .into_iter()
    .sum();
    let pooled_s = t.elapsed().as_secs_f64();
    assert_eq!(single, pooled, "pool and single thread annotate alike");
    out.push(Metric::new(
        "parallel.par_map_speedup",
        single_s / pooled_s,
        "ratio",
    ));

    stats::ratio(process_us / 1e3, measured.p50_ms())
}
