//! Live serving metrics, rendered in Prometheus text format.
//!
//! Everything is a plain atomic — no locks on the request path, no
//! allocation until `/metrics` renders. The histogram buckets are fixed
//! at compile time (Prometheus-style cumulative `le` buckets), so two
//! scrapes are always comparable and the exporter needs no state.

use std::sync::atomic::{AtomicU64, Ordering};

/// Endpoints that get their own counter + latency histogram. `Other`
/// absorbs 404s and bad requests so abuse is visible too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Rank,
    Annotate,
    Feedback,
    Healthz,
    Metrics,
    Other,
}

impl Endpoint {
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Rank,
        Endpoint::Annotate,
        Endpoint::Feedback,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Rank => "rank",
            Endpoint::Annotate => "annotate",
            Endpoint::Feedback => "feedback",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Rank => 0,
            Endpoint::Annotate => 1,
            Endpoint::Feedback => 2,
            Endpoint::Healthz => 3,
            Endpoint::Metrics => 4,
            Endpoint::Other => 5,
        }
    }
}

/// Upper bounds of the latency buckets, in seconds. Spans sub-100µs
/// cache hits to multi-second pathologies; the final implicit bucket is
/// `+Inf`.
pub const LATENCY_BUCKETS_SECS: [f64; 12] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
];

/// One latency histogram over [`LATENCY_BUCKETS_SECS`] — the only one
/// in the workspace: this server's per-endpoint and queue-wait
/// latencies and the router's per-shard latency all record into it.
#[derive(Default)]
pub struct Histogram {
    /// One slot per finite bucket plus the `+Inf` slot. Stored
    /// non-cumulative; cumulated at render time.
    buckets: [AtomicU64; LATENCY_BUCKETS_SECS.len() + 1],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub fn observe(&self, secs: f64) {
        let slot = LATENCY_BUCKETS_SECS
            .iter()
            .position(|&ub| secs <= ub)
            .unwrap_or(LATENCY_BUCKETS_SECS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add((secs * 1e6) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Append the `_bucket`/`_sum`/`_count` sample lines of metric
    /// `name`. `labels` is the rendered label list every line carries
    /// (`endpoint="rank"`), or empty for an unlabelled metric.
    pub fn render(&self, out: &mut String, name: &str, labels: &str) {
        let (sep, braced) = if labels.is_empty() {
            ("", String::new())
        } else {
            (",", format!("{{{labels}}}"))
        };
        let mut cumulative = 0u64;
        for (i, ub) in LATENCY_BUCKETS_SECS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{ub}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.buckets[LATENCY_BUCKETS_SECS.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "{name}_sum{braced} {}\n",
            self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "{name}_count{braced} {}\n",
            self.count.load(Ordering::Relaxed)
        ));
    }
}

/// The server's metric registry. One instance per [`crate::Server`],
/// shared by acceptor, connection threads and the batcher.
#[derive(Default)]
pub struct Metrics {
    requests: [AtomicU64; Endpoint::ALL.len()],
    latency: [Histogram; Endpoint::ALL.len()],
    /// Requests refused with 503 because a bound was hit (connection
    /// backlog or rank queue).
    shed: AtomicU64,
    /// Rank jobs currently queued in the micro-batcher.
    queue_depth: AtomicU64,
    /// Micro-batches executed, and documents they carried — the ratio
    /// is the realized batch size.
    batches: AtomicU64,
    batched_docs: AtomicU64,
    /// Requests that blew the per-request deadline (answered 408).
    timeouts: AtomicU64,
    /// Connections dropped on a transport error mid-request (resets,
    /// truncated sends). Idle keep-alive closes are not counted.
    io_errors: AtomicU64,
    /// Result-cache outcomes: a hit answers from the rendered body
    /// without touching the batcher or the ranker.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Entries evicted under capacity pressure (CLOCK sweep). Lazy
    /// dead-epoch retirement is *not* counted here — it only moves the
    /// bytes gauge.
    cache_evictions: AtomicU64,
    /// Resident cache bytes (bodies + per-entry overhead).
    cache_bytes: AtomicU64,
    /// Time a `/rank` job spent queued: accept to batcher dispatch.
    /// Separates "we queued too long" from "ranking was slow" when an
    /// SLO is missed.
    queue_wait: Histogram,
    /// Sealed click-log events not yet folded into the served snapshot
    /// (newest sealed segment vs. served epoch).
    ingest_lag_events: AtomicU64,
    /// Incremental delta publishes applied to the served snapshot.
    delta_publishes: AtomicU64,
    /// Bytes across live sealed click-log segments.
    segment_bytes: AtomicU64,
    /// Feedback batches accepted through `POST /feedback` and folded
    /// into the online §VIII adjuster.
    feedback: AtomicU64,
    /// Ranks covered by the installed propensity table (0 = naive, no
    /// IPW reweighting). Refreshed from the live handle at scrape time.
    propensity_ranks: AtomicU64,
}

impl Metrics {
    pub fn record_request(&self, ep: Endpoint, secs: f64) {
        self.requests[ep.index()].fetch_add(1, Ordering::Relaxed);
        self.latency[ep.index()].observe(secs);
    }

    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    pub fn requests_total(&self, ep: Endpoint) -> u64 {
        self.requests[ep.index()].load(Ordering::Relaxed)
    }

    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    pub fn record_batch(&self, docs: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_docs.fetch_add(docs as u64, Ordering::Relaxed);
    }

    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn timeout_total(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    pub fn record_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn io_error_total(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cache_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_cache_bytes(&self, bytes: u64) {
        self.cache_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn sub_cache_bytes(&self, bytes: u64) {
        self.cache_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn cache_hits_total(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    pub fn cache_misses_total(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    pub fn cache_evictions_total(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }

    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes.load(Ordering::Relaxed)
    }

    /// Observe one job's accept→dispatch wait.
    pub fn record_queue_wait(&self, secs: f64) {
        self.queue_wait.observe(secs);
    }

    /// Set the ingest lag: sealed events not yet in the served epoch.
    pub fn set_ingest_lag_events(&self, events: u64) {
        self.ingest_lag_events.store(events, Ordering::Relaxed);
    }

    pub fn ingest_lag_events(&self) -> u64 {
        self.ingest_lag_events.load(Ordering::Relaxed)
    }

    /// Count one incremental delta publish.
    pub fn record_delta_publish(&self) {
        self.delta_publishes.fetch_add(1, Ordering::Relaxed);
    }

    pub fn delta_publish_total(&self) -> u64 {
        self.delta_publishes.load(Ordering::Relaxed)
    }

    /// Set the live sealed-segment footprint of the click log.
    pub fn set_segment_bytes(&self, bytes: u64) {
        self.segment_bytes.store(bytes, Ordering::Relaxed);
    }

    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes.load(Ordering::Relaxed)
    }

    /// Count one accepted feedback batch.
    pub fn record_feedback(&self) {
        self.feedback.fetch_add(1, Ordering::Relaxed);
    }

    pub fn feedback_total(&self) -> u64 {
        self.feedback.load(Ordering::Relaxed)
    }

    /// Set the rank coverage of the installed propensity table.
    pub fn set_propensity_ranks(&self, ranks: u64) {
        self.propensity_ranks.store(ranks, Ordering::Relaxed);
    }

    pub fn propensity_ranks(&self) -> u64 {
        self.propensity_ranks.load(Ordering::Relaxed)
    }

    /// Jobs with an observed queue wait (tests/benches).
    pub fn queue_wait_count(&self) -> u64 {
        self.queue_wait.count.load(Ordering::Relaxed)
    }

    /// Render the whole registry in Prometheus text exposition format.
    /// `epoch` is read from the live [`ctxrank_framework::ServiceHandle`]
    /// at scrape time so the gauge always names the snapshot actually
    /// being served.
    pub fn render_prometheus(&self, epoch: u64) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str("# HELP ctxrank_requests_total Requests handled, by endpoint.\n");
        out.push_str("# TYPE ctxrank_requests_total counter\n");
        for ep in Endpoint::ALL {
            out.push_str(&format!(
                "ctxrank_requests_total{{endpoint=\"{}\"}} {}\n",
                ep.label(),
                self.requests[ep.index()].load(Ordering::Relaxed)
            ));
        }

        out.push_str("# HELP ctxrank_shed_total Requests refused with 503 under load.\n");
        out.push_str("# TYPE ctxrank_shed_total counter\n");
        out.push_str(&format!(
            "ctxrank_shed_total {}\n",
            self.shed.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP ctxrank_timeout_total Requests that exceeded the per-request deadline.\n",
        );
        out.push_str("# TYPE ctxrank_timeout_total counter\n");
        out.push_str(&format!(
            "ctxrank_timeout_total {}\n",
            self.timeouts.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP ctxrank_io_error_total Connections dropped on a transport error mid-request.\n",
        );
        out.push_str("# TYPE ctxrank_io_error_total counter\n");
        out.push_str(&format!(
            "ctxrank_io_error_total {}\n",
            self.io_errors.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP ctxrank_cache_hits_total Rank requests answered from the result cache.\n",
        );
        out.push_str("# TYPE ctxrank_cache_hits_total counter\n");
        out.push_str(&format!(
            "ctxrank_cache_hits_total {}\n",
            self.cache_hits.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP ctxrank_cache_misses_total Rank requests that missed the result cache.\n",
        );
        out.push_str("# TYPE ctxrank_cache_misses_total counter\n");
        out.push_str(&format!(
            "ctxrank_cache_misses_total {}\n",
            self.cache_misses.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP ctxrank_cache_evictions_total Cache entries evicted under capacity pressure.\n",
        );
        out.push_str("# TYPE ctxrank_cache_evictions_total counter\n");
        out.push_str(&format!(
            "ctxrank_cache_evictions_total {}\n",
            self.cache_evictions.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP ctxrank_cache_bytes Resident result-cache bytes.\n");
        out.push_str("# TYPE ctxrank_cache_bytes gauge\n");
        out.push_str(&format!(
            "ctxrank_cache_bytes {}\n",
            self.cache_bytes.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP ctxrank_queue_depth Rank jobs waiting in the micro-batcher.\n");
        out.push_str("# TYPE ctxrank_queue_depth gauge\n");
        out.push_str(&format!(
            "ctxrank_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP ctxrank_snapshot_epoch Epoch of the snapshot being served.\n");
        out.push_str("# TYPE ctxrank_snapshot_epoch gauge\n");
        out.push_str(&format!("ctxrank_snapshot_epoch {epoch}\n"));

        out.push_str(
            "# HELP ctxrank_ingest_lag_events Sealed click-log events not yet folded into the served epoch.\n",
        );
        out.push_str("# TYPE ctxrank_ingest_lag_events gauge\n");
        out.push_str(&format!(
            "ctxrank_ingest_lag_events {}\n",
            self.ingest_lag_events.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP ctxrank_delta_publish_total Incremental delta publishes applied to the served snapshot.\n",
        );
        out.push_str("# TYPE ctxrank_delta_publish_total counter\n");
        out.push_str(&format!(
            "ctxrank_delta_publish_total {}\n",
            self.delta_publishes.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP ctxrank_segment_bytes Bytes across live sealed click-log segments.\n");
        out.push_str("# TYPE ctxrank_segment_bytes gauge\n");
        out.push_str(&format!(
            "ctxrank_segment_bytes {}\n",
            self.segment_bytes.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP ctxrank_feedback_total Feedback batches folded into the online CTR adjuster.\n",
        );
        out.push_str("# TYPE ctxrank_feedback_total counter\n");
        out.push_str(&format!(
            "ctxrank_feedback_total {}\n",
            self.feedback.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP ctxrank_propensity_ranks Ranks covered by the installed propensity table (0 = naive).\n",
        );
        out.push_str("# TYPE ctxrank_propensity_ranks gauge\n");
        out.push_str(&format!(
            "ctxrank_propensity_ranks {}\n",
            self.propensity_ranks.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP ctxrank_rank_batches_total Micro-batches executed.\n");
        out.push_str("# TYPE ctxrank_rank_batches_total counter\n");
        out.push_str(&format!(
            "ctxrank_rank_batches_total {}\n",
            self.batches.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP ctxrank_rank_batched_docs_total Documents ranked through micro-batches.\n",
        );
        out.push_str("# TYPE ctxrank_rank_batched_docs_total counter\n");
        out.push_str(&format!(
            "ctxrank_rank_batched_docs_total {}\n",
            self.batched_docs.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP ctxrank_queue_wait_seconds Rank-job wait from accept to batcher dispatch.\n\
             # TYPE ctxrank_queue_wait_seconds histogram\n",
        );
        self.queue_wait
            .render(&mut out, "ctxrank_queue_wait_seconds", "");

        out.push_str(
            "# HELP ctxrank_request_latency_seconds Request latency, by endpoint.\n\
             # TYPE ctxrank_request_latency_seconds histogram\n",
        );
        for ep in Endpoint::ALL {
            self.latency[ep.index()].render(
                &mut out,
                "ctxrank_request_latency_seconds",
                &format!("endpoint=\"{}\"", ep.label()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_count_matches() {
        let m = Metrics::default();
        m.record_request(Endpoint::Rank, 0.00005); // first bucket
        m.record_request(Endpoint::Rank, 0.002); // mid bucket
        m.record_request(Endpoint::Rank, 5.0); // +Inf only
        let text = m.render_prometheus(7);
        assert!(text
            .contains("ctxrank_request_latency_seconds_bucket{endpoint=\"rank\",le=\"0.0001\"} 1"));
        assert!(text
            .contains("ctxrank_request_latency_seconds_bucket{endpoint=\"rank\",le=\"0.0025\"} 2"));
        assert!(text
            .contains("ctxrank_request_latency_seconds_bucket{endpoint=\"rank\",le=\"+Inf\"} 3"));
        assert!(text.contains("ctxrank_request_latency_seconds_count{endpoint=\"rank\"} 3"));
        assert!(text.contains("ctxrank_snapshot_epoch 7"));
    }

    #[test]
    fn counters_and_gauges_render() {
        let m = Metrics::default();
        m.record_shed();
        m.record_shed();
        m.set_queue_depth(5);
        m.record_batch(16);
        m.record_timeout();
        m.record_io_error();
        m.record_io_error();
        m.record_io_error();
        let text = m.render_prometheus(1);
        assert!(text.contains("ctxrank_shed_total 2"));
        assert!(text.contains("ctxrank_timeout_total 1"));
        assert!(text.contains("ctxrank_io_error_total 3"));
        assert_eq!(m.timeout_total(), 1);
        assert_eq!(m.io_error_total(), 3);
        assert!(text.contains("ctxrank_queue_depth 5"));
        assert!(text.contains("ctxrank_rank_batches_total 1"));
        assert!(text.contains("ctxrank_rank_batched_docs_total 16"));
        assert!(text.contains("ctxrank_requests_total{endpoint=\"metrics\"} 0"));
    }

    #[test]
    fn cache_counters_and_bytes_render() {
        let m = Metrics::default();
        m.record_cache_miss();
        m.record_cache_hit();
        m.record_cache_hit();
        m.record_cache_eviction();
        m.add_cache_bytes(500);
        m.sub_cache_bytes(120);
        let text = m.render_prometheus(1);
        assert!(text.contains("ctxrank_cache_hits_total 2"));
        assert!(text.contains("ctxrank_cache_misses_total 1"));
        assert!(text.contains("ctxrank_cache_evictions_total 1"));
        assert!(text.contains("ctxrank_cache_bytes 380"));
        assert_eq!(m.cache_hits_total(), 2);
        assert_eq!(m.cache_misses_total(), 1);
        assert_eq!(m.cache_evictions_total(), 1);
        assert_eq!(m.cache_bytes(), 380);
    }

    #[test]
    fn ingestion_metrics_render() {
        let m = Metrics::default();
        m.set_ingest_lag_events(42);
        m.record_delta_publish();
        m.record_delta_publish();
        m.set_segment_bytes(8192);
        let text = m.render_prometheus(3);
        assert!(text.contains("ctxrank_ingest_lag_events 42"));
        assert!(text.contains("ctxrank_delta_publish_total 2"));
        assert!(text.contains("ctxrank_segment_bytes 8192"));
        assert_eq!(m.ingest_lag_events(), 42);
        assert_eq!(m.delta_publish_total(), 2);
        assert_eq!(m.segment_bytes(), 8192);
        // The lag gauge is a set-style gauge: it can go back down.
        m.set_ingest_lag_events(0);
        assert!(m
            .render_prometheus(3)
            .contains("ctxrank_ingest_lag_events 0"));
    }

    #[test]
    fn feedback_and_propensity_metrics_render() {
        let m = Metrics::default();
        m.record_feedback();
        m.record_feedback();
        m.record_feedback();
        m.set_propensity_ranks(8);
        m.record_request(Endpoint::Feedback, 0.001);
        let text = m.render_prometheus(1);
        assert!(text.contains("ctxrank_feedback_total 3"));
        assert!(text.contains("ctxrank_propensity_ranks 8"));
        assert!(text.contains("ctxrank_requests_total{endpoint=\"feedback\"} 1"));
        assert_eq!(m.feedback_total(), 3);
        assert_eq!(m.propensity_ranks(), 8);
        // Gauge semantics: replacing the table can shrink coverage.
        m.set_propensity_ranks(0);
        assert!(m
            .render_prometheus(1)
            .contains("ctxrank_propensity_ranks 0"));
    }

    #[test]
    fn queue_wait_histogram_buckets_are_cumulative() {
        let m = Metrics::default();
        m.record_queue_wait(0.00005); // first bucket
        m.record_queue_wait(0.0004); // le=0.0005
        m.record_queue_wait(3.0); // +Inf only
        let text = m.render_prometheus(1);
        assert!(text.contains("ctxrank_queue_wait_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("ctxrank_queue_wait_seconds_bucket{le=\"0.0005\"} 2"));
        assert!(text.contains("ctxrank_queue_wait_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("ctxrank_queue_wait_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("ctxrank_queue_wait_seconds_count 3"));
        assert_eq!(m.queue_wait_count(), 3);
    }
}
