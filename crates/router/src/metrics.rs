//! Router observability: lock-free counters + per-shard latency
//! histograms, rendered in Prometheus text format on the router's own
//! `/metrics`. Mirrors the serve crate's all-atomic registry pattern —
//! recording is a handful of relaxed atomic ops, rendering cumulates
//! bucket counts on the fly.

use ctxrank_serve::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// The router's metric registry. Sized at construction for a fixed
/// shard count (the partition is static for a router's lifetime).
pub struct RouterMetrics {
    /// Individual shard requests fanned out (scatter size × scatters,
    /// including retry scatters).
    fanout_total: AtomicU64,
    /// Attempts abandoned in favor of the next backend in a shard's
    /// replica set.
    failover_total: AtomicU64,
    /// Gathers discarded because shards answered from different epochs.
    epoch_mismatch_total: AtomicU64,
    /// Merged `/rank` responses served.
    requests_total: AtomicU64,
    /// `/rank` requests that failed after all retries/failovers.
    errors_total: AtomicU64,
    /// Per-shard request latency (successful attempts only).
    shard_latency: Vec<Histogram>,
}

impl RouterMetrics {
    /// A zeroed registry for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            fanout_total: AtomicU64::new(0),
            failover_total: AtomicU64::new(0),
            epoch_mismatch_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            shard_latency: (0..shards).map(|_| Histogram::default()).collect(),
        }
    }

    pub fn record_fanout(&self, shards: usize) {
        self.fanout_total
            .fetch_add(shards as u64, Ordering::Relaxed);
    }

    pub fn record_failover(&self) {
        self.failover_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_epoch_mismatch(&self) {
        self.epoch_mismatch_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_error(&self) {
        self.errors_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_shard_latency(&self, shard: usize, secs: f64) {
        if let Some(h) = self.shard_latency.get(shard) {
            h.observe(secs);
        }
    }

    pub fn fanout_total(&self) -> u64 {
        self.fanout_total.load(Ordering::Relaxed)
    }

    pub fn failover_total(&self) -> u64 {
        self.failover_total.load(Ordering::Relaxed)
    }

    pub fn epoch_mismatch_total(&self) -> u64 {
        self.epoch_mismatch_total.load(Ordering::Relaxed)
    }

    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// The Prometheus text exposition, stamped with the epoch the
    /// router last observed from a uniform gather.
    pub fn render_prometheus(&self, observed_epoch: u64) -> String {
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            &mut out,
            "ctxrank_router_fanout_total",
            "Shard requests fanned out by the router.",
            self.fanout_total(),
        );
        counter(
            &mut out,
            "ctxrank_router_failover_total",
            "Shard attempts failed over to the next replica.",
            self.failover_total(),
        );
        counter(
            &mut out,
            "ctxrank_router_epoch_mismatch_total",
            "Gathers discarded for mixing shard epochs.",
            self.epoch_mismatch_total(),
        );
        counter(
            &mut out,
            "ctxrank_router_requests_total",
            "Merged /rank responses served.",
            self.requests_total(),
        );
        counter(
            &mut out,
            "ctxrank_router_errors_total",
            "/rank requests failed after all retries and failovers.",
            self.errors_total.load(Ordering::Relaxed),
        );
        out.push_str(&format!(
            "# HELP ctxrank_router_observed_epoch Epoch of the last uniform gather.\n\
             # TYPE ctxrank_router_observed_epoch gauge\n\
             ctxrank_router_observed_epoch {observed_epoch}\n"
        ));
        out.push_str(
            "# HELP ctxrank_router_shard_latency_seconds Per-shard request latency.\n\
             # TYPE ctxrank_router_shard_latency_seconds histogram\n",
        );
        for (i, h) in self.shard_latency.iter().enumerate() {
            h.render(
                &mut out,
                "ctxrank_router_shard_latency_seconds",
                &format!("shard=\"{i}\""),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_with_required_names() {
        let m = RouterMetrics::new(2);
        m.record_fanout(2);
        m.record_fanout(2);
        m.record_failover();
        m.record_epoch_mismatch();
        m.record_request();
        m.record_shard_latency(0, 0.003);
        m.record_shard_latency(1, 0.5);
        let text = m.render_prometheus(7);
        assert!(text.contains("ctxrank_router_fanout_total 4"), "{text}");
        assert!(text.contains("ctxrank_router_failover_total 1"), "{text}");
        assert!(
            text.contains("ctxrank_router_epoch_mismatch_total 1"),
            "{text}"
        );
        assert!(text.contains("ctxrank_router_observed_epoch 7"), "{text}");
        assert!(
            text.contains("ctxrank_router_shard_latency_seconds_bucket{shard=\"0\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ctxrank_router_shard_latency_seconds_count{shard=\"1\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_cumulate() {
        let m = RouterMetrics::new(1);
        // One observation well under the first bound, one past the last.
        m.record_shard_latency(0, 0.00001);
        m.record_shard_latency(0, 10.0);
        let text = m.render_prometheus(1);
        assert!(
            text.contains(
                "ctxrank_router_shard_latency_seconds_bucket{shard=\"0\",le=\"0.0001\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("ctxrank_router_shard_latency_seconds_bucket{shard=\"0\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ctxrank_router_shard_latency_seconds_count{shard=\"0\"} 2"),
            "{text}"
        );
        // Out-of-range shard index must not panic.
        m.record_shard_latency(9, 1.0);
    }
}
