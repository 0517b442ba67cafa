//! The write path under test: click events → durable `SegmentStore` →
//! `SnapshotProjector::publish_from` on the serving handle, one batch
//! per cycle, every step timed from outside.

use crate::load::sleep_until;
use crate::report::Metric;
use crate::stats;
use crate::trace::Trace;
use ctxrank_framework::{ServiceHandle, SnapshotProjector};
use ctxrank_querylog::{Event, SegmentConfig, SegmentStore};
use ctxrank_synth::{EventStream, StreamConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events per publish cycle.
pub const BATCH_EVENTS: usize = 1_000;
/// One paced batch every 50 ms.
pub const TICK: Duration = Duration::from_millis(50);

/// One append → sync → seal → publish cycle, in ns since the trace
/// origin.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub start_ns: u64,
    pub appended_ns: u64,
    pub synced_ns: u64,
    pub sealed_ns: u64,
    /// End of the separately timed `delta_from`, on traced cycles.
    pub folded_ns: Option<u64>,
    pub published_ns: u64,
    /// How late a paced cycle started after its tick.
    pub late_us: Option<f64>,
}

impl Cycle {
    fn ms(from: u64, to: u64) -> f64 {
        (to - from) as f64 / 1e6
    }

    /// First `append` of the batch → `publish_from` returned the new
    /// epoch.
    pub fn click_to_served_ms(&self) -> f64 {
        Self::ms(self.start_ns, self.published_ns)
    }
}

pub struct Writer<'a> {
    store: SegmentStore,
    feed: EventStream,
    projector: &'a mut SnapshotProjector,
    handle: Arc<ServiceHandle>,
    /// The trace's origin: cycle timestamps are ns since it.
    origin: Instant,
    pub cycles: Vec<Cycle>,
}

impl<'a> Writer<'a> {
    /// A writer on a fresh durable store under `dir`, so store growth
    /// (and with it every cycle's cost) is the same function of the
    /// cycle number on every run.
    pub fn new(
        dir: &Path,
        seed: u64,
        projector: &'a mut SnapshotProjector,
        handle: Arc<ServiceHandle>,
        origin: Instant,
    ) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let store = SegmentStore::open_std(dir, SegmentConfig::default()).expect("open the store");
        Self {
            store,
            // Lazy: the magnitude only has to exceed what a run sends.
            feed: EventStream::new(&StreamConfig::of_magnitude(seed, u64::MAX)),
            projector,
            handle,
            origin,
            cycles: Vec::new(),
        }
    }

    /// Run `batches` cycles, one per [`TICK`] when `paced`, back to
    /// back otherwise. With `split_fold` each cycle first times
    /// `delta_from` on its own (it is pure), so the trace can split
    /// `publish_from` into fold and apply; those cycles do the fold
    /// twice and are never reported end to end. Returns the cycles'
    /// index range.
    pub fn run(&mut self, batches: usize, paced: bool, split_fold: bool) -> std::ops::Range<usize> {
        let first = self.cycles.len();
        let origin = self.origin;
        let now_ns = || origin.elapsed().as_nanos() as u64;
        let begin = Instant::now();
        for i in 0..batches {
            // The generator's work stays outside the timed cycle.
            let batch: Vec<Event> = self.feed.by_ref().take(BATCH_EVENTS).collect();
            assert_eq!(batch.len(), BATCH_EVENTS, "event stream ran dry");
            let late_us = paced.then(|| {
                let tick = begin + TICK * i as u32;
                sleep_until(tick);
                tick.elapsed().as_secs_f64() * 1e6
            });
            let before = self.handle.epoch();
            let start_ns = now_ns();
            for e in &batch {
                self.store.append(e).expect("append");
            }
            let appended_ns = now_ns();
            self.store.sync().expect("sync");
            let synced_ns = now_ns();
            self.store.seal().expect("seal");
            let sealed_ns = now_ns();
            let folded_ns = split_fold.then(|| {
                std::hint::black_box(self.projector.delta_from(&self.store).expect("delta_from"));
                now_ns()
            });
            let epoch = self
                .projector
                .publish_from(&self.store, &self.handle)
                .expect("publish_from");
            let published_ns = now_ns();
            assert!(epoch > before, "publish did not advance the epoch");
            self.cycles.push(Cycle {
                start_ns,
                appended_ns,
                synced_ns,
                sealed_ns,
                folded_ns,
                published_ns,
                late_us,
            });
        }
        first..self.cycles.len()
    }

    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Delete the store's files (the result files stay).
    pub fn remove_files(self) {
        let dir = self.store.dir().to_path_buf();
        drop(self.store);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The cycles as spans: one parent per cycle, one child per step.
    pub fn record_spans(&self, trace: &mut Trace) {
        for (op, c) in self.cycles.iter().enumerate() {
            let op = op as u64;
            let parent = trace.push("ingest.cycle", c.start_ns, c.published_ns, None, op);
            trace.push(
                "querylog.append",
                c.start_ns,
                c.appended_ns,
                Some(parent),
                op,
            );
            trace.push(
                "querylog.sync",
                c.appended_ns,
                c.synced_ns,
                Some(parent),
                op,
            );
            trace.push("querylog.seal", c.synced_ns, c.sealed_ns, Some(parent), op);
            let publish_from = c.folded_ns.unwrap_or(c.sealed_ns);
            if let Some(folded) = c.folded_ns {
                trace.push(
                    "framework.delta_from",
                    c.sealed_ns,
                    folded,
                    Some(parent),
                    op,
                );
            }
            trace.push(
                "framework.publish_from",
                publish_from,
                c.published_ns,
                Some(parent),
                op,
            );
        }
    }

    /// The `querylog` and `framework` delta metrics of the cycles run
    /// so far, plus a timed full `replay` of the store.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let cycles = &self.cycles;
        let med =
            |f: &dyn Fn(&Cycle) -> f64| stats::median(&cycles.iter().map(f).collect::<Vec<_>>());
        let publish_ms = |c: &Cycle| Cycle::ms(c.folded_ns.unwrap_or(c.sealed_ns), c.published_ns);
        // Only split cycles can tell fold from apply; a log without any
        // reports both as 0.
        let split: Vec<&Cycle> = cycles.iter().filter(|c| c.folded_ns.is_some()).collect();
        let (fold_ms, publish_split_ms) = if split.is_empty() {
            (0.0, 0.0)
        } else {
            let fold: Vec<f64> = split
                .iter()
                .map(|c| Cycle::ms(c.sealed_ns, c.folded_ns.expect("split cycle")))
                .collect();
            let publish: Vec<f64> = split.iter().map(|c| publish_ms(c)).collect();
            (stats::median(&fold), stats::median(&publish))
        };

        let t = Instant::now();
        let replayed = self.store.replay().expect("replay").len();
        let replay_s = t.elapsed().as_secs_f64();

        vec![
            Metric::new(
                "querylog.append_us_per_event",
                med(&|c| Cycle::ms(c.start_ns, c.appended_ns) * 1e3 / BATCH_EVENTS as f64),
                "us",
            ),
            Metric::new(
                "querylog.sync_ms",
                med(&|c| Cycle::ms(c.appended_ns, c.synced_ns)),
                "ms",
            ),
            Metric::new(
                "querylog.seal_ms",
                med(&|c| Cycle::ms(c.synced_ns, c.sealed_ns)),
                "ms",
            ),
            Metric::new(
                "querylog.seal_growth",
                growth(cycles, &|c| Cycle::ms(c.synced_ns, c.sealed_ns)),
                "ratio",
            ),
            Metric::new(
                "querylog.replay_events_per_s",
                replayed as f64 / replay_s,
                "1/s",
            ),
            Metric::new(
                "querylog.segment_bytes_per_event",
                stats::ratio(
                    self.store.sealed_bytes() as f64,
                    self.store.sealed_events() as f64,
                ),
                "B",
            ),
            Metric::new("framework.delta_fold_ms", fold_ms, "ms"),
            // `publish_from` folds again itself, so apply + publish is
            // what remains of it after one fold.
            Metric::new(
                "framework.apply_publish_ms",
                publish_split_ms - fold_ms,
                "ms",
            ),
            Metric::new(
                "framework.delta_growth",
                growth(cycles, &publish_ms),
                "ratio",
            ),
        ]
    }
}

/// Mean of the last decile of cycles over the mean of the first: how
/// much a step's cost grew as the store did.
fn growth(cycles: &[Cycle], f: &dyn Fn(&Cycle) -> f64) -> f64 {
    let decile = (cycles.len() / 10).max(1);
    let mean = |cs: &[Cycle]| cs.iter().map(f).sum::<f64>() / cs.len() as f64;
    stats::ratio(
        mean(&cycles[cycles.len() - decile..]),
        mean(&cycles[..decile]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_compares_last_decile_with_first() {
        let cycles: Vec<Cycle> = (0..20u64)
            .map(|i| Cycle {
                start_ns: 0,
                appended_ns: 0,
                synced_ns: 0,
                sealed_ns: 0,
                folded_ns: None,
                // 1 ms for the first cycles, 3 ms for the last two.
                published_ns: if i >= 18 { 3_000_000 } else { 1_000_000 },
                late_us: None,
            })
            .collect();
        assert_eq!(growth(&cycles, &|c| c.click_to_served_ms()), 3.0);
        assert_eq!(cycles[19].click_to_served_ms(), 3.0);
    }
}
