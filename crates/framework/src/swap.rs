//! Snapshot hot-swap — the serving tier's publish protocol.
//!
//! The offline pipeline (and, between rebuilds, the delta projector)
//! produces a fresh [`Snapshot`]; the serving tier must start using it
//! **without pausing traffic**. [`ServiceHandle`] holds the live
//! snapshot as a lock-guarded `Arc`:
//!
//! * Readers ([`ServiceHandle::current`], [`ServiceHandle::ranker`])
//!   hold the read lock for one `Arc` clone and then finish their
//!   entire ranking on that clone. An in-flight request never observes
//!   a mix of two snapshots.
//! * [`ServiceHandle::publish`] holds the write lock for one
//!   pointer-sized replace, so there is no window in which readers can
//!   observe a torn or absent snapshot.
//! * Epochs are strictly increasing (see [`crate::snapshot`]), so a
//!   reader comparing epochs across successive loads sees a monotone
//!   sequence. The current epoch is mirrored in an atomic, so
//!   per-request epoch probes never touch the lock.
//!
//! **Reclamation.** The handle owns one strong reference: to the
//! current snapshot. A replaced snapshot is kept alive only by the
//! requests still pinned to it and is freed when the last of them
//! finishes. Delta publishes land tens of times a second and each
//! snapshot is megabytes, so a replaced snapshot that outlived its
//! readers would be unbounded memory growth.

use crate::online::OnlineCtrAdjuster;
use crate::ranker::{RankedConcept, RuntimeRanker};
use crate::snapshot::Snapshot;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The serving tier's front door: the live [`Snapshot`] plus the online
/// CTR state that must *survive* snapshot swaps (§VIII adaptation is
/// feedback about the world, not about one artifact, so a rebuild must
/// not amnesia it).
///
/// ```no_run
/// # use ctxrank_framework::*;
/// # use std::sync::Arc;
/// # fn rebuild() -> Arc<Snapshot> { unimplemented!() }
/// let handle = ServiceHandle::new(rebuild());
/// // Serving threads:
/// let ranked = handle.rank("breaking news text", &["solar flares".into()]);
/// // Publisher thread, later, mid-traffic:
/// handle.publish(rebuild());
/// ```
pub struct ServiceHandle {
    /// The snapshot being served. The lock is held only for an `Arc`
    /// clone (readers) or replace (publisher), never while ranking.
    current: RwLock<Arc<Snapshot>>,
    /// The current snapshot's epoch, mirrored out of the snapshot so
    /// epoch-keyed callers (the serve-layer result cache probes it on
    /// every request) read it with one atomic load. Monotone: only
    /// ever updated with `fetch_max`.
    epoch: AtomicU64,
    /// Online CTR adjustments, owned by the handle (not any snapshot)
    /// so `publish` carries them across artifact generations.
    adjuster: RwLock<OnlineCtrAdjuster>,
}

impl ServiceHandle {
    /// Serve `initial` with a fresh (empty) online adjuster.
    pub fn new(initial: Arc<Snapshot>) -> Self {
        Self::with_adjuster(initial, OnlineCtrAdjuster::default())
    }

    /// Serve `initial`, restoring previously accumulated online CTR
    /// state (e.g. from [`crate::persist::load_service`]).
    pub fn with_adjuster(initial: Arc<Snapshot>, adjuster: OnlineCtrAdjuster) -> Self {
        Self {
            epoch: AtomicU64::new(initial.epoch()),
            current: RwLock::new(initial),
            adjuster: RwLock::new(adjuster),
        }
    }

    /// The snapshot currently being served.
    pub fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read())
    }

    /// The current snapshot's epoch — one atomic load, no lock and no
    /// refcount traffic, so per-request probes (the serve-layer cache
    /// keys every lookup by this) stay cheap. Never moves backwards, and
    /// never trails a snapshot already returned by [`Self::current`]:
    /// `publish` moves it before releasing the write lock. It may lead
    /// [`Self::current`] while a publish is in flight.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A [`RuntimeRanker`] view pinned to the current snapshot. All
    /// calls through the returned value use that one snapshot, however
    /// many publishes happen meanwhile.
    pub fn ranker(&self) -> RuntimeRanker {
        RuntimeRanker::from_snapshot(self.current())
    }

    /// Install a rebuilt snapshot mid-traffic; returns its epoch.
    /// In-flight rankings finish on the snapshot they started with, and
    /// the online adjuster (CTR feedback) carries over untouched.
    pub fn publish(&self, next: Arc<Snapshot>) -> u64 {
        let epoch = next.epoch();
        let mut guard = self.current.write();
        let replaced = std::mem::replace(&mut *guard, next);
        // The mirror moves before the guard drops, so a reader that
        // loads the new snapshot already sees its epoch in `epoch()`.
        // Epochs are process-wide monotone, but `fetch_max` keeps the
        // mirror safe even against a hostile out-of-order publish.
        self.epoch.fetch_max(epoch, Ordering::Release);
        drop(guard);
        // Dropped after the write lock is released: if no request is
        // pinned to it this frees the whole snapshot, and readers
        // should not wait on that.
        drop(replaced);
        epoch
    }

    /// Feed one CTR feedback batch for `surface` (§VIII).
    pub fn record_feedback(&self, surface: &str, views: u64, clicks: u64) {
        self.adjuster.write().record(surface, views, clicks);
    }

    /// Feed several surfaces' feedback under one adjuster write lock,
    /// so a reader batch sees all of it or none of it.
    pub(crate) fn record_feedback_batch<'a>(
        &self,
        batch: impl IntoIterator<Item = (&'a str, u64, u64)>,
    ) {
        let mut adjuster = self.adjuster.write();
        for (surface, views, clicks) in batch {
            adjuster.record(surface, views, clicks);
        }
    }

    /// Rank-annotated feedback: clicks observed at `rank` enter the
    /// adjuster re-weighted by the installed propensity table (naive
    /// weighting when none is installed).
    pub fn record_feedback_ranked(&self, surface: &str, rank: usize, views: u64, clicks: u64) {
        self.adjuster
            .write()
            .record_ranked(surface, rank, views, clicks);
    }

    /// Install (or replace) the propensity table applied by
    /// [`Self::record_feedback_ranked`]. Like the rest of the adjuster
    /// state, the table survives snapshot publishes and is persisted by
    /// `persist::save_service`.
    pub fn install_propensities(&self, table: crate::propensity::PropensityTable) {
        self.adjuster.write().set_propensities(table);
    }

    /// Number of ranks covered by the installed propensity table (0
    /// when none is installed) — surfaced in `/metrics`.
    pub fn propensity_ranks(&self) -> usize {
        self.adjuster.read().propensities().map_or(0, |t| t.ranks())
    }

    /// The current additive adjustment for `surface`.
    pub fn adjustment(&self, surface: &str) -> f64 {
        self.adjuster.read().adjustment(surface)
    }

    /// A copy of the accumulated online CTR state (for persistence).
    pub fn adjuster_state(&self) -> OnlineCtrAdjuster {
        self.adjuster.read().clone()
    }

    /// Rank `candidates` for one document on the current snapshot, with
    /// online CTR adjustments applied (§VIII). The whole call uses the
    /// single snapshot loaded at entry.
    pub fn rank(&self, text: &str, candidates: &[String]) -> Vec<RankedConcept> {
        let ranker = self.ranker();
        let adjuster = self.adjuster.read();
        ranker.rank_online(text, candidates, &adjuster)
    }

    /// Rank a batch of documents on *one* snapshot (loaded at entry, so
    /// a publish mid-batch cannot split the batch across versions),
    /// fanned across the worker pool.
    pub fn rank_batch(&self, docs: &[(&str, &[String])]) -> Vec<Vec<RankedConcept>> {
        self.ranker().rank_batch(docs)
    }

    /// Rank a batch with §VIII online CTR adjustments applied, returning
    /// the epoch that served it. The snapshot is pinned and the adjuster
    /// read-locked **once at entry**, so neither a publish nor a
    /// feedback batch landing mid-way can split the batch across
    /// versions — every document in the batch is ranked by exactly the
    /// returned epoch. This is the hook the network serving layer's
    /// micro-batcher builds on (`ctxrank-serve`).
    pub fn rank_batch_online(&self, docs: &[(&str, &[String])]) -> (u64, Vec<Vec<RankedConcept>>) {
        let (snapshot, results) = self.rank_batch_online_pinned(docs);
        (snapshot.epoch(), results)
    }

    /// [`rank_batch_online`](Self::rank_batch_online) returning the
    /// pinned snapshot itself instead of just its epoch. Shard serving
    /// uses this to compute partition ownership (`contains_concept`)
    /// against exactly the snapshot that ranked the batch — checking a
    /// freshly loaded snapshot instead would race a publish landing
    /// between ranking and rendering.
    pub fn rank_batch_online_pinned(
        &self,
        docs: &[(&str, &[String])],
    ) -> (Arc<Snapshot>, Vec<Vec<RankedConcept>>) {
        let ranker = self.ranker();
        let adjuster = self.adjuster.read();
        let results = ctxrank_parallel::par_map(
            ctxrank_parallel::num_threads(),
            docs,
            |(text, candidates)| ranker.rank_online(text, candidates, &adjuster),
        );
        drop(adjuster);
        (ranker.into_snapshot(), results)
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedInterestStore;
    use crate::relstore::PackedRelevanceStore;
    use crate::snapshot::SnapshotBuilder;
    use crate::tid::GlobalTidTable;
    use ctxrank_features::{InterestFeatures, RelevantTerms};
    use ctxrank_ltr::{train, RankGroup, SvmConfig};

    /// A snapshot whose single concept's relevance keyword weight is
    /// `weight` — distinguishable through rank results.
    fn snapshot(weight: f64) -> Arc<Snapshot> {
        let interest = PackedInterestStore::build(&[(
            "solar flares".to_string(),
            InterestFeatures {
                freq_exact: 100,
                ..InterestFeatures::default()
            },
        )]);
        let mut tids = GlobalTidTable::new();
        let kw = RelevantTerms {
            terms: vec![(ctxrank_text::stem("sunspot"), weight)],
        };
        let relevance = PackedRelevanceStore::build(vec![("solar flares", &kw)], &mut tids);
        let groups: Vec<RankGroup> = (0..10)
            .map(|g| {
                RankGroup::from_pairs((0..2).map(|i| {
                    let mut f = vec![0.0; 10];
                    f[9] = (g + i) as f64;
                    (f, i as f64 * 0.01)
                }))
            })
            .collect();
        let model = train(&groups, &SvmConfig::default());
        SnapshotBuilder::new()
            .interest(interest)
            .relevance(relevance)
            .tids(tids)
            .model(model)
            .build()
            .expect("snapshot")
    }

    #[test]
    fn current_returns_published_snapshot() {
        let a = snapshot(1.0);
        let handle = ServiceHandle::new(a.clone());
        assert!(Arc::ptr_eq(&handle.current(), &a));
        assert_eq!(handle.epoch(), a.epoch());
        let b = snapshot(2.0);
        assert_eq!(handle.publish(b.clone()), b.epoch());
        assert!(Arc::ptr_eq(&handle.current(), &b));
        assert_eq!(handle.epoch(), b.epoch());
    }

    #[test]
    fn replaced_snapshots_are_freed_once_unpinned() {
        let handle = ServiceHandle::new(snapshot(1.0));
        let mut published = vec![Arc::downgrade(&handle.current())];
        let mut publish_50 = || {
            for _ in 0..50 {
                let next = snapshot(2.0);
                published.push(Arc::downgrade(&next));
                handle.publish(next);
            }
        };
        publish_50();
        // One in-flight view, held across the remaining publishes.
        let view = handle.ranker();
        publish_50();

        let (pinned, last) = (50, 100);
        for (i, weak) in published.iter().enumerate() {
            let alive = weak.strong_count() > 0;
            assert_eq!(alive, i == pinned || i == last, "snapshot {i}");
        }
        drop(view);
        assert_eq!(published[pinned].strong_count(), 0);
        assert_eq!(published[last].strong_count(), 1, "the handle's own");
    }

    #[test]
    fn in_flight_view_survives_publish() {
        let handle = ServiceHandle::new(snapshot(1.0));
        let pinned = handle.ranker();
        let before = pinned.rank("sunspot activity", &["solar flares".to_string()]);
        let old_epoch = pinned.epoch();
        handle.publish(snapshot(9.0));
        // The pinned view still ranks on the old snapshot...
        assert_eq!(pinned.epoch(), old_epoch);
        assert_eq!(
            pinned.rank("sunspot activity", &["solar flares".to_string()]),
            before
        );
        // ...while fresh views see the new one.
        assert!(handle.epoch() > old_epoch);
        let after = handle
            .ranker()
            .rank("sunspot activity", &["solar flares".to_string()]);
        assert!(after[0].relevance > before[0].relevance);
    }

    #[test]
    fn adjuster_survives_publish() {
        let handle = ServiceHandle::new(snapshot(1.0));
        // Accumulate a CTR spike for the concept.
        for _ in 0..50 {
            handle.record_feedback("solar flares", 1000, 10);
        }
        for _ in 0..3 {
            handle.record_feedback("solar flares", 1000, 80);
        }
        let boost = handle.adjustment("solar flares");
        assert!(boost > 0.5, "expected a boost, got {boost}");
        handle.publish(snapshot(2.0));
        assert_eq!(
            handle.adjustment("solar flares"),
            boost,
            "publish must not reset online CTR state"
        );
        // And the adjustment is applied when ranking through the handle.
        let plain = handle
            .ranker()
            .rank("sunspot activity", &["solar flares".to_string()]);
        let adjusted = handle.rank("sunspot activity", &["solar flares".to_string()]);
        assert!((adjusted[0].score - (plain[0].score + boost)).abs() < 1e-12);
    }

    #[test]
    fn rank_batch_online_pins_one_epoch_and_applies_adjustments() {
        let handle = ServiceHandle::new(snapshot(1.0));
        for _ in 0..50 {
            handle.record_feedback("solar flares", 1000, 10);
        }
        for _ in 0..3 {
            handle.record_feedback("solar flares", 1000, 80);
        }
        let boost = handle.adjustment("solar flares");
        assert!(boost > 0.5, "expected a boost, got {boost}");

        let cands = vec!["solar flares".to_string()];
        let docs: Vec<(&str, &[String])> = vec![
            ("sunspot activity", cands.as_slice()),
            ("stock market rally", cands.as_slice()),
        ];
        let (epoch, batch) = handle.rank_batch_online(&docs);
        assert_eq!(epoch, handle.epoch());
        assert_eq!(batch.len(), docs.len());
        // Each row equals the per-doc online ranking on the same pinned
        // snapshot.
        let ranker = handle.ranker();
        let adjuster = handle.adjuster_state();
        for ((text, cands), ranked) in docs.iter().zip(&batch) {
            assert_eq!(ranked, &ranker.rank_online(text, cands, &adjuster));
        }
    }

    #[test]
    fn epochs_monotone_across_publishes() {
        let handle = ServiceHandle::new(snapshot(1.0));
        let mut last = handle.epoch();
        for w in 2..6 {
            let e = handle.publish(snapshot(w as f64));
            assert!(e > last);
            assert_eq!(handle.epoch(), e);
            last = e;
        }
    }

    #[test]
    fn epoch_mirror_never_trails_current_under_publish() {
        // Built in publish order, so each publish raises the epoch.
        let handle = ServiceHandle::new(snapshot(1.0));
        let snapshots: Vec<Arc<Snapshot>> = (0..400).map(|w| snapshot(w as f64)).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for next in snapshots {
                    handle.publish(next);
                }
                done.store(true, Ordering::Release);
            });
            // Both sides start together and the reader runs until the
            // publisher is done, so every publish overlaps reads.
            start.wait();
            while !done.load(Ordering::Acquire) {
                let pinned = handle.current().epoch();
                let mirror = handle.epoch();
                assert!(
                    mirror >= pinned,
                    "epoch() = {mirror} trails current() at epoch {pinned}"
                );
            }
        });
    }
}
