//! Incremental projection: sealed click-stream segments → delta
//! snapshots → the next served epoch.
//!
//! The paper's pipeline rebuilds the entire model from the full click
//! log on every refresh. This module is the streaming alternative: an
//! append-only log (`ctxrank_querylog::segment`) accumulates
//! [`Event`]s, and a [`SnapshotProjector`] folds each batch of newly
//! sealed segments into a [`DeltaSnapshot`] — the *exact additive
//! change* to the per-surface state — then merges it into the serving
//! artifact as a fresh epoch on the existing `ServiceHandle`
//! publish path.
//!
//! ## Projection invariants (the parity argument)
//!
//! The projector's source of truth is **exact integer state**: one
//! [`InterestFeatures`] per surface whose count fields
//! (`freq_exact`, `freq_phrase_contained`) accumulate event
//! contributions as plain `u64` additions. A snapshot is always rebuilt
//! by a *pure function* of that state: surfaces in sorted order, the
//! packed store's quantizers refitted over the full cumulative set —
//! exactly what a from-scratch build over the concatenated log would
//! fit. Because integer addition is associative and the rebuild is
//! pure, **bootstrap-then-N-deltas is bit-exact with one bootstrap over
//! everything**: same packed bytes, same quantizers, same rankings.
//! (Quantizing *increments* instead would break this — lossy state can
//! not be folded exactly.)
//!
//! The relevance store, TID table, and trained model are *frozen* at
//! bootstrap: deltas adjust interestingness counts and CTR state, while
//! keyword mining and retraining remain full-rebuild work (ROADMAP).
//! Click feedback rides the §VIII online adjuster, which the
//! `ServiceHandle` already carries across publishes.
//!
//! ## What a delta publish allocates
//!
//! Only the interestingness store, the one part a delta changes. The
//! frozen parts move behind `Arc` once, at bootstrap, and every epoch
//! the projector produces shares them. The TID table's stem memo is
//! shared with the table: it maps a raw token to a `TermId` under that
//! one table, so a token resolved while serving epoch N is a memo hit
//! on epoch N+1. The shared parts are freed when the projector and the
//! last snapshot holding them have dropped; a replaced snapshot's own
//! interestingness store is still freed with its last pinned reader.
//! The rebuild reads the cumulative state through borrowed
//! `(&str, &InterestFeatures)` pairs into flat rows, so it copies no
//! surface string outside the store's own string table.
//!
//! ## Epoch semantics
//!
//! [`Snapshot::merge_delta`] demands that the snapshot being merged
//! into is the one the projector last produced (epochs must match), so
//! a delta can never silently skip a generation; the produced snapshot
//! claims the next process-wide epoch through the ordinary
//! [`SnapshotBuilder`] path.

use crate::packed::PackedInterestStore;
use crate::relstore::PackedRelevanceStore;
use crate::snapshot::{SharedParts, Snapshot, SnapshotBuilder, SnapshotError};
use crate::swap::ServiceHandle;
use crate::tid::GlobalTidTable;
use ctxrank_features::InterestFeatures;
use ctxrank_ltr::RankModel;
use ctxrank_querylog::{Event, SegmentError, SegmentStore};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The components a delta publish does *not* change. They are frozen
/// at bootstrap and moved behind `Arc` there, once; every incremental
/// epoch shares them (the TID table together with its stem memo), and
/// they are freed when the projector and the last snapshot using them
/// drop. Re-mining keywords or retraining the model requires a full
/// rebuild (the bootstrap case of this same projection).
#[derive(Debug, Clone)]
pub struct FrozenParts {
    pub relevance: PackedRelevanceStore,
    pub tids: GlobalTidTable,
    pub model: RankModel,
}

/// Additive per-surface change carried by one delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SurfaceAdd {
    /// Queries exactly equal to the surface (Table I feature 1).
    pub freq_exact: u64,
    /// Queries containing the surface as a contiguous phrase, counted
    /// per occurrence (Table I feature 2).
    pub freq_phrase: u64,
    /// Click-report impressions.
    pub views: u64,
    /// Click-report clicks.
    pub clicks: u64,
    /// True when this surface was first observed in this delta (a click
    /// report on a concept the bootstrap never saw).
    pub new_surface: bool,
}

/// The folded, additive summary of a batch of events: everything a
/// merge needs, decoupled from the segments it came from. Ordered map
/// so iteration (and therefore feedback/publish behavior) is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSnapshot {
    /// Per-surface additions.
    pub adds: BTreeMap<String, SurfaceAdd>,
    /// Events folded into this delta (whether or not they touched a
    /// known surface).
    pub events: u64,
    /// Segment range `[from, next)` this delta covers when folded from
    /// a store; `None` for raw event batches.
    pub segments: Option<(u64, u64)>,
}

impl DeltaSnapshot {
    /// True when no event touched any surface.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty()
    }

    /// Total views/clicks carried (the adjuster feed).
    pub fn click_totals(&self) -> (u64, u64) {
        self.adds
            .values()
            .fold((0, 0), |(v, c), a| (v + a.views, c + a.clicks))
    }
}

/// Why a merge was refused.
#[derive(Debug)]
pub enum DeltaError {
    /// The snapshot being merged into is not the projector's latest:
    /// applying would fork the epoch lineage.
    EpochMismatch { snapshot: u64, projector: u64 },
    /// Rebuilding the snapshot failed.
    Snapshot(SnapshotError),
    /// Reading the segment store failed.
    Segment(SegmentError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::EpochMismatch {
                snapshot,
                projector,
            } => write!(
                f,
                "delta targets epoch {projector} but snapshot is epoch {snapshot}"
            ),
            DeltaError::Snapshot(e) => write!(f, "delta rebuild: {e}"),
            DeltaError::Segment(e) => write!(f, "delta segment read: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaError::EpochMismatch { .. } => None,
            DeltaError::Snapshot(e) => Some(e),
            DeltaError::Segment(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for DeltaError {
    fn from(e: SnapshotError) -> Self {
        DeltaError::Snapshot(e)
    }
}

impl From<SegmentError> for DeltaError {
    fn from(e: SegmentError) -> Self {
        DeltaError::Segment(e)
    }
}

/// Features a surface starts from when a delta admits it: only the
/// shape-derived fields are known (size in words, length in chars); the
/// query-log and encyclopedia features accumulate from subsequent
/// events.
fn admitted_features(surface: &str) -> InterestFeatures {
    InterestFeatures {
        concept_size: surface.split(' ').filter(|t| !t.is_empty()).count() as u32,
        number_of_chars: surface.chars().count() as u32,
        ..InterestFeatures::default()
    }
}

/// Folds event batches into [`DeltaSnapshot`]s and merges them into
/// successive epochs. Owns the exact cumulative per-surface state plus
/// the frozen (bootstrap-time) components.
pub struct SnapshotProjector {
    /// The frozen parts, shared by every snapshot this projector builds.
    shared: SharedParts,
    /// Exact cumulative state, sorted by surface: the rebuild input.
    state: BTreeMap<String, InterestFeatures>,
    /// Longest known surface in words — bounds the n-gram scan when
    /// folding query events.
    max_surface_terms: usize,
    /// Epoch of the snapshot this projector last produced.
    epoch: u64,
    /// First segment seq the next [`Self::delta_from`] will fold.
    folded_seq: u64,
    /// Events folded into published state so far (ingest-lag metric).
    events_applied: u64,
}

impl std::fmt::Debug for SnapshotProjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotProjector")
            .field("surfaces", &self.state.len())
            .field("epoch", &self.epoch)
            .field("folded_seq", &self.folded_seq)
            .field("events_applied", &self.events_applied)
            .finish_non_exhaustive()
    }
}

impl SnapshotProjector {
    /// The bootstrap case of the projection: exact base state (from a
    /// full offline build — or empty, for a log-only system) plus the
    /// frozen components, producing the first snapshot. The offline
    /// pipeline's publish stage routes through here, so "full build"
    /// and "delta publish" are the same projection applied to different
    /// prefixes of the log.
    pub fn bootstrap(
        frozen: FrozenParts,
        base: impl IntoIterator<Item = (String, InterestFeatures)>,
    ) -> Result<(Self, Arc<Snapshot>), SnapshotError> {
        let state: BTreeMap<String, InterestFeatures> = base.into_iter().collect();
        let max_surface_terms = state
            .keys()
            .map(|s| s.split(' ').filter(|t| !t.is_empty()).count())
            .max()
            .unwrap_or(1)
            .max(1);
        let mut projector = Self {
            shared: SharedParts::new(frozen.relevance, frozen.tids, frozen.model),
            state,
            max_surface_terms,
            epoch: 0,
            folded_seq: 0,
            events_applied: 0,
        };
        let snapshot = projector.rebuild()?;
        Ok((projector, snapshot))
    }

    /// Fold an event batch into its additive summary. Pure with respect
    /// to the projector: nothing is mutated until [`Self::apply`].
    ///
    /// Events are scanned in order, and a surface admitted by a click
    /// event starts matching query events from that point on — so
    /// folding a log in one batch or splitting it at any boundary
    /// yields the same cumulative state (the parity invariant).
    pub fn fold(&self, events: &[Event]) -> DeltaSnapshot {
        let mut delta = DeltaSnapshot {
            events: events.len() as u64,
            ..DeltaSnapshot::default()
        };
        let mut max_terms = self.max_surface_terms;
        for event in events {
            match event {
                // A rank-annotated click projects exactly like a plain
                // click: the snapshot's CTR counts are rank-agnostic
                // (the rank matters to the online adjuster's propensity
                // weighting, not to the additive projection).
                Event::Click {
                    surface,
                    views,
                    clicks,
                    ..
                }
                | Event::RankedClick {
                    surface,
                    views,
                    clicks,
                    ..
                } => {
                    let known = self.state.contains_key(surface)
                        || delta.adds.get(surface).is_some_and(|a| a.new_surface);
                    let add = delta.adds.entry(surface.clone()).or_default();
                    if !known {
                        add.new_surface = true;
                        max_terms =
                            max_terms.max(surface.split(' ').filter(|t| !t.is_empty()).count());
                    }
                    add.views += views;
                    add.clicks += clicks;
                }
                Event::Query { terms, freq } => {
                    if terms.is_empty() || *freq == 0 {
                        continue;
                    }
                    // Exact match: the whole query is the surface.
                    let joined = terms.join(" ");
                    if self.surface_exists(&joined, &delta) {
                        delta.adds.entry(joined).or_default().freq_exact += freq;
                    }
                    // Containment: every n-gram occurrence, n bounded by
                    // the longest surface we could possibly match.
                    for n in 1..=max_terms.min(terms.len()) {
                        for window in terms.windows(n) {
                            let phrase = window.join(" ");
                            if self.surface_exists(&phrase, &delta) {
                                delta.adds.entry(phrase).or_default().freq_phrase += freq;
                            }
                        }
                    }
                }
            }
        }
        delta
    }

    fn surface_exists(&self, s: &str, delta: &DeltaSnapshot) -> bool {
        self.state.contains_key(s) || delta.adds.get(s).is_some_and(|a| a.new_surface)
    }

    /// Fold everything sealed since the last applied delta.
    pub fn delta_from(&self, store: &SegmentStore) -> Result<DeltaSnapshot, SegmentError> {
        let events = store.replay_from(self.folded_seq)?;
        let mut delta = self.fold(&events);
        delta.segments = Some((self.folded_seq, store.next_seq()));
        Ok(delta)
    }

    /// Merge a delta into the cumulative state and rebuild the next
    /// snapshot. Prefer [`Snapshot::merge_delta`], which also checks
    /// the epoch lineage.
    pub fn apply(&mut self, delta: &DeltaSnapshot) -> Result<Arc<Snapshot>, SnapshotError> {
        for (surface, add) in &delta.adds {
            let features = self
                .state
                .entry(surface.clone())
                .or_insert_with(|| admitted_features(surface));
            features.freq_exact += add.freq_exact;
            features.freq_phrase_contained += add.freq_phrase;
            if add.new_surface {
                self.max_surface_terms = self
                    .max_surface_terms
                    .max(surface.split(' ').filter(|t| !t.is_empty()).count());
            }
        }
        if let Some((_, next)) = delta.segments {
            self.folded_seq = self.folded_seq.max(next);
        }
        self.events_applied += delta.events;
        self.rebuild()
    }

    /// Fold + merge + feed the online adjuster + publish through the
    /// handle, in one call: the click-to-served-epoch path. Returns the
    /// published epoch, or the epoch already served when nothing new
    /// was sealed.
    pub fn publish_from(
        &mut self,
        store: &SegmentStore,
        handle: &ServiceHandle,
    ) -> Result<u64, DeltaError> {
        let delta = self.delta_from(store)?;
        if delta.events == 0 {
            return Ok(handle.epoch());
        }
        let next = handle.current().merge_delta(self, &delta)?;
        // §VIII: click counts reach the adjuster *before* the snapshot
        // flips, so the first request on the new epoch already sees the
        // fresher CTR state.
        for (surface, add) in &delta.adds {
            if add.views > 0 {
                handle.record_feedback(surface, add.views, add.clicks);
            }
        }
        Ok(handle.publish(next))
    }

    /// Rebuild the snapshot from cumulative state: the pure function at
    /// the heart of the parity invariant. Sorted surfaces in, packed
    /// store with freshly fitted quantizers out, frozen parts shared,
    /// next epoch claimed.
    fn rebuild(&mut self) -> Result<Arc<Snapshot>, SnapshotError> {
        let interest =
            PackedInterestStore::build_borrowed(self.state.iter().map(|(s, f)| (s.as_str(), f)));
        let snapshot = SnapshotBuilder::new()
            .interest(interest)
            .shared(self.shared.clone())
            .build()?;
        self.epoch = snapshot.epoch();
        Ok(snapshot)
    }

    /// Epoch of the snapshot this projector last produced.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Events folded into produced snapshots so far. The serving
    /// layer's ingest lag is `store.sealed_events() + store.active_events()
    /// - projector.events_applied()`.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// First segment sequence the next [`Self::delta_from`] will fold.
    pub fn folded_seq(&self) -> u64 {
        self.folded_seq
    }

    /// Surfaces in the cumulative state.
    pub fn surfaces(&self) -> usize {
        self.state.len()
    }
}

impl Snapshot {
    /// Merge `delta` into this snapshot, producing the next epoch.
    ///
    /// `self` must be the snapshot the projector last produced — the
    /// epochs are compared, and a mismatch is refused rather than
    /// silently forking the lineage (e.g. merging into a stale snapshot
    /// after another publisher already advanced the handle).
    pub fn merge_delta(
        &self,
        projector: &mut SnapshotProjector,
        delta: &DeltaSnapshot,
    ) -> Result<Arc<Snapshot>, DeltaError> {
        if self.epoch() != projector.epoch() {
            return Err(DeltaError::EpochMismatch {
                snapshot: self.epoch(),
                projector: projector.epoch(),
            });
        }
        Ok(projector.apply(delta)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxrank_ltr::{train, RankGroup, SvmConfig};
    use ctxrank_querylog::SegmentConfig;

    fn frozen() -> FrozenParts {
        let mut tids = GlobalTidTable::new();
        let kw = ctxrank_features::RelevantTerms {
            terms: vec![(ctxrank_text::stem("sunspot"), 2.0)],
        };
        let relevance = PackedRelevanceStore::build(vec![("solar flares", &kw)], &mut tids);
        let groups: Vec<RankGroup> = (0..10)
            .map(|g| {
                RankGroup::from_pairs((0..2).map(|i| {
                    let mut f = vec![0.0; 10];
                    f[0] = (g + i) as f64;
                    (f, i as f64 * 0.01)
                }))
            })
            .collect();
        FrozenParts {
            relevance,
            tids,
            model: train(&groups, &SvmConfig::default()),
        }
    }

    fn base() -> Vec<(String, InterestFeatures)> {
        vec![
            (
                "solar flares".to_string(),
                InterestFeatures {
                    freq_exact: 100,
                    freq_phrase_contained: 150,
                    concept_size: 2,
                    number_of_chars: 12,
                    ..InterestFeatures::default()
                },
            ),
            (
                "oil".to_string(),
                InterestFeatures {
                    freq_exact: 40,
                    concept_size: 1,
                    number_of_chars: 3,
                    ..InterestFeatures::default()
                },
            ),
        ]
    }

    fn click(story: u64, surface: &str, views: u64, clicks: u64) -> Event {
        Event::Click {
            story,
            surface: surface.into(),
            views,
            clicks,
        }
    }

    fn query(terms: &[&str], freq: u64) -> Event {
        Event::Query {
            terms: terms.iter().map(|s| s.to_string()).collect(),
            freq,
        }
    }

    #[test]
    fn fold_counts_exact_and_contained_queries() {
        let (projector, _) = SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        let delta = projector.fold(&[
            query(&["solar", "flares"], 5),
            query(&["big", "solar", "flares", "today"], 2),
            query(&["oil"], 7),
            query(&["unrelated", "terms"], 9),
        ]);
        let sf = delta.adds["solar flares"];
        assert_eq!(sf.freq_exact, 5);
        // Both queries contain the phrase; the exact one counts too.
        assert_eq!(sf.freq_phrase, 7);
        let oil = delta.adds["oil"];
        assert_eq!(oil.freq_exact, 7);
        assert_eq!(oil.freq_phrase, 7);
        assert!(!delta.adds.contains_key("unrelated terms"));
        assert_eq!(delta.events, 4);
    }

    #[test]
    fn fold_admits_new_surfaces_from_clicks_only() {
        let (projector, _) = SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        let delta = projector.fold(&[
            query(&["meteor", "shower"], 3), // unknown at this point
            click(7, "meteor shower", 200, 9),
            query(&["meteor", "shower"], 4), // known from here on
        ]);
        let ms = delta.adds["meteor shower"];
        assert!(ms.new_surface);
        assert_eq!(ms.views, 200);
        assert_eq!(ms.clicks, 9);
        assert_eq!(ms.freq_exact, 4, "only queries after admission count");
        assert_eq!(ms.freq_phrase, 4);
    }

    #[test]
    fn apply_advances_epoch_and_state() {
        let (mut projector, first) =
            SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        assert_eq!(projector.epoch(), first.epoch());
        let delta = projector.fold(&[query(&["oil"], 60), click(1, "oil", 500, 20)]);
        let next = first.merge_delta(&mut projector, &delta).expect("merge");
        assert!(next.epoch() > first.epoch());
        assert_eq!(projector.epoch(), next.epoch());
        assert_eq!(projector.events_applied(), 2);
        // freq_exact 40 → 100: the packed feature moved.
        let before = first.interest().dense("oil").expect("stored")[0];
        let after = next.interest().dense("oil").expect("stored")[0];
        assert!(after > before, "{after} vs {before}");
    }

    #[test]
    fn merge_into_stale_snapshot_refused() {
        let (mut projector, first) =
            SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        let delta = projector.fold(&[query(&["oil"], 1)]);
        let _second = first.merge_delta(&mut projector, &delta).expect("merge");
        let err = first
            .merge_delta(&mut projector, &delta)
            .expect_err("stale epoch");
        assert!(matches!(err, DeltaError::EpochMismatch { .. }), "{err}");
        assert!(err.to_string().contains("epoch"));
    }

    #[test]
    fn bootstrap_plus_deltas_is_bit_exact_with_one_bootstrap() {
        let events = vec![
            query(&["solar", "flares"], 5),
            click(1, "solar flares", 1000, 40),
            click(1, "meteor shower", 300, 6),
            query(&["meteor", "shower", "tonight"], 8),
            query(&["oil"], 3),
            click(2, "oil", 700, 11),
        ];
        for split in 0..=events.len() {
            // One projector folds everything in a single delta...
            let (mut whole, snap_w) =
                SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
            let d = whole.fold(&events);
            let all = snap_w.merge_delta(&mut whole, &d).expect("merge");
            // ...the other in two batches split at `split`.
            let (mut parts, snap_p) =
                SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
            let d1 = parts.fold(&events[..split]);
            let mid = snap_p.merge_delta(&mut parts, &d1).expect("merge 1");
            let d2 = parts.fold(&events[split..]);
            let two = mid.merge_delta(&mut parts, &d2).expect("merge 2");

            assert_eq!(
                all.interest().quantizers(),
                two.interest().quantizers(),
                "split {split}: refit quantizers must agree"
            );
            for surface in ["solar flares", "oil", "meteor shower"] {
                assert_eq!(
                    all.interest().dense(surface),
                    two.interest().dense(surface),
                    "split {split}: packed row for {surface}"
                );
            }
            assert_eq!(all.interest().len(), two.interest().len());
        }
    }

    #[test]
    fn every_epoch_shares_the_frozen_parts_and_the_stem_memo() {
        let (mut projector, first) =
            SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        let batches = [
            vec![query(&["oil"], 3)],
            vec![click(1, "meteor shower", 300, 6)],
            vec![
                click(2, "solar flares", 100, 4),
                query(&["solar", "flares"], 2),
            ],
        ];
        let mut epochs = vec![first];
        for events in &batches {
            let delta = projector.fold(events);
            let latest = epochs.last().expect("bootstrap epoch");
            let next = latest.merge_delta(&mut projector, &delta).expect("merge");
            epochs.push(next);
        }
        assert!(!epochs[1].interest().contains("meteor shower"));
        assert!(epochs[2].interest().contains("meteor shower"), "admitted");

        for (n, pair) in epochs.windows(2).enumerate() {
            let (older, newer) = (&pair[0], &pair[1]);
            assert!(std::ptr::eq(older.relevance(), newer.relevance()), "{n}");
            assert!(std::ptr::eq(older.tids(), newer.tids()), "{n}");
            assert!(std::ptr::eq(older.model(), newer.model()), "{n}");
            // A token first resolved on epoch N is a memo hit on N+1.
            let token = ["sunspot", "corona", "plasma"][n];
            assert!(!newer.memo_holds(token), "{token} resolved early");
            older.context_tids_cached(&format!("{token} activity"));
            assert!(newer.memo_holds(token), "{token} missed on epoch {}", n + 1);
        }
    }

    #[test]
    fn delta_publishes_free_replaced_snapshots_but_keep_one_copy_of_the_shared_parts() {
        let (mut projector, first) =
            SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        let relevance = Arc::downgrade(&first.shared.relevance);
        let tids = Arc::downgrade(&first.shared.tids);
        let model = Arc::downgrade(&first.shared.model);
        let handle = ServiceHandle::new(first);
        let mut published = vec![Arc::downgrade(&handle.current())];
        let mut store = SegmentStore::in_memory(SegmentConfig::default());
        for story in 0..100 {
            store.append(&click(story, "oil", 10, 1)).expect("append");
            store.seal().expect("seal");
            projector.publish_from(&store, &handle).expect("publish");
            published.push(Arc::downgrade(&handle.current()));
        }

        let last = published.len() - 1;
        for (i, weak) in published.iter().enumerate() {
            assert_eq!(weak.strong_count() > 0, i == last, "snapshot {i}");
        }
        // One copy of each shared part, held by the projector and by
        // the snapshot being served.
        let counts = || {
            [
                relevance.strong_count(),
                tids.strong_count(),
                model.strong_count(),
            ]
        };
        assert_eq!(counts(), [2, 2, 2]);
        drop(handle);
        assert_eq!(counts(), [1, 1, 1], "the projector's own");
        drop(projector);
        assert_eq!(counts(), [0, 0, 0], "freed with the last holder");
    }

    #[test]
    fn publish_from_store_reaches_the_handle() {
        let (mut projector, first) =
            SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        let handle = ServiceHandle::new(first);
        let mut store = SegmentStore::in_memory(SegmentConfig::default());
        store
            .append(&click(3, "solar flares", 400, 24))
            .expect("append");
        store
            .append(&query(&["solar", "flares"], 9))
            .expect("append");
        store.seal().expect("seal");

        let before = handle.epoch();
        let epoch = projector.publish_from(&store, &handle).expect("publish");
        assert!(epoch > before);
        assert_eq!(handle.epoch(), epoch);
        assert_eq!(projector.events_applied(), 2);
        assert!(
            handle.adjustment("solar flares").abs() > 0.0 || !handle.adjuster_state().is_empty(),
            "click feedback must reach the adjuster"
        );
        // Nothing new sealed → no new epoch.
        let again = projector.publish_from(&store, &handle).expect("noop");
        assert_eq!(again, epoch);
        assert_eq!(handle.epoch(), epoch);

        // More sealed events → another epoch, folding only the new
        // segment.
        store.append(&click(4, "oil", 100, 2)).expect("append");
        store.seal().expect("seal");
        let third = projector.publish_from(&store, &handle).expect("publish 2");
        assert!(third > epoch);
        assert_eq!(projector.events_applied(), 3);
    }
}
