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
//! [`InterestFeatures`] per row of the interest store, whose count
//! fields (`freq_exact`, `freq_phrase_contained`) accumulate event
//! contributions as plain `u64` additions. Rows never move. The
//! bootstrap rows come first, in surface order; a surface a delta
//! admits is appended, in the order of its first click in the log. That
//! order is a function of the log alone, so every split of the log
//! into deltas yields the same rows in the same order.
//!
//! A publish requantizes what changed. The quantizers are refitted
//! over the cached dense rows of the full cumulative set, exactly what
//! a from-scratch build over the same rows would fit; the rows a delta
//! touched or appended, and every row of a field whose quantizer
//! moved, are quantized again; the rest are copied. Integer addition is
//! associative, equal counts give equal dense rows, equal rows give
//! equal quantizers, so **bootstrap-then-N-deltas is bit-exact with
//! bootstrap-then-one-delta**: same names in the same order, same
//! packed bytes, same quantizers, same rankings. (Quantizing
//! *increments* instead would break this — lossy state can not be
//! folded exactly.) A bootstrap over everything ranks identically too;
//! only the row order of admitted surfaces differs from it.
//!
//! The relevance store, TID table, and trained model are *frozen* at
//! bootstrap: deltas adjust interestingness counts and CTR state, while
//! keyword mining and retraining remain full-rebuild work (ROADMAP).
//! Click feedback rides the §VIII online adjuster, which the
//! `ServiceHandle` already carries across publishes.
//!
//! ## What a delta publish costs
//!
//! Folding resolves each click and each query n-gram to a row through
//! the store's string table, over one reused phrase buffer; it
//! allocates a `String` only per surface it admits. Applying adds the
//! counts into the touched rows and recomputes their cached dense rows.
//! What stays O(rows) is the fold's zeroed row → addition index (4 B a
//! row), a min/max scan of the cache, the requantization of a field
//! whose quantizer moved, and the copy of the packed bytes into the new
//! epoch's store. The string table is shared with the previous epoch
//! until a delta admits a surface; then a copy of it is extended, and
//! its hash slots are rebuilt only when their capacity doubles.
//!
//! The frozen parts move behind `Arc` once, at bootstrap, and every
//! epoch the projector produces shares them. The TID table's stem memo
//! is shared with the table: it maps a raw token to a `TermId` under
//! that one table, so a token resolved while serving epoch N is a memo
//! hit on epoch N+1. The shared parts are freed when the projector and
//! the last snapshot holding them have dropped; a replaced snapshot's
//! own interestingness store is still freed with its last pinned
//! reader.
//!
//! ## Epoch semantics
//!
//! [`Snapshot::merge_delta`] demands that the snapshot being merged
//! into is the one the projector last produced (epochs must match), so
//! a delta can never silently skip a generation; the produced snapshot
//! claims the next process-wide epoch through the ordinary
//! [`SnapshotBuilder`] path.

use crate::arena::StrTable;
use crate::packed::PackedInterestStore;
use crate::relstore::PackedRelevanceStore;
use crate::snapshot::{SharedParts, Snapshot, SnapshotBuilder, SnapshotError};
use crate::swap::ServiceHandle;
use crate::tid::GlobalTidTable;
use ctxrank_features::InterestFeatures;
use ctxrank_ltr::RankModel;
use ctxrank_querylog::{Event, SegmentError, SegmentStore};
use std::collections::{BTreeMap, HashMap};
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

/// One delta's additions, per row of the interest store it was folded
/// against: row `i` below that store's length is its `i`-th surface,
/// and the surfaces the delta admits follow in first-click order.
/// Iteration is in the order the events first touched each row, a
/// function of the events alone, so feedback and publish behavior are
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct RowAdds {
    /// The folding store's string table (shared, not copied).
    names: Arc<StrTable>,
    /// Surfaces this delta admits, in first-click order: admitted
    /// surface `j` is row `names.len() + j`.
    admitted: Vec<String>,
    /// Additions per touched row, in first-touch order.
    rows: Vec<(u32, SurfaceAdd)>,
}

impl RowAdds {
    /// Rows of the store the delta was folded against.
    fn base(&self) -> u32 {
        self.names.len() as u32
    }

    fn surface(&self, row: u32) -> &str {
        match row.checked_sub(self.base()) {
            None => self.names.str_at(row),
            Some(j) => &self.admitted[j as usize],
        }
    }

    /// The additions for `surface`, if the delta touched it.
    pub fn get(&self, surface: &str) -> Option<&SurfaceAdd> {
        let row = self.names.lookup(surface).or_else(|| {
            let j = self.admitted.iter().position(|s| s == surface)?;
            Some(self.base() + j as u32)
        })?;
        self.rows
            .iter()
            .find(|(r, _)| *r == row)
            .map(|(_, add)| add)
    }

    /// Whether the delta touched `surface`.
    pub fn contains_key(&self, surface: &str) -> bool {
        self.get(surface).is_some()
    }

    /// `(surface, additions)` for every touched surface, in first-touch
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SurfaceAdd)> {
        self.rows.iter().map(|(row, add)| (self.surface(*row), add))
    }

    /// The additions of every touched surface, in first-touch order.
    pub fn values(&self) -> impl Iterator<Item = &SurfaceAdd> {
        self.rows.iter().map(|(_, add)| add)
    }

    /// True when no surface was touched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The surfaces this delta admits, in first-click order.
    pub fn admitted(&self) -> &[String] {
        &self.admitted
    }
}

/// Equal when the same surfaces carry the same additions in the same
/// order, whatever store they were folded against.
impl PartialEq for RowAdds {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for RowAdds {}

impl std::ops::Index<&str> for RowAdds {
    type Output = SurfaceAdd;

    fn index(&self, surface: &str) -> &SurfaceAdd {
        self.get(surface)
            .unwrap_or_else(|| panic!("delta has no additions for {surface:?}"))
    }
}

/// The folded, additive summary of a batch of events: everything a
/// merge needs, decoupled from the segments it came from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSnapshot {
    /// Per-surface additions, by row.
    pub adds: RowAdds,
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

/// Words in a surface: what bounds the n-gram scan of a query.
fn word_count(surface: &str) -> usize {
    surface.split(' ').filter(|t| !t.is_empty()).count()
}

/// Features a surface starts from when a delta admits it: only the
/// shape-derived fields are known (size in words, length in chars); the
/// query-log and encyclopedia features accumulate from subsequent
/// events.
fn admitted_features(surface: &str) -> InterestFeatures {
    InterestFeatures {
        concept_size: word_count(surface) as u32,
        number_of_chars: surface.chars().count() as u32,
        ..InterestFeatures::default()
    }
}

/// `terms` joined by single spaces into `phrase`, reusing its buffer.
fn join_into(phrase: &mut String, terms: &[String]) {
    phrase.clear();
    for (i, term) in terms.iter().enumerate() {
        if i > 0 {
            phrase.push(' ');
        }
        phrase.push_str(term);
    }
}

/// The rows one fold touched, in first-touch order, with a dense
/// row → position index so an addition costs no hashing or search.
struct Touched {
    /// `adds` position of each row, plus one (0 = untouched).
    slot: Vec<u32>,
    adds: Vec<(u32, SurfaceAdd)>,
}

impl Touched {
    fn at(&mut self, row: u32) -> &mut SurfaceAdd {
        let r = row as usize;
        if r >= self.slot.len() {
            self.slot.resize(r + 1, 0);
        }
        if self.slot[r] == 0 {
            self.adds.push((row, SurfaceAdd::default()));
            self.slot[r] = self.adds.len() as u32;
        }
        &mut self.adds[self.slot[r] as usize - 1].1
    }
}

/// Folds event batches into [`DeltaSnapshot`]s and merges them into
/// successive epochs. Owns the exact cumulative per-row state, the
/// interest store it last published, and the frozen (bootstrap-time)
/// components.
pub struct SnapshotProjector {
    /// The frozen parts, shared by every snapshot this projector builds.
    shared: SharedParts,
    /// Exact cumulative state, one entry per store row.
    rows: Vec<InterestFeatures>,
    /// `rows[i].to_array()`, kept so a publish refits the quantizers
    /// without recomputing any row it did not touch.
    dense: Vec<[f64; InterestFeatures::DIM]>,
    /// The interest store of the last produced snapshot; its string
    /// table is the surface → row index.
    store: PackedInterestStore,
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
            .field("surfaces", &self.rows.len())
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
    /// prefixes of the log. The base rows are stored in surface order
    /// (the last entry wins for a repeated surface).
    pub fn bootstrap(
        frozen: FrozenParts,
        base: impl IntoIterator<Item = (String, InterestFeatures)>,
    ) -> Result<(Self, Arc<Snapshot>), SnapshotError> {
        let state: BTreeMap<String, InterestFeatures> = base.into_iter().collect();
        let store = PackedInterestStore::build_borrowed(state.iter().map(|(s, f)| (s.as_str(), f)));
        let max_surface_terms = state
            .keys()
            .map(|s| word_count(s))
            .max()
            .unwrap_or(1)
            .max(1);
        let rows: Vec<InterestFeatures> = state.into_values().collect();
        let mut projector = Self {
            shared: SharedParts::new(frozen.relevance, frozen.tids, frozen.model),
            dense: rows.iter().map(InterestFeatures::to_array).collect(),
            rows,
            store,
            max_surface_terms,
            epoch: 0,
            folded_seq: 0,
            events_applied: 0,
        };
        let snapshot = projector.snapshot()?;
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
        let names = &self.store.names;
        let base = names.len() as u32;
        let mut touched = Touched {
            slot: vec![0; base as usize],
            adds: Vec::new(),
        };
        // Surfaces admitted so far in this batch → their rows.
        let mut admitted: HashMap<String, u32> = HashMap::new();
        let row_of = |admitted: &HashMap<String, u32>, s: &str| {
            names.lookup(s).or_else(|| admitted.get(s).copied())
        };
        let mut phrase = String::new();
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
                    let row = row_of(&admitted, surface).unwrap_or_else(|| {
                        let row = base + admitted.len() as u32;
                        admitted.insert(surface.clone(), row);
                        max_terms = max_terms.max(word_count(surface));
                        row
                    });
                    let add = touched.at(row);
                    add.new_surface = row >= base;
                    add.views += views;
                    add.clicks += clicks;
                }
                Event::Query { terms, freq } => {
                    if terms.is_empty() || *freq == 0 {
                        continue;
                    }
                    // Exact match: the whole query is the surface.
                    join_into(&mut phrase, terms);
                    let exact = row_of(&admitted, &phrase);
                    if let Some(row) = exact {
                        touched.at(row).freq_exact += freq;
                    }
                    // Containment: every n-gram occurrence, n bounded by
                    // the longest surface we could possibly match. The
                    // one window as long as the query is the exact match.
                    for n in 1..=max_terms.min(terms.len()) {
                        for window in terms.windows(n) {
                            let row = if n == terms.len() {
                                exact
                            } else {
                                join_into(&mut phrase, window);
                                row_of(&admitted, &phrase)
                            };
                            if let Some(row) = row {
                                touched.at(row).freq_phrase += freq;
                            }
                        }
                    }
                }
            }
        }
        let mut admitted: Vec<(String, u32)> = admitted.into_iter().collect();
        admitted.sort_unstable_by_key(|&(_, row)| row);
        DeltaSnapshot {
            adds: RowAdds {
                names: Arc::clone(names),
                admitted: admitted.into_iter().map(|(s, _)| s).collect(),
                rows: touched.adds,
            },
            events: events.len() as u64,
            segments: None,
        }
    }

    /// Fold everything sealed since the last applied delta.
    pub fn delta_from(&self, store: &SegmentStore) -> Result<DeltaSnapshot, SegmentError> {
        let events = store.replay_from(self.folded_seq)?;
        let mut delta = self.fold(&events);
        delta.segments = Some((self.folded_seq, store.next_seq()));
        Ok(delta)
    }

    /// Merge a delta folded by this projector into the cumulative state
    /// and publish the next snapshot. Prefer [`Snapshot::merge_delta`],
    /// which also checks the epoch lineage.
    ///
    /// Rows are append-only, so the rows a delta names below its
    /// folding store's length are the same rows now. A surface it
    /// admits that another delta admitted in the meantime maps onto
    /// that row; every other admitted surface is appended.
    pub fn apply(&mut self, delta: &DeltaSnapshot) -> Result<Arc<Snapshot>, SnapshotError> {
        let adds = &delta.adds;
        let mut appended: Vec<&str> = Vec::new();
        let mut admitted_rows = Vec::with_capacity(adds.admitted.len());
        for surface in &adds.admitted {
            let row = match self.store.names.lookup(surface) {
                Some(row) => row,
                None => {
                    appended.push(surface);
                    let features = admitted_features(surface);
                    self.dense.push(features.to_array());
                    self.rows.push(features);
                    self.max_surface_terms = self.max_surface_terms.max(word_count(surface));
                    self.rows.len() as u32 - 1
                }
            };
            admitted_rows.push(row);
        }
        let mut touched = Vec::with_capacity(adds.rows.len());
        for &(row, ref add) in &adds.rows {
            // Views and clicks feed the adjuster, not the store.
            if add.freq_exact == 0 && add.freq_phrase == 0 {
                continue;
            }
            let row = match row.checked_sub(adds.base()) {
                None => row,
                Some(j) => admitted_rows[j as usize],
            };
            let features = &mut self.rows[row as usize];
            features.freq_exact += add.freq_exact;
            features.freq_phrase_contained += add.freq_phrase;
            self.dense[row as usize] = features.to_array();
            touched.push(row);
        }
        self.store.update(&self.dense, &touched, &appended);
        if let Some((_, next)) = delta.segments {
            self.folded_seq = self.folded_seq.max(next);
        }
        self.events_applied += delta.events;
        self.snapshot()
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
        // fresher CTR state; one write lock, so a reader batch sees all
        // of this delta's feedback or none of it.
        handle.record_feedback_batch(
            delta
                .adds
                .iter()
                .filter(|(_, add)| add.views > 0)
                .map(|(surface, add)| (surface, add.views, add.clicks)),
        );
        Ok(handle.publish(next))
    }

    /// The next snapshot: the current interest store with the frozen
    /// parts shared, next epoch claimed.
    fn snapshot(&mut self) -> Result<Arc<Snapshot>, SnapshotError> {
        let snapshot = SnapshotBuilder::new()
            .interest(self.store.clone())
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
        self.rows.len()
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
    use crate::packed::FieldQuantizer;
    use ctxrank_ltr::{train, RankGroup, SvmConfig};
    use ctxrank_querylog::SegmentConfig;
    use proptest::prelude::*;

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

    #[test]
    fn publish_from_feeds_the_adjuster_as_one_record_per_surface() {
        let (mut projector, first) =
            SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        let handle = ServiceHandle::new(first);
        let reference = ServiceHandle::new(handle.current());
        let mut store = SegmentStore::in_memory(SegmentConfig::default());
        let batches = [
            vec![
                click(1, "oil", 400, 9),
                click(2, "solar flares", 300, 4),
                click(2, "oil", 100, 30),
                click(3, "meteor shower", 0, 0),
                click(4, "few views", 5, 1),
                query(&["oil"], 3),
            ],
            vec![
                click(5, "meteor shower", 500, 80),
                click(5, "oil", 250, 2),
                Event::RankedClick {
                    story: 6,
                    surface: "solar flares".into(),
                    rank: 2,
                    views: 90,
                    clicks: 20,
                },
            ],
        ];
        for events in &batches {
            for e in events {
                store.append(e).expect("append");
            }
            store.seal().expect("seal");
            let delta = projector.delta_from(&store).expect("fold");
            for (surface, add) in delta.adds.iter() {
                if add.views > 0 {
                    reference.record_feedback(surface, add.views, add.clicks);
                }
            }
            projector.publish_from(&store, &handle).expect("publish");
        }
        let (got, want) = (handle.adjuster_state(), reference.adjuster_state());
        for surface in ["oil", "solar flares", "meteor shower", "few views", "never"] {
            assert_eq!(
                got.ctr_estimate(surface),
                want.ctr_estimate(surface),
                "{surface}"
            );
            assert_eq!(
                got.adjustment(surface).to_bits(),
                want.adjustment(surface).to_bits(),
                "{surface}"
            );
        }
        assert!(got.ctr_estimate("meteor shower").is_some());
        assert!(
            got.adjustment("oil") != 0.0,
            "two batches move the fast average"
        );
    }

    #[test]
    fn admitted_rows_follow_first_click_order_and_stale_deltas_reuse_them() {
        let (mut projector, _) = SnapshotProjector::bootstrap(frozen(), base()).expect("bootstrap");
        let delta = projector.fold(&[
            click(1, "zebra", 10, 1),
            click(1, "aardvark", 10, 1),
            click(1, "zebra", 10, 1),
        ]);
        assert_eq!(delta.adds.admitted(), ["zebra", "aardvark"]);
        // Folded against the same state, before `delta` is applied.
        let stale = projector.fold(&[click(2, "aardvark", 5, 1), query(&["aardvark"], 4)]);
        projector.apply(&delta).expect("apply");
        let snap = projector.apply(&stale).expect("apply stale");
        let names: Vec<&str> = (0..snap.interest().len() as u32)
            .map(|i| snap.interest().names.str_at(i))
            .collect();
        assert_eq!(names, ["oil", "solar flares", "zebra", "aardvark"]);
        assert_eq!(projector.rows[3].freq_exact, 4);
        assert_eq!(projector.rows[3].freq_phrase_contained, 4);
    }

    /// `len` words over a six-word vocabulary, so queries and clicks
    /// keep meeting known surfaces.
    fn words(w: (u8, u8, u8, u8), len: u8) -> Vec<String> {
        const VOCAB: [&str; 6] = ["oil", "solar", "flares", "meteor", "shower", "gas"];
        [w.0, w.1, w.2, w.3][..len as usize]
            .iter()
            .map(|&i| VOCAB[i as usize % VOCAB.len()].to_string())
            .collect()
    }

    type RawBase = ((u8, u8, u8, u8), u8, (u64, u64, u64, u32, u32, u8));
    type RawEvent = (u8, (u8, u8, u8, u8), u8, u64, u64, u64, usize);

    fn base_of(raw: &[RawBase]) -> Vec<(String, InterestFeatures)> {
        raw.iter()
            .map(|&(w, len, (exact, phrase, unit, wiki, subs, kind))| {
                let surface = words(w, len.min(3)).join(" ");
                let features = InterestFeatures {
                    freq_exact: exact,
                    freq_phrase_contained: phrase,
                    unit_score: unit as f64 / 7.0,
                    searchengine_phrase: exact * 3,
                    concept_size: len.min(3) as u32,
                    number_of_chars: surface.chars().count() as u32,
                    subconcepts: subs,
                    high_level_type: kind,
                    wiki_word_count: wiki,
                };
                (surface, features)
            })
            .collect()
    }

    fn events_of(raw: &[RawEvent], base: &[(String, InterestFeatures)]) -> Vec<Event> {
        raw.iter()
            .enumerate()
            .map(|(story, &(kind, w, len, freq, views, clicks, pick))| {
                let story = story as u64;
                match kind {
                    // A click on a bootstrap surface.
                    0 if !base.is_empty() => {
                        click(story, &base[pick % base.len()].0, views, clicks)
                    }
                    // A click on any phrase: known, or admitted here.
                    0 | 1 => click(story, &words(w, len.min(3)).join(" "), views, clicks),
                    2 => Event::RankedClick {
                        story,
                        surface: words(w, len.min(2)).join(" "),
                        rank: pick as u32,
                        views,
                        clicks,
                    },
                    // Queries of 1–4 terms, `freq` 0 included.
                    _ => Event::Query {
                        terms: words(w, len),
                        freq,
                    },
                }
            })
            .collect()
    }

    /// Names in row order, packed bytes, quantizers.
    type StoreState = (
        Vec<String>,
        Vec<u8>,
        [FieldQuantizer; InterestFeatures::DIM],
    );

    fn state_of(store: &PackedInterestStore) -> StoreState {
        let names = (0..store.len() as u32)
            .map(|i| store.names.str_at(i).to_string())
            .collect();
        (names, store.data.to_vec(), store.quantizers)
    }

    /// The full build over the projector's rows in row order.
    fn full_rebuild(p: &SnapshotProjector) -> StoreState {
        let names = &p.store.names;
        state_of(&PackedInterestStore::build_borrowed(
            p.rows
                .iter()
                .enumerate()
                .map(|(i, f)| (names.str_at(i as u32), f)),
        ))
    }

    proptest! {
        #[test]
        fn incremental_publish_matches_full_rebuild(
            base_raw in prop::collection::vec(
                ((0u8..6, 0u8..6, 0u8..6, 0u8..6), 1u8..=3, (0u64..60, 0u64..90, 0u64..8, 0u32..4000, 0u32..4, 0u8..3)),
                0..10,
            ),
            events_raw in prop::collection::vec(
                (0u8..5, (0u8..6, 0u8..6, 0u8..6, 0u8..6), 1u8..=4, 0u64..6, 0u64..40, 0u64..5, 0usize..16),
                0..40,
            ),
            cuts in prop::collection::vec(0usize..=40, 0..6),
        ) {
            let base = base_of(&base_raw);
            let events = events_of(&events_raw, &base);

            let (mut whole, _) = SnapshotProjector::bootstrap(frozen(), base.clone()).expect("bootstrap");
            let one = whole.fold(&events);
            let one_delta = state_of(whole.apply(&one).expect("apply").interest());
            prop_assert_eq!(&one_delta, &full_rebuild(&whole));

            // The same log in 1–6 deltas; equal cuts give empty deltas.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(events.len())).collect();
            cuts.extend([0, events.len()]);
            cuts.sort_unstable();
            let (mut stepped, first) = SnapshotProjector::bootstrap(frozen(), base).expect("bootstrap");
            prop_assert_eq!(state_of(first.interest()), full_rebuild(&stepped));
            let mut last = None;
            for pair in cuts.windows(2) {
                let delta = stepped.fold(&events[pair[0]..pair[1]]);
                let snap = stepped.apply(&delta).expect("apply");
                let published = state_of(snap.interest());
                prop_assert_eq!(&published, &full_rebuild(&stepped), "after delta {:?}", pair);
                prop_assert_eq!(
                    &stepped.dense,
                    &stepped.rows.iter().map(InterestFeatures::to_array).collect::<Vec<_>>()
                );
                last = Some(published);
            }
            prop_assert_eq!(last.expect("at least one delta"), one_delta);
        }
    }
}
