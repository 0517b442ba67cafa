//! The immutable serving artifact.
//!
//! The §VI framework is an *offline mining pipeline feeding an online
//! ranker*: the offline side periodically rebuilds the packed stores and
//! the trained model, the online side serves them under strict latency
//! budgets. The hand-off between the two is a [`Snapshot`] — every
//! frozen component the runtime needs, assembled once through
//! [`SnapshotBuilder`] (the single assembly path; persistence and the
//! experiment pipeline both go through it), tagged with a monotonically
//! increasing epoch, and shared behind `Arc` so a serving fleet can
//! hold many concurrent views of one artifact.
//!
//! The relevance store, the TID table and the model each sit behind an
//! `Arc` of their own, so snapshots that differ only in their
//! interestingness store (successive delta epochs) or only in their
//! rows (the shards of one partition) share those parts instead of
//! copying them. A shared part is freed with the last snapshot or
//! projector that holds it.
//!
//! A snapshot never changes after `build()`. The only interior
//! mutability is the stem memo cache, which is *semantically* immutable:
//! a raw token always resolves to the same `Option<TermId>` under a
//! given TID table, so the cache is a pure memo whose population order
//! can never be observed through results. Because it depends on the
//! table alone, it lives with the table and is shared by every snapshot
//! that shares the table. It is sharded so concurrent
//! `rank`/`rank_batch` callers touch disjoint locks instead of
//! contending on one `RwLock` (the pre-snapshot design).

use crate::packed::PackedInterestStore;
use crate::relstore::PackedRelevanceStore;
use crate::tid::{GlobalTidTable, TermId};
use ctxrank_ltr::RankModel;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide epoch source. Epochs are assigned at `build()` time and
/// only ever move forward, so "newer snapshot" and "larger epoch" mean
/// the same thing within a process — the invariant the hot-swap
/// protocol (`crate::swap`) and the persisted manifest both rely on.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn claim_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Advance the epoch source past `epoch` (used when a persisted
/// snapshot restores an epoch minted by an earlier process).
fn reserve_epoch(epoch: u64) {
    NEXT_EPOCH.fetch_max(epoch.saturating_add(1), Ordering::Relaxed);
}

/// Shards in the stem memo cache. A power of two so the shard pick is a
/// mask; 16 is plenty to make cross-thread collisions rare at realistic
/// core counts.
const STEM_SHARDS: usize = 16;

/// Cap on distinct memoized tokens per shard; beyond this the shard
/// stops admitting new entries (news vocabulary saturates well below
/// the total of `STEM_SHARDS * STEM_SHARD_CAP = 2^16`).
const STEM_SHARD_CAP: usize = (1 << 16) / STEM_SHARDS;

/// FNV-1a over the token bytes — cheap, allocation-free, and only used
/// to spread tokens across shards (never for correctness).
fn shard_of(token: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in token.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h as usize) & (STEM_SHARDS - 1)
}

/// Sharded memo of raw token → interned TermId (`None` when the token
/// normalizes to nothing, is a stop word, or is absent from the TID
/// table). Keyed on the *unnormalized* token text so a cache hit skips
/// normalization, Porter stemming, and the intern-table probe entirely.
struct ShardedStemCache {
    shards: Vec<RwLock<HashMap<Box<str>, Option<TermId>>>>,
}

impl ShardedStemCache {
    fn new() -> Self {
        Self {
            shards: (0..STEM_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }
}

/// The Global TID Table together with its stem memo. The memo is a
/// function of the table alone, so the two are shared as one unit: every
/// snapshot holding this `Arc` reuses the tokens any of them resolved.
pub(crate) struct TidsAndMemo {
    table: GlobalTidTable,
    memo: ShardedStemCache,
}

impl TidsAndMemo {
    fn new(table: GlobalTidTable) -> Self {
        Self {
            table,
            memo: ShardedStemCache::new(),
        }
    }
}

/// The parts of a [`Snapshot`] that can outlive it, each behind its own
/// `Arc`: the delta projector hands the same three to every epoch it
/// builds, and a partition hands its parent's table and model to every
/// shard.
#[derive(Clone)]
pub(crate) struct SharedParts {
    pub(crate) relevance: Arc<PackedRelevanceStore>,
    pub(crate) tids: Arc<TidsAndMemo>,
    pub(crate) model: Arc<RankModel>,
}

impl SharedParts {
    /// Move freshly built parts behind their `Arc`s, with an empty memo.
    pub(crate) fn new(
        relevance: PackedRelevanceStore,
        tids: GlobalTidTable,
        model: RankModel,
    ) -> Self {
        Self {
            relevance: Arc::new(relevance),
            tids: Arc::new(TidsAndMemo::new(tids)),
            model: Arc::new(model),
        }
    }
}

/// Error from [`SnapshotBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A required component was never supplied to the builder.
    Missing(&'static str),
    /// The model is an RBF model; the production framework runs the
    /// linear model (packed features feed a dot product).
    RbfModel,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing(what) => write!(f, "snapshot builder missing {what}"),
            SnapshotError::RbfModel => {
                write!(f, "the production snapshot requires a linear model")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The frozen serving artifact: packed interestingness + relevance
/// stores, the Global TID Table, and the trained linear model, stamped
/// with its epoch. Construct through [`SnapshotBuilder`]; share behind
/// `Arc` (all ranking entry points take `Arc<Snapshot>` or a view over
/// one).
///
/// The interestingness store is the snapshot's own. The relevance
/// store, the TID table (with its stem memo) and the model may be
/// shared with other snapshots: delta epochs from one projector share
/// all three, the shards of one partition share the parent's table and
/// model.
pub struct Snapshot {
    epoch: u64,
    interest: PackedInterestStore,
    pub(crate) shared: SharedParts,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("concepts", &self.interest.len())
            .field("terms", &self.tids().len())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// The snapshot's version id. Strictly increasing across `build()`
    /// calls in one process; restored (and reserved) by persistence.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The packed interestingness store.
    pub fn interest(&self) -> &PackedInterestStore {
        &self.interest
    }

    /// The packed relevance-keyword store.
    pub fn relevance(&self) -> &PackedRelevanceStore {
        &self.shared.relevance
    }

    /// The Global TID Table.
    pub fn tids(&self) -> &GlobalTidTable {
        &self.shared.tids.table
    }

    /// The trained ranking model.
    pub fn model(&self) -> &RankModel {
        &self.shared.model
    }

    /// Whether this snapshot stores `surface` in either frozen store —
    /// i.e. whether a shard built by `partition_snapshot` *owns* the
    /// concept. Candidates failing this check rank with zeroed features
    /// and zero relevance, identically on every shard.
    pub fn contains_concept(&self, surface: &str) -> bool {
        self.interest.contains(surface) || self.relevance().contains(surface)
    }

    /// Resolve a raw (unnormalized) token to its interned TermId; the
    /// slow path behind the memo cache.
    fn resolve_token(&self, raw: &str) -> Option<TermId> {
        let norm = ctxrank_text::normalize_term(raw);
        if norm.is_empty() || ctxrank_text::is_stopword(&norm) {
            return None;
        }
        self.tids().get(&ctxrank_text::stem(&norm))
    }

    /// The document's context TID set, resolving tokens through the
    /// sharded stem cache: a hit turns "allocate + normalize + stem +
    /// intern probe" into a single hash lookup on the borrowed token,
    /// and concurrent documents only collide on a shard when their
    /// tokens hash together.
    pub fn context_tids_cached(&self, text: &str) -> HashSet<TermId> {
        let memo = &self.shared.tids.memo;
        let mut context = HashSet::new();
        // Misses grouped per shard so each shard's write lock is taken
        // at most once per document.
        let mut misses: Vec<Vec<(Box<str>, Option<TermId>)>> = vec![Vec::new(); STEM_SHARDS];
        for tok in ctxrank_text::tokenize(text) {
            let shard = shard_of(tok.text);
            let hit = memo.shards[shard].read().get(tok.text).copied();
            match hit {
                Some(tid) => {
                    if let Some(tid) = tid {
                        context.insert(tid);
                    }
                }
                None => {
                    let tid = self.resolve_token(tok.text);
                    if let Some(tid) = tid {
                        context.insert(tid);
                    }
                    misses[shard].push((tok.text.into(), tid));
                }
            }
        }
        for (shard, entries) in misses.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let mut cache = memo.shards[shard].write();
            if cache.len() < STEM_SHARD_CAP {
                cache.extend(entries);
            }
        }
        context
    }

    /// Whether the stem memo already holds `token`.
    #[cfg(test)]
    pub(crate) fn memo_holds(&self, token: &str) -> bool {
        self.shared.tids.memo.shards[shard_of(token)]
            .read()
            .contains_key(token)
    }
}

/// The single assembly path for [`Snapshot`]s: collect the four frozen
/// components, validate them, stamp an epoch, freeze.
///
/// Each component handed in by value gets an `Arc` of its own, and with
/// the TID table a fresh stem memo. Inside the crate, the delta
/// projector and `partition_snapshot` hand in parts that other
/// snapshots already hold, so those are shared, not copied.
///
/// ```
/// # use ctxrank_framework::*;
/// # let interest = PackedInterestStore::build(&[]);
/// # let mut tids = GlobalTidTable::new();
/// # let relevance = PackedRelevanceStore::build(Vec::new(), &mut tids);
/// # let groups = vec![ctxrank_ltr::RankGroup::from_pairs(vec![
/// #     (vec![1.0, 0.0], 0.1), (vec![0.0, 1.0], 0.01)])];
/// # let model = ctxrank_ltr::train(&groups, &ctxrank_ltr::SvmConfig::default());
/// let snapshot = SnapshotBuilder::new()
///     .interest(interest)
///     .relevance(relevance)
///     .tids(tids)
///     .model(model)
///     .build()
///     .expect("all four components supplied and the model is linear");
/// ```
#[derive(Default)]
pub struct SnapshotBuilder {
    interest: Option<PackedInterestStore>,
    relevance: Option<Arc<PackedRelevanceStore>>,
    tids: Option<Arc<TidsAndMemo>>,
    model: Option<Arc<RankModel>>,
    epoch: Option<u64>,
}

impl SnapshotBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The packed interestingness store.
    pub fn interest(mut self, interest: PackedInterestStore) -> Self {
        self.interest = Some(interest);
        self
    }

    /// The packed relevance-keyword store.
    pub fn relevance(mut self, relevance: PackedRelevanceStore) -> Self {
        self.relevance = Some(Arc::new(relevance));
        self
    }

    /// The Global TID Table the relevance store was interned against.
    pub fn tids(mut self, tids: GlobalTidTable) -> Self {
        self.tids = Some(Arc::new(TidsAndMemo::new(tids)));
        self
    }

    /// The trained (linear) ranking model.
    pub fn model(mut self, model: RankModel) -> Self {
        self.model = Some(Arc::new(model));
        self
    }

    /// Share already-built parts instead of supplying fresh ones.
    pub(crate) fn shared(mut self, parts: SharedParts) -> Self {
        self.relevance = Some(parts.relevance);
        self.tids = Some(parts.tids);
        self.model = Some(parts.model);
        self
    }

    /// Pin the epoch instead of claiming the next one — used by
    /// persistence to restore a saved snapshot's identity. The process
    /// epoch source is advanced past it so later builds stay monotonic.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Validate and freeze. Fails when a component is missing or the
    /// model is RBF (the runtime dot product needs a linear model).
    pub fn build(self) -> Result<Arc<Snapshot>, SnapshotError> {
        let interest = self
            .interest
            .ok_or(SnapshotError::Missing("interest store"))?;
        let relevance = self
            .relevance
            .ok_or(SnapshotError::Missing("relevance store"))?;
        let tids = self.tids.ok_or(SnapshotError::Missing("tid table"))?;
        let model = self.model.ok_or(SnapshotError::Missing("rank model"))?;
        if model.is_rbf() {
            return Err(SnapshotError::RbfModel);
        }
        let epoch = match self.epoch {
            Some(e) => {
                reserve_epoch(e);
                e
            }
            None => claim_epoch(),
        };
        Ok(Arc::new(Snapshot {
            epoch,
            interest,
            shared: SharedParts {
                relevance,
                tids,
                model,
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxrank_ltr::{train, SvmConfig};

    fn parts() -> (
        PackedInterestStore,
        PackedRelevanceStore,
        GlobalTidTable,
        RankModel,
    ) {
        let interest = PackedInterestStore::build(&[]);
        let mut tids = GlobalTidTable::new();
        let relevance = PackedRelevanceStore::build(Vec::new(), &mut tids);
        let groups: Vec<ctxrank_ltr::RankGroup> = (0..4)
            .map(|g| {
                ctxrank_ltr::RankGroup::from_pairs(
                    (0..2).map(|i| (vec![(g + i) as f64, 1.0], i as f64 * 0.01)),
                )
            })
            .collect();
        let model = train(&groups, &SvmConfig::default());
        (interest, relevance, tids, model)
    }

    #[test]
    fn builder_requires_all_components() {
        let (interest, relevance, tids, model) = parts();
        let err = SnapshotBuilder::new()
            .interest(interest)
            .relevance(relevance)
            .tids(tids)
            .build()
            .unwrap_err();
        assert_eq!(err, SnapshotError::Missing("rank model"));
        drop(model);
    }

    #[test]
    fn snapshot_errors_name_the_violated_invariant() {
        // A server boot path reports these instead of panicking, so the
        // messages must say what was wrong, not just that something was.
        assert_eq!(
            SnapshotError::Missing("rank model").to_string(),
            "snapshot builder missing rank model"
        );
        assert!(SnapshotError::RbfModel.to_string().contains("linear model"));
        let empty = SnapshotBuilder::new().build();
        assert!(matches!(empty, Err(SnapshotError::Missing(_))));
    }

    #[test]
    fn epochs_increase_monotonically() {
        let mut last = 0;
        for _ in 0..3 {
            let (interest, relevance, tids, model) = parts();
            let snap = SnapshotBuilder::new()
                .interest(interest)
                .relevance(relevance)
                .tids(tids)
                .model(model)
                .build()
                .unwrap();
            assert!(snap.epoch() > last, "epoch {} after {last}", snap.epoch());
            last = snap.epoch();
        }
    }

    #[test]
    fn pinned_epoch_reserves_the_range() {
        let (interest, relevance, tids, model) = parts();
        let pinned = SnapshotBuilder::new()
            .interest(interest)
            .relevance(relevance)
            .tids(tids)
            .model(model)
            .epoch(1_000_000)
            .build()
            .unwrap();
        assert_eq!(pinned.epoch(), 1_000_000);
        let (interest, relevance, tids, model) = parts();
        let next = SnapshotBuilder::new()
            .interest(interest)
            .relevance(relevance)
            .tids(tids)
            .model(model)
            .build()
            .unwrap();
        assert!(next.epoch() > 1_000_000);
    }

    #[test]
    fn rbf_model_rejected() {
        let (interest, relevance, tids, _) = parts();
        let groups: Vec<ctxrank_ltr::RankGroup> = (0..4)
            .map(|g| {
                ctxrank_ltr::RankGroup::from_pairs(
                    (0..2).map(|i| (vec![(g + i) as f64, 1.0], i as f64 * 0.01)),
                )
            })
            .collect();
        let rbf = train(
            &groups,
            &SvmConfig {
                kernel: ctxrank_ltr::KernelKind::Rbf { gamma: 0.5, dim: 8 },
                ..SvmConfig::default()
            },
        );
        assert!(rbf.is_rbf());
        let err = SnapshotBuilder::new()
            .interest(interest)
            .relevance(relevance)
            .tids(tids)
            .model(rbf)
            .build()
            .unwrap_err();
        assert_eq!(err, SnapshotError::RbfModel);
    }
}
