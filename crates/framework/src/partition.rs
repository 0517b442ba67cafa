//! Sharding a [`Snapshot`] by `TermId` range, and the two-phase epoch
//! barrier sharded publishes go through.
//!
//! One process on one box caps how many concepts the framework can
//! serve. The scale-out step splits the frozen artifact across N shard
//! processes: each shard owns the concepts whose *lowest relevance
//! keyword TID* falls in its range of the dense TID space (the PR 2
//! interning makes that partition key free — pairs are stored sorted by
//! packed value with the TID in the high bits, so a concept's first
//! pair names its lowest keyword). Concepts with no keywords fall back
//! to shard 0, so the shards form an exact disjoint cover of the full
//! concept set.
//!
//! **Bit-identity.** A shard snapshot is a *row slice* of the full
//! snapshot, not a rebuild: the packed 18-byte interest rows and packed
//! relevance pairs are copied verbatim, the interest quantizers and the
//! relevance `score_scale` stay the *global* values fitted over the
//! full set, and every shard shares the parent's Global TID Table (with
//! its stem memo) and trained model by `Arc`, so they are not copied
//! per shard. Ranking an owned candidate on its shard is
//! therefore bit-identical to ranking it on the full snapshot — the
//! property the scatter-gather router's merged top-k relies on.
//! Candidates a shard does not own rank with zeroed features and zero
//! relevance, exactly as the full snapshot ranks a globally unknown
//! surface — so an unknown candidate also produces the same bits on
//! every shard.
//!
//! **Epochs.** Every shard partition is pinned to the source snapshot's
//! epoch, so "the fleet serves epoch E" is a meaningful cross-process
//! statement. A publish to E+1 is a two-phase barrier driven by the
//! router or an operator: *prepare* stages the shard's E+1 partition in
//! an [`EpochBarrier`] (validated monotone against the serving epoch),
//! then *commit* flips it into the shard's `ServiceHandle` atomically. The
//! barrier holds at most one staged snapshot; a re-prepare replaces it
//! (idempotent retries), and a commit names the epoch it expects so a
//! crashed or repeated driver cannot flip the wrong artifact.

use crate::arena::{ByteSlab, StrTable, U32Slab};
use crate::packed::{PackedInterestStore, BYTES_PER_CONCEPT};
use crate::relstore::PackedRelevanceStore;
use crate::snapshot::{SharedParts, Snapshot, SnapshotBuilder, SnapshotError};
use parking_lot::Mutex;
use std::sync::Arc;

/// The TID range one shard owns: `tid_lo..tid_hi` over the dense TID
/// space (`0..tids.len()`), exclusive on the right. Published in a
/// shard's `/healthz` so operators can see the partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBounds {
    /// This shard's index, `0..shards`.
    pub shard: usize,
    /// Total shard count in the partition.
    pub shards: usize,
    /// Inclusive lower TID bound.
    pub tid_lo: u32,
    /// Exclusive upper TID bound.
    pub tid_hi: u32,
}

/// Per-shard range width over a dense TID space. The span is computed
/// over the *actual* interned term count, not the 22-bit id ceiling, so
/// small snapshots still spread across shards instead of collapsing
/// onto shard 0.
fn span(tid_space: usize, shards: usize) -> usize {
    tid_space.div_ceil(shards).max(1)
}

/// The shard owning `tid` in a `shards`-way partition of `tid_space`
/// dense ids. Out-of-space ids clamp to the last shard (they cannot
/// occur for pairs interned against the same table).
pub fn shard_of_tid(tid: u32, tid_space: usize, shards: usize) -> usize {
    ((tid as usize) / span(tid_space, shards)).min(shards.saturating_sub(1))
}

impl ShardBounds {
    /// Bounds of `shard` in a `shards`-way split of `tid_space` ids.
    pub fn of(shard: usize, shards: usize, tid_space: usize) -> Self {
        let w = span(tid_space, shards);
        Self {
            shard,
            shards,
            tid_lo: (shard * w).min(tid_space) as u32,
            tid_hi: ((shard + 1) * w).min(tid_space) as u32,
        }
    }

    /// Whether `tid` falls in this shard's range.
    pub fn owns_tid(&self, tid: u32) -> bool {
        self.tid_lo <= tid && tid < self.tid_hi
    }
}

/// Why a snapshot could not be partitioned.
#[derive(Debug)]
pub enum PartitionError {
    /// A zero-shard partition is meaningless.
    ZeroShards,
    /// Assembling a shard snapshot failed (cannot happen for a snapshot
    /// that itself passed `build()`, but surfaced rather than unwrapped).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroShards => write!(f, "cannot partition into zero shards"),
            PartitionError::Snapshot(e) => write!(f, "shard snapshot assembly failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::ZeroShards => None,
            PartitionError::Snapshot(e) => Some(e),
        }
    }
}

/// One shard of a partitioned snapshot: its TID bounds and its sliced,
/// epoch-pinned artifact (save it with `save_snapshot` like any other).
#[derive(Debug, Clone)]
pub struct ShardPartition {
    pub bounds: ShardBounds,
    pub snapshot: Arc<Snapshot>,
}

/// The lowest keyword TID of `surface`, i.e. its partition key.
fn first_keyword_tid(rel: &PackedRelevanceStore, surface: &str) -> Option<u32> {
    let i = rel.names.lookup(surface)? as usize;
    let a = rel.starts[i] as usize;
    let b = rel.starts[i + 1] as usize;
    // Pairs are sorted by packed value; TID occupies the high bits, so
    // the first pair carries the lowest TID.
    rel.pairs
        .get(a..b)
        .and_then(<[u32]>::first)
        .map(|&p| p >> 10)
}

/// The shard that owns `surface` in a `shards`-way partition of
/// `full`. Keyword-less (and unknown) surfaces fall back to shard 0.
pub fn owner_shard(full: &Snapshot, shards: usize, surface: &str) -> usize {
    debug_assert!(shards > 0);
    first_keyword_tid(full.relevance(), surface)
        .map(|tid| shard_of_tid(tid, full.tids().len(), shards))
        .unwrap_or(0)
}

/// Split `full` into `shards` disjoint row-slice snapshots, each pinned
/// to `full`'s epoch (see the module docs for the ownership rule and
/// the bit-identity argument).
pub fn partition_snapshot(
    full: &Snapshot,
    shards: usize,
) -> Result<Vec<ShardPartition>, PartitionError> {
    if shards == 0 {
        return Err(PartitionError::ZeroShards);
    }
    let tid_space = full.tids().len();
    let interest = full.interest();
    let relevance = full.relevance();

    // Row indices per shard, in full-store build order, so each shard's
    // dense order is a subsequence of the full order (last-wins lookup
    // semantics of duplicate surfaces are preserved by the slice).
    let mut interest_rows: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for i in 0..interest.names.len() as u32 {
        let owner = owner_shard(full, shards, interest.names.str_at(i));
        interest_rows[owner].push(i);
    }
    let mut relevance_rows: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for i in 0..relevance.names.len() as u32 {
        let owner = owner_shard(full, shards, relevance.names.str_at(i));
        relevance_rows[owner].push(i);
    }

    let mut out = Vec::with_capacity(shards);
    for shard in 0..shards {
        let names = StrTable::build(
            interest_rows[shard]
                .iter()
                .map(|&i| interest.names.str_at(i)),
        );
        let mut data = Vec::with_capacity(interest_rows[shard].len() * BYTES_PER_CONCEPT);
        for &i in &interest_rows[shard] {
            let base = i as usize * BYTES_PER_CONCEPT;
            data.extend_from_slice(&interest.data[base..base + BYTES_PER_CONCEPT]);
        }
        let shard_interest = PackedInterestStore {
            names: Arc::new(names),
            data: ByteSlab::Owned(data),
            // Global quantizers, verbatim: dequantized features must be
            // bit-identical to the full store's.
            quantizers: interest.quantizers,
        };

        let names = StrTable::build(
            relevance_rows[shard]
                .iter()
                .map(|&i| relevance.names.str_at(i)),
        );
        let mut starts = Vec::with_capacity(relevance_rows[shard].len() + 1);
        starts.push(0u32);
        let mut pairs: Vec<u32> = Vec::new();
        for &i in &relevance_rows[shard] {
            let a = relevance.starts[i as usize] as usize;
            let b = relevance.starts[i as usize + 1] as usize;
            pairs.extend_from_slice(&relevance.pairs[a..b]);
            starts.push(pairs.len() as u32);
        }
        let shard_relevance = PackedRelevanceStore {
            names,
            starts: U32Slab::Owned(starts),
            pairs: U32Slab::Owned(pairs),
            // Global scale: dequantized keyword scores stay bit-identical.
            score_scale: relevance.score_scale,
        };

        let snapshot = SnapshotBuilder::new()
            .interest(shard_interest)
            .shared(SharedParts {
                relevance: Arc::new(shard_relevance),
                // Every shard resolves context tokens against the full
                // term table, so context TID sets agree across the
                // fleet; sharing it shares its stem memo too.
                tids: Arc::clone(&full.shared.tids),
                model: Arc::clone(&full.shared.model),
            })
            .epoch(full.epoch())
            .build()
            .map_err(PartitionError::Snapshot)?;
        out.push(ShardPartition {
            bounds: ShardBounds::of(shard, shards, tid_space),
            snapshot,
        });
    }
    Ok(out)
}

/// Why an [`EpochBarrier`] transition was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierError {
    /// Prepared snapshot does not advance the serving epoch.
    NotAhead { staged: u64, serving: u64 },
    /// Commit arrived with nothing staged.
    NothingStaged { requested: u64 },
    /// Commit named a different epoch than the staged snapshot's.
    EpochMismatch { staged: u64, requested: u64 },
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierError::NotAhead { staged, serving } => {
                write!(
                    f,
                    "staged epoch {staged} does not advance serving epoch {serving}"
                )
            }
            BarrierError::NothingStaged { requested } => {
                write!(f, "commit of epoch {requested} with nothing staged")
            }
            BarrierError::EpochMismatch { staged, requested } => {
                write!(
                    f,
                    "commit of epoch {requested} but epoch {staged} is staged"
                )
            }
        }
    }
}

impl std::error::Error for BarrierError {}

/// The shard-side half of the two-phase publish: *prepare* stages the
/// next epoch's snapshot without touching traffic, *commit* hands it
/// back for the one atomic `ServiceHandle` flip. Holding the staged artifact
/// here (instead of publishing on prepare) is what lets a driver bring
/// every shard to "loaded and validated" before any shard changes what
/// it serves — the window in which a scatter can observe mixed epochs
/// shrinks to the commit fan-out alone.
#[derive(Default)]
pub struct EpochBarrier {
    staged: Mutex<Option<Arc<Snapshot>>>,
}

impl EpochBarrier {
    /// A barrier with nothing staged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage `next` for a later commit. Refused unless it advances
    /// `serving_epoch`; a re-prepare replaces the previous staging (so
    /// a retried driver converges instead of wedging).
    pub fn prepare(&self, next: Arc<Snapshot>, serving_epoch: u64) -> Result<u64, BarrierError> {
        let staged = next.epoch();
        if staged <= serving_epoch {
            return Err(BarrierError::NotAhead {
                staged,
                serving: serving_epoch,
            });
        }
        *self.staged.lock() = Some(next);
        Ok(staged)
    }

    /// Take the staged snapshot for publishing. `epoch` must name the
    /// staged epoch exactly — a stale or misdirected commit is refused
    /// and the staging stays put.
    pub fn commit(&self, epoch: u64) -> Result<Arc<Snapshot>, BarrierError> {
        let mut staged = self.staged.lock();
        match staged.as_ref().map(|s| s.epoch()) {
            None => Err(BarrierError::NothingStaged { requested: epoch }),
            Some(e) if e != epoch => Err(BarrierError::EpochMismatch {
                staged: e,
                requested: epoch,
            }),
            Some(_) => Ok(staged.take().expect("staged checked non-empty")),
        }
    }

    /// The staged epoch, if any (surfaced in shard `/healthz`).
    pub fn staged_epoch(&self) -> Option<u64> {
        self.staged.lock().as_ref().map(|s| s.epoch())
    }

    /// Drop any staging, returning the epoch it held.
    pub fn abort(&self) -> Option<u64> {
        self.staged.lock().take().map(|s| s.epoch())
    }
}

impl std::fmt::Debug for EpochBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochBarrier")
            .field("staged_epoch", &self.staged_epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranker::RuntimeRanker;
    use crate::tid::GlobalTidTable;
    use ctxrank_features::{InterestFeatures, RelevantTerms};
    use ctxrank_ltr::{train, RankGroup, SvmConfig};

    /// A snapshot with `n` concepts whose keywords spread across the
    /// TID space, plus one keyword-less concept.
    fn full_snapshot(n: usize, weight: f64) -> Arc<Snapshot> {
        let concepts: Vec<(String, InterestFeatures)> = (0..n)
            .map(|i| {
                (
                    format!("concept {i}"),
                    InterestFeatures {
                        freq_exact: 100 + i as u64 * 7,
                        unit_score: (i as f64 * 0.13) % 1.0,
                        ..InterestFeatures::default()
                    },
                )
            })
            .chain(std::iter::once((
                "keywordless".to_string(),
                InterestFeatures::default(),
            )))
            .collect();
        let interest = PackedInterestStore::build(&concepts);

        let keyword_sets: Vec<RelevantTerms> = (0..n)
            .map(|i| RelevantTerms {
                terms: (0..3)
                    .map(|j| (format!("kw{}x{j}", i), weight + (i + j) as f64))
                    .collect(),
            })
            .chain(std::iter::once(RelevantTerms { terms: Vec::new() }))
            .collect();
        let mut tids = GlobalTidTable::new();
        let relevance = PackedRelevanceStore::build(
            concepts
                .iter()
                .map(|(s, _)| s.as_str())
                .zip(keyword_sets.iter()),
            &mut tids,
        );

        let groups: Vec<RankGroup> = (0..10)
            .map(|g| {
                RankGroup::from_pairs((0..2).map(|i| {
                    let mut f = vec![0.0; 10];
                    f[0] = (g + i) as f64;
                    f[9] = (g * 2 + i) as f64;
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
            .expect("full snapshot")
    }

    #[test]
    fn partition_is_a_disjoint_cover_pinned_to_the_source_epoch() {
        let full = full_snapshot(23, 2.0);
        for shards in [1, 2, 3, 5] {
            let parts = partition_snapshot(&full, shards).expect("partition");
            assert_eq!(parts.len(), shards);
            let mut seen = std::collections::HashMap::new();
            for part in &parts {
                assert_eq!(part.snapshot.epoch(), full.epoch(), "epoch pin");
                // The parent's table (with its memo) and model, shared.
                assert!(std::ptr::eq(part.snapshot.tids(), full.tids()));
                assert!(std::ptr::eq(part.snapshot.model(), full.model()));
                for i in 0..part.snapshot.interest().len() as u32 {
                    let s = part.snapshot.interest().names.str_at(i).to_string();
                    assert!(part.snapshot.contains_concept(&s));
                    let prev = seen.insert(s.clone(), part.bounds.shard);
                    assert_eq!(prev, None, "{s} owned twice ({shards} shards)");
                }
            }
            assert_eq!(seen.len(), full.interest().len(), "{shards} shards");
            // Ownership matches the partition key rule.
            for (surface, &shard) in &seen {
                assert_eq!(shard, owner_shard(&full, shards, surface), "{surface}");
            }
        }
    }

    #[test]
    fn keywordless_concepts_fall_back_to_shard_zero() {
        let full = full_snapshot(8, 1.0);
        assert_eq!(owner_shard(&full, 4, "keywordless"), 0);
        assert_eq!(owner_shard(&full, 4, "never stored"), 0);
        let parts = partition_snapshot(&full, 4).expect("partition");
        assert!(parts[0].snapshot.contains_concept("keywordless"));
    }

    #[test]
    fn owned_candidates_rank_bit_identically_on_their_shard() {
        let full = full_snapshot(17, 3.0);
        let parts = partition_snapshot(&full, 3).expect("partition");
        let full_ranker = RuntimeRanker::from_snapshot(full.clone());
        let doc = "kw0x1 kw5x0 kw11x2 kw16x0 and some filler text";
        for i in 0..17 {
            let surface = format!("concept {i}");
            let owner = owner_shard(&full, 3, &surface);
            let shard_ranker = RuntimeRanker::from_snapshot(parts[owner].snapshot.clone());
            let cands = vec![surface.clone()];
            let on_full = full_ranker.rank(doc, &cands);
            let on_shard = shard_ranker.rank(doc, &cands);
            // Bit-identical, not approximately equal: same packed bytes,
            // same global quantizers/scale/model/TID table.
            assert_eq!(on_full, on_shard, "{surface}");
        }
    }

    #[test]
    fn unknown_candidates_rank_identically_on_every_shard() {
        let full = full_snapshot(6, 1.5);
        let parts = partition_snapshot(&full, 2).expect("partition");
        let cands = vec!["never stored anywhere".to_string()];
        let doc = "kw1x0 kw4x2";
        let on_full = RuntimeRanker::from_snapshot(full.clone()).rank(doc, &cands);
        for part in &parts {
            let got = RuntimeRanker::from_snapshot(part.snapshot.clone()).rank(doc, &cands);
            assert_eq!(got, on_full, "shard {}", part.bounds.shard);
        }
    }

    #[test]
    fn bounds_agree_with_shard_of_tid() {
        for tid_space in [0usize, 1, 2, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 4, 9] {
                let bounds: Vec<ShardBounds> = (0..shards)
                    .map(|s| ShardBounds::of(s, shards, tid_space))
                    .collect();
                for tid in 0..tid_space as u32 {
                    let owner = shard_of_tid(tid, tid_space, shards);
                    assert!(
                        bounds[owner].owns_tid(tid),
                        "tid {tid} {tid_space}/{shards}"
                    );
                    let owners = bounds.iter().filter(|b| b.owns_tid(tid)).count();
                    assert_eq!(owners, 1, "tid {tid} {tid_space}/{shards}");
                }
            }
        }
    }

    #[test]
    fn zero_shards_is_an_error() {
        let full = full_snapshot(3, 1.0);
        assert!(matches!(
            partition_snapshot(&full, 0),
            Err(PartitionError::ZeroShards)
        ));
    }

    #[test]
    fn barrier_prepare_then_commit_flips_exactly_the_staged_epoch() {
        let serving = full_snapshot(3, 1.0);
        let next = full_snapshot(3, 2.0);
        let barrier = EpochBarrier::new();
        assert_eq!(barrier.staged_epoch(), None);
        let staged = barrier
            .prepare(next.clone(), serving.epoch())
            .expect("prepare");
        assert_eq!(staged, next.epoch());
        assert_eq!(barrier.staged_epoch(), Some(staged));
        // Commit must name the staged epoch.
        assert_eq!(
            barrier.commit(staged + 1).unwrap_err(),
            BarrierError::EpochMismatch {
                staged,
                requested: staged + 1
            }
        );
        let committed = barrier.commit(staged).expect("commit");
        assert!(Arc::ptr_eq(&committed, &next));
        assert_eq!(barrier.staged_epoch(), None);
        // The staging is consumed: a replayed commit is refused.
        assert_eq!(
            barrier.commit(staged).unwrap_err(),
            BarrierError::NothingStaged { requested: staged }
        );
    }

    #[test]
    fn barrier_refuses_non_advancing_epochs_and_supports_abort() {
        let serving = full_snapshot(3, 1.0);
        let stale = full_snapshot(3, 0.5);
        let next = full_snapshot(3, 2.0);
        let barrier = EpochBarrier::new();
        // `stale` was built before `next` but after `serving`; pretend
        // the shard already serves `next`'s epoch.
        assert_eq!(
            barrier.prepare(stale.clone(), next.epoch()),
            Err(BarrierError::NotAhead {
                staged: stale.epoch(),
                serving: next.epoch()
            })
        );
        barrier
            .prepare(next.clone(), serving.epoch())
            .expect("prepare");
        assert_eq!(barrier.abort(), Some(next.epoch()));
        assert_eq!(barrier.staged_epoch(), None);
        assert_eq!(barrier.abort(), None);
    }
}
