//! The production framework (§VI).
//!
//! "All the techniques described so far ... are achieved through
//! preprocessing and are therefore offline procedures. However, the final
//! system, which detects and ranks the concepts in a given document,
//! needs to be quite efficient as this will be done in real time. This
//! sets computational as well as memory limitations."
//!
//! The paper's memory budget for 1 million concepts:
//!
//! * **interestingness vectors** — 9 features × 2 bytes = 18 B/concept
//!   (18 MB total), hash-table access in constant time → [`packed`];
//! * **relevant keywords** — up to 100 `(TID, score)` pairs per concept,
//!   a TID fitting in 22 bits and a score in 10 bits, so one pair packs
//!   into 32 bits → 400 B/concept (~400 MB total) → [`relstore`];
//! * a **Global TID Table** mapping each term used by at least one
//!   concept to its term id → [`tid`];
//! * further reduction via integer compression (Golomb coding,
//!   Witten/Moffat/Bell \[26\]) → [`golomb`];
//! * the runtime **Stemmer → Ranker** flow → [`ranker`], timed per
//!   document by the repo benchmark (`framework.stem_us`,
//!   `framework.rank_us`);
//! * the §VIII future-work **online CTR adaptation** → [`online`]: fast
//!   vs slow CTR averages per concept, boosting or punishing scores as
//!   world events move the click stream in real time — made
//!   position-bias-aware by [`propensity`], which fits per-rank
//!   examination probabilities with RegressionEM and turns them into
//!   clipped inverse-propensity click weights.
//!
//! The offline/online hand-off is organized around an immutable
//! [`Snapshot`] artifact: [`snapshot::SnapshotBuilder`] is the single
//! assembly path, [`persist`] (de)serializes snapshots, [`ranker`]
//! serves thin stateless views over one, and [`swap`] hot-swaps
//! rebuilt snapshots under live traffic and frees each one when its
//! last reader finishes. [`delta`] closes the loop incrementally:
//! sealed click-stream segments fold into [`delta::DeltaSnapshot`]s
//! that merge into the next epoch without a full rebuild.
//! [`partition`] takes the artifact
//! multi-process: it slices a snapshot into TID-range shards (row
//! slices that rank bit-identically to the full artifact) and defines
//! the two-phase [`partition::EpochBarrier`] shard publishes go
//! through.

pub(crate) mod arena;
pub mod compressed;
pub mod delta;
pub mod golomb;
pub mod memory;
pub mod online;
pub mod packed;
pub mod partition;
pub mod persist;
pub mod propensity;
pub mod ranker;
pub mod relstore;
pub mod snapshot;
pub mod swap;
pub mod tid;

pub use compressed::CompressedRelevanceStore;
pub use delta::{DeltaError, DeltaSnapshot, FrozenParts, RowAdds, SnapshotProjector, SurfaceAdd};
pub use golomb::{golomb_decode, golomb_encode, optimal_rice_parameter};
pub use memory::MemoryReport;
pub use online::{OnlineConfig, OnlineCtrAdjuster};
pub use packed::{FieldQuantizer, PackedInterestStore};
pub use partition::{
    owner_shard, partition_snapshot, shard_of_tid, BarrierError, EpochBarrier, PartitionError,
    ShardBounds, ShardPartition,
};
pub use persist::{
    load_service, load_service_with, load_snapshot, load_snapshot_with, save_service,
    save_service_with, save_snapshot, save_snapshot_with, PersistError, PersistFs, StdFs,
};
pub use propensity::{
    EmCell, EmConfig, EmFit, PropensityCodecError, PropensityEstimator, PropensityTable,
    DEFAULT_WEIGHT_CAP,
};
pub use ranker::{RankedConcept, RuntimeRanker};
pub use relstore::PackedRelevanceStore;
pub use snapshot::{Snapshot, SnapshotBuilder, SnapshotError};
pub use swap::ServiceHandle;
pub use tid::{GlobalTidTable, TermId, MAX_TID};
