//! Epoch-keyed result cache: serve head queries without touching the
//! ranker.
//!
//! At portal traffic the query mix is heavily Zipf-skewed — most `/rank`
//! calls recompute an answer the ranker produced milliseconds ago. This
//! cache sits in front of the micro-batcher and stores **rendered
//! response bodies** keyed `(epoch, query-hash)`:
//!
//! * **Invalidation by construction.** The publish epoch is part of the
//!   key, so a `ServiceHandle` publish invalidates the entire cache without
//!   any flush, TTL, or version counter: a probe for the new epoch
//!   cannot match an entry ranked under the old one. A cached body
//!   embeds the epoch that ranked it, and it is only ever returned to
//!   probes carrying that same epoch — stale reads are impossible, not
//!   merely unlikely.
//! * **O(1) publish.** Publishing touches the cache not at all. Entries
//!   of dead epochs are retired *lazily*: every shard records the epoch
//!   its entries belong to, and the first access carrying a newer epoch
//!   clears that shard. Until then the dead entries are unreachable
//!   (their epoch can never be probed again — epochs are process-wide
//!   monotone) and are bounded by the existing byte budget.
//! * **Sharded locking.** Keys are distributed over N mutex-striped
//!   shards by query-hash, so concurrent workers rarely contend; there
//!   is no global lock on the hot path.
//! * **CLOCK eviction.** Each shard holds a byte budget
//!   (`capacity_bytes / shards`). Inserting past the budget advances a
//!   clock hand that clears reference bits and evicts the first
//!   unreferenced entry — LRU-approximating, O(1) amortized, no linked
//!   lists.
//!
//! Hits, misses, evictions and resident bytes are exported through the
//! existing `/metrics` registry as `ctxrank_cache_{hits,misses,
//! evictions}_total` and `ctxrank_cache_bytes`.

use crate::metrics::Metrics;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bookkeeping bytes charged per entry on top of the body itself
/// (key, map slot, clock state) so `ctxrank_cache_bytes` tracks real
/// memory, not just payload.
const ENTRY_OVERHEAD: usize = 96;

/// Stable 64-bit FNV-1a over the request's text and candidate list —
/// the query half of the `(epoch, query-hash)` cache key. Candidate
/// order is significant (it changes the response body's order too).
pub fn query_hash(text: &str, candidates: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator: "ab"+"c" must not collide with "a"+"bc".
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(text.as_bytes());
    for c in candidates {
        eat(c.as_bytes());
    }
    h
}

struct Entry {
    qhash: u64,
    body: Arc<[u8]>,
    /// CLOCK reference bit: set on hit, cleared as the hand passes.
    referenced: bool,
}

impl Entry {
    fn cost(&self) -> usize {
        self.body.len() + ENTRY_OVERHEAD
    }
}

/// One mutex stripe. All entries in a shard belong to `epoch`; the key
/// space within the shard is just the query-hash.
struct Shard {
    /// Epoch of every resident entry. A probe or insert carrying a
    /// newer epoch retires the whole shard first (lazy invalidation).
    epoch: u64,
    /// query-hash → slot in `slots`.
    map: HashMap<u64, usize>,
    slots: Vec<Entry>,
    /// CLOCK hand: index into `slots` where the next eviction scan
    /// starts.
    hand: usize,
    /// Resident bytes (bodies + [`ENTRY_OVERHEAD`] each).
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            epoch: 0,
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            bytes: 0,
        }
    }

    /// Drop every resident entry (they belong to a dead epoch) and
    /// adopt `epoch`. Retirement is not an "eviction" in the metrics:
    /// evictions count capacity pressure, retirement counts nothing —
    /// the bytes gauge alone drops.
    fn retire(&mut self, epoch: u64, metrics: &Metrics) {
        if self.bytes > 0 {
            metrics.sub_cache_bytes(self.bytes as u64);
        }
        self.map.clear();
        self.slots.clear();
        self.hand = 0;
        self.bytes = 0;
        self.epoch = epoch;
    }

    /// Evict one unreferenced entry by CLOCK sweep. Returns false only
    /// on an empty shard.
    fn evict_one(&mut self, metrics: &Metrics) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand += 1;
                continue;
            }
            let victim = self.slots.swap_remove(self.hand);
            self.map.remove(&victim.qhash);
            // swap_remove moved the tail entry into the vacated slot;
            // its index changed, so fix the map.
            if let Some(moved) = self.slots.get(self.hand) {
                self.map.insert(moved.qhash, self.hand);
            }
            self.bytes -= victim.cost();
            metrics.sub_cache_bytes(victim.cost() as u64);
            metrics.record_cache_eviction();
            return true;
        }
    }
}

/// The sharded `(epoch, query-hash)` → rendered-body cache. Shared by
/// the connection threads (probes) and the batcher (inserts) behind an `Arc`.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget per shard: `capacity_bytes / shards`.
    shard_budget: usize,
}

impl ResultCache {
    /// A cache holding at most ~`capacity_bytes` across `shards` mutex
    /// stripes. Both are clamped to at least 1.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: (capacity_bytes / shards).max(1),
        }
    }

    /// Shard selection ignores the epoch on purpose: a query maps to
    /// the same stripe across publishes, which is what lets the stripe
    /// detect and retire a dead epoch on its next access.
    fn shard(&self, qhash: u64) -> &Mutex<Shard> {
        &self.shards[(qhash % self.shards.len() as u64) as usize]
    }

    /// Look up the rendered body for `(epoch, qhash)`. A hit is only
    /// possible when the resident entries were ranked by exactly
    /// `epoch`; an access carrying a newer epoch retires the shard's
    /// dead entries first. Probes carrying an *older* epoch than the
    /// shard (a publish raced this request) miss without disturbing the
    /// newer entries.
    pub fn get(&self, epoch: u64, qhash: u64, metrics: &Metrics) -> Option<Arc<[u8]>> {
        let mut s = self.shard(qhash).lock().expect("cache shard poisoned");
        if s.epoch != epoch {
            if epoch > s.epoch {
                s.retire(epoch, metrics);
            }
            metrics.record_cache_miss();
            return None;
        }
        match s.map.get(&qhash).copied() {
            Some(i) => {
                s.slots[i].referenced = true;
                metrics.record_cache_hit();
                Some(Arc::clone(&s.slots[i].body))
            }
            None => {
                metrics.record_cache_miss();
                None
            }
        }
    }

    /// Insert the body rendered for `(epoch, qhash)`. Bodies larger
    /// than a whole shard budget are not cached; inserts for an epoch
    /// older than the shard's are dropped (the answer is already
    /// obsolete).
    pub fn insert(&self, epoch: u64, qhash: u64, body: Arc<[u8]>, metrics: &Metrics) {
        let cost = body.len() + ENTRY_OVERHEAD;
        if cost > self.shard_budget {
            return;
        }
        let mut s = self.shard(qhash).lock().expect("cache shard poisoned");
        if epoch < s.epoch {
            return;
        }
        if epoch > s.epoch {
            s.retire(epoch, metrics);
        }
        if let Some(i) = s.map.get(&qhash).copied() {
            // Two workers missed the same query in one batch window;
            // identical (epoch, qhash) means an identical body, so keep
            // the resident one.
            s.slots[i].referenced = true;
            return;
        }
        while s.bytes + cost > self.shard_budget {
            if !s.evict_one(metrics) {
                break;
            }
        }
        let slot = s.slots.len();
        s.map.insert(qhash, slot);
        s.slots.push(Entry {
            qhash,
            body,
            referenced: false,
        });
        s.bytes += cost;
        metrics.add_cache_bytes(cost as u64);
    }

    /// Resident entries across all shards (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").slots.len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes across all shards (the same quantity the
    /// `ctxrank_cache_bytes` gauge tracks incrementally).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<[u8]> {
        Arc::from(text.as_bytes())
    }

    #[test]
    fn query_hash_separates_fields_and_order() {
        let h = |t: &str, c: &[&str]| {
            let c: Vec<String> = c.iter().map(|s| s.to_string()).collect();
            query_hash(t, &c)
        };
        assert_eq!(h("a", &["b"]), h("a", &["b"]));
        assert_ne!(h("ab", &["c"]), h("a", &["bc"]));
        assert_ne!(h("a", &["b", "c"]), h("a", &["c", "b"]));
        assert_ne!(h("a", &[]), h("", &["a"]));
    }

    #[test]
    fn hit_after_insert_same_epoch_only() {
        let m = Metrics::default();
        let c = ResultCache::new(1 << 20, 4);
        let q = query_hash("doc", &[]);
        assert!(c.get(5, q, &m).is_none());
        c.insert(5, q, body("r5"), &m);
        assert_eq!(c.get(5, q, &m).as_deref(), Some(b"r5".as_slice()));
        // Epoch is part of the key: the next epoch misses by construction.
        assert!(c.get(6, q, &m).is_none());
        assert_eq!(m.cache_hits_total(), 1);
        assert_eq!(m.cache_misses_total(), 2);
    }

    #[test]
    fn newer_epoch_access_retires_dead_entries() {
        let m = Metrics::default();
        let c = ResultCache::new(1 << 20, 1);
        let q1 = query_hash("one", &[]);
        let q2 = query_hash("two", &[]);
        c.insert(1, q1, body("a"), &m);
        c.insert(1, q2, body("b"), &m);
        assert_eq!(c.len(), 2);
        let resident = m.cache_bytes();
        assert!(resident > 0);
        assert_eq!(resident as usize, c.bytes());
        // A probe carrying the next epoch clears the (single) shard.
        assert!(c.get(2, q1, &m).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(m.cache_bytes(), 0);
        // Retirement is not eviction.
        assert_eq!(m.cache_evictions_total(), 0);
    }

    #[test]
    fn old_epoch_probe_and_insert_do_not_disturb_newer_entries() {
        let m = Metrics::default();
        let c = ResultCache::new(1 << 20, 1);
        let q = query_hash("doc", &[]);
        c.insert(7, q, body("new"), &m);
        // A straggler that read the epoch just before a publish:
        assert!(c.get(6, q, &m).is_none());
        c.insert(6, q, body("stale"), &m);
        assert_eq!(c.get(7, q, &m).as_deref(), Some(b"new".as_slice()));
    }

    #[test]
    fn clock_eviction_respects_budget_and_reference_bits() {
        let m = Metrics::default();
        // Budget fits exactly 3 of these entries per (single) shard.
        let one = 10 + ENTRY_OVERHEAD;
        let c = ResultCache::new(3 * one, 1);
        let q: Vec<u64> = (0..4).map(|i| query_hash(&format!("q{i}"), &[])).collect();
        for &qh in q.iter().take(3) {
            c.insert(1, qh, body("0123456789"), &m);
        }
        assert_eq!(c.len(), 3);
        // Touch q0 and q2 so their reference bits protect them.
        assert!(c.get(1, q[0], &m).is_some());
        assert!(c.get(1, q[2], &m).is_some());
        c.insert(1, q[3], body("0123456789"), &m);
        assert_eq!(c.len(), 3);
        assert_eq!(m.cache_evictions_total(), 1);
        // The unreferenced q1 was the victim; the referenced ones and
        // the newcomer are resident.
        assert!(c.get(1, q[1], &m).is_none());
        assert!(c.get(1, q[0], &m).is_some());
        assert!(c.get(1, q[2], &m).is_some());
        assert!(c.get(1, q[3], &m).is_some());
    }

    #[test]
    fn oversized_bodies_are_not_cached() {
        let m = Metrics::default();
        let c = ResultCache::new(64, 1);
        let q = query_hash("big", &[]);
        c.insert(1, q, Arc::from(vec![0u8; 4096].as_slice()), &m);
        assert!(c.get(1, q, &m).is_none());
        assert_eq!(m.cache_bytes(), 0);
    }

    #[test]
    fn duplicate_insert_keeps_bytes_stable() {
        let m = Metrics::default();
        let c = ResultCache::new(1 << 20, 2);
        let q = query_hash("doc", &[]);
        c.insert(3, q, body("same"), &m);
        let after_first = m.cache_bytes();
        c.insert(3, q, body("same"), &m);
        assert_eq!(m.cache_bytes(), after_first);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn keys_spread_across_shards() {
        let m = Metrics::default();
        let c = ResultCache::new(1 << 20, 8);
        for i in 0..256 {
            c.insert(1, query_hash(&format!("doc {i}"), &[]), body("x"), &m);
        }
        let occupied = c
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().slots.is_empty())
            .count();
        assert!(occupied >= 6, "hash skew: only {occupied}/8 shards used");
    }
}
