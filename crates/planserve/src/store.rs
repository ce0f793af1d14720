//! The sharded concurrent strategy store.
//!
//! Entries are distributed over shards by the *structural* fingerprint
//! half, so an exact entry and every shape-sibling it could warm-start
//! live behind the same lock. Reads (the overwhelmingly common
//! operation once the store is warm) take a shard's `RwLock` read
//! guard and bump the entry's recency stamp through an atomic, so
//! concurrent hits on one shard never serialize on a writer lock.
//! Writes (insert + LRU eviction) take the one shard's write lock and
//! never touch the others.
//!
//! Every shard enforces `byte_budget / shards` bytes with
//! least-recently-used eviction over a global monotonic stamp; the
//! per-shard budgets sum to at most the global budget, so the whole
//! store can never exceed it — the invariant the stress test in
//! `tests/plan_service.rs` hammers.
//!
//! A panic while a shard's write lock is held (an insert torn
//! mid-eviction) poisons that shard. The store is a cache, so the
//! next thread to lock the shard drops its entries and clears the
//! poison instead of passing the panic on to every later tenant.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use adapcc_plancache::{CachedPlan, Fingerprint};

/// Approximate heap footprint of one cached plan, in bytes. The store
/// budgets on this estimate (exact allocator accounting would buy
/// nothing: eviction only needs a consistent, monotone-in-size
/// measure).
pub fn approx_plan_bytes(plan: &CachedPlan) -> usize {
    use std::mem::size_of_val;
    let mut bytes = std::mem::size_of::<CachedPlan>();
    for sub in &plan.strategy.subs {
        bytes += size_of_val(sub);
        for flow in &sub.flows {
            bytes += size_of_val(flow) + flow.route.len() * std::mem::size_of::<usize>();
        }
        // BTreeMap<LogicalNode, bool>: key + value + node overhead.
        bytes += sub.aggregate.len() * 32;
    }
    for sub in &plan.seed.subs {
        bytes += size_of_val(sub);
        bytes += (sub.leader.len() + sub.parent.len() + sub.via_hub.len()) * 32;
    }
    bytes
}

#[derive(Debug)]
struct Entry {
    fp: Fingerprint,
    plan: Arc<CachedPlan>,
    bytes: usize,
    /// Recency stamp, bumped on every hit. Atomic so the read path
    /// never needs the shard's write lock.
    stamp: AtomicU64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<u128, Entry>,
    /// Most recently inserted fingerprint per shape hash — the
    /// cross-job warm-start index.
    by_shape: HashMap<u64, Fingerprint>,
    bytes: usize,
}

/// What [`ShardedStore::insert`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertOutcome {
    /// Whether the entry was stored (false: it alone exceeds the
    /// shard's byte budget and was rejected rather than blow it).
    pub stored: bool,
    /// Entries evicted to make room.
    pub evicted: u64,
}

/// Fingerprint-sharded strategy store with per-shard LRU under a
/// global byte budget.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<RwLock<Shard>>,
    /// Per-shard byte budget (`global / shards`).
    shard_budget: usize,
    /// Global LRU clock; one atomic increment per touch.
    tick: AtomicU64,
    /// Total stored bytes, mirrored outside the locks so monitoring
    /// never has to sweep every shard.
    total_bytes: AtomicUsize,
}

impl ShardedStore {
    /// A store of `shards` stripes splitting `byte_budget` evenly.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, byte_budget: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedStore {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            shard_budget: byte_budget / shards,
            tick: AtomicU64::new(0),
            total_bytes: AtomicUsize::new(0),
        }
    }

    fn shard(&self, fp: &Fingerprint) -> &RwLock<Shard> {
        // Shard by the structural half so exact entries and their
        // warm-startable shape siblings share a stripe.
        &self.shards[(fp.shape % self.shards.len() as u64) as usize]
    }

    /// Write-locks a shard; a poisoned one is emptied first.
    fn write<'s>(&self, lock: &'s RwLock<Shard>) -> RwLockWriteGuard<'s, Shard> {
        lock.write().unwrap_or_else(|poisoned| {
            let mut shard = poisoned.into_inner();
            let dropped = shard.bytes;
            // Relaxed like every other update of the mirror; the
            // closure always returns `Some`, so this cannot fail.
            let _ = self
                .total_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                    Some(t.saturating_sub(dropped))
                });
            *shard = Shard::default();
            lock.clear_poison();
            shard
        })
    }

    /// Read-locks a shard; a poisoned one is emptied first.
    fn read<'s>(&self, lock: &'s RwLock<Shard>) -> RwLockReadGuard<'s, Shard> {
        lock.read().unwrap_or_else(|poisoned| {
            drop(poisoned);
            drop(self.write(lock));
            // Poisoned again only by a panic in between; serve that
            // shard's entries as they stand rather than panic here.
            lock.read().unwrap_or_else(PoisonError::into_inner)
        })
    }

    fn touch(&self, entry: &Entry) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.stamp.store(now, Ordering::Relaxed);
    }

    /// Exact lookup; bumps the entry's recency under the read lock.
    pub fn get(&self, fp: &Fingerprint) -> Option<Arc<CachedPlan>> {
        let shard = self.read(self.shard(fp));
        let entry = shard.entries.get(&fp.key())?;
        self.touch(entry);
        Some(Arc::clone(&entry.plan))
    }

    /// Warm-start candidate: the latest entry whose structural half
    /// matches `fp.shape` (the exact key is already known absent).
    pub fn warm_candidate(&self, fp: &Fingerprint) -> Option<Arc<CachedPlan>> {
        let shard = self.read(self.shard(fp));
        let prev = shard.by_shape.get(&fp.shape)?;
        let entry = shard.entries.get(&prev.key())?;
        self.touch(entry);
        Some(Arc::clone(&entry.plan))
    }

    /// Stores a plan under its fingerprint, evicting least-recently
    /// used entries in the same shard until its byte slice fits. An
    /// entry larger than the whole shard budget is rejected outright —
    /// the global budget is an invariant, not a goal.
    pub fn insert(&self, fp: Fingerprint, plan: Arc<CachedPlan>) -> InsertOutcome {
        let bytes = approx_plan_bytes(&plan);
        if bytes > self.shard_budget {
            return InsertOutcome::default();
        }
        let mut shard = self.write(self.shard(&fp));
        let mut outcome = InsertOutcome {
            stored: true,
            evicted: 0,
        };
        if let Some(old) = shard.entries.remove(&fp.key()) {
            shard.bytes -= old.bytes;
            self.total_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        while shard.bytes + bytes > self.shard_budget {
            let oldest = shard
                .entries
                .values()
                .min_by_key(|e| e.stamp.load(Ordering::Relaxed))
                .map(|e| e.fp)
                .expect("over budget implies non-empty");
            let gone = shard
                .entries
                .remove(&oldest.key())
                .expect("oldest key present");
            shard.bytes -= gone.bytes;
            self.total_bytes.fetch_sub(gone.bytes, Ordering::Relaxed);
            if shard.by_shape.get(&oldest.shape) == Some(&oldest) {
                shard.by_shape.remove(&oldest.shape);
            }
            outcome.evicted += 1;
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        shard.entries.insert(
            fp.key(),
            Entry {
                fp,
                plan,
                bytes,
                stamp: AtomicU64::new(now),
            },
        );
        shard.by_shape.insert(fp.shape, fp);
        shard.bytes += bytes;
        self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
        outcome
    }

    /// Total estimated bytes currently stored (always ≤ the budget).
    pub fn bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.read(s).entries.len()).sum()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-shard byte budget.
    pub fn shard_budget(&self) -> usize {
        self.shard_budget
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_simnet::units::ByteSize;
    use adapcc_synth::primitive::Primitive;
    use adapcc_synth::solver::PlanSeed;
    use adapcc_synth::strategy::{Strategy, SubCollective};

    fn fp(shape: u64, profile: u64) -> Fingerprint {
        Fingerprint { shape, profile }
    }

    fn plan(subs: usize) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            strategy: Strategy {
                primitive: Primitive::AllReduce,
                subs: (0..subs)
                    .map(|_| SubCollective {
                        fraction: 1.0 / subs as f64,
                        chunk: ByteSize::from_kib(256),
                        root: None,
                        flows: vec![],
                        aggregate: Default::default(),
                    })
                    .collect(),
            },
            seed: PlanSeed::default(),
        })
    }

    #[test]
    fn get_after_insert_and_shape_warm_candidate() {
        let store = ShardedStore::new(4, 1 << 20);
        let f = fp(7, 9);
        assert!(store.get(&f).is_none());
        assert!(store.insert(f, plan(2)).stored);
        assert_eq!(store.get(&f).unwrap(), plan(2));
        // Same shape, different profile: warm candidate from the
        // shape index.
        assert_eq!(store.warm_candidate(&fp(7, 1)).unwrap(), plan(2));
        assert!(store.warm_candidate(&fp(8, 9)).is_none());
    }

    #[test]
    fn byte_budget_is_never_exceeded() {
        let unit = approx_plan_bytes(&plan(1));
        // Room for ~3 single-sub plans per shard.
        let store = ShardedStore::new(1, unit * 3 + unit / 2);
        for i in 0..32 {
            store.insert(fp(i, i), plan(1));
            assert!(store.bytes() <= unit * 3 + unit / 2, "over budget");
        }
        assert!(store.len() <= 3);
        assert!(store.bytes() <= store.shard_budget());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let unit = approx_plan_bytes(&plan(1));
        let store = ShardedStore::new(1, unit * 2 + unit / 2);
        store.insert(fp(1, 1), plan(1));
        store.insert(fp(2, 2), plan(1));
        let _ = store.get(&fp(1, 1)); // fp(2,2) is now the coldest
        let outcome = store.insert(fp(3, 3), plan(1));
        assert_eq!(outcome.evicted, 1);
        assert!(store.get(&fp(1, 1)).is_some());
        assert!(store.get(&fp(2, 2)).is_none());
        assert!(store.get(&fp(3, 3)).is_some());
    }

    #[test]
    fn eviction_cleans_the_shape_index() {
        let unit = approx_plan_bytes(&plan(1));
        let store = ShardedStore::new(1, unit + unit / 2);
        store.insert(fp(1, 1), plan(1));
        store.insert(fp(2, 2), plan(1)); // evicts shape 1
        assert!(
            store.warm_candidate(&fp(1, 9)).is_none(),
            "stale shape index must not serve a warm seed"
        );
    }

    #[test]
    fn oversize_entry_is_rejected_not_stored() {
        let store = ShardedStore::new(4, 64); // 16 bytes per shard
        let outcome = store.insert(fp(1, 1), plan(3));
        assert!(!outcome.stored);
        assert_eq!(store.bytes(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let store = ShardedStore::new(2, 1 << 20);
        store.insert(fp(5, 5), plan(1));
        let b1 = store.bytes();
        store.insert(fp(5, 5), plan(1));
        assert_eq!(store.bytes(), b1, "replacement must not leak bytes");
        assert_eq!(store.len(), 1);
    }

    /// Panics while holding `lock`'s write guard, poisoning it.
    fn poison(lock: &RwLock<Shard>) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock.write().unwrap();
            panic!("torn insert");
        }));
        assert!(outcome.is_err() && lock.is_poisoned());
    }

    #[test]
    fn a_poisoned_shard_drops_its_entries_and_serves_on() {
        let store = ShardedStore::new(2, 1 << 20);
        let (a, b) = (fp(0, 1), fp(1, 1)); // shards 0 and 1
        store.insert(a, plan(1));
        store.insert(b, plan(2));
        poison(&store.shards[0]);
        assert!(store.get(&a).is_none(), "the poisoned shard is emptied");
        assert!(!store.shards[0].is_poisoned(), "and its poison cleared");
        assert_eq!(store.get(&b).unwrap(), plan(2), "other shards keep theirs");
        assert_eq!(store.bytes(), approx_plan_bytes(&plan(2)));
        // Writers recover the same way, and the shard serves again.
        poison(&store.shards[1]);
        assert!(store.insert(a, plan(3)).stored);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&a).unwrap(), plan(3));
        assert_eq!(store.bytes(), approx_plan_bytes(&plan(3)));
    }
}
