//! The [`PlanService`] facade: sharded store + single-flight admission
//! + cross-job warm starts behind one `resolve` call.
//!
//! Sessions hand the service their fingerprint and a solve closure;
//! the service decides whether the request is a [`Served::Hit`]
//! (exact entry), [`Served::Coalesced`] (another thread is solving the
//! same fingerprint right now), [`Served::Warm`] (a shape sibling's
//! seed cut the solve short), or [`Served::Cold`] (nobody has seen
//! this problem — full solve). Every outcome increments a counter in
//! [`ServiceStats`], exportable to telemetry as `planserve.*`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adapcc_plancache::{CachedPlan, DiskTier, Fingerprint};
use adapcc_simnet::time::SimDuration;
use adapcc_synth::solver::{SynthRequest, Synthesizer};
use adapcc_telemetry::Telemetry;

use crate::admission::{FlightTable, Joined};
use crate::store::ShardedStore;

/// Tuning knobs for a [`PlanService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of store stripes. More shards means less read/write
    /// contention; entries for one fleet shape always share a shard.
    pub shards: usize,
    /// Global byte budget over all shards (split evenly).
    pub byte_budget: usize,
    /// Whether a cold request may warm-start from a stored shape
    /// sibling solved by another job.
    pub warm_start: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 16,
            byte_budget: 64 << 20,
            warm_start: true,
        }
    }
}

impl ServiceConfig {
    /// One shard holding one default shard's slice of the budget: the
    /// service a session builds for itself when it is given no shared
    /// one. A `byte_budget` of `0` on top of it stores nothing, so
    /// every request solves cold — the cold baseline.
    pub fn one_shard() -> Self {
        let default = Self::default();
        ServiceConfig {
            shards: 1,
            byte_budget: default.byte_budget / default.shards,
            ..default
        }
    }
}

/// How one `resolve` call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Exact fingerprint was in the store.
    Hit,
    /// Another thread was solving the same fingerprint; this request
    /// blocked on its flight and shares the one solve.
    Coalesced,
    /// Solved with a warm seed from a stored shape sibling.
    Warm,
    /// Full cold solve.
    Cold,
}

/// A resolved plan plus how the service produced it.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The strategy and its seed, shared with every other requester of
    /// the same fingerprint.
    pub plan: Arc<CachedPlan>,
    /// Admission outcome.
    pub served: Served,
}

/// Snapshot of service effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Exact store hits.
    pub hits: u64,
    /// Requests that piggybacked on another thread's in-flight solve.
    pub coalesced: u64,
    /// Solves warm-started from another job's shape sibling.
    pub warm: u64,
    /// Full cold solves.
    pub cold: u64,
    /// Store entries evicted to hold the byte budget.
    pub evictions: u64,
    /// Plans rejected because they alone exceed a shard's budget.
    pub rejected: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Estimated bytes currently stored.
    pub bytes: u64,
    /// Disk-tier reads or writes that failed, plus undecodable entries
    /// evicted from it (the tier stays best-effort).
    pub io_errors: u64,
}

/// One requester's view of its own resolves: how often its requests
/// were served without a solve, warm-started or solved cold, and the
/// modeled solver time that saved. A session or runner keeps one and
/// bills every resolve through [`PlanStats::record`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanStats {
    /// Requests served a stored or coalesced plan (solver skipped).
    pub hits: u64,
    /// Requests solved cold, including a served plan that failed
    /// revalidation and a warm seed the solver rejected.
    pub misses: u64,
    /// Requests solved from a shape sibling's warm seed.
    pub warm_starts: u64,
    /// Modeled solver latency avoided by hits and warm starts.
    pub saved: SimDuration,
}

impl PlanStats {
    /// Bills one resolve. `full` and `warm` are the modeled costs of a
    /// cold and a warm-started solve for the request: a hit saves
    /// `full`, a warm start saves `full - warm`, a cold solve nothing.
    pub fn record(&mut self, served: Served, full: SimDuration, warm: SimDuration) {
        match served {
            Served::Hit | Served::Coalesced => {
                self.hits += 1;
                self.saved += full;
            }
            Served::Warm => {
                self.warm_starts += 1;
                self.saved += SimDuration::from_secs(full.as_secs() - warm.as_secs());
            }
            Served::Cold => self.misses += 1,
        }
    }

    /// Publishes the counters to a telemetry sink as `plancache.*`,
    /// with the size of the store the requester resolves against.
    pub fn export_counters(&self, telemetry: &Telemetry, service: &PlanService) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.set_counter("plancache.hits", self.hits as f64);
        telemetry.set_counter("plancache.misses", self.misses as f64);
        telemetry.set_counter("plancache.warm_starts", self.warm_starts as f64);
        telemetry.set_counter("plancache.saved_secs", self.saved.as_secs());
        telemetry.set_counter("plancache.entries", service.len() as f64);
    }
}

/// The solve a requester hands [`PlanService::resolve`]: warm-start
/// `synth` from `seed` when one is offered and its structure still
/// applies, otherwise solve cold. Returns the plan and whether the seed
/// was used.
pub fn synthesize(
    synth: &Synthesizer<'_>,
    req: &SynthRequest,
    seed: Option<&CachedPlan>,
) -> (CachedPlan, bool) {
    if let Some(prev) = seed {
        if let Some((strategy, seed)) = synth.synthesize_warm(req, &prev.seed) {
            return (CachedPlan { strategy, seed }, true);
        }
    }
    let (strategy, seed) = synth.synthesize_with_seed(req);
    (CachedPlan { strategy, seed }, false)
}

/// Shared, thread-safe plan service. Clone the `Arc` into every
/// session ([`InitOptions::plan_service`]) so concurrent jobs resolve
/// against one store.
///
/// [`InitOptions::plan_service`]: https://docs.rs/adapcc-core
#[derive(Debug)]
pub struct PlanService {
    store: ShardedStore,
    flights: FlightTable,
    config: ServiceConfig,
    disk: Option<DiskTier>,
    hits: AtomicU64,
    coalesced: AtomicU64,
    warm: AtomicU64,
    cold: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

impl Default for PlanService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl PlanService {
    /// A service with the given store geometry.
    pub fn new(config: ServiceConfig) -> Self {
        PlanService {
            store: ShardedStore::new(config.shards, config.byte_budget),
            flights: FlightTable::new(),
            config,
            disk: None,
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            warm: AtomicU64::new(0),
            cold: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Persists every plan under `dir` as well: a request that misses
    /// the memory store reads through to the directory (exact entry
    /// first, then a shape sibling as a warm seed) before solving, and
    /// every stored plan is written through, so a later process starts
    /// warm.
    pub fn with_disk_tier(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk = Some(DiskTier::new(dir));
        self
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Resolves `fp` to a plan, solving at most once per distinct
    /// fingerprint across all concurrent callers.
    ///
    /// `solve` is invoked only when this thread is elected leader for
    /// a fingerprint nobody has stored. Its argument is the warm-start
    /// seed plan when a shape sibling is stored (and warm starts are
    /// enabled); it returns the solved plan plus whether the seed was
    /// actually used (`false` = the seed did not apply and the solve
    /// ran cold). `FnMut` because a waiter whose leader panicked
    /// retries admission and may be elected leader itself.
    pub fn resolve<F>(&self, fp: Fingerprint, mut solve: F) -> Resolved
    where
        F: FnMut(Option<&CachedPlan>) -> (CachedPlan, bool),
    {
        loop {
            // Fast path: no locks beyond one shard read guard.
            if let Some(plan) = self.store.get(&fp) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Resolved {
                    plan,
                    served: Served::Hit,
                };
            }
            match self.flights.join(fp.key(), || self.store.get(&fp)) {
                Joined::Ready(plan) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Resolved {
                        plan,
                        served: Served::Hit,
                    };
                }
                Joined::Wait(flight) => {
                    if let Some(plan) = flight.wait() {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Resolved {
                            plan,
                            served: Served::Coalesced,
                        };
                    }
                    // Leader died without publishing; retry from the
                    // top (this thread may lead the next flight).
                    continue;
                }
                Joined::Lead(lead) => {
                    // Read through the disk tier before solving: an
                    // entry an earlier process persisted is a hit.
                    if let Some(plan) = self.disk.as_ref().and_then(|d| d.load(&fp)) {
                        let plan = Arc::new(plan);
                        self.store_plan(fp, Arc::clone(&plan));
                        lead.publish(Arc::clone(&plan));
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Resolved {
                            plan,
                            served: Served::Hit,
                        };
                    }
                    let seed = if self.config.warm_start {
                        self.warm_seed(&fp)
                    } else {
                        None
                    };
                    let (solved, warmed) = solve(seed.as_deref());
                    let plan = Arc::new(solved);
                    // Store BEFORE publishing/retiring the flight —
                    // the exactly-once guarantee depends on the store
                    // being authoritative the instant the flight ends.
                    self.put(fp, Arc::clone(&plan));
                    lead.publish(Arc::clone(&plan));
                    let served = if warmed && seed.is_some() {
                        self.warm.fetch_add(1, Ordering::Relaxed);
                        Served::Warm
                    } else {
                        self.cold.fetch_add(1, Ordering::Relaxed);
                        Served::Cold
                    };
                    return Resolved { plan, served };
                }
            }
        }
    }

    /// Re-solves a served plan that `valid` rejects. A hit or coalesced
    /// plan was solved by another requester or read from disk (a
    /// hand-edited entry, say); if it does not check out against the
    /// requester's topology, `solve` solves cold, the result replaces
    /// the stored entry and the outcome becomes [`Served::Cold`]. Plans
    /// the requester solved itself pass through unchecked.
    pub fn revalidate(
        &self,
        fp: Fingerprint,
        resolved: Resolved,
        valid: impl FnOnce(&CachedPlan) -> bool,
        solve: impl FnOnce() -> CachedPlan,
    ) -> Resolved {
        if matches!(resolved.served, Served::Warm | Served::Cold) || valid(&resolved.plan) {
            return resolved;
        }
        let plan = Arc::new(solve());
        self.put(fp, Arc::clone(&plan));
        Resolved {
            plan,
            served: Served::Cold,
        }
    }

    /// The warm seed for `fp`: the latest stored shape sibling, else
    /// one read from the disk tier (and kept in memory from then on).
    fn warm_seed(&self, fp: &Fingerprint) -> Option<Arc<CachedPlan>> {
        if let Some(plan) = self.store.warm_candidate(fp) {
            return Some(plan);
        }
        let (sibling, plan) = self.disk.as_ref()?.load_by_shape(fp.shape)?;
        let plan = Arc::new(plan);
        self.store_plan(sibling, Arc::clone(&plan));
        Some(plan)
    }

    /// Stores a plan in memory and writes it through to the disk tier.
    fn put(&self, fp: Fingerprint, plan: Arc<CachedPlan>) {
        if let Some(disk) = &self.disk {
            disk.store(&fp, &plan);
        }
        self.store_plan(fp, plan);
    }

    /// Stores a plan in memory only, counting what that evicted or
    /// whether the plan alone exceeds its shard's budget.
    fn store_plan(&self, fp: Fingerprint, plan: Arc<CachedPlan>) {
        let outcome = self.store.insert(fp, plan);
        self.evictions.fetch_add(outcome.evicted, Ordering::Relaxed);
        if !outcome.stored {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Effectiveness counters plus current store occupancy.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            warm: self.warm.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            entries: self.store.len() as u64,
            bytes: self.store.bytes() as u64,
            io_errors: self.disk.as_ref().map_or(0, DiskTier::io_errors),
        }
    }

    /// Estimated bytes currently stored (always ≤ the byte budget).
    pub fn bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Exports the effectiveness counters to `telemetry` as
    /// `planserve.*`.
    pub fn export_counters(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        let stats = self.stats();
        telemetry.set_counter("planserve.hits", stats.hits as f64);
        telemetry.set_counter("planserve.coalesced", stats.coalesced as f64);
        telemetry.set_counter("planserve.warm_starts", stats.warm as f64);
        telemetry.set_counter("planserve.cold_solves", stats.cold as f64);
        telemetry.set_counter("planserve.evictions", stats.evictions as f64);
        telemetry.set_counter("planserve.rejected", stats.rejected as f64);
        telemetry.set_counter("planserve.entries", stats.entries as f64);
        telemetry.set_counter("planserve.bytes", stats.bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_synth::primitive::Primitive;
    use adapcc_synth::solver::PlanSeed;
    use adapcc_synth::strategy::Strategy;

    fn fp(shape: u64, profile: u64) -> Fingerprint {
        Fingerprint { shape, profile }
    }

    fn plan() -> CachedPlan {
        CachedPlan {
            strategy: Strategy {
                primitive: Primitive::AllReduce,
                subs: vec![],
            },
            seed: PlanSeed::default(),
        }
    }

    #[test]
    fn cold_then_hit() {
        let svc = PlanService::default();
        let r1 = svc.resolve(fp(1, 1), |seed| {
            assert!(seed.is_none(), "empty store has no warm seed");
            (plan(), false)
        });
        assert_eq!(r1.served, Served::Cold);
        let r2 = svc.resolve(fp(1, 1), |_| panic!("hit must not solve"));
        assert_eq!(r2.served, Served::Hit);
        assert!(Arc::ptr_eq(&r1.plan, &r2.plan));
        let stats = svc.stats();
        assert_eq!((stats.cold, stats.hits), (1, 1));
    }

    #[test]
    fn shape_sibling_offers_a_warm_seed() {
        let svc = PlanService::default();
        svc.resolve(fp(3, 1), |_| (plan(), false));
        let r = svc.resolve(fp(3, 2), |seed| {
            assert!(seed.is_some(), "same shape must offer a seed");
            (plan(), true)
        });
        assert_eq!(r.served, Served::Warm);
        assert_eq!(svc.stats().warm, 1);
    }

    #[test]
    fn warm_start_can_be_disabled() {
        let svc = PlanService::new(ServiceConfig {
            warm_start: false,
            ..ServiceConfig::default()
        });
        svc.resolve(fp(3, 1), |_| (plan(), false));
        let r = svc.resolve(fp(3, 2), |seed| {
            assert!(seed.is_none(), "warm starts disabled");
            (plan(), false)
        });
        assert_eq!(r.served, Served::Cold);
    }

    #[test]
    fn seed_that_did_not_apply_counts_cold() {
        let svc = PlanService::default();
        svc.resolve(fp(3, 1), |_| (plan(), false));
        // Seed offered, but the solver reports it did not apply.
        let r = svc.resolve(fp(3, 2), |_| (plan(), false));
        assert_eq!(r.served, Served::Cold);
        assert_eq!(svc.stats().warm, 0);
        assert_eq!(svc.stats().cold, 2);
    }

    #[test]
    fn zero_budget_stores_nothing() {
        let svc = PlanService::new(ServiceConfig {
            byte_budget: 0,
            ..ServiceConfig::one_shard()
        });
        for _ in 0..2 {
            let r = svc.resolve(fp(1, 2), |seed| {
                assert!(seed.is_none(), "nothing stored, nothing to seed from");
                (plan(), false)
            });
            assert_eq!(r.served, Served::Cold);
        }
        assert!(svc.is_empty());
        assert_eq!(svc.stats().cold, 2);
    }

    #[test]
    fn revalidation_failure_resolves_cold_and_replaces_the_entry() {
        let svc = PlanService::new(ServiceConfig::one_shard());
        svc.resolve(fp(1, 1), |_| (plan(), false));
        let hit = svc.resolve(fp(1, 1), |_| unreachable!());
        let mut fixed = plan();
        fixed.strategy.primitive = Primitive::Broadcast;
        let r = svc.revalidate(fp(1, 1), hit, |_| false, || fixed.clone());
        assert_eq!(r.served, Served::Cold);
        assert_eq!(*r.plan, fixed);
        let again = svc.resolve(fp(1, 1), |_| unreachable!());
        assert_eq!(*again.plan, fixed, "the re-solve replaced the entry");
        // A plan the requester solved itself is never re-checked.
        let own = svc.resolve(fp(2, 1), |_| (plan(), false));
        let r = svc.revalidate(fp(2, 1), own, |_| unreachable!(), || unreachable!());
        assert_eq!(r.served, Served::Cold);
    }

    #[test]
    fn stats_bill_hits_warm_starts_and_misses_once() {
        let (full, warm) = (SimDuration::from_secs(8.0), SimDuration::from_secs(1.0));
        let mut stats = PlanStats::default();
        for served in [Served::Hit, Served::Coalesced, Served::Warm, Served::Cold] {
            stats.record(served, full, warm);
        }
        assert_eq!((stats.hits, stats.warm_starts, stats.misses), (2, 1, 1));
        assert_eq!(stats.saved.as_secs(), 8.0 + 8.0 + 7.0);
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_reads_and_writes_through() {
        let dir = scratch("adapcc_planserve_disk_test");
        let disk = |cfg| PlanService::new(cfg).with_disk_tier(&dir);
        let a = disk(ServiceConfig::one_shard());
        a.resolve(fp(0xabc, 0xdef), |_| (plan(), false));
        // A fresh service on the same directory: the exact entry is a
        // hit without a solve...
        let b = disk(ServiceConfig::one_shard());
        let r = b.resolve(fp(0xabc, 0xdef), |_| panic!("disk hit must not solve"));
        assert_eq!((r.served, *r.plan == plan()), (Served::Hit, true));
        // ...and a drifted profile warm-starts from the stored sibling.
        let c = disk(ServiceConfig::one_shard());
        let r = c.resolve(fp(0xabc, 0x123), |seed| {
            assert_eq!(seed, Some(&plan()), "disk sibling seeds the solve");
            (plan(), true)
        });
        assert_eq!(r.served, Served::Warm);
        // The warm-started plan was written through as well.
        let d = disk(ServiceConfig::one_shard());
        assert_eq!(
            d.resolve(fp(0xabc, 0x123), |_| unreachable!()).served,
            Served::Hit
        );
        assert_eq!(d.stats().io_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_counted_cold_solve_that_repairs_it() {
        let dir = scratch("adapcc_planserve_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = fp(0x11, 0x22);
        std::fs::write(dir.join(format!("{}.json", f.hex())), "not json").unwrap();
        let svc = PlanService::new(ServiceConfig::one_shard()).with_disk_tier(&dir);
        assert_eq!(svc.resolve(f, |_| (plan(), false)).served, Served::Cold);
        assert_eq!(svc.stats().io_errors, 1);
        let fresh = PlanService::new(ServiceConfig::one_shard()).with_disk_tier(&dir);
        assert_eq!(fresh.resolve(f, |_| unreachable!()).served, Served::Hit);
        assert_eq!(
            fresh.stats().io_errors,
            0,
            "the cold solve wrote a clean entry"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_export_as_planserve() {
        let svc = PlanService::default();
        svc.resolve(fp(1, 1), |_| (plan(), false));
        svc.resolve(fp(1, 1), |_| unreachable!());
        let t = Telemetry::enabled();
        svc.export_counters(&t);
        assert_eq!(t.counter("planserve.cold_solves"), 1.0);
        assert_eq!(t.counter("planserve.hits"), 1.0);
        assert_eq!(t.counter("planserve.entries"), 1.0);
    }
}
