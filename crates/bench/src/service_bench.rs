//! Many-job plan-service benchmark: M concurrent jobs on K threads
//! resolving synthesis requests against one shared
//! [`PlanService`], versus the same workload on each session's own
//! one-shard plan service.
//!
//! The synthetic workload models a multi-tenant cluster: jobs cycle
//! through a mixed fleet of server shapes, each job issues one
//! `strategy_for_root` request per tensor size, and a configurable
//! fraction of jobs are *repeats* (same fleet shape and canonical
//! profile — the fingerprints another job already paid to solve) while
//! the rest are *unique* (same shapes but per-job profiler noise, so
//! their fingerprints share the structural half and warm-start from
//! repeat entries). A thundering-herd prologue has every thread issue
//! one identical cold request behind a barrier, so single-flight
//! coalescing is exercised deterministically.
//!
//! Both passes time only the request phase (sessions are initialized
//! before the barrier); the headline metrics are plans per second,
//! the hit/warm/cold/coalesced mix, and p50/p99 request latency.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use adapcc::{AdapCC, InitOptions};
use adapcc_planserve::{PlanService, ServiceConfig};
use adapcc_simnet::cluster::{Cluster, ClusterBuilder};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::Primitive;

use crate::harness::percentile;
use crate::record::Row;

/// The synthetic many-job workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceWorkload {
    /// Concurrent jobs (`M`); each is one AdapCC session.
    pub jobs: usize,
    /// Worker threads (`K`) the jobs are spread over round-robin.
    pub threads: usize,
    /// Fraction of jobs whose profile is the canonical one for their
    /// fleet shape — their requests repeat fingerprints across jobs.
    /// The rest carry per-job profiler noise (warm-startable shape
    /// siblings).
    pub repeat_ratio: f64,
    /// Distinct fleet shapes jobs cycle through (alternating A100/V100
    /// fleets of growing size).
    pub shapes: usize,
    /// Per-job request sizes; each is one `strategy_for_root` call.
    pub tensors_mib: Vec<u64>,
    /// Base seed for canonical profiles (unique jobs offset from it).
    pub seed: u64,
    /// Service store stripes.
    pub shards: usize,
    /// Service byte budget over all shards.
    pub byte_budget: usize,
}

impl Default for ServiceWorkload {
    fn default() -> Self {
        ServiceWorkload {
            jobs: 32,
            threads: 8,
            repeat_ratio: 0.75,
            shapes: 2,
            tensors_mib: vec![4, 8, 16, 32],
            seed: 1,
            shards: 16,
            byte_budget: 64 << 20,
        }
    }
}

/// One pass's outcome (shared service, or the baseline of one-shard
/// services, one per session).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModeReport {
    /// `strategy_for_root` calls issued (herd prologue included).
    pub requests: u64,
    /// Request-phase wall milliseconds (max over threads; sessions
    /// initialize before the barrier and are never timed).
    pub wall_ms: f64,
    /// Requests per wall-clock second — the headline metric.
    pub plans_per_sec: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Exact store/cache hits.
    pub hits: u64,
    /// Warm-started solves.
    pub warm_starts: u64,
    /// Cold solves.
    pub cold_solves: u64,
    /// Requests coalesced onto another thread's in-flight solve
    /// (always 0 for the baseline: a session's own service sees only
    /// its own requests).
    pub coalesced: u64,
}

/// Service-versus-baseline comparison over one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceBenchReport {
    /// The shared-service pass.
    pub service: ModeReport,
    /// The identical workload with each session on its own one-shard
    /// service.
    pub baseline: ModeReport,
    /// Entries left in the service store.
    pub entries: u64,
    /// Estimated bytes left in the service store.
    pub bytes: u64,
    /// Entries the service evicted to hold its byte budget.
    pub evictions: u64,
    /// `service.plans_per_sec / baseline.plans_per_sec`.
    pub speedup: f64,
}

/// One job: which fleet it runs on and the profiling seed that
/// determines whether its fingerprints repeat or drift.
#[derive(Debug, Clone, Copy)]
struct Job {
    shape: usize,
    seed: u64,
}

/// The fleet shape cycle: alternating A100/V100 server fleets that
/// grow every other index, so a 2-shape workload is heterogeneous and
/// larger values stay distinct.
fn shape_cluster(i: usize) -> Cluster {
    let mut b = ClusterBuilder::new();
    let spec = if i.is_multiple_of(2) {
        InstanceSpec::a100_server()
    } else {
        InstanceSpec::v100_server()
    };
    b.add_instances(spec, 2 + i / 2);
    b.build()
}

fn jobs_for(w: &ServiceWorkload, shapes: usize) -> Vec<Job> {
    let uniques = ((1.0 - w.repeat_ratio).clamp(0.0, 1.0) * w.jobs as f64).round() as usize;
    (0..w.jobs)
        .map(|j| {
            let shape = j % shapes;
            // Bresenham spread: unique jobs are interleaved evenly so
            // every thread sees a mix of repeats and uniques.
            let unique = (j + 1) * uniques / w.jobs.max(1) > j * uniques / w.jobs.max(1);
            Job {
                shape,
                seed: if unique {
                    w.seed + 1000 + j as u64
                } else {
                    w.seed + shape as u64
                },
            }
        })
        .collect()
}

fn session_options(seed: u64, service: Option<Arc<PlanService>>) -> InitOptions {
    InitOptions {
        seed,
        // A hair-thin quantization bucket: any cross-job profiler
        // noise flips the profile half of the fingerprint, so unique
        // jobs exercise the cross-job warm-start path instead of
        // accidentally sharing exact fingerprints with repeats.
        resynth_threshold: 1e-3,
        plan_service: service,
        ..InitOptions::default()
    }
}

/// Runs the workload once. `service` = `None` is the baseline: every
/// session resolves through its own one-shard service and no solve is ever
/// shared across jobs.
fn run_mode(w: &ServiceWorkload, service: Option<&Arc<PlanService>>) -> ModeReport {
    let shapes: Vec<Cluster> = (0..w.shapes.max(1)).map(shape_cluster).collect();
    let jobs = jobs_for(w, shapes.len());
    let threads = w.threads.max(1);
    let barrier = Barrier::new(threads);
    // The herd fingerprint: same canonical problem for every thread,
    // and a tensor class no main-phase request uses.
    let herd_tensor = ByteSize::from_mib(2);
    let latencies = Mutex::new(Vec::new());
    let walls = Mutex::new(Vec::new());
    let cache_stats = Mutex::new(adapcc_planserve::PlanStats::default());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            let jobs = &jobs;
            let shapes = &shapes;
            let latencies = &latencies;
            let walls = &walls;
            let cache_stats = &cache_stats;
            let service = service.cloned();
            scope.spawn(move || {
                // Pre-init every session this thread owns (detection +
                // profiling stay outside the timed request phase).
                let mut herd = AdapCC::init(&shapes[0], session_options(w.seed, service.clone()));
                let mut sessions: Vec<AdapCC<'_>> = jobs
                    .iter()
                    .skip(t)
                    .step_by(threads)
                    .map(|job| {
                        AdapCC::init(
                            &shapes[job.shape],
                            session_options(job.seed, service.clone()),
                        )
                    })
                    .collect();
                let mut lat = Vec::new();
                barrier.wait();
                let start = Instant::now();
                // Thundering herd: every thread asks for the same cold
                // fingerprint at once; exactly one solve happens.
                let t0 = Instant::now();
                let _ = herd.strategy_for_root(Primitive::AllReduce, herd_tensor, None);
                lat.push(t0.elapsed().as_secs_f64() * 1e6);
                for cc in &mut sessions {
                    for mib in &w.tensors_mib {
                        let t0 = Instant::now();
                        let _ = cc.strategy_for_root(
                            Primitive::AllReduce,
                            ByteSize::from_mib(*mib),
                            None,
                        );
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
                let wall = start.elapsed().as_secs_f64() * 1e3;
                walls.lock().expect("walls lock").push(wall);
                latencies.lock().expect("latency lock").extend(lat);
                let mut agg = cache_stats.lock().expect("stats lock");
                for cc in sessions.iter().chain(std::iter::once(&herd)) {
                    let s = cc.plan_cache_stats();
                    agg.hits += s.hits;
                    agg.misses += s.misses;
                    agg.warm_starts += s.warm_starts;
                }
            });
        }
    });
    let lat = latencies.into_inner().expect("latency lock");
    let wall_ms = walls
        .into_inner()
        .expect("walls lock")
        .into_iter()
        .fold(0.0_f64, f64::max);
    let requests = lat.len() as u64;
    let (hits, warm_starts, cold_solves, coalesced) = match service {
        Some(svc) => {
            let s = svc.stats();
            (s.hits, s.warm, s.cold, s.coalesced)
        }
        None => {
            let s = cache_stats.into_inner().expect("stats lock");
            // Each session's own service sees every request exactly
            // once, so every miss is a cold solve and nothing can
            // coalesce.
            (s.hits, s.warm_starts, s.misses, 0)
        }
    };
    ModeReport {
        requests,
        wall_ms,
        plans_per_sec: requests as f64 / (wall_ms / 1e3).max(1e-9),
        p50_us: percentile(&lat, 50.0),
        p99_us: percentile(&lat, 99.0),
        hits,
        warm_starts,
        cold_solves,
        coalesced,
    }
}

impl ServiceBenchReport {
    /// The `BENCH_service.json` row of this comparison over workload
    /// `w`: the service pass, then the baseline pass, then the speedup.
    pub fn row(&self, w: &ServiceWorkload) -> Row {
        let (s, b) = (&self.service, &self.baseline);
        Row::new()
            .int("jobs", w.jobs)
            .int("threads", w.threads)
            .float("repeat_ratio", w.repeat_ratio, 2)
            .int("shapes", w.shapes)
            .int("requests", s.requests)
            .int("hits", s.hits)
            .int("warm_starts", s.warm_starts)
            .int("cold_solves", s.cold_solves)
            .int("coalesced", s.coalesced)
            .int("entries", self.entries)
            .int("bytes", self.bytes)
            .int("evictions", self.evictions)
            .float("plans_per_sec", s.plans_per_sec, 1)
            .float("p50_us", s.p50_us, 1)
            .float("p99_us", s.p99_us, 1)
            .float("wall_ms", s.wall_ms, 3)
            .float("baseline_plans_per_sec", b.plans_per_sec, 1)
            .float("baseline_p50_us", b.p50_us, 1)
            .float("baseline_p99_us", b.p99_us, 1)
            .float("baseline_wall_ms", b.wall_ms, 3)
            .float("speedup", self.speedup, 2)
    }
}

/// Runs the workload twice — shared service, then the baseline of
/// per-session one-shard services — and reports both plus the
/// plans/sec speedup.
pub fn run_service_bench(w: &ServiceWorkload) -> ServiceBenchReport {
    let service = Arc::new(PlanService::new(ServiceConfig {
        shards: w.shards.max(1),
        byte_budget: w.byte_budget,
        warm_start: true,
    }));
    let with_service = run_mode(w, Some(&service));
    let stats = service.stats();
    let baseline = run_mode(w, None);
    ServiceBenchReport {
        service: with_service,
        baseline,
        entries: stats.entries,
        bytes: stats.bytes,
        evictions: stats.evictions,
        speedup: with_service.plans_per_sec / baseline.plans_per_sec.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_shares_solves_and_coalesces() {
        let w = ServiceWorkload {
            jobs: 6,
            threads: 3,
            repeat_ratio: 1.0,
            shapes: 1,
            tensors_mib: vec![4, 8],
            ..ServiceWorkload::default()
        };
        let r = run_service_bench(&w);
        // 6 jobs x 2 tensors + 3 herd requests.
        assert_eq!(r.service.requests, 15);
        assert_eq!(r.baseline.requests, 15);
        // All jobs repeat the canonical profile: 3 distinct
        // fingerprints total (2 main + 1 herd), each solved exactly
        // once; everything else is a hit or a coalesced wait.
        assert_eq!(r.service.cold_solves, 3, "{:?}", r.service);
        assert_eq!(
            r.service.hits + r.service.coalesced + r.service.warm_starts,
            12,
            "{:?}",
            r.service
        );
        // The baseline solves per session: all 15 requests cold.
        assert_eq!(r.baseline.cold_solves, 15, "{:?}", r.baseline);
        assert_eq!(r.baseline.coalesced, 0);
        assert!(r.speedup > 1.0, "sharing must not be slower: {r:?}");
        assert_eq!(r.entries, 3);
        assert!(r.bytes > 0);
    }

    #[test]
    fn unique_jobs_warm_start_from_repeats() {
        let w = ServiceWorkload {
            jobs: 4,
            threads: 1, // sequential: repeats land before uniques
            repeat_ratio: 0.5,
            shapes: 1,
            tensors_mib: vec![4],
            ..ServiceWorkload::default()
        };
        let r = run_service_bench(&w);
        assert!(
            r.service.warm_starts >= 1,
            "drifted-profile jobs must warm-start: {:?}",
            r.service
        );
    }
}
