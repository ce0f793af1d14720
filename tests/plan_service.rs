//! Integration tests for the shared plan service: single-flight
//! admission under a many-thread herd (exactly one solve per distinct
//! cold fingerprint, bit-identical strategies for every waiter), the
//! byte budget holding under concurrent eviction pressure, and the
//! equivalence guarantee that a service-served strategy is
//! bit-identical to what a cold single-session synthesis produces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use adapcc::session::{AdapCC, InitOptions};
use adapcc_plancache::{fingerprint, CachedPlan, Fingerprint, FingerprintInputs};
use adapcc_planserve::{approx_plan_bytes, PlanService, Served, ServiceConfig};
use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::solver::{SynthConfig, SynthRequest, Synthesizer};
use adapcc_synth::strategy::Strategy;
use adapcc_synth::Primitive;
use adapcc_topo::detect::Detector;

/// Shared slow-path fixtures, built once.
struct Env {
    topo: adapcc_topo::logical::LogicalTopology,
    profile: adapcc_profile::profiler::LinkProfile,
    ranks: Vec<Rank>,
}

fn env() -> &'static Env {
    use std::sync::OnceLock;
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let cluster = Cluster::homogeneous_a100(2);
        let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
        let profile = Profiler::new(&cluster, &topo, 1).run().links;
        let ranks = (0..cluster.gpu_count()).map(Rank).collect();
        Env {
            topo,
            profile,
            ranks,
        }
    })
}

fn synth(env: &Env) -> Synthesizer<'_> {
    Synthesizer::new(&env.topo, &env.profile).with_config(SynthConfig {
        anneal_iters: 24,
        ..Default::default()
    })
}

/// Ten distinct workloads: tensor size classes 1..=512 MiB by powers
/// of two, each a distinct shape half, so every key is a cold solve
/// with no cross-key warm starts muddying the solve count.
fn workloads(env: &Env) -> Vec<(Fingerprint, SynthRequest)> {
    (0..10u64)
        .map(|i| {
            let req = SynthRequest::new(
                Primitive::AllReduce,
                ByteSize::from_mib(1 << i),
                2,
                env.ranks.clone(),
            );
            let fp = fingerprint(&FingerprintInputs {
                topo: &env.topo,
                profile: &env.profile,
                participants: &env.ranks,
                relays: &[],
                primitive: req.primitive,
                parallelism: req.parallelism,
                tensor: req.tensor,
                root: req.root,
                quantization: 0.15,
                hierarchical: false,
                concurrency: 0,
            });
            (fp, req)
        })
        .collect()
}

/// The headline admission guarantee: 8 threads x 120 requests hammering
/// 10 distinct fingerprints cost exactly one solve per fingerprint, and
/// every requester — leader, store hit, or coalesced waiter — receives
/// a strategy bit-identical to the cold synthesis of that key.
#[test]
fn herd_pays_exactly_one_solve_per_distinct_key() {
    const THREADS: usize = 8;
    const REQUESTS: usize = 120;
    let env = env();
    let keys = workloads(env);
    let expected: Vec<Strategy> = keys
        .iter()
        .map(|(_, req)| synth(env).synthesize(req))
        .collect();
    let solves: Vec<AtomicU64> = (0..keys.len()).map(|_| AtomicU64::new(0)).collect();
    let service = PlanService::new(ServiceConfig::default());
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, keys, expected, solves, barrier) =
                (&service, &keys, &expected, &solves, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..REQUESTS {
                    // Every thread walks the key set in a different
                    // order, so each fingerprint sees concurrent first
                    // arrivals from several threads.
                    let k = (i * 7 + t * 3) % keys.len();
                    let (fp, req) = &keys[k];
                    let resolved = service.resolve(*fp, |_seed| {
                        solves[k].fetch_add(1, Ordering::SeqCst);
                        let (strategy, seed) = synth(env).synthesize_with_seed(req);
                        (CachedPlan { strategy, seed }, false)
                    });
                    assert_eq!(
                        resolved.plan.strategy, expected[k],
                        "served strategy must be bit-identical to cold synthesis"
                    );
                    assert!(
                        service.bytes() <= service.config().byte_budget,
                        "byte budget exceeded mid-run"
                    );
                }
            });
        }
    });

    for (k, count) in solves.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "key {k} must be solved exactly once"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.cold, keys.len() as u64, "one cold solve per key");
    assert_eq!(stats.warm, 0, "distinct shapes offer no warm seeds");
    assert_eq!(
        stats.hits + stats.coalesced + stats.cold,
        (THREADS * REQUESTS) as u64,
        "every request is accounted for exactly once"
    );
}

/// Under a budget that holds only a few entries, concurrent inserts
/// evict LRU-first but the store never exceeds the budget at any
/// observation point, and evicted keys are transparently re-solved.
#[test]
fn byte_budget_holds_under_concurrent_eviction_pressure() {
    const THREADS: usize = 8;
    const REQUESTS: usize = 100;
    let env = env();
    let keys = workloads(env);
    let plans: Vec<CachedPlan> = keys
        .iter()
        .map(|(_, req)| {
            let (strategy, seed) = synth(env).synthesize_with_seed(req);
            CachedPlan { strategy, seed }
        })
        .collect();
    let budget = plans.iter().map(approx_plan_bytes).max().unwrap() * 3;
    // One shard makes the global budget the exact per-shard bound, so
    // the assertion below is strict rather than probabilistic.
    let service = PlanService::new(ServiceConfig {
        shards: 1,
        byte_budget: budget,
        warm_start: false,
    });
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, keys, plans, barrier) = (&service, &keys, &plans, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..REQUESTS {
                    let k = (i * 3 + t) % keys.len();
                    let resolved = service.resolve(keys[k].0, |_seed| (plans[k].clone(), false));
                    assert_eq!(resolved.plan.strategy, plans[k].strategy);
                    assert!(
                        service.bytes() <= budget,
                        "store bytes {} exceed budget {budget}",
                        service.bytes()
                    );
                }
            });
        }
    });

    let stats = service.stats();
    assert!(
        stats.evictions > 0,
        "ten keys against a three-entry budget must evict: {stats:?}"
    );
    assert!(service.bytes() <= budget);
    assert!(service.len() as u64 == stats.entries);
}

/// A solve that panics fails its own caller only. Threads resolving
/// other keys on the same shard all the while still get their plans,
/// and a later caller of the crashed key leads a fresh solve.
#[test]
fn a_panicking_solve_spares_the_other_tenants_of_its_shard() {
    let env = env();
    let keys = workloads(env);
    let plans: Vec<CachedPlan> = keys[..4]
        .iter()
        .map(|(_, req)| {
            let (strategy, seed) = synth(env).synthesize_with_seed(req);
            CachedPlan { strategy, seed }
        })
        .collect();
    // One shard: every key lives behind the crashed solve's stripe.
    let service = PlanService::new(ServiceConfig {
        shards: 1,
        byte_budget: 1 << 24,
        warm_start: false,
    });
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        let (service, keys, plans, barrier) = (&service, &keys, &plans, &barrier);
        scope.spawn(move || {
            barrier.wait();
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                service.resolve(keys[0].0, |_seed| panic!("solver crashed"))
            }));
            assert!(crashed.is_err(), "the crash reaches its own caller");
        });
        for t in 0..3 {
            scope.spawn(move || {
                barrier.wait();
                for i in 0..60 {
                    let k = 1 + (i + t) % 3;
                    let resolved = service.resolve(keys[k].0, |_seed| (plans[k].clone(), false));
                    assert_eq!(resolved.plan.strategy, plans[k].strategy);
                }
            });
        }
    });
    let resolved = service.resolve(keys[0].0, |_seed| (plans[0].clone(), false));
    assert_eq!(resolved.served, Served::Cold, "the crashed key solves anew");
    assert_eq!(resolved.plan.strategy, plans[0].strategy);
    assert_eq!(service.len(), 4);
}

/// Two sessions sharing one service: the second session's first
/// strategy is served from the store (no second solve) and is
/// bit-identical to what the first session synthesized.
#[test]
fn second_session_is_served_the_first_sessions_plan() {
    let cluster = Cluster::homogeneous_a100(2);
    let service = Arc::new(PlanService::default());
    let options = || InitOptions {
        synth: SynthConfig {
            anneal_iters: 24,
            ..Default::default()
        },
        plan_service: Some(Arc::clone(&service)),
        ..Default::default()
    };
    let tensor = ByteSize::from_mib(32);
    let mut a = AdapCC::init(&cluster, options());
    a.setup();
    let first = a.strategy_for(Primitive::AllReduce, tensor).clone();
    assert_eq!(service.stats().cold, 1, "session A pays the cold solve");
    let mut b = AdapCC::init(&cluster, options());
    b.setup();
    let second = b.strategy_for(Primitive::AllReduce, tensor).clone();
    let stats = service.stats();
    assert_eq!(stats.cold, 1, "session B must not re-solve");
    assert!(
        stats.hits >= 1,
        "session B is an exact store hit: {stats:?}"
    );
    assert_eq!(second, first, "shared plan must be bit-identical");
}

/// `Served::Coalesced` is reachable from the public API: two threads
/// racing the same cold key through one service see one leader and one
/// waiter (or, if the leader already published, a store hit — never two
/// cold solves).
#[test]
fn racing_requesters_never_both_solve() {
    let env = env();
    let (fp, req) = workloads(env).remove(0);
    let service = PlanService::new(ServiceConfig::default());
    let solves = AtomicU64::new(0);
    let barrier = Barrier::new(2);
    let outcomes: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (service, req, solves, barrier) = (&service, &req, &solves, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    service
                        .resolve(fp, |_seed| {
                            solves.fetch_add(1, Ordering::SeqCst);
                            let (strategy, seed) = synth(env).synthesize_with_seed(req);
                            (CachedPlan { strategy, seed }, false)
                        })
                        .served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one leader");
    assert_eq!(
        outcomes.iter().filter(|s| **s == Served::Cold).count(),
        1,
        "one cold, the other hit or coalesced: {outcomes:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The correctness contract of the whole subsystem: routing a
    /// session's synthesis through the shared service changes *where*
    /// the strategy comes from, never *what* it is — the served
    /// strategy is bit-identical to a cold single-session synthesis
    /// with the same seed.
    #[test]
    fn service_served_strategy_equals_cold_synthesis(
        mib in 4u64..128,
        seed in 0u64..20,
    ) {
        let cluster = Cluster::homogeneous_a100(2);
        let options = |plan_service| InitOptions {
            seed,
            synth: SynthConfig { anneal_iters: 24, ..Default::default() },
            plan_service,
            ..Default::default()
        };
        let tensor = ByteSize::from_mib(mib);
        let service = Arc::new(PlanService::default());
        let mut with = AdapCC::init(&cluster, options(Some(Arc::clone(&service))));
        with.setup();
        let served = with.strategy_for(Primitive::AllReduce, tensor).clone();
        let mut without = AdapCC::init(&cluster, options(None));
        without.setup();
        let cold = without.strategy_for(Primitive::AllReduce, tensor).clone();
        prop_assert_eq!(served, cold, "service must be invisible to the result");
        prop_assert!(service.stats().cold >= 1, "the service did the solving");
    }
}
