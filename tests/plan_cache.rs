//! Integration tests for plan caching through the plan service: exact
//! hits replay cold synthesis verbatim, worker exclusion structurally
//! invalidates stored plans, the disk tier round-trips across
//! processes and survives corrupt entries, every resolve is billed
//! once, a session's own one-shard service behaves exactly like an
//! explicit one, and warm-started re-synthesis meets the Fig. 19(c)
//! cost bar.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use adapcc::session::{AdapCC, InitOptions};
use adapcc_plancache::{fingerprint, json, CachedPlan, Fingerprint, FingerprintInputs};
use adapcc_planserve::{PlanService, Served, ServiceConfig};
use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::{Cluster, InstanceId, Rank};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::cost::CostModel;
use adapcc_synth::solver::{SynthConfig, SynthRequest, Synthesizer};
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

fn fp_for(env: &Env, req: &SynthRequest, participants: &[Rank]) -> Fingerprint {
    fingerprint(&FingerprintInputs {
        topo: &env.topo,
        profile: &env.profile,
        participants,
        relays: &[],
        primitive: req.primitive,
        parallelism: req.parallelism,
        tensor: req.tensor,
        root: req.root,
        quantization: 0.15,
        hierarchical: false, // 8-GPU fixtures stay below the auto tier
        concurrency: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An exact cache hit yields a strategy structurally identical to a
    /// cold synthesis of the same fingerprint.
    #[test]
    fn exact_hit_replays_cold_synthesis(
        mib in 8u64..256,
        m in 1usize..4,
        seed in 0u64..100,
    ) {
        let env = env();
        let mut req = SynthRequest::new(
            Primitive::AllReduce,
            ByteSize::from_mib(mib),
            m,
            env.ranks.clone(),
        );
        req.seed = seed;
        let synth = || {
            Synthesizer::new(&env.topo, &env.profile)
                .with_config(SynthConfig { anneal_iters: 24, ..Default::default() })
        };
        let (cold, plan_seed) = synth().synthesize_with_seed(&req);
        let fp = fp_for(env, &req, &env.ranks);
        let service = PlanService::new(ServiceConfig::one_shard());
        service.resolve(fp, |_| (CachedPlan { strategy: cold.clone(), seed: plan_seed.clone() }, false));
        let hit = service.resolve(fp, |_| panic!("an exact hit must not solve"));
        prop_assert_eq!(hit.served, Served::Hit);
        prop_assert_eq!(&hit.plan.strategy, &cold);
        // Cold synthesis of the same fingerprint is deterministic, so
        // the cached strategy also equals a from-scratch re-solve.
        let resolved = synth().synthesize(&req);
        prop_assert_eq!(resolved, cold);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The exclude -> rejoin round-trip: while the worker set differs
    /// the cache must not serve the pre-exclusion plan (the shape half
    /// of the fingerprint changed); once the fleet returns to the
    /// previously-seen set, the lookup is an exact hit that returns a
    /// bit-identical strategy without touching the solver.
    #[test]
    fn exclude_rejoin_roundtrip_exact_hits(
        mib in 4u64..64,
        victim in 0usize..8,
        seed in 0u64..50,
    ) {
        let cluster = Cluster::homogeneous_a100(2);
        let mut cc = AdapCC::init(
            &cluster,
            InitOptions {
                seed,
                synth: SynthConfig { anneal_iters: 24, ..Default::default() },
                ..Default::default()
            },
        );
        cc.setup();
        let tensor = ByteSize::from_mib(mib);
        let before = cc.strategy_for(Primitive::AllReduce, tensor).clone();
        let hits_baseline = cc.plan_cache_stats().hits;
        cc.exclude_workers(&[Rank(victim)]);
        let shrunk = cc.strategy_for(Primitive::AllReduce, tensor).clone();
        prop_assert!(
            !shrunk.participants().contains(&Rank(victim)),
            "post-exclusion strategy routes only over survivors"
        );
        prop_assert_eq!(
            cc.plan_cache_stats().hits, hits_baseline,
            "no exact hit while the worker set differs"
        );
        // Rejoin through the elastic scale-out path.
        cc.add_workers(&[Rank(victim)]).expect("rejoin is valid");
        let hits_prior = cc.plan_cache_stats().hits;
        let again = cc.strategy_for(Primitive::AllReduce, tensor).clone();
        prop_assert_eq!(
            cc.plan_cache_stats().hits, hits_prior + 1,
            "rejoin to a previously-seen worker set must exact-hit"
        );
        prop_assert_eq!(again, before, "served strategy must be bit-identical");
    }
}

/// Removing a participant flips the shape half of the fingerprint, so
/// a pre-exclusion entry can never exact-hit or warm-start a
/// post-exclusion lookup.
#[test]
fn exclusion_changes_the_shape_fingerprint() {
    let env = env();
    let req = SynthRequest::new(
        Primitive::AllReduce,
        ByteSize::from_mib(64),
        2,
        env.ranks.clone(),
    );
    let before = fp_for(env, &req, &env.ranks);
    let survivors: Vec<Rank> = env
        .ranks
        .iter()
        .copied()
        .filter(|r| *r != Rank(3))
        .collect();
    let after = fp_for(env, &req, &survivors);
    assert_ne!(
        before.shape, after.shape,
        "participant loss must flip the shape hash"
    );
    assert_eq!(before.profile, after.profile, "links did not drift");
    let service = PlanService::new(ServiceConfig::one_shard());
    let (strategy, seed) = Synthesizer::new(&env.topo, &env.profile)
        .with_config(SynthConfig {
            anneal_iters: 24,
            ..Default::default()
        })
        .synthesize_with_seed(&req);
    service.resolve(before, |_| {
        let plan = CachedPlan {
            strategy: strategy.clone(),
            seed: seed.clone(),
        };
        (plan, false)
    });
    let resolved = service.resolve(after, |seed| {
        assert!(seed.is_none(), "pre-exclusion plan must not seed the solve");
        let (strategy, seed) = Synthesizer::new(&env.topo, &env.profile).synthesize_with_seed(&req);
        (CachedPlan { strategy, seed }, false)
    });
    assert_eq!(
        resolved.served,
        Served::Cold,
        "pre-exclusion plan must not be served"
    );
}

/// A live session never serves a pre-exclusion plan after a worker
/// dies: the re-synthesized strategy routes only over survivors and the
/// cache records no exact hit for the shrunken fleet.
#[test]
fn session_never_serves_a_pre_exclusion_plan() {
    let cluster = Cluster::homogeneous_a100(3);
    let mut cc = AdapCC::init(
        &cluster,
        InitOptions {
            synth: SynthConfig {
                anneal_iters: 32,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    cc.setup();
    let tensor = ByteSize::from_mib(16);
    let before = cc.strategy_for(Primitive::AllReduce, tensor).clone();
    assert!(before.participants().contains(&Rank(5)));
    cc.exclude_workers(&[Rank(5)]);
    let after = cc.strategy_for(Primitive::AllReduce, tensor).clone();
    assert!(
        !after.participants().contains(&Rank(5)),
        "post-exclusion strategy must route only over survivors"
    );
    assert_ne!(before, after);
    let stats = cc.plan_cache_stats();
    assert_eq!(
        stats.hits, 0,
        "the shrunken fleet has a new shape: no exact hit, {stats:?}"
    );
    assert!(
        stats.misses >= 2,
        "init and post-exclusion solves are both cold, {stats:?}"
    );
}

/// The Fig. 19(c) warm-cache bar: over an unchanged fleet with a
/// drifted profile, the warm-started re-synthesis bills at least 5x
/// less modeled solver time than the cache-disabled cold solve while
/// arriving at a strategy of identical evaluated cost.
#[test]
fn warm_start_is_5x_cheaper_with_identical_evaluated_cost() {
    let tensor = ByteSize::from_mib(128);
    let run = |plan_service: Option<Arc<PlanService>>| {
        let cluster = Cluster::homogeneous_a100(2);
        let mut cc = AdapCC::init(
            &cluster,
            InitOptions {
                synth: SynthConfig {
                    anneal_iters: 120,
                    ..Default::default()
                },
                plan_service,
                ..Default::default()
            },
        );
        cc.setup();
        let _ = cc.strategy_for(Primitive::AllReduce, tensor);
        cc.set_fabric_factors(vec![(cluster.nic_egress_link(InstanceId(0)), 0.5)]);
        let recon = cc.reprofile();
        assert!(recon.changed, "degraded NIC must trigger re-synthesis");
        let strategy = cc.strategy_for(Primitive::AllReduce, tensor).clone();
        let cost = CostModel::new(cc.topology(), cc.link_profile())
            .evaluate(&strategy, tensor)
            .completion
            .as_secs();
        (recon.solving.as_secs(), cost, cc.plan_cache_stats())
    };
    // The cold baseline: a service that stores nothing.
    let cold = PlanService::new(ServiceConfig {
        byte_budget: 0,
        ..ServiceConfig::one_shard()
    });
    let (cold_solving, cold_cost, _) = run(Some(Arc::new(cold)));
    let (warm_solving, warm_cost, stats) = run(None);
    assert!(
        stats.warm_starts > 0,
        "drifted profile over unchanged fleet warm-starts: {stats:?}"
    );
    assert!(
        cold_solving >= 5.0 * warm_solving,
        "warm solve must be >=5x cheaper: cold {cold_solving}s vs warm {warm_solving}s"
    );
    // "Identical" up to the chunk sweep's final polish: the warm start
    // re-runs the sweep against the drifted profile, so it may land a
    // hair under the cold solve but must never be worse.
    assert!(
        warm_cost <= cold_cost * (1.0 + 1e-9),
        "warm re-synthesis must not be worse than cold: {warm_cost} vs {cold_cost}"
    );
    assert!(
        (warm_cost - cold_cost).abs() <= 1e-3 * cold_cost,
        "warm and cold re-syntheses must agree on evaluated cost: {warm_cost} vs {cold_cost}"
    );
}

fn quick_options(plan_service: Option<Arc<PlanService>>) -> InitOptions {
    InitOptions {
        synth: SynthConfig {
            anneal_iters: 24,
            ..Default::default()
        },
        plan_service,
        ..Default::default()
    }
}

fn disk_service(dir: &Path) -> Arc<PlanService> {
    Arc::new(PlanService::new(ServiceConfig::one_shard()).with_disk_tier(dir))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The only entry file in a plan directory.
fn sole_entry(dir: &Path) -> PathBuf {
    let entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one plan persisted: {entries:?}");
    entries.into_iter().next().unwrap()
}

/// The disk tier round-trips across processes: a session on a fresh
/// service over the same directory is served the first session's plan
/// as an exact hit, bit-identical, and an undecodable entry is a
/// counted I/O error that the cold re-solve repairs.
#[test]
fn disk_tier_roundtrips_and_repairs_corrupt_entries() {
    let dir = scratch_dir("adapcc_plan_cache_disk_roundtrip");
    let cluster = Cluster::homogeneous_a100(2);
    let tensor = ByteSize::from_mib(32);
    let run = || {
        let mut cc = AdapCC::init(&cluster, quick_options(Some(disk_service(&dir))));
        let strategy = cc.strategy_for(Primitive::AllReduce, tensor).clone();
        (strategy, cc.plan_cache_stats(), cc.plan_service().stats())
    };
    let (cold, stats, _) = run();
    assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
    let (warm, stats, service) = run();
    assert_eq!((stats.hits, stats.misses), (1, 0), "{stats:?}");
    assert_eq!(warm, cold, "a disk hit serves the stored strategy verbatim");
    assert_eq!(service.io_errors, 0);
    std::fs::write(sole_entry(&dir), "not json").unwrap();
    let (repaired, stats, service) = run();
    assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
    assert_eq!(service.io_errors, 1, "the corrupt entry is counted");
    assert_eq!(repaired, cold);
    let (_, stats, service) = run();
    assert_eq!(
        (stats.hits, service.io_errors),
        (1, 0),
        "entry rewritten clean"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One billing rule: a served plan that fails revalidation (here an
/// on-disk entry that parses but whose fractions no longer sum to one)
/// is re-solved cold and billed as a miss — never as a hit too.
#[test]
fn plan_failing_revalidation_is_billed_as_a_miss() {
    let dir = scratch_dir("adapcc_plan_cache_revalidation");
    let cluster = Cluster::homogeneous_a100(2);
    let tensor = ByteSize::from_mib(32);
    let mut first = AdapCC::init(&cluster, quick_options(Some(disk_service(&dir))));
    let cold = first.strategy_for(Primitive::AllReduce, tensor).clone();
    let path = sole_entry(&dir);
    let (fp, mut plan) = json::decode_entry(&std::fs::read_to_string(&path).unwrap()).unwrap();
    for sub in &mut plan.strategy.subs {
        sub.fraction = 0.5;
    }
    std::fs::write(&path, json::encode_entry(&fp, &plan)).unwrap();

    let mut cc = AdapCC::init(&cluster, quick_options(Some(disk_service(&dir))));
    let served = cc.strategy_for(Primitive::AllReduce, tensor).clone();
    assert_eq!(served, cold, "the invalid plan is replaced by a cold solve");
    let stats = cc.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 0), "{stats:?}");
    assert_eq!(stats.saved.as_secs(), 0.0, "a cold solve saves nothing");
    assert_eq!(cc.plan_service().stats().io_errors, 0, "the entry parsed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions on a shared service accrue the modeled solver time their
/// hits saved, exactly as a session on its own service does.
#[test]
fn shared_service_hits_accrue_saved_solver_time() {
    let cluster = Cluster::homogeneous_a100(2);
    let tensor = ByteSize::from_mib(32);
    let service = Arc::new(PlanService::default());
    let mut a = AdapCC::init(&cluster, quick_options(Some(Arc::clone(&service))));
    let _ = a.strategy_for(Primitive::AllReduce, tensor);
    assert_eq!(a.plan_cache_stats().saved.as_secs(), 0.0, "A solved cold");
    let mut b = AdapCC::init(&cluster, quick_options(Some(Arc::clone(&service))));
    let _ = b.strategy_for(Primitive::AllReduce, tensor);
    let stats = b.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0), "{stats:?}");
    assert!(
        stats.saved.as_secs() > 0.0,
        "B's hit saved a solve: {stats:?}"
    );
}

/// A session given no service builds its own one-shard service, so it
/// must be indistinguishable from a session handed that service
/// explicitly: the same request sequence (cold solves, memo hits, an
/// exclusion, a rejoin that exact-hits, a drifted profile that
/// warm-starts) yields identical strategies and identical counters.
#[test]
fn own_service_matches_an_explicit_one_shard_service() {
    let cluster = Cluster::homogeneous_a100(2);
    let run = |plan_service: Option<Arc<PlanService>>| {
        let mut cc = AdapCC::init(&cluster, quick_options(plan_service));
        cc.setup();
        let mut served = Vec::new();
        let mut step = |cc: &mut AdapCC<'_>| {
            for mib in [8, 32] {
                served.push(
                    cc.strategy_for(Primitive::AllReduce, ByteSize::from_mib(mib))
                        .clone(),
                );
            }
            served.push(
                cc.strategy_for_root(Primitive::Broadcast, ByteSize::from_mib(16), Some(Rank(3)))
                    .clone(),
            );
        };
        step(&mut cc);
        cc.exclude_workers(&[Rank(5)]);
        step(&mut cc);
        cc.add_workers(&[Rank(5)]).expect("rejoin is valid");
        step(&mut cc);
        cc.set_fabric_factors(vec![(cluster.nic_egress_link(InstanceId(1)), 0.5)]);
        assert!(cc.reprofile().changed, "degraded NIC re-synthesizes");
        step(&mut cc);
        (served, cc.plan_cache_stats())
    };
    let (own, own_stats) = run(None);
    let explicit = Arc::new(PlanService::new(ServiceConfig::one_shard()));
    let (given, given_stats) = run(Some(explicit));
    assert_eq!(own, given, "strategies must match request for request");
    assert_eq!(own_stats, given_stats);
    assert!(
        own_stats.hits > 0 && own_stats.misses > 0 && own_stats.warm_starts > 0,
        "the sequence exercises every outcome: {own_stats:?}"
    );
}
