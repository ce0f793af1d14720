use std::collections::BTreeMap;

use adapcc_simnet::cluster::{Cluster, InstanceId, Rank};
use adapcc_simnet::faults::{nic_links, Fault, FaultSchedule};
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::solver::SynthConfig;

use crate::collective::spec::{
    AssembleRule, CollectiveSpec, Fanout, RelayPolicy, ShardRule, StageSpec,
};
use crate::error::AdapCCError;
use crate::relay::{Decision, RelayConfig};
use crate::session::{AdapCC, InitOptions, RecoveryEvent};

fn inputs_for(workers: &[Rank], elems: usize) -> BTreeMap<Rank, Vec<f32>> {
    workers
        .iter()
        .map(|r| {
            (
                *r,
                (0..elems).map(|i| ((r.0 * 13 + i) % 11) as f32).collect(),
            )
        })
        .collect()
}

fn quick_options() -> InitOptions {
    InitOptions {
        synth: SynthConfig {
            anneal_iters: 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Options with a generous fault horizon, so deliberately late
/// test workers are relayed rather than declared dead.
fn patient_options() -> InitOptions {
    InitOptions {
        relay: RelayConfig {
            fault_floor: SimDuration::from_millis(500.0),
            ..Default::default()
        },
        ..quick_options()
    }
}

#[test]
fn end_to_end_allreduce_matches_sum() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let tensor = ByteSize::from_kib(64);
    let elems = 64 * 1024 / 4;
    let workers = cc.workers().to_vec();
    let inputs = inputs_for(&workers, elems);
    let report = cc
        .allreduce(tensor, &BTreeMap::new(), Some(inputs.clone()))
        .expect("healthy fabric");
    for w in &workers {
        let out = &report.outputs[w];
        for i in [0usize, 17, elems - 1] {
            let expect: f32 = workers.iter().map(|r| inputs[r][i]).sum();
            assert!((out[i] - expect).abs() < 1e-3);
        }
    }
}

#[test]
fn adaptive_allreduce_waits_for_small_skew() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let tensor = ByteSize::from_mib(16);
    let mut ready = BTreeMap::new();
    for r in cc.workers().to_vec() {
        ready.insert(r, SimTime::from_secs(r.0 as f64 * 1e-5));
    }
    let report = cc
        .allreduce_adaptive(tensor, &ready, None)
        .expect("healthy fabric");
    assert!(matches!(report.decision, Decision::WaitAll { .. }));
    assert!(report.faults.is_empty());
}

#[test]
fn adaptive_allreduce_proceeds_past_heavy_straggler() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, patient_options());
    cc.setup();
    let tensor = ByteSize::from_mib(16);
    let workers = cc.workers().to_vec();
    let mut ready = BTreeMap::new();
    for r in &workers {
        ready.insert(*r, SimTime::ZERO);
    }
    // One worker 60 ms late (not the root): far beyond the
    // break-even point but inside the fault horizon.
    let strategy_root = {
        let s = cc.strategy_for(Primitive::AllReduce, tensor);
        s.subs[0].root.unwrap()
    };
    let straggler = workers
        .iter()
        .copied()
        .find(|r| *r != strategy_root)
        .unwrap();
    ready.insert(straggler, SimTime::from_secs(0.06));
    let report = cc
        .allreduce_adaptive(tensor, &ready, None)
        .expect("healthy fabric");
    match &report.decision {
        Decision::Partial { relays, start, .. } => {
            assert_eq!(relays, &vec![straggler]);
            // Phase 1 starts well before the straggler is ready.
            assert!(start.as_secs() < 0.06, "start {start}");
        }
        other => panic!("expected partial, got {other:?}"),
    }
    // Phase 2 needs the late tensor, so completion follows it.
    assert!(
        report.finish.as_secs() > 0.06,
        "phase2 needs the late tensor"
    );
    assert!(report.faults.is_empty(), "{:?}", report.faults);
}

#[test]
fn adaptive_partial_preserves_the_sum() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, patient_options());
    cc.setup();
    let tensor = ByteSize::from_kib(64);
    let elems = 64 * 1024 / 4;
    let workers = cc.workers().to_vec();
    let inputs = inputs_for(&workers, elems);
    let mut ready = BTreeMap::new();
    for r in &workers {
        ready.insert(*r, SimTime::ZERO);
    }
    let strategy_root = {
        let s = cc.strategy_for(Primitive::AllReduce, tensor);
        s.subs[0].root.unwrap()
    };
    let straggler = workers
        .iter()
        .copied()
        .find(|r| *r != strategy_root)
        .unwrap();
    ready.insert(straggler, SimTime::from_secs(0.04));
    let report = cc
        .allreduce_adaptive(tensor, &ready, Some(inputs.clone()))
        .expect("healthy fabric");
    assert!(matches!(report.decision, Decision::Partial { .. }));
    // Two-phase aggregation is numerically a full allreduce.
    for w in &workers {
        let out = &report.outputs[w];
        for i in [0usize, 101, elems - 1] {
            let expect: f32 = workers.iter().map(|r| inputs[r][i]).sum();
            assert!((out[i] - expect).abs() < 1e-3, "elem {i}");
        }
    }
}

#[test]
fn missing_worker_is_declared_faulty_and_excludable() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let tensor = ByteSize::from_mib(4);
    let workers = cc.workers().to_vec();
    let mut ready = BTreeMap::new();
    for r in &workers {
        ready.insert(*r, SimTime::ZERO);
    }
    // Rank 7 never reports.
    ready.remove(&Rank(7));
    let report = cc
        .allreduce_adaptive(tensor, &ready, None)
        .expect("healthy fabric");
    assert_eq!(report.faults, vec![Rank(7)]);
    cc.exclude_workers(&report.faults);
    assert_eq!(cc.workers().len(), 7);
    // Training continues among survivors.
    let again = cc
        .allreduce(tensor, &BTreeMap::new(), None)
        .expect("healthy fabric");
    assert!(again.finish.as_secs() > 0.0);
}

#[test]
fn allgather_concatenates_rank_order() {
    let c = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let tensor = ByteSize::from_kib(16);
    let elems = 16 * 1024 / 4;
    let workers = cc.workers().to_vec();
    let inputs = inputs_for(&workers, elems);
    let report = cc
        .allgather(tensor, &BTreeMap::new(), Some(inputs.clone()))
        .expect("healthy fabric");
    for w in &workers {
        let out = &report.outputs[w];
        assert_eq!(out.len(), elems * workers.len());
        for (j, root) in workers.iter().enumerate() {
            assert_eq!(
                &out[j * elems..(j + 1) * elems],
                &inputs[root][..],
                "slot {j}"
            );
        }
    }
}

#[test]
fn reduce_scatter_shards_the_aggregate() {
    let c = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let workers = cc.workers().to_vec();
    let n = workers.len();
    let shard_elems = 1024usize;
    let tensor = ByteSize::from_bytes((n * shard_elems * 4) as u64);
    let inputs = inputs_for(&workers, n * shard_elems);
    let report = cc
        .reduce_scatter(tensor, &BTreeMap::new(), Some(inputs.clone()))
        .expect("healthy fabric");
    for (j, w) in workers.iter().enumerate() {
        let out = &report.outputs[w];
        assert_eq!(out.len(), shard_elems);
        for i in [0usize, shard_elems - 1] {
            let expect: f32 = workers.iter().map(|r| inputs[r][j * shard_elems + i]).sum();
            assert!((out[i] - expect).abs() < 1e-3);
        }
    }
}

#[test]
fn gather_collects_at_root() {
    let c = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let tensor = ByteSize::from_kib(4);
    let elems = 4 * 1024 / 4;
    let workers = cc.workers().to_vec();
    let inputs = inputs_for(&workers, elems);
    let root = workers[1];
    let report = cc
        .gather(root, tensor, &BTreeMap::new(), Some(inputs.clone()))
        .expect("healthy fabric");
    assert_eq!(report.outputs.len(), 1, "only the root receives");
    let out = &report.outputs[&root];
    assert_eq!(out.len(), elems * workers.len());
    for (j, w) in workers.iter().enumerate() {
        assert_eq!(&out[j * elems..(j + 1) * elems], &inputs[w][..], "slot {j}");
    }
    assert!(report.finish.as_secs() > 0.0);
}

#[test]
fn scatter_delivers_shards() {
    let c = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let workers = cc.workers().to_vec();
    let n = workers.len();
    let shard_elems = 512usize;
    let tensor = ByteSize::from_bytes((n * shard_elems * 4) as u64);
    let root = workers[0];
    let root_buf: Vec<f32> = (0..n * shard_elems).map(|i| (i % 17) as f32).collect();
    let inputs: BTreeMap<Rank, Vec<f32>> = [(root, root_buf.clone())].into();
    let report = cc
        .scatter(root, tensor, &BTreeMap::new(), Some(inputs))
        .expect("healthy fabric");
    for (j, w) in workers.iter().enumerate() {
        let out = &report.outputs[w];
        assert_eq!(out.len(), shard_elems, "worker {w}");
        assert_eq!(
            out[..],
            root_buf[j * shard_elems..(j + 1) * shard_elems],
            "slot {j}"
        );
    }
    // An indivisible tensor is rejected up front.
    let err = cc
        .scatter(
            root,
            ByteSize::from_bytes(4 * n as u64 + 4),
            &BTreeMap::new(),
            None,
        )
        .expect_err("indivisible");
    assert!(matches!(err, AdapCCError::InvalidRequest(_)), "{err}");
}

#[test]
fn custom_two_stage_spec_runs_through_the_pipeline() {
    // AllReduce spelled as its own composition — Reduce then reverse
    // Broadcast chained through the stage DAG — must aggregate like
    // the built-in single-stage spec.
    let c = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let spec = CollectiveSpec {
        name: "allreduce_two_stage",
        stages: vec![
            StageSpec {
                primitive: Primitive::Reduce,
                fanout: Fanout::Single,
                shard: ShardRule::Full,
            },
            StageSpec {
                primitive: Primitive::Broadcast,
                fanout: Fanout::Single,
                shard: ShardRule::Full,
            },
        ],
        relay: RelayPolicy::WaitAll,
        assemble: AssembleRule::Identity,
        needs_root: false,
        estimate_as: Primitive::AllReduce,
    };
    assert!(spec.validate().is_ok());
    let tensor = ByteSize::from_kib(16);
    let elems = 16 * 1024 / 4;
    let workers = cc.workers().to_vec();
    let inputs = inputs_for(&workers, elems);
    let report = cc
        .with_recovery(|cc| cc.run_collective(&spec, None, tensor, &BTreeMap::new(), Some(&inputs)))
        .expect("healthy fabric");
    assert!(!report.outputs.is_empty());
    for (w, out) in &report.outputs {
        for i in [0usize, 33, elems - 1] {
            let expect: f32 = workers.iter().map(|r| inputs[r][i]).sum();
            assert!((out[i] - expect).abs() < 1e-3, "worker {w} elem {i}");
        }
    }
}

#[test]
fn reprofile_keeps_graph_when_stable_and_rebuilds_on_change() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let tensor = ByteSize::from_mib(8);
    let _ = cc.strategy_for(Primitive::AllReduce, tensor);
    let stable = cc.reprofile();
    assert!(!stable.changed, "no change expected on a quiet fabric");
    assert_eq!(stable.solving, SimDuration::ZERO);
    // Halve one NIC: re-synthesis must trigger.
    let eg = c.nic_egress_link(adapcc_simnet::cluster::InstanceId(0));
    cc.set_fabric_factors(vec![(eg, 0.5)]);
    let shifted = cc.reprofile();
    assert!(shifted.changed);
    assert!(shifted.total() > stable.total());
}

#[test]
fn periodic_profiling_fires_on_schedule() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    cc.set_profile_period(3);
    let tensor = ByteSize::from_mib(4);
    for _ in 0..2 {
        let _ = cc
            .allreduce(tensor, &BTreeMap::new(), None)
            .expect("healthy fabric");
    }
    assert!(cc.last_reconstruct().is_none(), "not due yet");
    let _ = cc
        .allreduce(tensor, &BTreeMap::new(), None)
        .expect("healthy fabric");
    let r = cc.last_reconstruct().expect("third iteration triggers");
    assert!(r.profiling.as_secs() > 0.0);
    assert!(!r.changed, "quiet fabric: no re-synthesis");
}

#[test]
fn elastic_scale_out_admits_new_instance() {
    let c = Cluster::homogeneous_a100(3);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    // Start with the first two instances only.
    cc.set_workers((0..8).map(Rank).collect());
    let tensor = ByteSize::from_kib(64);
    let elems = 16 * 1024;
    let inputs8 = inputs_for(cc.workers(), elems);
    let before = cc
        .allreduce(tensor, &BTreeMap::new(), Some(inputs8))
        .expect("healthy fabric");
    assert_eq!(before.outputs.len(), 8);
    // Instance 2 joins.
    let scale = cc
        .add_workers(&(8..12).map(Rank).collect::<Vec<_>>())
        .expect("valid scale-out");
    assert!(
        scale.detection > SimDuration::ZERO,
        "new instance must be detected"
    );
    assert_eq!(cc.workers().len(), 12);
    let inputs12 = inputs_for(cc.workers(), elems);
    let after = cc
        .allreduce(tensor, &BTreeMap::new(), Some(inputs12.clone()))
        .expect("healthy fabric");
    assert_eq!(after.outputs.len(), 12);
    let expect: f32 = cc.workers().iter().map(|r| inputs12[r][3]).sum();
    assert!((after.outputs[&Rank(9)][3] - expect).abs() < 1e-2);
}

#[test]
fn scale_out_within_known_instances_skips_detection() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    cc.set_workers(vec![Rank(0), Rank(1), Rank(4), Rank(5)]);
    let scale = cc
        .add_workers(&[Rank(2), Rank(6)])
        .expect("valid scale-out");
    assert_eq!(scale.detection, SimDuration::ZERO);
    assert_eq!(cc.workers().len(), 6);
}

#[test]
fn invalid_scale_out_is_a_typed_error_not_a_panic() {
    let c = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    // Already part of the job.
    match cc.add_workers(&[Rank(0)]) {
        Err(AdapCCError::InvalidRequest(msg)) => {
            assert!(msg.contains("already part of the job"), "{msg}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    // Outside the cluster.
    match cc.add_workers(&[Rank(99)]) {
        Err(AdapCCError::InvalidRequest(msg)) => {
            assert!(msg.contains("outside the cluster"), "{msg}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    // Duplicated within one request.
    cc.set_workers(vec![Rank(0)]);
    match cc.add_workers(&[Rank(1), Rank(1)]) {
        Err(AdapCCError::InvalidRequest(msg)) => {
            assert!(msg.contains("twice"), "{msg}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    assert_eq!(cc.workers(), [Rank(0)], "job untouched by rejections");
}

// ---- fault recovery ----

#[test]
fn transient_flap_is_retried_and_recovers() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    // Flap every NIC link of instance 0 for 40ms: long enough to
    // trip the stall deadline, short enough that backoff outlives
    // it (25ms + 50ms puts the third attempt past the heal).
    let mut schedule = FaultSchedule::new();
    for link in nic_links(&c, InstanceId(0)) {
        schedule.push(Fault::LinkDown {
            link,
            from: SimTime::ZERO,
            until: SimTime::from_secs(0.040),
        });
    }
    cc.inject_faults(schedule);
    let rep = cc
        .allreduce(ByteSize::from_kib(64), &BTreeMap::new(), None)
        .expect("flap heals before retries run out");
    assert!(rep.faults.is_empty(), "transient fault excludes nobody");
    assert_eq!(cc.workers().len(), 8, "no worker was excluded");
    let log = cc.recovery_log();
    assert!(
        log.iter()
            .any(|e| matches!(e, RecoveryEvent::Detected { .. })),
        "{log:?}"
    );
    assert!(
        log.iter()
            .any(|e| matches!(e, RecoveryEvent::Retrying { .. })),
        "{log:?}"
    );
    assert!(
        log.iter()
            .any(|e| matches!(e, RecoveryEvent::Recovered { .. })),
        "{log:?}"
    );
    assert!(
        !log.iter()
            .any(|e| matches!(e, RecoveryEvent::Excluded { .. })),
        "{log:?}"
    );
}

#[test]
fn worker_crash_is_excluded_and_job_continues() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    cc.inject_faults(FaultSchedule::new().with(Fault::WorkerCrash {
        rank: Rank(5),
        at: SimTime::ZERO,
    }));
    let tensor = ByteSize::from_kib(64);
    let elems = (tensor.as_u64() / 4) as usize;
    let workers = cc.workers().to_vec();
    let inputs = inputs_for(&workers, elems);
    let rep = cc
        .allreduce(tensor, &BTreeMap::new(), Some(inputs.clone()))
        .expect("a single crash must be recoverable");
    assert_eq!(rep.faults, vec![Rank(5)]);
    assert_eq!(cc.workers().len(), 7);
    // The recovered collective sums over exactly the survivors.
    let expect: f32 = cc.workers().iter().map(|r| inputs[r][3]).sum();
    for w in cc.workers() {
        assert!((rep.outputs[w][3] - expect).abs() < 1e-3);
    }
    assert!(!rep.outputs.contains_key(&Rank(5)));
    assert!(cc
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Excluded { ranks, .. } if ranks == &[Rank(5)])));
}

#[test]
fn nic_failure_excludes_whole_instance() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    cc.inject_faults(FaultSchedule::new().with(Fault::NicFail {
        instance: InstanceId(1),
        at: SimTime::ZERO,
    }));
    let rep = cc
        .allreduce(ByteSize::from_kib(64), &BTreeMap::new(), None)
        .expect("the healthy server carries on");
    assert_eq!(rep.faults, vec![Rank(4), Rank(5), Rank(6), Rank(7)]);
    assert_eq!(cc.workers(), &[Rank(0), Rank(1), Rank(2), Rank(3)]);
}

#[test]
fn insufficient_survivors_is_reported() {
    let c = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let mut schedule = FaultSchedule::new();
    for rank in [1, 2, 3] {
        schedule.push(Fault::WorkerCrash {
            rank: Rank(rank),
            at: SimTime::ZERO,
        });
    }
    cc.inject_faults(schedule);
    let err = cc
        .allreduce(ByteSize::from_kib(64), &BTreeMap::new(), None)
        .expect_err("one survivor cannot run a collective");
    assert!(
        matches!(err, AdapCCError::InsufficientSurvivors { .. }),
        "{err}"
    );
}

// ---- membership lifecycle ----

#[test]
fn restarted_worker_rejoins_and_participates() {
    let c = Cluster::homogeneous_a100(2);
    let telemetry = adapcc_telemetry::Telemetry::enabled();
    let mut cc = AdapCC::init(
        &c,
        InitOptions {
            telemetry: telemetry.clone(),
            ..quick_options()
        },
    );
    cc.setup();
    // Crash at t=0; the worker restarts 300 ms in — long before the
    // post-exclusion clock (reconstruction alone is ~1 s), so the
    // first health probe already sees it alive.
    cc.inject_faults(
        FaultSchedule::new()
            .with(Fault::WorkerCrash {
                rank: Rank(5),
                at: SimTime::ZERO,
            })
            .with(Fault::WorkerRestart {
                rank: Rank(5),
                at: SimTime::from_secs(0.3),
            }),
    );
    let tensor = ByteSize::from_kib(64);
    let rep = cc
        .allreduce(tensor, &BTreeMap::new(), None)
        .expect("a single crash must be recoverable");
    assert_eq!(rep.faults, vec![Rank(5)]);
    assert_eq!(cc.workers().len(), 7);
    assert_eq!(
        cc.rank_health(Rank(5)),
        crate::session::RankHealth::Excluded
    );
    // Default policy needs two consecutive passing probes (one probe
    // round per collective); the rank is back for the collective after
    // that and serves its probation.
    let elems = (tensor.as_u64() / 4) as usize;
    let mut rejoined_at = None;
    for i in 0..4 {
        // Inputs are built from the pre-call worker set, as a trainer
        // would; the pipeline zero-fills a rank admitted mid-call.
        let inputs = inputs_for(cc.workers(), elems);
        let rep = cc
            .allreduce(tensor, &BTreeMap::new(), Some(inputs))
            .expect("healed fabric");
        if cc.workers().len() == 8 && rejoined_at.is_none() {
            rejoined_at = Some(i);
            assert!(
                rep.outputs.contains_key(&Rank(5)),
                "rejoined rank participates: {:?}",
                rep.outputs.keys()
            );
        }
    }
    assert!(rejoined_at.is_some(), "worker never rejoined");
    assert!(telemetry.counter("health.rejoins") >= 1.0);
    assert!(cc
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Rejoined { ranks, .. } if ranks == &[Rank(5)])));
    // Probation ends after a couple more collectives.
    assert_eq!(cc.rank_health(Rank(5)), crate::session::RankHealth::Healthy);
}

#[test]
fn quarantine_biases_planning_but_not_the_fabric() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    // The NIC egress link sits on every profiled inter-instance edge,
    // so its quarantine must perturb the planning profile.
    let link = c.nic_egress_link(InstanceId(0));
    // Three flap episodes across distinct collectives quarantine it.
    assert!(cc.health.note_flap(link, 1, SimTime::ZERO).is_none());
    assert!(cc.health.note_flap(link, 2, SimTime::ZERO).is_none());
    let hold = cc
        .health
        .note_flap(link, 3, SimTime::ZERO)
        .expect("third episode quarantines");
    let eff = cc.effective_factors();
    assert!(
        eff.iter()
            .any(|(l, f)| *l == link && *f == crate::session::QUARANTINE_FACTOR),
        "{eff:?}"
    );
    assert!(
        cc.fabric_factors().iter().all(|(l, _)| *l != link),
        "physical factors untouched"
    );
    // Planning under the bias sees the collapsed link and re-solves.
    let rec = cc.reprofile();
    assert!(rec.changed, "quarantine must perturb the profile");
    // Once the hold-down runs out the bias is gone (strikes persist).
    cc.session_clock = SimTime::ZERO + hold;
    assert!(cc.effective_factors().iter().all(|(l, _)| *l != link));
    assert_eq!(cc.health.strikes(link), 1);
}

#[test]
fn backoff_exponent_clamps_at_pathological_retry_counts() {
    use crate::session::RecoveryPolicy;
    let p = RecoveryPolicy {
        max_retries: 128,
        ..Default::default()
    };
    assert_eq!(p.backoff_for(1), p.backoff_base);
    assert_eq!(p.backoff_for(2), p.backoff_base.scale(2.0));
    // At attempt 128 the unclamped doubling (25 ms * 2^127) is far past
    // the cap; the clamp keeps the arithmetic finite and the cap wins.
    assert_eq!(p.backoff_for(128), p.backoff_cap);
    assert_eq!(p.backoff_for(usize::MAX), p.backoff_cap);
}

#[test]
fn broadcast_from_excluded_root_is_invalid() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    cc.inject_faults(FaultSchedule::new().with(Fault::WorkerCrash {
        rank: Rank(5),
        at: SimTime::ZERO,
    }));
    let tensor = ByteSize::from_kib(64);
    cc.allreduce(tensor, &BTreeMap::new(), None)
        .expect("crash recovery");
    assert_eq!(cc.workers().len(), 7);
    let err = cc
        .broadcast(Rank(5), tensor, &BTreeMap::new(), None)
        .expect_err("dead root cannot broadcast");
    assert!(matches!(err, AdapCCError::InvalidRequest(_)), "{err}");
}

#[test]
fn group_collectives_match_world_semantics_on_the_group() {
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    let members = [Rank(0), Rank(2), Rank(5)];
    let elems = 16 * 1024 / 4;
    let inputs = inputs_for(&members, elems);
    let mut g = cc.group(&members).expect("valid members");
    let report = g
        .allreduce(
            ByteSize::from_kib(16),
            &BTreeMap::new(),
            Some(inputs.clone()),
        )
        .expect("healthy fabric");
    // The reduction runs over exactly the group's members.
    let expected: Vec<f32> = (0..elems)
        .map(|i| members.iter().map(|r| inputs[r][i]).sum())
        .collect();
    let outputs = report.outputs;
    assert_eq!(outputs.len(), members.len());
    for r in &members {
        assert_eq!(outputs[r], expected, "rank {r} sees the group sum");
    }
    // Roots outside the group are rejected up front.
    let err = g
        .broadcast(Rank(1), ByteSize::from_kib(16), &BTreeMap::new(), None)
        .expect_err("root outside the group");
    assert!(matches!(err, AdapCCError::InvalidRequest(_)), "{err}");
}

#[test]
fn exclusion_invalidates_exactly_the_groups_containing_the_dead_rank() {
    use adapcc_synth::group::GroupAxis;
    let c = Cluster::homogeneous_a100(2);
    let mut cc = AdapCC::init(&c, quick_options());
    cc.setup();
    // Rank 3 sits in three overlapping groups; a fourth is disjoint.
    let overlapping = [
        vec![Rank(0), Rank(3)],
        vec![Rank(1), Rank(3), Rank(5)],
        vec![Rank(3), Rank(6), Rank(7)],
    ];
    let disjoint = vec![Rank(0), Rank(1), Rank(2)];
    let mut ids = Vec::new();
    for members in overlapping.iter().chain(std::iter::once(&disjoint)) {
        let g = cc
            .group_on(GroupAxis::Data, members)
            .expect("valid members");
        ids.push(g.process_group().expect("proper subgroup").id());
    }
    let survivor_id = *ids.last().unwrap();
    cc.declare_concurrent(
        &ids.iter()
            .map(|id| cc.registered_groups()[id].clone())
            .collect::<Vec<_>>(),
    );
    assert_eq!(cc.registered_groups().len(), 4);
    let dead = cc.invalidate_groups_for(&[Rank(3)]);
    // Exactly the three groups containing rank 3 are invalidated...
    assert_eq!(dead.len(), 3);
    assert!(ids[..3].iter().all(|id| dead.contains(id)));
    // ...and the disjoint group survives in both registry and the
    // declared concurrency set.
    assert!(!dead.contains(&survivor_id));
    assert_eq!(cc.registered_groups().len(), 1);
    assert!(cc.registered_groups().contains_key(&survivor_id));
    assert_eq!(cc.concurrent_ids(), &[survivor_id]);
}
