//! Workspace integration tests: the full AdapCC pipeline — detect →
//! profile → synthesize → execute — across crates, plus the baseline
//! comparisons the paper's headline numbers rest on.

use std::collections::BTreeMap;

use adapcc::session::{AdapCC, InitOptions};
use adapcc::Decision;
use adapcc_baselines::runner::{Runner, System};
use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::time::SimTime;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::solver::{SynthConfig, SynthRequest, Synthesizer};
use adapcc_synth::Primitive;
use adapcc_topo::detect::Detector;

fn quick_options() -> InitOptions {
    InitOptions {
        synth: SynthConfig {
            anneal_iters: 32,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn full_pipeline_on_the_paper_testbed() {
    let cluster = Cluster::paper_testbed();
    // Control path, exactly as a training script would drive it.
    let mut cc = AdapCC::init(&cluster, quick_options());
    let setup = cc.setup();
    assert!(setup.elapsed.as_millis() > 0.0);
    // Detection found the real structure without reading ground truth.
    let det = cc.detection();
    assert_eq!(det.instances.len(), 6);
    for inst in &det.instances {
        assert_eq!(inst.nvlink_pairs.len(), 6, "full-mesh NVLink per server");
    }
    // Data plane: a real AllReduce sums exactly.
    let tensor = ByteSize::from_kib(128);
    let elems = (tensor.as_u64() / 4) as usize;
    let inputs: BTreeMap<Rank, Vec<f32>> = cc
        .workers()
        .iter()
        .map(|r| (*r, vec![r.0 as f32 + 0.5; elems]))
        .collect();
    let report = cc
        .allreduce(tensor, &BTreeMap::new(), Some(inputs))
        .expect("healthy fabric");
    let expect: f32 = (0..24).map(|r| r as f32 + 0.5).sum();
    for (rank, out) in &report.outputs {
        assert!(
            (out[elems / 2] - expect).abs() < 1e-2,
            "rank {rank} got {} want {expect}",
            out[elems / 2]
        );
    }
    assert_eq!(report.outputs.len(), 24);
}

#[test]
fn adapcc_strategy_beats_every_baseline_on_the_testbed() {
    let cluster = Cluster::paper_testbed();
    let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
    let profile = Profiler::new(&cluster, &topo, 1).run().links;
    let runner = Runner::new(&cluster, &topo, &profile);
    let ranks: Vec<Rank> = (0..24).map(Rank).collect();
    let tensor = ByteSize::from_mib(128);
    let mut bw = BTreeMap::new();
    for sys in System::all() {
        let r = runner.run(
            sys,
            Primitive::AllReduce,
            tensor,
            &ranks,
            &Default::default(),
        );
        bw.insert(sys.name(), r.algo_bw_gbytes);
    }
    assert!(bw["AdapCC"] > bw["NCCL"], "{bw:?}");
    assert!(bw["AdapCC"] > bw["MSCCL"], "{bw:?}");
    assert!(bw["AdapCC"] > bw["Blink"], "{bw:?}");
}

#[test]
fn tcp_single_stream_penalty_matches_paper_observation() {
    // Paper Sec. VI-D: a single TCP channel peaks around 20 Gbps on a
    // 100 Gbps NIC; AdapCC's parallel sub-collectives recover most of
    // the line rate while NCCL's single channel cannot.
    let mut b = adapcc_simnet::cluster::ClusterBuilder::new();
    b.add_instances(
        adapcc_simnet::hardware::InstanceSpec::a100_server().with_tcp(),
        2,
    );
    let cluster = b.build();
    let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
    let profile = Profiler::new(&cluster, &topo, 1).run().links;
    let runner = Runner::new(&cluster, &topo, &profile);
    let ranks: Vec<Rank> = (0..8).map(Rank).collect();
    let tensor = ByteSize::from_mib(64);
    let ours = runner.run(
        System::AdapCc,
        Primitive::AllReduce,
        tensor,
        &ranks,
        &Default::default(),
    );
    let nccl = runner.run(
        System::Nccl,
        Primitive::AllReduce,
        tensor,
        &ranks,
        &Default::default(),
    );
    assert!(
        ours.algo_bw_gbytes > nccl.algo_bw_gbytes * 1.3,
        "ours {} vs nccl {}",
        ours.algo_bw_gbytes,
        nccl.algo_bw_gbytes
    );
}

#[test]
fn adaptive_two_phase_equals_full_collective_numerically() {
    let cluster = Cluster::homogeneous_a100(2);
    let mut options = quick_options();
    options.relay.fault_floor = adapcc_simnet::time::SimDuration::from_millis(1000.0);
    let mut cc = AdapCC::init(&cluster, options);
    cc.setup();
    let tensor = ByteSize::from_kib(64);
    let elems = (tensor.as_u64() / 4) as usize;
    let inputs: BTreeMap<Rank, Vec<f32>> = cc
        .workers()
        .iter()
        .map(|r| {
            (
                *r,
                (0..elems).map(|i| ((r.0 * 7 + i) % 13) as f32).collect(),
            )
        })
        .collect();
    // Straggler way past the break-even point.
    let mut ready: BTreeMap<Rank, SimTime> =
        cc.workers().iter().map(|r| (*r, SimTime::ZERO)).collect();
    let strategy_root = cc.strategy_for(Primitive::AllReduce, tensor).subs[0]
        .root
        .unwrap();
    let straggler = cc
        .workers()
        .iter()
        .copied()
        .find(|r| *r != strategy_root)
        .unwrap();
    ready.insert(straggler, SimTime::from_secs(0.05));

    let adaptive = cc
        .allreduce_adaptive(tensor, &ready, Some(inputs.clone()))
        .expect("healthy fabric");
    assert!(matches!(adaptive.decision, Decision::Partial { .. }));
    let full = cc
        .allreduce(tensor, &BTreeMap::new(), Some(inputs))
        .expect("healthy fabric");
    for rank in cc.workers() {
        let a = &adaptive.outputs[rank];
        let f = &full.outputs[rank];
        for i in (0..elems).step_by(997) {
            assert!(
                (a[i] - f[i]).abs() < 1e-3,
                "rank {rank} elem {i}: partial {} vs full {}",
                a[i],
                f[i]
            );
        }
    }
}

#[test]
fn synthesized_strategies_serialize_to_xml_and_back() {
    let cluster = Cluster::heterogeneous_2a100_2v100();
    let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
    let profile = Profiler::new(&cluster, &topo, 1).run().links;
    let req = SynthRequest::new(
        Primitive::Reduce,
        ByteSize::from_mib(64),
        4,
        (0..16).map(Rank).collect(),
    );
    let strategy = Synthesizer::new(&topo, &profile).synthesize(&req);
    let xml = adapcc_synth::xml::to_xml(&strategy);
    let parsed = adapcc_synth::xml::from_xml(&xml).expect("round-trips");
    assert_eq!(parsed, strategy);
    assert!(parsed.validate(&topo).is_ok());
}

#[test]
fn behavior_tuples_match_executor_roles() {
    // The behaviour abstraction and the executor must agree: a relay
    // with one active upstream forwards without a kernel.
    let cluster = Cluster::homogeneous_a100(1);
    let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
    let profile = Profiler::new(&cluster, &topo, 1).run().links;
    let mut req = SynthRequest::new(
        Primitive::Reduce,
        ByteSize::from_mib(4),
        1,
        vec![Rank(0), Rank(2), Rank(3)],
    );
    req.relays = vec![Rank(1)];
    let strategy = Synthesizer::new(&topo, &profile).synthesize(&req);
    let active = [Rank(0), Rank(2), Rank(3)];
    for sub in &strategy.subs {
        let tuples = adapcc::derive_behaviors(&topo, sub, &active);
        if let Some(t) = tuples.get(&Rank(1)) {
            assert!(!t.is_active, "rank 1 is a relay");
            // If it receives anything it must forward it onward.
            if t.has_recv {
                assert!(t.has_send);
            }
        }
    }
}

#[test]
fn eight_gpu_servers_work_end_to_end() {
    // DGX-style 8-GPU servers: two PCIe switches of four GPUs each,
    // full-mesh NVLink, 200 Gbps NICs — exercises detection, synthesis
    // and execution beyond the paper's 4-GPU shapes.
    let mut b = adapcc_simnet::cluster::ClusterBuilder::new();
    b.add_instances(adapcc_simnet::hardware::InstanceSpec::dgx_a100(), 2);
    let cluster = b.build();
    assert_eq!(cluster.gpu_count(), 16);
    let mut cc = AdapCC::init(&cluster, quick_options());
    cc.setup();
    // Detection still splits the switch groups correctly.
    let det = &cc.detection().instances[0];
    assert_eq!(det.switch_groups.len(), 2);
    assert_eq!(det.switch_groups[0].len(), 4);
    assert_eq!(det.nvlink_pairs.len(), 28, "8 choose 2 NVLinks");
    // And the collective still sums exactly.
    let tensor = ByteSize::from_kib(64);
    let elems = (tensor.as_u64() / 4) as usize;
    let inputs: BTreeMap<Rank, Vec<f32>> = cc
        .workers()
        .iter()
        .map(|r| (*r, vec![(r.0 + 1) as f32; elems]))
        .collect();
    let report = cc
        .allreduce(tensor, &BTreeMap::new(), Some(inputs))
        .expect("healthy fabric");
    let expect: f32 = (1..=16).map(|v| v as f32).sum();
    assert_eq!(report.outputs[&Rank(3)][0], expect);
}

#[test]
fn mixed_generation_fleet_synthesizes() {
    // A100 + H100 + V100 all in one job: the profiler sees three NIC
    // speeds (100/400/50 Gbps) and the synthesizer roots on the H100.
    let mut b = adapcc_simnet::cluster::ClusterBuilder::new();
    b.add_instance(adapcc_simnet::hardware::InstanceSpec::a100_server());
    b.add_instance(adapcc_simnet::hardware::InstanceSpec::h100_server());
    b.add_instance(adapcc_simnet::hardware::InstanceSpec::v100_server());
    let cluster = b.build();
    let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
    let profile = Profiler::new(&cluster, &topo, 1).run().links;
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    let req = SynthRequest::new(Primitive::Reduce, ByteSize::from_mib(64), 2, ranks);
    let strategy = Synthesizer::new(&topo, &profile).synthesize(&req);
    assert!(strategy.validate(&topo).is_ok());
    let root = strategy.subs[0].root.unwrap();
    // Ranks 4..12 are the H100 server's.
    assert!(
        (4..12).contains(&root.0),
        "root {root:?} should sit on the H100 server"
    );
}

#[test]
fn collectives_before_setup_are_invalid_requests() {
    // The transmission contexts must exist before any collective runs
    // (paper Sec. V-A), whichever entry point is called first.
    let cluster = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&cluster, quick_options());
    let tensor = ByteSize::from_kib(16);
    let idle = BTreeMap::new();
    let err = cc.allreduce(tensor, &idle, None).expect_err("not set up");
    assert!(
        matches!(err, adapcc::AdapCCError::InvalidRequest(_)),
        "{err}"
    );
    let err = cc.allgather(tensor, &idle, None).expect_err("not set up");
    assert!(
        matches!(err, adapcc::AdapCCError::InvalidRequest(_)),
        "{err}"
    );
    cc.setup();
    cc.allreduce(tensor, &idle, None).expect("set up");
}

#[test]
fn wrong_length_buffers_are_invalid_requests_on_every_rank() {
    // A broadcast reads only its root's buffer and a reduce-scatter
    // slices every buffer into shards; a bad buffer on any rank is
    // still refused with a typed error rather than ignored or sliced
    // out of bounds.
    let cluster = Cluster::homogeneous_a100(1);
    let mut cc = AdapCC::init(&cluster, quick_options());
    cc.setup();
    let elems = 4 * 256;
    let tensor = ByteSize::from_bytes((elems * 4) as u64);
    let idle = BTreeMap::new();
    let inputs = |short: Rank| -> BTreeMap<Rank, Vec<f32>> {
        (0..4)
            .map(|r| {
                let len = if Rank(r) == short { elems - 1 } else { elems };
                (Rank(r), vec![1.0; len])
            })
            .collect()
    };
    let err = cc
        .broadcast(Rank(0), tensor, &idle, Some(inputs(Rank(2))))
        .expect_err("rank 2's buffer is one element short");
    assert!(
        matches!(&err, adapcc::AdapCCError::InvalidRequest(msg) if msg.contains("rank2")),
        "{err}"
    );
    let err = cc
        .reduce_scatter(tensor, &idle, Some(inputs(Rank(3))))
        .expect_err("rank 3's buffer is one element short");
    assert!(
        matches!(err, adapcc::AdapCCError::InvalidRequest(_)),
        "{err}"
    );
    let ok = cc
        .broadcast(Rank(0), tensor, &idle, Some(inputs(Rank(9))))
        .expect("every buffer holds the tensor");
    assert_eq!(ok.outputs.len(), 3, "every non-root rank receives");
}
