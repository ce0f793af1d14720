//! Telemetry determinism and flow-conservation guarantees.
//!
//! The whole pipeline is driven by the simulated clock, so two runs of
//! the same configuration with the same seed must export *byte
//! identical* telemetry — the Chrome trace and the metrics summary are
//! golden. On top of that, the executor's per-link flow records must
//! respect flow conservation (paper eq. 1): a NIC is a pure forwarder,
//! so per sub-collective the bytes entering it equal the bytes leaving
//! it, and the sum of all recorded flows is exactly the executor's
//! bytes-on-wire tally.

use std::collections::BTreeMap;

use adapcc::executor::{ExecutionRequest, Executor};
use adapcc::session::{AdapCC, InitOptions};
use adapcc::{Decision, RelayConfig};
use adapcc_baselines::runner::{Runner, System};
use adapcc_bench::harness::profiled_with_telemetry;
use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::{Cluster, ClusterBuilder, Rank};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::solver::{SynthConfig, SynthRequest, Synthesizer};
use adapcc_synth::{Hierarchical, Primitive};
use adapcc_telemetry::Telemetry;
use adapcc_topo::detect::Detector;

#[path = "../crates/simnet/tests/common/oracle.rs"]
mod oracle;

/// One full instrumented run: detect → profile → synthesize → execute
/// on a fixed fleet, returning the sink holding every span, flow and
/// counter.
fn instrumented_run(primitive: Primitive, tensor: ByteSize, parallelism: usize) -> Telemetry {
    let mut b = ClusterBuilder::new();
    b.add_instances(InstanceSpec::dgx_a100(), 2);
    let cluster = b.build();
    let telemetry = Telemetry::enabled();
    let (topo, profile, control_secs) = profiled_with_telemetry(&cluster, 1, telemetry.clone());
    let runner = Runner::new(&cluster, &topo, &profile)
        .with_parallelism(parallelism)
        .with_telemetry(telemetry.at_offset(control_secs));
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    runner.run(
        System::AdapCc,
        primitive,
        tensor,
        &ranks,
        &Default::default(),
    );
    telemetry
}

#[test]
fn same_seed_runs_export_byte_identical_telemetry() {
    let a = instrumented_run(Primitive::AllReduce, ByteSize::from_mib(64), 4);
    let b = instrumented_run(Primitive::AllReduce, ByteSize::from_mib(64), 4);
    assert_eq!(a.chrome_trace(), b.chrome_trace(), "trace must be golden");
    assert_eq!(
        a.metrics_summary(),
        b.metrics_summary(),
        "metrics must be golden"
    );
}

#[test]
fn trace_covers_every_pipeline_phase_and_the_links() {
    let t = instrumented_run(Primitive::AllReduce, ByteSize::from_mib(64), 4);
    let spans = t.spans();
    for phase in [
        "detect",
        "profile.intra",
        "profile.inter",
        "profile.fanin",
        "synthesize",
        "execute",
    ] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "missing {phase} span; have {:?}",
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }
    // Phases are stitched onto one timeline: each starts no earlier
    // than the previous one on the same track.
    let order: Vec<f64> = ["detect", "profile.intra", "profile.inter", "profile.fanin"]
        .iter()
        .map(|n| spans.iter().find(|s| s.name == *n).unwrap().start_secs)
        .collect();
    assert!(order.windows(2).all(|w| w[0] <= w[1]), "{order:?}");
    assert!(!t.flows().is_empty(), "executor must record per-link flows");
    let trace = t.chrome_trace();
    assert!(trace.matches("\"cat\":\"flow\"").count() == t.flows().len());
    assert!(trace.contains("\"displayTimeUnit\""));
}

#[test]
fn reduce_flows_conserve_bytes_through_every_nic() {
    // Paper eq. 1 on recorded data: sweep tensor sizes and parallelism
    // degrees; in every Reduce run each NIC forwards exactly what it
    // receives (per sub-collective), every flow has sane timestamps,
    // and the flow total equals the executor's bytes-on-wire counter.
    for (mib, parallelism) in [(16, 1), (64, 2), (64, 4), (256, 4)] {
        let t = instrumented_run(Primitive::Reduce, ByteSize::from_mib(mib), parallelism);
        let flows = t.flows();
        assert!(!flows.is_empty());
        let mut total = 0u64;
        // (sub, nic-node) -> (bytes in, bytes out)
        let mut nic_io: BTreeMap<(usize, String), (u64, u64)> = BTreeMap::new();
        for f in &flows {
            assert!(
                f.enqueued_secs <= f.start_secs && f.start_secs <= f.end_secs,
                "flow timestamps out of order: {f:?}"
            );
            total += f.bytes;
            let (from, to) = f.link.split_once("->").expect("link label is from->to");
            if from.starts_with("nic") {
                nic_io.entry((f.sub, from.to_string())).or_default().1 += f.bytes;
            }
            if to.starts_with("nic") {
                nic_io.entry((f.sub, to.to_string())).or_default().0 += f.bytes;
            }
        }
        for ((sub, nic), (inb, outb)) in &nic_io {
            assert_eq!(
                inb, outb,
                "{mib} MiB x{parallelism}: sub {sub} {nic} received {inb} but \
                 forwarded {outb} bytes"
            );
        }
        assert_eq!(
            total,
            t.counter("exec.bytes_on_wire") as u64,
            "{mib} MiB x{parallelism}: flow records disagree with bytes-on-wire"
        );
    }
}

#[test]
fn hierarchical_64_gpu_trace_is_deterministic() {
    // 64 GPUs on 16 servers: the Auto threshold engages the two-tier
    // synthesis, and the fleet sits below the executor's
    // incremental-allocator threshold, so
    // this pins the exact engine's event ordering at the largest scale
    // that still runs it. Two identical runs must export
    // byte-identical telemetry — every flow record, span and counter
    // in the same order at the same instants.
    let run = || {
        let cluster = Cluster::homogeneous_a100(16);
        let telemetry = Telemetry::enabled();
        let (topo, profile, control_secs) = profiled_with_telemetry(&cluster, 1, telemetry.clone());
        let runner = Runner::new(&cluster, &topo, &profile)
            .with_parallelism(2)
            .with_telemetry(telemetry.at_offset(control_secs));
        let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
        runner.run(
            System::AdapCc,
            Primitive::AllReduce,
            ByteSize::from_mib(4),
            &ranks,
            &Default::default(),
        );
        telemetry
    };
    let a = run();
    let b = run();
    assert!(
        a.counter("synth.hierarchical") >= 1.0,
        "64 GPUs must take the hierarchical path"
    );
    assert_eq!(
        a.chrome_trace(),
        b.chrome_trace(),
        "64-GPU trace must be golden"
    );
    assert_eq!(
        a.metrics_summary(),
        b.metrics_summary(),
        "64-GPU metrics must be golden"
    );
}

#[test]
fn engine_storm_at_256_servers_is_deterministic_and_mode_consistent() {
    // The determinism cases above top out at 64 GPUs. This pins the
    // engine at a scale where its frontier and drain queue carry real
    // load: 256 servers of staggered, contending cross-server
    // transfers. Two runs must produce bit-identical event streams,
    // and the stream must agree with the fleet-wide per-flow reference
    // model (`crates/simnet/tests/common/oracle.rs`) event for event,
    // with completion instants within 1e-9 relative (the engine
    // integrates progress per path class and lazily, the model per
    // flow and eagerly, see DESIGN.md §15).
    use adapcc_simnet::cluster::InstanceId;
    use adapcc_simnet::engine::{NetSim, SimEvent};
    use oracle::{Oracle, Sim};

    const TIMER_BASE: u64 = 1 << 32;
    fn run(cluster: &Cluster, sim: &mut impl Sim) -> Vec<(u8, u64, u64)> {
        let n = cluster.instance_count();
        for i in 0..n {
            // Staggered arrivals so completions interleave with later
            // submissions instead of forming one synchronized wave.
            sim.schedule_timer(
                SimDuration::from_micros(1.0 + i as f64 * 0.7),
                TIMER_BASE + i as u64,
            );
        }
        let mut out = Vec::new();
        while let Some(ev) = sim.step() {
            if let SimEvent::Timer { token, .. } = ev {
                let i = (token - TIMER_BASE) as usize;
                let stride = 1 + i % (n - 1);
                let path = cluster.net_path(InstanceId(i), InstanceId((i + stride) % n));
                sim.submit_transfer(
                    &path,
                    ByteSize::from_kib(64 + (i as u64 * 37) % 192),
                    i as u64,
                );
            } else {
                out.push((0, ev.token(), ev.at().as_secs().to_bits()));
            }
        }
        out
    }

    let cluster = Cluster::homogeneous_a100(256);
    let a = run(&cluster, &mut NetSim::new(&cluster));
    let b = run(&cluster, &mut NetSim::new(&cluster));
    assert_eq!(
        a.len(),
        cluster.instance_count(),
        "every transfer completes"
    );
    assert_eq!(a, b, "256-server stream must be golden");
    let reference = run(&cluster, &mut Oracle::new(&cluster));
    oracle::assert_tracks(&a, &reference);
}

// ---------------------------------------------------------------------------
// Golden equivalence through the staged CollectiveSpec pipeline.
//
// The constants below were captured on the pre-refactor session code
// (bespoke per-entry-point orchestration). The staged pipeline must
// reproduce the same finish instants and output tensors bit for bit:
// finish times are compared as `f64::to_bits`, outputs as an FNV-1a
// hash over every `(rank, f32::to_bits)` pair in rank order.
// Three finish instants (the 16 MiB allreduce timing run, the
// broadcast and the adaptive wait-all) were re-blessed once when the
// per-class allocator replaced the fleet-wide filling: they moved by
// 3, 1 and 3 ulps.
// ---------------------------------------------------------------------------

fn inputs_for(workers: &[Rank], elems: usize) -> BTreeMap<Rank, Vec<f32>> {
    workers
        .iter()
        .map(|r| {
            let buf = (0..elems).map(|i| ((r.0 * 13 + i) % 11) as f32).collect();
            (*r, buf)
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

fn patient_options() -> InitOptions {
    InitOptions {
        relay: RelayConfig {
            fault_floor: SimDuration::from_millis(500.0),
            ..Default::default()
        },
        ..quick_options()
    }
}

fn fnv(outputs: &BTreeMap<Rank, Vec<f32>>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (r, buf) in outputs {
        for b in (r.0 as u64).to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        for v in buf {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

#[test]
fn pipeline_matches_pre_refactor_goldens_for_wait_all_collectives() {
    let c = Cluster::homogeneous_a100(2);
    let kib64 = ByteSize::from_kib(64);
    let elems = 64 * 1024 / 4;

    // AllReduce: a data run, then a 16 MiB timing-only run in the same
    // session (exercises the zero-skew execution cache).
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let inputs = inputs_for(cc.workers(), elems);
        let r = cc.allreduce(kib64, &BTreeMap::new(), Some(inputs)).unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3f07bd06a2e303d3,
            "allreduce finish"
        );
        assert_eq!(fnv(&r.outputs), 0x5495bb624097e475, "allreduce outputs");
        let r2 = cc
            .allreduce(ByteSize::from_mib(16), &BTreeMap::new(), None)
            .unwrap();
        assert_eq!(
            r2.finish.as_secs().to_bits(),
            0x3f572b49cb1b2d9f,
            "allreduce timing"
        );
    }
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let inputs = inputs_for(cc.workers(), elems);
        let r = cc.reduce(kib64, &BTreeMap::new(), Some(inputs)).unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3f01896331389d4a,
            "reduce finish"
        );
        assert_eq!(fnv(&r.outputs), 0xc772b8272d6b4de9, "reduce outputs");
    }
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let inputs = inputs_for(cc.workers(), elems);
        let r = cc
            .broadcast(Rank(1), kib64, &BTreeMap::new(), Some(inputs))
            .unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3ef6c485e00d1e30,
            "broadcast finish"
        );
        assert_eq!(fnv(&r.outputs), 0xb1980c0e8d51c74e, "broadcast outputs");
    }
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let inputs = inputs_for(cc.workers(), elems);
        let r = cc.alltoall(kib64, &BTreeMap::new(), Some(inputs)).unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3eff89efedb823a2,
            "alltoall finish"
        );
        assert_eq!(fnv(&r.outputs), 0x33a8e6ab7f22fc2d, "alltoall outputs");
    }
}

#[test]
fn pipeline_matches_pre_refactor_goldens_for_composites() {
    let c = Cluster::homogeneous_a100(2);
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let t16 = ByteSize::from_kib(16);
        let inputs = inputs_for(cc.workers(), 16 * 1024 / 4);
        let r = cc.allgather(t16, &BTreeMap::new(), Some(inputs)).unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3ef661d6167c73f7,
            "allgather finish"
        );
        assert_eq!(fnv(&r.outputs), 0xff85e564b16ea5f5, "allgather outputs");
        let r2 = cc.allgather(t16, &BTreeMap::new(), None).unwrap();
        assert_eq!(
            r2.finish.as_secs().to_bits(),
            0x3ef661d6167c73f7,
            "allgather timing"
        );
    }
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let n = cc.workers().len();
        let shard_elems = 1024usize;
        let tensor = ByteSize::from_bytes((n * shard_elems * 4) as u64);
        let inputs = inputs_for(cc.workers(), n * shard_elems);
        let r = cc
            .reduce_scatter(tensor, &BTreeMap::new(), Some(inputs))
            .unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3efc0a33bd3b8e82,
            "reduce_scatter finish"
        );
        assert_eq!(
            fnv(&r.outputs),
            0x573fc57d0de0ac80,
            "reduce_scatter outputs"
        );
    }
}

#[test]
fn pipeline_matches_pre_refactor_goldens_for_adaptive_allreduce() {
    let c = Cluster::homogeneous_a100(2);
    let kib64 = ByteSize::from_kib(64);

    // Small skew: the ski-rental rule says wait, and the decision start
    // instant (which embeds the seeded RPC jitter draw) must match.
    {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let mut ready = BTreeMap::new();
        for r in cc.workers().to_vec() {
            ready.insert(r, SimTime::from_secs(r.0 as f64 * 1e-5));
        }
        let r = cc
            .allreduce_adaptive(ByteSize::from_mib(16), &ready, None)
            .unwrap();
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3f5f899be97b8c7a,
            "adaptive wait-all finish"
        );
        match r.decision {
            Decision::WaitAll { start } => {
                assert_eq!(start.as_secs(), 0.0005107690753955371, "decision start");
            }
            other => panic!("expected WaitAll, got {other:?}"),
        }
    }

    // Heavy straggler (not the strategy root): phase-1 partial plus the
    // phase-2 completion broadcast, with full data fidelity.
    {
        let mut cc = AdapCC::init(&c, patient_options());
        cc.setup();
        let workers = cc.workers().to_vec();
        let inputs = inputs_for(&workers, 64 * 1024 / 4);
        let mut ready: BTreeMap<Rank, SimTime> =
            workers.iter().map(|r| (*r, SimTime::ZERO)).collect();
        let strategy_root = cc.strategy_for(Primitive::AllReduce, kib64).subs[0]
            .root
            .unwrap();
        let straggler = workers
            .iter()
            .copied()
            .find(|r| *r != strategy_root)
            .unwrap();
        ready.insert(straggler, SimTime::from_secs(0.04));
        let r = cc.allreduce_adaptive(kib64, &ready, Some(inputs)).unwrap();
        assert!(
            matches!(r.decision, Decision::Partial { .. }),
            "{:?}",
            r.decision
        );
        assert_eq!(
            r.finish.as_secs().to_bits(),
            0x3fa47e86503c75b4,
            "adaptive partial finish"
        );
        assert_eq!(
            fnv(&r.outputs),
            0x5495bb624097e475,
            "adaptive partial outputs"
        );
    }
}

// The goldens below pin the paths the constants above leave open:
// pairwise specs and the rooted Reduce on a heterogeneous fleet, and
// the fanned phase-1/phase-2 split. They were captured on the pipeline
// as it stood before the wait-all and partial executors were merged
// (one function per single-stage, queued, staged and partial path).

/// The paper testbed's 24 workers with all-zero readiness except the
/// last, which straggles 40 ms behind.
fn one_straggler(workers: &[Rank]) -> BTreeMap<Rank, SimTime> {
    let mut ready: BTreeMap<Rank, SimTime> = workers.iter().map(|r| (*r, SimTime::ZERO)).collect();
    ready.insert(*workers.last().unwrap(), SimTime::from_secs(0.04));
    ready
}

#[test]
fn pipeline_matches_goldens_for_rooted_and_pairwise_collectives() {
    let c = Cluster::paper_testbed();
    let kib16 = ByteSize::from_kib(16);
    let root = Rank(5);
    let cases: [(&str, u64, u64); 3] = [
        ("reduce", 0x3f0989ab88e648e1, 0xdd63f20222fe4f25),
        ("gather", 0x3f094d9ffbd810a5, 0xa5538e81fc79236d),
        ("scatter", 0x3eeed77039afec43, 0xd07f8c174f9c922b),
    ];
    for (name, finish, digest) in cases {
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let n = cc.workers().len();
        let idle = BTreeMap::new();
        let r = match name {
            "reduce" => cc.reduce(kib16, &idle, Some(inputs_for(cc.workers(), 16 * 256))),
            "gather" => cc.gather(root, kib16, &idle, Some(inputs_for(cc.workers(), 16 * 256))),
            _ => cc.scatter(
                root,
                ByteSize::from_bytes((n * 256 * 4) as u64),
                &idle,
                Some(inputs_for(cc.workers(), n * 256)),
            ),
        }
        .unwrap();
        assert!(
            matches!(r.decision, Decision::WaitAll { .. }),
            "{name}: {:?}",
            r.decision
        );
        assert_eq!(r.finish.as_secs().to_bits(), finish, "{name} finish");
        assert_eq!(fnv(&r.outputs), digest, "{name} outputs");
    }
}

#[test]
fn pipeline_matches_goldens_for_partial_composites() {
    // One straggler behind an otherwise idle step: the ready owners'
    // sub-collectives run in phase 1, the straggler's in phase 2.
    let c = Cluster::paper_testbed();
    for (name, finish, digest) in [
        ("allgather", 0x3fa47f6e54362735u64, 0x4a2da73c7fad4075u64),
        ("reduce_scatter", 0x3fa47baaa36f8b40, 0x85780ee83ee638d5),
    ] {
        let mut cc = AdapCC::init(&c, patient_options());
        cc.setup();
        let workers = cc.workers().to_vec();
        let n = workers.len();
        let ready = one_straggler(&workers);
        let r = if name == "allgather" {
            cc.allgather(
                ByteSize::from_kib(16),
                &ready,
                Some(inputs_for(&workers, 16 * 256)),
            )
        } else {
            let tensor = ByteSize::from_bytes((n * 256 * 4) as u64);
            cc.reduce_scatter(tensor, &ready, Some(inputs_for(&workers, n * 256)))
        }
        .unwrap();
        assert!(
            matches!(r.decision, Decision::Partial { .. }),
            "{name}: {:?}",
            r.decision
        );
        assert!(r.faults.is_empty(), "{name}: {:?}", r.faults);
        assert_eq!(r.finish.as_secs().to_bits(), finish, "{name} finish");
        assert_eq!(fnv(&r.outputs), digest, "{name} outputs");
    }
}

type EntryPoint = fn(
    &mut AdapCC<'_>,
    ByteSize,
    &BTreeMap<Rank, SimTime>,
    Option<BTreeMap<Rank, Vec<f32>>>,
) -> Result<adapcc::collective::IterationReport, adapcc::AdapCCError>;

#[test]
fn zero_skew_memo_agrees_with_the_executor_for_every_entry_point() {
    // A timing-only run of a single-fanout stage on a healthy fabric
    // is served from the zero-skew execution memo; the same call with
    // data runs the executor. Both must land on the same instant.
    //
    // The adaptive AllReduce is the one exception, by a known offset:
    // its memo starts at the decision instant, which carries the
    // coordinator's RPC delay, while its executor run starts at the
    // workers' readiness. It is compared net of that delay.
    let c = Cluster::paper_testbed();
    let kib64 = ByteSize::from_kib(64);
    // Divisible into f32 shards over the testbed's 24 workers.
    let split = ByteSize::from_bytes(24 * 1024 * 4);
    let at = SimTime::from_secs(0.002);
    let entries: [(&str, ByteSize, EntryPoint); 9] = [
        ("allreduce", kib64, |cc, t, r, i| cc.allreduce(t, r, i)),
        ("reduce", kib64, |cc, t, r, i| cc.reduce(t, r, i)),
        ("broadcast", kib64, |cc, t, r, i| {
            cc.broadcast(Rank(5), t, r, i)
        }),
        ("alltoall", split, |cc, t, r, i| cc.alltoall(t, r, i)),
        ("allreduce_adaptive", kib64, |cc, t, r, i| {
            cc.allreduce_adaptive(t, r, i)
        }),
        ("allgather", kib64, |cc, t, r, i| cc.allgather(t, r, i)),
        ("reduce_scatter", split, |cc, t, r, i| {
            cc.reduce_scatter(t, r, i)
        }),
        ("gather", kib64, |cc, t, r, i| cc.gather(Rank(5), t, r, i)),
        ("scatter", split, |cc, t, r, i| cc.scatter(Rank(5), t, r, i)),
    ];
    for (name, tensor, call) in entries {
        let run = |data: bool| {
            let mut cc = AdapCC::init(&c, quick_options());
            cc.setup();
            let workers = cc.workers().to_vec();
            assert_eq!(workers.len(), 24);
            let ready: BTreeMap<Rank, SimTime> = workers.iter().map(|r| (*r, at)).collect();
            let inputs = data.then(|| inputs_for(&workers, (tensor.as_u64() / 4) as usize));
            call(&mut cc, tensor, &ready, inputs).unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let timing = run(false);
        let data = run(true);
        assert_eq!(timing.decision, data.decision, "{name} decision");
        assert!(!data.outputs.is_empty(), "{name} moved no data");
        let rpc = match timing.decision {
            Decision::WaitAll { start } if name == "allreduce_adaptive" => {
                start.duration_since(at).as_secs()
            }
            _ => 0.0,
        };
        let (t, d) = (timing.finish.as_secs() - rpc, data.finish.as_secs());
        assert!(
            (t - d).abs() <= 1e-12 * d,
            "{name}: memo {t} vs executor {d}"
        );
    }
}

#[test]
fn every_pipeline_stage_emits_one_span_per_collective() {
    // Six entry points through the shared pipeline: each stage must
    // emit exactly one span per collective on the `collective` track.
    let c = Cluster::homogeneous_a100(2);
    let telemetry = Telemetry::enabled();
    let mut options = quick_options();
    options.telemetry = telemetry.clone();
    let mut cc = AdapCC::init(&c, options);
    cc.setup();
    let idle = BTreeMap::new();
    let kib64 = ByteSize::from_kib(64);
    cc.allreduce(kib64, &idle, None).unwrap();
    cc.reduce(kib64, &idle, None).unwrap();
    cc.broadcast(Rank(0), kib64, &idle, None).unwrap();
    cc.alltoall(kib64, &idle, None).unwrap();
    cc.allgather(ByteSize::from_kib(16), &idle, None).unwrap();
    cc.reduce_scatter(ByteSize::from_bytes(8 * 1024 * 4), &idle, None)
        .unwrap();
    let spans = telemetry.spans();
    for stage in [
        "collective.plan",
        "collective.relay",
        "collective.execute",
        "collective.assemble",
    ] {
        let n = spans.iter().filter(|s| s.name == stage).count();
        assert_eq!(n, 6, "expected one {stage} span per collective, got {n}");
    }
    for s in spans.iter().filter(|s| s.name.starts_with("collective.")) {
        assert_eq!(s.track, "collective");
    }
}

// ---------------------------------------------------------------------------
// Executor goldens at scale, driven through `Executor` directly so that
// `bytes_on_wire` is pinned beside the finish instant and the outputs.
// Inputs are fractional, so the output digest also pins the order of
// the f32 additions at every kernel.
// ---------------------------------------------------------------------------

fn fractional_inputs(ranks: &[Rank], elems: usize) -> BTreeMap<Rank, Vec<f32>> {
    ranks
        .iter()
        .map(|r| {
            let buf = (0..elems)
                .map(|i| ((r.0 * 31 + i * 7) % 97) as f32 / 9.0)
                .collect();
            (*r, buf)
        })
        .collect()
}

/// Synthesizes `primitive` over every GPU of `cluster` and executes it
/// once with data; returns (finish bits, bytes on wire, output digest).
fn executed_with_data(
    cluster: &Cluster,
    primitive: Primitive,
    root: Option<Rank>,
    elems: usize,
    anneal_iters: usize,
) -> (u64, u64, u64) {
    let topo = Detector::new(cluster, 1).run().logical_topology(cluster);
    let profile = Profiler::new(cluster, &topo, 1).run().links;
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    let tensor = ByteSize::from_bytes((elems * 4) as u64);
    let mut req = SynthRequest::new(primitive, tensor, 2, ranks.clone());
    req.root = root;
    let config = SynthConfig {
        anneal_iters,
        ..Default::default()
    };
    let strategy = Synthesizer::new(&topo, &profile)
        .with_config(config)
        .synthesize(&req);
    let report = Executor::new(cluster, &topo)
        .execute(&[ExecutionRequest::timing(&strategy, tensor)
            .with_inputs(fractional_inputs(&ranks, elems))]);
    (
        report.finish.as_secs().to_bits(),
        report.bytes_on_wire,
        fnv(&report.requests[0].outputs),
    )
}

#[test]
fn executor_matches_goldens_at_scale() {
    // 256 GPUs on 64 servers: the hierarchical plan. Its fractional
    // inputs make the f32 sums follow the order of same-instant
    // arrivals at each Reduce visit, so the allreduce digest also pins
    // the engine's tie order (mark, then submission). Re-blessed once
    // with the per-class allocator (CHANGES.md table).
    let pod = Cluster::homogeneous_a100(64);
    assert!(Hierarchical::Auto.enabled_for(pod.gpu_count(), pod.instance_count()));
    assert_eq!(
        executed_with_data(&pod, Primitive::AllReduce, None, 4096, 0),
        (0x3f2e1baea60d9740, 0xb6c000, 0x1797cea5468c0325),
        "256-GPU allreduce (finish bits, bytes on wire, outputs)"
    );
    let testbed = Cluster::paper_testbed();
    let cases = [
        (
            Primitive::Reduce,
            None,
            16 * 1024,
            (0x3f13cdc69e0a8499, 0x210000, 0x7f845077cd441e7c),
        ),
        (
            Primitive::Broadcast,
            Some(Rank(5)),
            16 * 1024,
            (0x3f0da4ba09d5af8a, 0x1f0000, 0x7dd57b1efeb9877b),
        ),
        (
            Primitive::AllToAll,
            None,
            24 * 640,
            (0x3f1029e901dbf27f, 0x3b1000, 0x7498c8517a4da0aa),
        ),
    ];
    for (primitive, root, elems, want) in cases {
        assert_eq!(
            executed_with_data(&testbed, primitive, root, elems, 24),
            want,
            "testbed {primitive:?} (finish bits, bytes on wire, outputs)"
        );
    }
}

/// FNV-1a digest of everything session set-up measures on `cluster`:
/// the detection report (every instance's findings and the elapsed
/// probe time) and the profile (each logical edge's fitted α–β cost
/// in edge order, each NIC's measured ingress, the elapsed time and
/// the round count). Every value is hashed through its `Debug` form,
/// whose `f64` output round-trips, so one flipped bit moves the digest.
fn setup_digest(cluster: &Cluster, seed: u64) -> u64 {
    let detection = Detector::new(cluster, seed).run();
    let topo = detection.logical_topology(cluster);
    let report = Profiler::new(cluster, &topo, seed).run();
    let mut text = format!("{detection:?}|{:?}|{}", report.elapsed, report.rounds);
    for e in 0..topo.edge_count() {
        text += &format!("|{:?}", report.links.get(adapcc_topo::logical::EdgeId(e)));
    }
    for i in 0..cluster.instance_count() {
        text += &format!(
            "|{:?}",
            report
                .links
                .nic_ingress(adapcc_simnet::cluster::InstanceId(i))
        );
    }
    let mut h = 0xcbf29ce484222325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn detector_and_profiler_outputs_are_pinned_on_the_bench_fleets() {
    // Session set-up on every perfbench fleet, at the seeds the bench
    // uses. Every modeled plan cost is computed from these outputs, so
    // any engine change that moves them moves `plan_cost_ms`. Against
    // the fleet-wide filling they replaced (CHANGES.md), detection is
    // identical and every profiled value agrees within 3.1e-13
    // relative, and the bench's plan costs are bit-identical.
    let serve_shape = |spec: InstanceSpec, servers: usize| {
        let mut b = ClusterBuilder::new();
        b.add_instances(spec, servers);
        b.build()
    };
    let fleets = [
        (
            "paper_testbed",
            Cluster::paper_testbed(),
            7,
            0xf5c26d0de3ef9574,
        ),
        (
            "fat_tree(8, 4)",
            Cluster::fat_tree(8, 4),
            7,
            0xcc994290b419b0b5,
        ),
        (
            "homogeneous_a100(128)",
            Cluster::homogeneous_a100(128),
            7,
            0x3397bfd147bdefcc,
        ),
        (
            "a100 x2",
            serve_shape(InstanceSpec::a100_server(), 2),
            1,
            0xbc69bccbf8673a4e,
        ),
        (
            "v100 x2",
            serve_shape(InstanceSpec::v100_server(), 2),
            2,
            0x32d68f2b98895d3f,
        ),
        (
            "a100 x2, unique seed",
            serve_shape(InstanceSpec::a100_server(), 2),
            1003,
            0x4fb34d87646c3a37,
        ),
    ];
    for (name, cluster, seed, want) in fleets {
        assert_eq!(setup_digest(&cluster, seed), want, "{name}, seed {seed}");
    }
}
