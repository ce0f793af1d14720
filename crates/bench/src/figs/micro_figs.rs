//! Micro-benchmarks: Fig. 19(b) accuracy, Fig. 19(c) graph
//! reconstruction cost, Fig. 19(d) relay-control RPC latency, and the
//! DESIGN.md ablations.

use adapcc::{nccl_restart_cost, AdapCC, InitOptions};
use adapcc_planserve::{PlanService, PlanStats, ServiceConfig};
use adapcc_simnet::cluster::{Cluster, InstanceId, Rank};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::cost::CostModel;
use adapcc_synth::solver::{SynthConfig, SynthRequest, Synthesizer};
use adapcc_synth::Primitive;
use adapcc_train::accuracy::{run_accuracy_experiment, AggregationMode};
use adapcc_train::trainer::{train, Backend, TrainConfig};
use adapcc_train::workload::DnnModel;

use crate::harness::{header, percentile, profiled, row};

/// Fig. 19(b): top-1 accuracy per epoch for the four aggregation
/// modes, trained with real gradients through real collectives.
pub fn fig19b() -> Vec<String> {
    let mut out = vec![
        "Fig. 19(b) — top-1 accuracy per epoch (real data-parallel MLP, real collectives)".into(),
    ];
    let cluster = Cluster::homogeneous_a100(1);
    let epochs = 6;
    let modes = [
        AggregationMode::RelaySync,
        AggregationMode::FullSync,
        AggregationMode::NcclGraphOrder,
        AggregationMode::RelayAsync,
    ];
    let epoch_labels: Vec<String> = (1..=epochs).map(|e| format!("ep{e}")).collect();
    let cols: Vec<&str> = epoch_labels.iter().map(String::as_str).collect();
    out.push(header("mode", &cols));
    for mode in modes {
        let curve = run_accuracy_experiment(&cluster, mode, epochs, 7);
        let values: Vec<f64> = curve.per_epoch.iter().map(|a| a * 100.0).collect();
        out.push(row(mode.name(), &values));
    }
    out.push(String::new());
    out.push(
        "paper: the synchronous variants converge identically; Relay Async converges worse".into(),
    );
    out
}

/// Fig. 19(c): in-place graph reconstruction cost versus the NCCL
/// restart path, across job scales — with the plan cache's warm-started
/// re-synthesis shown against the cache-disabled cold solve.
pub fn fig19c() -> Vec<String> {
    let mut out = vec!["Fig. 19(c) — graph reconstruction cost vs job scale".into()];
    out.push(header(
        "scale",
        &[
            "profile (s)",
            "solve cold",
            "solve warm",
            "setup",
            "AdapCC",
            "NCCL",
            "saved %",
        ],
    ));
    let tensor = DnnModel::Vgg16.tensor_size();
    for servers in [2usize, 4, 6, 8, 12] {
        let cluster = Cluster::homogeneous_a100(servers);
        let cold_baseline = ServiceConfig {
            byte_budget: 0,
            ..ServiceConfig::one_shard()
        };
        let (cold, _) = fig19c_reconstruct(&cluster, tensor, cold_baseline);
        let (warm, stats) = fig19c_reconstruct(&cluster, tensor, ServiceConfig::one_shard());
        assert!(
            stats.warm_starts > 0,
            "a drifted profile over an unchanged fleet should warm-start"
        );
        let restart = nccl_restart_cost(tensor, cluster.gpu_count());
        let ours = warm.total().as_secs();
        let theirs = restart.total().as_secs();
        out.push(row(
            &format!("{servers} servers / {} GPUs", cluster.gpu_count()),
            &[
                warm.profiling.as_secs(),
                cold.solving.as_secs(),
                warm.solving.as_secs(),
                warm.setup.as_secs(),
                ours,
                theirs,
                (1.0 - ours / theirs) * 100.0,
            ],
        ));
    }
    out.push(format!(
        "plan cache: warm-started re-synthesis bills {:.0}x less solver time than a cold solve",
        1.0 / adapcc::reconstruct::WARM_SOLVE_FRACTION
    ));
    out.push("paper: 74-91% saved vs restart; topology detection constant (~1.2 s)".into());
    out
}

/// One Fig. 19(c) data point: synthesize, degrade a NIC, re-profile,
/// and return the reconstruction report plus cache counters. `plans`
/// configures the session's private plan service.
fn fig19c_reconstruct(
    cluster: &Cluster,
    tensor: ByteSize,
    plans: ServiceConfig,
) -> (adapcc::reconstruct::ReconstructReport, PlanStats) {
    let mut cc = AdapCC::init(
        cluster,
        InitOptions {
            synth: SynthConfig {
                anneal_iters: 120,
                ..Default::default()
            },
            plan_service: Some(std::sync::Arc::new(PlanService::new(plans))),
            ..Default::default()
        },
    );
    cc.setup();
    let _ = cc.strategy_for(Primitive::AllReduce, tensor);
    // Degrade one NIC so re-synthesis actually happens.
    cc.set_fabric_factors(vec![(cluster.nic_egress_link(InstanceId(0)), 0.5)]);
    let recon = cc.reprofile();
    assert!(recon.changed, "reconstruction should trigger");
    (recon, cc.plan_cache_stats())
}

/// Fig. 19(d): CDF of the relay-negotiation RPC latency over 1000
/// iterations on the six-server testbed.
pub fn fig19d() -> Vec<String> {
    let mut out = vec![
        "Fig. 19(d) — relay-control RPC latency CDF (1000 VGG16 iterations, 6 servers)".into(),
    ];
    let cluster = Cluster::paper_testbed();
    let (topo, profile) = profiled(&cluster, 1);
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    let tensor = DnnModel::Vgg16.tensor_size();
    let strategy = Synthesizer::new(&topo, &profile)
        .with_config(SynthConfig {
            anneal_iters: 24,
            ..Default::default()
        })
        .synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            4,
            ranks.clone(),
        ));
    let root = strategy.subs[0].root.expect("rooted");
    let est = adapcc::BuyEstimate::new(&topo, &profile, &strategy, tensor);
    // Drive 1000 coordinator decisions with realistic ready times; the
    // RPC metric is independent of the collective execution itself.
    let mut coordinator = adapcc::Coordinator::new(4);
    let mut stragglers = adapcc_train::straggler::StragglerModel::new(4);
    for _ in 0..1000 {
        let ready = stragglers.ready_times(&cluster, DnnModel::Vgg16, 128);
        let _ = coordinator.decide(&ranks, root, &ready, &est);
    }
    let delays = &coordinator.stats().rpc_delays_ms;
    out.push(header("percentile", &["latency (ms)"]));
    for p in [10.0, 50.0, 90.0, 99.0] {
        out.push(row(&format!("p{p:.0}"), &[percentile(delays, p)]));
    }
    let p90 = percentile(delays, 90.0);
    out.push(format!(
        "\np90 = {p90:.2} ms (paper: 90% of negotiations under 1.5 ms)"
    ));
    out
}

/// DESIGN.md ablations: annealing on/off, cost-model fidelity, and
/// relay policy versus always-wait.
pub fn ablation() -> Vec<String> {
    let mut out = vec!["Ablations (DESIGN.md)".into()];

    // (1) Candidate generators alone vs annealed search.
    let cluster = Cluster::paper_testbed();
    let (topo, profile) = profiled(&cluster, 1);
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    let tensor = ByteSize::from_mib(256);
    let model = CostModel::new(&topo, &profile);
    let req = SynthRequest::new(Primitive::AllReduce, tensor, 4, ranks.clone());
    let quick = Synthesizer::new(&topo, &profile)
        .with_config(SynthConfig {
            anneal_iters: 0,
            ..Default::default()
        })
        .synthesize(&req);
    let full = Synthesizer::new(&topo, &profile).synthesize(&req);
    let cq = model.evaluate(&quick, tensor).completion.as_secs();
    let cf = model.evaluate(&full, tensor).completion.as_secs();
    out.push(format!(
        "\n(1) synthesizer search: generators-only {:.1} ms -> annealed {:.1} ms ({:.1}% better)",
        cq * 1e3,
        cf * 1e3,
        (1.0 - cf / cq) * 100.0
    ));

    // (2) Cost-model fidelity: predicted vs executed completion.
    let exec = adapcc::executor::Executor::new(&cluster, &topo);
    let measured = exec
        .execute(&[adapcc::executor::ExecutionRequest::timing(&full, tensor)])
        .finish
        .as_secs();
    out.push(format!(
        "(2) cost model fidelity: predicted {:.1} ms vs executed {:.1} ms ({:+.0}% error)",
        cf * 1e3,
        measured * 1e3,
        (cf / measured - 1.0) * 100.0
    ));

    // (3) Relay policy vs always-wait under heavy interference.
    let homo = Cluster::homogeneous_a100(4);
    let adaptive = train(
        &homo,
        &TrainConfig::new(DnnModel::Vgg16, Backend::AdapCcAdaptive, 12).with_interference(400.0),
    );
    let waiting = train(
        &homo,
        &TrainConfig::new(DnnModel::Vgg16, Backend::AdapCcWaitAll, 12).with_interference(400.0),
    );
    out.push(format!(
        "(3) relay policy at 400% interference: ski-rental {:.1} ms vs always-wait {:.1} ms per iteration",
        adaptive.mean_comm_secs * 1e3,
        waiting.mean_comm_secs * 1e3
    ));
    out
}
