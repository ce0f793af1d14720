//! Training-performance figures: Fig. 14 (stable environment), Fig. 15
//! (relay selection), Figs. 16-17 (throughput vs batch size),
//! Fig. 18(a) (volatile network) and Fig. 18(b) (serving interference).

use adapcc::{AdapCC, InitOptions};
use adapcc_baselines::runner::{Runner, System};
use adapcc_planserve::{PlanService, PlanStats, ServiceConfig};
use adapcc_simnet::cluster::{Cluster, ClusterBuilder, InstanceId, LinkId, Rank};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::time::SimTime;
use adapcc_simnet::trace::CloudTrace;
use adapcc_train::straggler::StragglerModel;
use adapcc_train::trainer::{train, Backend, TrainConfig};
use adapcc_train::workload::DnnModel;

use crate::harness::{header, profiled, row};

fn tcp(spec: InstanceSpec) -> InstanceSpec {
    spec.with_tcp()
}

fn homo(transport_tcp: bool) -> Cluster {
    let mut b = ClusterBuilder::new();
    let spec = if transport_tcp {
        tcp(InstanceSpec::a100_server())
    } else {
        InstanceSpec::a100_server()
    };
    b.add_instances(spec, 4);
    b.build()
}

fn heter(transport_tcp: bool) -> Cluster {
    let mut b = ClusterBuilder::new();
    let (a, v) = if transport_tcp {
        (
            tcp(InstanceSpec::a100_server()),
            tcp(InstanceSpec::v100_server()),
        )
    } else {
        (InstanceSpec::a100_server(), InstanceSpec::v100_server())
    };
    b.add_instances(a, 2);
    b.add_instances(v, 2);
    b.build()
}

/// Fig. 14: per-iteration communication time in the stable
/// environment, per model x {Homo, Heter} x {RDMA, TCP}.
pub fn fig14() -> Vec<String> {
    let mut out =
        vec!["Fig. 14 — per-iteration communication time (ms), stable environment".into()];
    let iters = 8;
    out.push(header("setting", &["AdapCC", "NCCL", "MSCCL", "speedup"]));
    for model in DnnModel::all() {
        for (env, transport_tcp) in [("Homo/RDMA", false), ("Homo/TCP", true)] {
            let cluster = homo(transport_tcp);
            out.push(fig14_row(&cluster, model, env, iters));
        }
        for (env, transport_tcp) in [("Heter/RDMA", false), ("Heter/TCP", true)] {
            let cluster = heter(transport_tcp);
            out.push(fig14_row(&cluster, model, env, iters));
        }
    }
    out.push(String::new());
    out.push("paper: 1.12x-1.30x over NCCL in Homo, up to 2x in Heter (TCP worst for NCCL)".into());
    out
}

fn fig14_row(cluster: &Cluster, model: DnnModel, env: &str, iters: usize) -> String {
    let ours = train(
        cluster,
        &TrainConfig::new(model, Backend::AdapCcAdaptive, iters),
    );
    let nccl = train(
        cluster,
        &TrainConfig::new(model, Backend::Baseline(System::Nccl), iters),
    );
    let msccl = train(
        cluster,
        &TrainConfig::new(model, Backend::Baseline(System::Msccl), iters),
    );
    row(
        &format!("{model} {env}"),
        &[
            ours.mean_comm_secs * 1e3,
            nccl.mean_comm_secs * 1e3,
            msccl.mean_comm_secs * 1e3,
            nccl.mean_comm_secs / ours.mean_comm_secs,
        ],
    )
}

/// Fig. 15: probability of each worker being chosen as a relay.
pub fn fig15() -> Vec<String> {
    let mut out = vec!["Fig. 15 — relay selection probability per worker".into()];
    let iters = 40;
    for (label, cluster) in [
        (
            "heterogeneous (ranks 8..16 are V100)",
            Cluster::heterogeneous_2a100_2v100(),
        ),
        ("homogeneous", Cluster::homogeneous_a100(4)),
    ] {
        let report = train(
            &cluster,
            &TrainConfig::new(DnnModel::Gpt2, Backend::AdapCcAdaptive, iters).with_seed(3),
        );
        out.push(format!("\n{label}:"));
        let partials = report.iterations.iter().filter(|i| i.partial).count();
        out.push(format!("  partial collectives: {partials}/{iters}"));
        for (rank, p) in &report.relay_probability {
            if *p > 0.0 {
                out.push(format!("  rank {rank:>2}: {:>5.1}%", p * 100.0));
            }
        }
    }
    out
}

/// Figs. 16 & 17: training throughput versus batch size.
pub fn fig16_17(model: DnnModel, batches: &[usize]) -> Vec<String> {
    let fig = if model == DnnModel::Gpt2 {
        "Fig. 16"
    } else {
        "Fig. 17"
    };
    let mut out = vec![format!(
        "{fig} — {model} training throughput (samples/s) vs per-GPU batch size, heterogeneous cluster"
    )];
    let cluster = Cluster::heterogeneous_2a100_2v100();
    out.push(header("batch", &["AdapCC", "NCCL", "improvement"]));
    for &batch in batches {
        let ours = train(
            &cluster,
            &TrainConfig::new(model, Backend::AdapCcAdaptive, 8).with_batch(batch),
        );
        let nccl = train(
            &cluster,
            &TrainConfig::new(model, Backend::Baseline(System::Nccl), 8).with_batch(batch),
        );
        out.push(row(
            &format!("batch {batch}"),
            &[
                ours.throughput,
                nccl.throughput,
                (ours.throughput / nccl.throughput - 1.0) * 100.0,
            ],
        ));
    }
    out.push("(improvement column in %; paper: up to 31% for GPT-2, 20% for ViT)".into());
    out
}

/// All NIC port links of a cluster (the links the `tc` shaping hits).
fn nic_links(cluster: &Cluster) -> Vec<LinkId> {
    (0..cluster.instance_count())
        .flat_map(|i| {
            [
                cluster.nic_egress_link(InstanceId(i)),
                cluster.nic_ingress_link(InstanceId(i)),
            ]
        })
        .collect()
}

/// Fig. 18(a): makespan of 10^4 VGG16 iterations under trace-driven
/// volatile bandwidth, versus the amplification factor x.
pub fn fig18a() -> Vec<String> {
    let mut out =
        vec!["Fig. 18(a) — makespan of 10^4 VGG16 iterations under volatile bandwidth".into()];
    let total_iters = 10_000usize;
    let profile_period = 500usize;
    out.push(header(
        "amplification x",
        &["AdapCC (s)", "NCCL (s)", "reduction %"],
    ));
    let cold_baseline = ServiceConfig {
        byte_budget: 0,
        ..ServiceConfig::one_shard()
    };
    let mut warm_at_max = None;
    for x in [0.0, 0.2, 0.4, 0.6] {
        let adapcc = volatile_makespan(
            true,
            x,
            total_iters,
            profile_period,
            ServiceConfig::one_shard(),
        );
        let nccl = volatile_makespan(false, x, total_iters, profile_period, cold_baseline);
        out.push(row(
            &format!("x = {x:.1}"),
            &[
                adapcc.makespan,
                nccl.makespan,
                (1.0 - adapcc.makespan / nccl.makespan) * 100.0,
            ],
        ));
        warm_at_max = Some(adapcc);
    }
    // Reconstruction-cost breakdown at the highest volatility: the same
    // trace replayed without the plan cache pays the cold solver on
    // every drift, with it the shape-stable fleet warm-starts instead.
    let cold = volatile_makespan(true, 0.6, total_iters, profile_period, cold_baseline);
    let warm = warm_at_max.expect("loop ran");
    let stats = warm.cache.unwrap_or_default();
    out.push(format!(
        "reconstruction cost at x = 0.6: cache-cold {:.1} s -> cache-warm {:.1} s \
         ({} warm start(s), {} exact hit(s), {:.1} s modeled solver time saved)",
        cold.recon_secs,
        warm.recon_secs,
        stats.warm_starts,
        stats.hits,
        stats.saved.as_secs()
    ));
    out.push("paper: the makespan gap over NCCL widens as volatility grows".into());
    out
}

/// One `volatile_makespan` replay: the makespan itself, the portion
/// spent on reconstruction (profiling + solving + setup), and the
/// session's plan-cache counters (adaptive runs only).
struct VolatileRun {
    makespan: f64,
    recon_secs: f64,
    cache: Option<PlanStats>,
}

/// Stepwise makespan estimation: the trace advances in windows; each
/// window's per-iteration time is measured once and multiplied by the
/// iterations that fit. AdapCC re-profiles every `profile_period`
/// iterations (cost charged) and re-synthesizes when links changed;
/// `plans` configures the adaptive session's private plan service.
fn volatile_makespan(
    adaptive: bool,
    x: f64,
    total_iters: usize,
    profile_period: usize,
    plans: ServiceConfig,
) -> VolatileRun {
    let cluster = Cluster::homogeneous_a100(4);
    let model = DnnModel::Vgg16;
    let tensor = model.tensor_size();
    let links = nic_links(&cluster);
    // Per-instance traces: same process, independent phases.
    let traces: Vec<CloudTrace> = (0..cluster.instance_count())
        .map(|i| CloudTrace::synthesize(100 + i as u64, 8.0 * 3600.0, 60.0).amplified(x))
        .collect();
    let mut stragglers = StragglerModel::new(9);

    let mut session = adaptive.then(|| {
        let mut cc = AdapCC::init(
            &cluster,
            InitOptions {
                plan_service: Some(std::sync::Arc::new(PlanService::new(plans))),
                ..Default::default()
            },
        );
        cc.setup();
        cc
    });
    let baseline = (!adaptive).then(|| profiled(&cluster, 1));

    let mut makespan = 0.0f64;
    let mut recon_secs = 0.0f64;
    let mut done = 0usize;
    while done < total_iters {
        // Sample the trace at the current simulated wall clock.
        let now = SimTime::from_secs(makespan);
        let factors: Vec<(LinkId, f64)> = links
            .iter()
            .enumerate()
            .map(|(k, l)| (*l, traces[k / 2].sample(now).bandwidth_factor))
            .collect();
        // One profiling window of iterations under these factors.
        let ready = stragglers.ready_times(&cluster, model, model.default_batch());
        let iter_secs = match (&mut session, &baseline) {
            (Some(cc), _) => {
                cc.set_fabric_factors(factors.clone());
                let recon = cc.reprofile();
                recon_secs += recon.total().as_secs();
                makespan += recon.total().as_secs();
                cc.allreduce_adaptive(tensor, &ready, None)
                    .expect("healthy fabric")
                    .finish
                    .as_secs()
            }
            (None, Some((topo, profile))) => {
                let runner = Runner::new(&cluster, topo, profile).with_capacity_factors(&factors);
                runner
                    .run(
                        System::Nccl,
                        adapcc_synth::Primitive::AllReduce,
                        tensor,
                        &(0..cluster.gpu_count()).map(Rank).collect::<Vec<_>>(),
                        &ready,
                    )
                    .finish
                    .as_secs()
            }
            _ => unreachable!(),
        };
        let window = profile_period.min(total_iters - done);
        makespan += iter_secs * window as f64;
        done += window;
    }
    VolatileRun {
        makespan,
        recon_secs,
        cache: session.map(|cc| cc.plan_cache_stats()),
    }
}

/// Fig. 18(b): communication speed-up over NCCL versus the CPU
/// interference level of co-located online tasks.
pub fn fig18b() -> Vec<String> {
    let mut out =
        vec!["Fig. 18(b) — communication speed-up over NCCL vs CPU interference level".into()];
    let cluster = Cluster::homogeneous_a100(4);
    let iters = 12;
    out.push(header(
        "interference",
        &["AdapCC (ms)", "NCCL (ms)", "speed-up"],
    ));
    for level in [0.0, 100.0, 200.0, 300.0, 400.0] {
        let ours = train(
            &cluster,
            &TrainConfig::new(DnnModel::Vgg16, Backend::AdapCcAdaptive, iters)
                .with_interference(level),
        );
        let nccl = train(
            &cluster,
            &TrainConfig::new(DnnModel::Vgg16, Backend::Baseline(System::Nccl), iters)
                .with_interference(level),
        );
        out.push(row(
            &format!("{level:.0}%"),
            &[
                ours.mean_comm_secs * 1e3,
                nccl.mean_comm_secs * 1e3,
                nccl.mean_comm_secs / ours.mean_comm_secs,
            ],
        ));
    }
    out.push("paper: up to 1.49x faster communication at high interference".into());
    out
}
