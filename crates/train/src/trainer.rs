//! The data-parallel training loop driving the communication backends
//! (paper Sec. VI-D).
//!
//! Each iteration draws per-worker tensor-ready times from the
//! straggler model, runs the model's dominant collective under the
//! selected backend, and records the paper's metrics: per-iteration
//! communication time (waiting included), wait-time ratio (Fig. 3(b)),
//! relay decisions (Fig. 15), iteration time and training throughput
//! (Figs. 14, 16, 17).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use adapcc::{AdapCC, Decision, InitOptions};
use adapcc_baselines::runner::{Runner, System};
use adapcc_profile::profiler::{LinkProfile, Profiler};
use adapcc_simnet::cluster::{Cluster, LinkId, Rank};
use adapcc_simnet::time::SimDuration;
use adapcc_synth::primitive::Primitive;
use adapcc_topo::detect::Detector;
use adapcc_topo::logical::LogicalTopology;

use crate::straggler::{wait_time_ratio, StragglerModel};
use crate::workload::DnnModel;

/// Which communication backend trains the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AdapCC with adaptive relay control.
    AdapCcAdaptive,
    /// AdapCC strategies but always waiting for every worker
    /// (isolates the synthesized graphs from the relay mechanism).
    AdapCcWaitAll,
    /// One of the baseline systems (always wait-all).
    Baseline(System),
}

impl Backend {
    /// Display name.
    pub fn name(self) -> String {
        match self {
            Backend::AdapCcAdaptive => "AdapCC".into(),
            Backend::AdapCcWaitAll => "AdapCC-wait".into(),
            Backend::Baseline(s) => s.name().into(),
        }
    }
}

/// Training-run parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// The DNN workload.
    pub model: DnnModel,
    /// Per-GPU batch size.
    pub batch: usize,
    /// Iterations to run.
    pub iterations: usize,
    /// Backend under test.
    pub backend: Backend,
    /// RNG seed.
    pub seed: u64,
    /// CPU-interference level (0 disables; paper Fig. 18(b)).
    pub interference_percent: f64,
    /// Iterations between interference episode re-rolls.
    pub interference_period: usize,
    /// Live capacity factors applied to the fabric (volatile network).
    pub fabric_factors: Vec<(LinkId, f64)>,
}

impl TrainConfig {
    /// A run of `iterations` iterations of `model` under `backend`
    /// with the paper's default batch size.
    pub fn new(model: DnnModel, backend: Backend, iterations: usize) -> Self {
        TrainConfig {
            model,
            batch: model.default_batch(),
            iterations,
            backend,
            seed: 0,
            interference_percent: 0.0,
            interference_period: 20,
            fabric_factors: Vec::new(),
        }
    }

    /// Overrides the per-GPU batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Enables CPU interference at the given level.
    pub fn with_interference(mut self, percent: f64) -> Self {
        self.interference_percent = percent;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-iteration measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationStat {
    /// Communication time including waiting (paper's metric).
    pub comm_secs: f64,
    /// Actual communication time once transfers began.
    pub comm_actual_secs: f64,
    /// Wait-time ratio (Fig. 3(b)).
    pub wait_ratio: f64,
    /// Iteration wall time (compute overlap + communication).
    pub iteration_secs: f64,
    /// Whether a partial (relay) collective ran.
    pub partial: bool,
    /// Relays chosen this iteration.
    pub relays: Vec<usize>,
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-iteration measurements.
    pub iterations: Vec<IterationStat>,
    /// Total simulated time.
    pub makespan: SimDuration,
    /// Samples per second: `global batch / mean iteration time`.
    pub throughput: f64,
    /// Relay probability per rank (Fig. 15), when AdapCC ran.
    pub relay_probability: BTreeMap<usize, f64>,
    /// Mean communication seconds per iteration.
    pub mean_comm_secs: f64,
}

/// Runs one training configuration on a cluster.
///
/// # Panics
///
/// Panics if `iterations` is zero.
pub fn train(cluster: &Cluster, config: &TrainConfig) -> TrainReport {
    assert!(config.iterations > 0, "need at least one iteration");
    let mut stragglers = StragglerModel::new(config.seed);
    let tensor = config.model.tensor_size();
    let primitive = config.model.primitive();
    let workers: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();

    // Backend state.
    let mut session: Option<AdapCC<'_>> = None;
    let mut baseline: Option<(LogicalTopology, LinkProfile, f64)> = None;
    match config.backend {
        Backend::AdapCcAdaptive | Backend::AdapCcWaitAll => {
            let mut cc = AdapCC::init(
                cluster,
                InitOptions {
                    seed: config.seed,
                    ..Default::default()
                },
            );
            cc.setup();
            cc.set_fabric_factors(config.fabric_factors.clone());
            session = Some(cc);
        }
        Backend::Baseline(sys) => {
            let topo = Detector::new(cluster, config.seed)
                .run()
                .logical_topology(cluster);
            let profile = Profiler::new(cluster, &topo, config.seed).run().links;
            // Baseline collectives are deterministic: measure the
            // zero-skew execution once and gate it on the slowest
            // worker each iteration.
            let runner =
                Runner::new(cluster, &topo, &profile).with_capacity_factors(&config.fabric_factors);
            let exec_secs = runner
                .run(sys, primitive, tensor, &workers, &BTreeMap::new())
                .comm_time
                .as_secs();
            baseline = Some((topo, profile, exec_secs));
        }
    }

    let mut iterations = Vec::with_capacity(config.iterations);
    let mut makespan = 0.0f64;
    for it in 0..config.iterations {
        if config.interference_percent > 0.0 && it % config.interference_period == 0 {
            stragglers.roll_interference_episode(cluster, config.interference_percent);
        }
        let ready = stragglers.ready_times(cluster, config.model, config.batch);
        let first = ready
            .values()
            .copied()
            .min()
            .expect("workers exist")
            .as_secs();
        let last = ready
            .values()
            .copied()
            .max()
            .expect("workers exist")
            .as_secs();

        let (finish, comm_secs, partial, relays) = match (&mut session, &baseline, config.backend) {
            (Some(cc), _, Backend::AdapCcAdaptive) => {
                let rep = match primitive {
                    Primitive::AllToAll => cc.alltoall(tensor, &ready, None),
                    _ => cc.allreduce_adaptive(tensor, &ready, None),
                }
                .expect("healthy fabric");
                let (partial, relays) = match &rep.decision {
                    Decision::Partial { relays, .. } => {
                        (true, relays.iter().map(|r| r.0).collect())
                    }
                    Decision::WaitAll { .. } => (false, Vec::new()),
                };
                (
                    rep.finish.as_secs(),
                    rep.comm_time.as_secs(),
                    partial,
                    relays,
                )
            }
            (Some(cc), _, Backend::AdapCcWaitAll) => {
                let rep = match primitive {
                    Primitive::AllToAll => cc.alltoall(tensor, &ready, None),
                    _ => cc.allreduce(tensor, &ready, None),
                }
                .expect("healthy fabric");
                (
                    rep.finish.as_secs(),
                    rep.comm_time.as_secs(),
                    false,
                    Vec::new(),
                )
            }
            (_, Some((_, _, exec_secs)), Backend::Baseline(_)) => {
                let finish = last + exec_secs;
                (finish, finish - first, false, Vec::new())
            }
            _ => unreachable!("backend state initialized above"),
        };

        let comm_actual = (finish - last).max(1e-9);
        let iteration_secs = finish.max(last);
        makespan += iteration_secs;
        iterations.push(IterationStat {
            comm_secs,
            comm_actual_secs: comm_actual,
            wait_ratio: wait_time_ratio(&ready, comm_actual),
            iteration_secs,
            partial,
            relays,
        });
        let _ = first;
    }

    let mean_comm = iterations.iter().map(|i| i.comm_secs).sum::<f64>() / iterations.len() as f64;
    let mean_iter =
        iterations.iter().map(|i| i.iteration_secs).sum::<f64>() / iterations.len() as f64;
    let global_batch = (config.batch * cluster.gpu_count()) as f64;
    let relay_probability = match &session {
        Some(cc) => {
            let stats = cc.relay_stats();
            (0..cluster.gpu_count())
                .map(|r| (r, stats.relay_probability(Rank(r))))
                .collect()
        }
        None => BTreeMap::new(),
    };
    TrainReport {
        iterations,
        makespan: SimDuration::from_secs(makespan),
        throughput: global_batch / mean_iter,
        relay_probability,
        mean_comm_secs: mean_comm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_is_competitive_with_wait_all_under_heterogeneity() {
        // Ski rental is 2-competitive: with a systematic compute skew
        // (every V100 is ~2x slower every iteration) the right call is
        // usually to wait, and the adaptive policy must track that
        // within its competitive margin while occasionally trading a
        // partial collective against tail stragglers.
        let c = Cluster::heterogeneous_2a100_2v100();
        let adaptive = train(
            &c,
            &TrainConfig::new(DnnModel::Vit, Backend::AdapCcAdaptive, 12),
        );
        let waiting = train(
            &c,
            &TrainConfig::new(DnnModel::Vit, Backend::AdapCcWaitAll, 12),
        );
        assert!(
            adaptive.mean_comm_secs < waiting.mean_comm_secs * 1.35,
            "adaptive {} vs wait {}",
            adaptive.mean_comm_secs,
            waiting.mean_comm_secs
        );
    }

    #[test]
    fn adapcc_outruns_nccl_end_to_end() {
        // On RDMA 2+2 the V100 NIC duplex is a physical floor both
        // systems reach, so AdapCC only matches NCCL there; the robust
        // end-to-end win the paper highlights is on kernel TCP, where
        // NCCL's single 20 Gbps channel starves a 100 Gbps NIC and
        // AdapCC's parallel sub-collectives do not.
        let mut b = adapcc_simnet::cluster::ClusterBuilder::new();
        b.add_instances(
            adapcc_simnet::hardware::InstanceSpec::a100_server().with_tcp(),
            2,
        );
        b.add_instances(
            adapcc_simnet::hardware::InstanceSpec::v100_server().with_tcp(),
            2,
        );
        let c = b.build();
        let ours = train(
            &c,
            &TrainConfig::new(DnnModel::Vgg16, Backend::AdapCcAdaptive, 10),
        );
        let nccl = train(
            &c,
            &TrainConfig::new(DnnModel::Vgg16, Backend::Baseline(System::Nccl), 10),
        );
        assert!(
            ours.throughput > nccl.throughput * 1.03,
            "ours {} vs nccl {}",
            ours.throughput,
            nccl.throughput
        );
        // And on RDMA, AdapCC must at least hold parity.
        let r = Cluster::heterogeneous_2a100_2v100();
        let ours_r = train(
            &r,
            &TrainConfig::new(DnnModel::Vgg16, Backend::AdapCcAdaptive, 10),
        );
        let nccl_r = train(
            &r,
            &TrainConfig::new(DnnModel::Vgg16, Backend::Baseline(System::Nccl), 10),
        );
        assert!(
            ours_r.throughput > nccl_r.throughput * 0.97,
            "rdma parity: ours {} vs nccl {}",
            ours_r.throughput,
            nccl_r.throughput
        );
    }

    #[test]
    fn hetero_wait_ratios_exceed_homo() {
        let hetero = Cluster::heterogeneous_2a100_2v100();
        let homo = Cluster::homogeneous_a100(4);
        let cfg = |_c: &Cluster| TrainConfig::new(DnnModel::Gpt2, Backend::AdapCcWaitAll, 10);
        let h = train(&hetero, &cfg(&hetero));
        let o = train(&homo, &cfg(&homo));
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let mh = median(h.iterations.iter().map(|i| i.wait_ratio).collect());
        let mo = median(o.iterations.iter().map(|i| i.wait_ratio).collect());
        assert!(mh > mo, "hetero {mh} vs homo {mo}");
        // Paper Fig. 3(b): >= 23% median in the heterogeneous case.
        assert!(mh > 0.2, "hetero median wait ratio {mh}");
    }

    #[test]
    fn interference_increases_partial_decisions() {
        let c = Cluster::homogeneous_a100(2);
        let calm = train(
            &c,
            &TrainConfig::new(DnnModel::Vgg16, Backend::AdapCcAdaptive, 15),
        );
        let noisy = train(
            &c,
            &TrainConfig::new(DnnModel::Vgg16, Backend::AdapCcAdaptive, 15)
                .with_interference(400.0),
        );
        let partials = |r: &TrainReport| r.iterations.iter().filter(|i| i.partial).count();
        assert!(
            partials(&noisy) >= partials(&calm),
            "noisy {} vs calm {}",
            partials(&noisy),
            partials(&calm)
        );
        assert!(noisy.mean_comm_secs > 0.0);
    }

    #[test]
    fn relay_probability_skews_to_slow_gpus() {
        // Partial collectives trigger on tail stragglers; V100s have
        // both slower means and fatter absolute tails, so when relays
        // are chosen at all they should skew V100-ward (Fig. 15).
        let c = Cluster::heterogeneous_2a100_2v100();
        let r = train(
            &c,
            &TrainConfig::new(DnnModel::Gpt2, Backend::AdapCcAdaptive, 25).with_seed(3),
        );
        let a100: f64 = (0..8).map(|i| r.relay_probability[&i]).sum::<f64>() / 8.0;
        let v100: f64 = (8..16).map(|i| r.relay_probability[&i]).sum::<f64>() / 8.0;
        let any_partial = r.iterations.iter().any(|i| i.partial);
        if any_partial {
            assert!(v100 >= a100, "v100 {v100} vs a100 {a100}");
        }
    }

    #[test]
    fn throughput_definition() {
        let c = Cluster::homogeneous_a100(2);
        let r = train(
            &c,
            &TrainConfig::new(DnnModel::Vit, Backend::AdapCcWaitAll, 5),
        );
        let mean_iter = r.iterations.iter().map(|i| i.iteration_secs).sum::<f64>() / 5.0;
        let expect = (128 * 8) as f64 / mean_iter;
        assert!((r.throughput - expect).abs() / expect < 1e-9);
    }
}
