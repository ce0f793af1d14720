//! The `adapcc-sim parallel3d` benchmark: one 3D-parallel + MoE
//! training step on a fat tree, group-oblivious versus
//! contention-aware co-scheduled synthesis.
//!
//! Each phase of [`ParallelLayout::three_d_step`] is a set of process
//! groups running the same collective at once over shared NICs. The
//! oblivious variant solves every group on an empty fabric (what a
//! per-group AdapCC instance would do today); the aware variant runs
//! the [`co_schedule`] fix-point loop, each group re-solving against
//! its peers' pinned background load. Both variants are then *executed*
//! as one concurrent batch per phase on the same simulated fabric —
//! the executed makespans, not the model's opinion, decide the
//! comparison.

use adapcc::{ExecutionRequest, Executor};
use adapcc_profile::profiler::LinkProfile;
use adapcc_simnet::cluster::Cluster;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::coschedule::{co_schedule, CoScheduleOptions};
use adapcc_synth::solver::SynthConfig;
use adapcc_topo::logical::LogicalTopology;
use adapcc_train::parallel::ParallelLayout;

use crate::record::Row;

/// One parallel3d run, ready to benchmark.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Fat-tree servers.
    pub servers: usize,
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// The (dp, tp, pp) grid; must cover the fleet exactly.
    pub layout: ParallelLayout,
    /// Model parameter bytes (sharded over tp·pp).
    pub model: ByteSize,
    /// Parallel sub-collectives per strategy (`M`).
    pub parallelism: usize,
    /// Profiling/synthesis seed.
    pub seed: u64,
    /// Synthesis effort for every per-group solve.
    pub synth: SynthConfig,
    /// Fix-point sweep cap for the aware variant.
    pub max_rounds: usize,
}

impl Default for ParallelConfig {
    /// `adapcc-sim parallel3d`'s defaults: 8 servers x 4 GPUs as dp=8,
    /// tp=2, pp=2, a 512 MiB model, `M` = 4, seed 1, 4 sweeps.
    fn default() -> Self {
        ParallelConfig {
            servers: 8,
            gpus_per_server: 4,
            layout: ParallelLayout::new(8, 2, 2),
            model: ByteSize::from_mib(512),
            parallelism: 4,
            seed: 1,
            synth: SynthConfig::default(),
            max_rounds: 4,
        }
    }
}

/// One phase's modeled and executed outcomes under both variants.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Phase label (`tp.allreduce`, `moe.alltoall`, …).
    pub name: &'static str,
    /// Concurrent groups in the phase.
    pub groups: usize,
    /// Modeled contended makespan of the oblivious strategies.
    pub oblivious_modeled_s: f64,
    /// Modeled contended makespan after co-scheduling.
    pub aware_modeled_s: f64,
    /// Executed makespan of the oblivious strategies (one concurrent
    /// batch on the shared fabric).
    pub oblivious_executed_s: f64,
    /// Executed makespan of the co-scheduled strategies.
    pub aware_executed_s: f64,
    /// Fix-point sweeps the co-scheduler ran.
    pub rounds: usize,
}

/// The whole step: per-phase outcomes plus their totals.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Per-phase outcomes, in step order.
    pub phases: Vec<PhaseOutcome>,
}

impl ParallelReport {
    /// Executed step time under group-oblivious synthesis (phases run
    /// back to back).
    pub fn oblivious_executed_s(&self) -> f64 {
        self.phases.iter().map(|p| p.oblivious_executed_s).sum()
    }

    /// Executed step time under contention-aware co-scheduling.
    pub fn aware_executed_s(&self) -> f64 {
        self.phases.iter().map(|p| p.aware_executed_s).sum()
    }

    /// Modeled step time under group-oblivious synthesis.
    pub fn oblivious_modeled_s(&self) -> f64 {
        self.phases.iter().map(|p| p.oblivious_modeled_s).sum()
    }

    /// Modeled step time under contention-aware co-scheduling.
    pub fn aware_modeled_s(&self) -> f64 {
        self.phases.iter().map(|p| p.aware_modeled_s).sum()
    }

    /// The `BENCH_parallel.json` row of this step, run as `cfg` in
    /// `wall_ms` of host time: both variants' modeled and executed step
    /// times, so the contention win is self-contained.
    pub fn row(&self, cfg: &ParallelConfig, wall_ms: f64) -> Row {
        Row::new()
            .int("servers", cfg.servers)
            .int("gpus_per_server", cfg.gpus_per_server)
            .int("gpus", cfg.servers * cfg.gpus_per_server)
            .int("dp", cfg.layout.dp)
            .int("tp", cfg.layout.tp)
            .int("pp", cfg.layout.pp)
            .int("model_mib", cfg.model.as_u64() >> 20)
            .int("parallelism", cfg.parallelism)
            .int("seed", cfg.seed)
            .int("phases", self.phases.len())
            .int(
                "rounds",
                self.phases.iter().map(|p| p.rounds).sum::<usize>(),
            )
            .float("oblivious_modeled_s", self.oblivious_modeled_s(), 6)
            .float("aware_modeled_s", self.aware_modeled_s(), 6)
            .float("oblivious_executed_s", self.oblivious_executed_s(), 6)
            .float("aware_executed_s", self.aware_executed_s(), 6)
            .float("wall_ms", wall_ms, 3)
    }
}

/// Runs one 3D-parallel step under both variants on a pre-profiled
/// fabric.
///
/// # Panics
///
/// Panics when the layout does not cover the cluster exactly.
pub fn run_parallel3d(
    cluster: &Cluster,
    topo: &LogicalTopology,
    profile: &LinkProfile,
    cfg: &ParallelConfig,
) -> ParallelReport {
    assert_eq!(
        cfg.layout.world_size(),
        cluster.gpu_count(),
        "layout must cover the fleet exactly"
    );
    let telemetry = adapcc_telemetry::Telemetry::disabled();
    let opts = CoScheduleOptions {
        max_rounds: cfg.max_rounds,
    };
    let executor = Executor::new(cluster, topo);
    let mut phases = Vec::new();
    for phase in cfg.layout.three_d_step(cfg.model) {
        let mut reqs = phase.synth_requests(cfg.parallelism);
        for r in &mut reqs {
            r.seed ^= cfg.seed;
        }
        let cs = co_schedule(topo, profile, &cfg.synth, &telemetry, &reqs, &opts);
        let execute = |strategies: &[adapcc_synth::strategy::Strategy]| -> f64 {
            let batch: Vec<ExecutionRequest<'_>> = strategies
                .iter()
                .map(|s| ExecutionRequest::timing(s, phase.tensor))
                .collect();
            executor
                .try_execute(&batch)
                .expect("phase strategies validate")
                .finish
                .as_secs()
        };
        phases.push(PhaseOutcome {
            name: phase.name,
            groups: phase.groups.len(),
            oblivious_modeled_s: cs.oblivious_makespan(),
            aware_modeled_s: cs.contended_makespan(),
            oblivious_executed_s: execute(&cs.oblivious),
            aware_executed_s: execute(&cs.strategies),
            rounds: cs.rounds,
        });
    }
    ParallelReport { phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::profiled;

    fn quick_cfg(servers: usize, gpus: usize, layout: ParallelLayout) -> ParallelConfig {
        ParallelConfig {
            servers,
            gpus_per_server: gpus,
            layout,
            model: ByteSize::from_mib(64),
            parallelism: 2,
            seed: 7,
            synth: SynthConfig {
                anneal_iters: 32,
                ..Default::default()
            },
            max_rounds: 2,
        }
    }

    #[test]
    fn step_runs_all_phases_and_never_loses_modeled() {
        let cluster = Cluster::fat_tree(2, 4);
        let (topo, profile) = profiled(&cluster, 7);
        let cfg = quick_cfg(2, 4, ParallelLayout::new(2, 2, 2));
        let report = run_parallel3d(&cluster, &topo, &profile, &cfg);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "tp.allreduce",
                "moe.alltoall",
                "pp.boundary",
                "dp.allreduce"
            ]
        );
        // The co-scheduler only accepts strict modeled improvements,
        // so the aware modeled step never exceeds the oblivious one.
        assert!(report.aware_modeled_s() <= report.oblivious_modeled_s() + 1e-12);
        for p in &report.phases {
            assert!(p.oblivious_executed_s > 0.0 && p.aware_executed_s > 0.0);
        }
    }

    #[test]
    fn parallel3d_is_deterministic() {
        let cluster = Cluster::fat_tree(2, 4);
        let (topo, profile) = profiled(&cluster, 7);
        let cfg = quick_cfg(2, 4, ParallelLayout::new(2, 2, 2));
        let a = run_parallel3d(&cluster, &topo, &profile, &cfg);
        let b = run_parallel3d(&cluster, &topo, &profile, &cfg);
        for (x, y) in a.phases.iter().zip(&b.phases) {
            assert_eq!(
                x.oblivious_executed_s.to_bits(),
                y.oblivious_executed_s.to_bits()
            );
            assert_eq!(x.aware_executed_s.to_bits(), y.aware_executed_s.to_bits());
        }
    }
}
