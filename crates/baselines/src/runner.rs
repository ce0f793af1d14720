//! Uniform benchmarking runner: executes AdapCC and the three
//! baselines on the same simulated fabric and reports the paper's
//! *algorithm bandwidth* metric (tensor bytes / completion seconds).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use adapcc::executor::{ExecutionRequest, Executor};
use adapcc_plancache::{fingerprint, Fingerprint, FingerprintInputs};
use adapcc_planserve::{synthesize, PlanService, PlanStats, ServiceConfig, ServiceStats};
use adapcc_profile::profiler::LinkProfile;
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::solver::{SynthConfig, SynthRequest, Synthesizer};
use adapcc_synth::strategy::Strategy;
use adapcc_topo::logical::LogicalTopology;

use crate::blink::blink_plan;
use crate::msccl::msccl_strategy;
use crate::nccl::nccl_strategy_sized;

/// The communication system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// This library's synthesized strategies (M parallel
    /// sub-collectives, profiled links).
    AdapCc,
    /// The NCCL-like baseline.
    Nccl,
    /// The MSCCL-like baseline.
    Msccl,
    /// The Blink-like staged baseline.
    Blink,
}

impl System {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            System::AdapCc => "AdapCC",
            System::Nccl => "NCCL",
            System::Msccl => "MSCCL",
            System::Blink => "Blink",
        }
    }

    /// All four systems, in the paper's legend order.
    pub fn all() -> [System; 4] {
        [System::AdapCc, System::Nccl, System::Msccl, System::Blink]
    }
}

/// One benchmark result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Completion instant (iteration clock).
    pub finish: SimTime,
    /// Completion minus the earliest worker-ready time.
    pub comm_time: SimDuration,
    /// The paper's Algo.bw: tensor bytes per second of completion.
    pub algo_bw_gbytes: f64,
}

/// The runner.
#[derive(Debug, Clone)]
pub struct Runner<'a> {
    cluster: &'a Cluster,
    topo: &'a LogicalTopology,
    profile: &'a LinkProfile,
    /// AdapCC parallelism (`M`).
    pub parallelism: usize,
    /// Synthesizer seed.
    pub seed: u64,
    /// Annealing chains for AdapCC synthesis (1 ≡ the sequential
    /// legacy schedule).
    pub solver_chains: usize,
    /// Worker threads executing those chains (output-invariant).
    pub solver_threads: usize,
    /// Tier decomposition mode for AdapCC synthesis (defaults to
    /// [`adapcc_synth::Hierarchical::Auto`]: two-tier at 64+ GPUs).
    pub hierarchical: adapcc_synth::Hierarchical,
    factors: Vec<(adapcc_simnet::cluster::LinkId, f64)>,
    telemetry: adapcc_telemetry::Telemetry,
    /// The plan service every AdapCC synthesis resolves through
    /// (baselines are closed-form and never stored).
    plan_service: Arc<PlanService>,
    /// How this runner's AdapCC requests were served.
    plan_stats: Cell<PlanStats>,
}

impl<'a> Runner<'a> {
    /// A runner with the paper's `M = 4`.
    pub fn new(cluster: &'a Cluster, topo: &'a LogicalTopology, profile: &'a LinkProfile) -> Self {
        Runner {
            cluster,
            topo,
            profile,
            parallelism: 4,
            seed: 0,
            solver_chains: 1,
            solver_threads: 1,
            hierarchical: adapcc_synth::Hierarchical::Auto,
            factors: Vec::new(),
            telemetry: adapcc_telemetry::Telemetry::disabled(),
            // A runner given no service stores nothing: every AdapCC
            // strategy is solved cold, as a bare synthesizer would.
            plan_service: Arc::new(PlanService::new(ServiceConfig {
                byte_budget: 0,
                ..ServiceConfig::one_shard()
            })),
            plan_stats: Cell::new(PlanStats::default()),
        }
    }

    /// Attaches a telemetry sink. Runs then emit a `synthesize` phase
    /// span (modeled solver cost for AdapCC, zero-width for baselines
    /// whose strategies are closed-form) followed by the executor's
    /// `execute` span and per-link flow records, all on this sink's
    /// timeline.
    pub fn with_telemetry(mut self, telemetry: adapcc_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Applies live capacity factors (trace-driven variability) to the
    /// fabric of every run.
    pub fn with_capacity_factors(
        mut self,
        factors: &[(adapcc_simnet::cluster::LinkId, f64)],
    ) -> Self {
        self.factors = factors.to_vec();
        self
    }

    /// Overrides AdapCC's parallelism (the Fig. 19(a) sweep).
    pub fn with_parallelism(mut self, m: usize) -> Self {
        self.parallelism = m;
        self
    }

    /// Configures the AdapCC annealer's chain split and worker-thread
    /// count. The strategy depends only on `chains` (and the seed);
    /// `threads` affects wall-clock only and is clamped to `chains`
    /// by the solver.
    pub fn with_solver(mut self, chains: usize, threads: usize) -> Self {
        self.solver_chains = chains.max(1);
        self.solver_threads = threads.max(1);
        self
    }

    /// Overrides the AdapCC synthesizer's tier decomposition mode
    /// (the scale sweeps force [`adapcc_synth::Hierarchical::On`]).
    pub fn with_hierarchical(mut self, mode: adapcc_synth::Hierarchical) -> Self {
        self.hierarchical = mode;
        self
    }

    /// Resolves every AdapCC synthesis through `service`: exact
    /// fingerprint hits skip the solver, shape-only matches warm-start
    /// it, and runners (jobs) sharing one service share every solve
    /// through its single-flight admission. A one-shard service built
    /// with `PlanService::with_disk_tier` is a persistent private
    /// cache. Baseline systems never touch the service.
    pub fn with_plan_service(mut self, service: Arc<PlanService>) -> Self {
        self.plan_service = service;
        self
    }

    /// The plan service's effectiveness counters.
    pub fn plan_service_stats(&self) -> ServiceStats {
        self.plan_service.stats()
    }

    /// How this runner's AdapCC synthesis requests were served.
    pub fn plan_cache_stats(&self) -> PlanStats {
        self.plan_stats.get()
    }

    /// Synthesizes/builds the system's strategy for one primitive over
    /// the given participants (not available for Blink, which is
    /// staged — use [`Runner::run`]).
    ///
    /// # Panics
    ///
    /// Panics when called for [`System::Blink`].
    pub fn strategy(
        &self,
        system: System,
        primitive: Primitive,
        tensor: ByteSize,
        participants: &[Rank],
    ) -> Strategy {
        match system {
            System::AdapCc => {
                let mut req =
                    SynthRequest::new(primitive, tensor, self.parallelism, participants.to_vec());
                req.seed = self.seed;
                self.adapcc_strategy(&req, primitive, tensor, participants)
            }
            System::Nccl => nccl_strategy_sized(self.topo, primitive, participants, tensor),
            System::Msccl => msccl_strategy(self.topo, primitive, participants),
            System::Blink => panic!("blink is staged; use Runner::run"),
        }
    }

    /// AdapCC synthesis through the plan service: exact hit → stored
    /// strategy (validated against this runner's topology), shape-only
    /// match → warm-started solve, miss → cold solve. Saved modeled
    /// solver latency accrues to [`Runner::plan_cache_stats`]; the
    /// timeline span in [`Runner::run`] stays the full modeled cost
    /// either way so traces are byte-identical warm or cold.
    fn adapcc_strategy(
        &self,
        req: &SynthRequest,
        primitive: Primitive,
        tensor: ByteSize,
        participants: &[Rank],
    ) -> Strategy {
        let synth = Synthesizer::new(self.topo, self.profile)
            .with_config(SynthConfig {
                anneal_iters: 120,
                anneal_chains: self.solver_chains,
                solver_threads: self.solver_threads,
                hierarchical: self.hierarchical,
                ..Default::default()
            })
            .with_telemetry(self.telemetry.clone());
        let fp = self.plan_fingerprint(req, primitive, tensor, participants);
        let service = &self.plan_service;
        let resolved = service.resolve(fp, |seed| synthesize(&synth, req, seed));
        let resolved = service.revalidate(
            fp,
            resolved,
            |plan| plan.strategy.validate(self.topo).is_ok(),
            || synthesize(&synth, req, None).0,
        );
        let mut stats = self.plan_stats.get();
        stats.record(
            resolved.served,
            adapcc::reconstruct::modeled_solve_cost(participants.len()),
            adapcc::reconstruct::modeled_warm_solve_cost(participants.len()),
        );
        self.plan_stats.set(stats);
        stats.export_counters(&self.telemetry, service);
        service.export_counters(&self.telemetry);
        resolved.plan.strategy.clone()
    }

    /// The canonical cache/service key of one AdapCC synthesis. The
    /// standalone runner has no session, so it quantizes with the
    /// session default `resynth_threshold` (0.15).
    fn plan_fingerprint(
        &self,
        req: &SynthRequest,
        primitive: Primitive,
        tensor: ByteSize,
        participants: &[Rank],
    ) -> Fingerprint {
        let instances = adapcc_synth::solver::group_by_instance(self.topo, participants).len();
        fingerprint(&FingerprintInputs {
            topo: self.topo,
            profile: self.profile,
            participants,
            relays: &[],
            primitive,
            parallelism: self.parallelism,
            tensor,
            root: req.root,
            quantization: 0.15,
            hierarchical: self.hierarchical.enabled_for(participants.len(), instances),
            concurrency: 0,
        })
    }

    /// Runs one collective under the chosen system and returns its
    /// timing. Workers missing from `ready` start at time zero.
    pub fn run(
        &self,
        system: System,
        primitive: Primitive,
        tensor: ByteSize,
        participants: &[Rank],
        ready: &BTreeMap<Rank, SimTime>,
    ) -> RunReport {
        // Strategy construction happens on the control plane; the
        // solver's modeled wall time opens the timeline, and execution
        // is stitched right after it.
        let synth_secs = if self.telemetry.is_enabled() {
            let secs = match system {
                System::AdapCc => {
                    adapcc::reconstruct::modeled_solve_cost(participants.len()).as_secs()
                }
                // Baseline strategies are closed-form: zero-width span.
                _ => 0.0,
            };
            self.telemetry.span("synthesize", "phase", 0.0, secs);
            secs
        } else {
            0.0
        };
        let exec = Executor::new(self.cluster, self.topo)
            .with_capacity_factors(&self.factors)
            .with_telemetry(self.telemetry.at_offset(synth_secs));
        let first = participants
            .iter()
            .map(|r| ready.get(r).copied().unwrap_or(SimTime::ZERO))
            .min()
            .unwrap_or(SimTime::ZERO);
        let finish = match system {
            System::Blink => self.run_blink(primitive, tensor, participants, ready),
            _ => {
                let strategy = self.strategy(system, primitive, tensor, participants);
                let req = ExecutionRequest::timing(&strategy, tensor).with_ready(ready.clone());
                exec.execute(&[req]).finish
            }
        };
        let comm_time = finish.duration_since(first);
        RunReport {
            finish,
            comm_time,
            algo_bw_gbytes: tensor.as_f64() / comm_time.as_secs() / 1e9,
        }
    }

    /// Blink's three sequential, non-pipelined stages.
    fn run_blink(
        &self,
        primitive: Primitive,
        tensor: ByteSize,
        participants: &[Rank],
        ready: &BTreeMap<Rank, SimTime>,
    ) -> SimTime {
        let plan = blink_plan(self.topo, primitive, participants);
        let exec = Executor::new(self.cluster, self.topo)
            .with_capacity_factors(&self.factors)
            .with_telemetry(self.telemetry.clone());
        let run_batch = |strategies: &[Strategy], ready: &BTreeMap<Rank, SimTime>| -> SimTime {
            if strategies.is_empty() {
                return ready.values().copied().max().unwrap_or(SimTime::ZERO);
            }
            let reqs: Vec<ExecutionRequest<'_>> = strategies
                .iter()
                .map(|s| ExecutionRequest::timing(s, tensor).with_ready(ready.clone()))
                .collect();
            exec.execute(&reqs).finish
        };
        let at = |t: SimTime, ranks: &[Rank]| -> BTreeMap<Rank, SimTime> {
            ranks.iter().map(|r| (*r, t)).collect()
        };
        match primitive {
            Primitive::Broadcast => {
                let t1 = match &plan.inter {
                    Some(s) => run_batch(std::slice::from_ref(s), ready),
                    None => ready.values().copied().max().unwrap_or(SimTime::ZERO),
                };
                run_batch(&plan.intra_broadcast, &at(t1, participants))
            }
            Primitive::Reduce => {
                let t1 = run_batch(&plan.intra_reduce, ready);
                match &plan.inter {
                    Some(s) => run_batch(std::slice::from_ref(s), &at(t1, &plan.leaders)),
                    None => t1,
                }
            }
            _ => {
                // AllReduce: reduce-in, allreduce among leaders,
                // broadcast-out — each stage barriered.
                let t1 = run_batch(&plan.intra_reduce, ready);
                let t2 = match &plan.inter {
                    Some(s) => run_batch(std::slice::from_ref(s), &at(t1, &plan.leaders)),
                    None => t1,
                };
                run_batch(&plan.intra_broadcast, &at(t2, participants))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_profile::profiler::Profiler;
    use adapcc_topo::detect::Detector;

    fn setup(c: &Cluster) -> (LogicalTopology, LinkProfile) {
        let topo = Detector::new(c, 1).run().logical_topology(c);
        let profile = Profiler::new(c, &topo, 1).without_noise().run().links;
        (topo, profile)
    }

    fn all(c: &Cluster) -> Vec<Rank> {
        (0..c.gpu_count()).map(Rank).collect()
    }

    #[test]
    fn adapcc_beats_all_baselines_on_heterogeneous_allreduce() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let runner = Runner::new(&c, &topo, &profile);
        let ranks = all(&c);
        let tensor = ByteSize::from_mib(64);
        let ready = BTreeMap::new();
        let mut bw = BTreeMap::new();
        for sys in System::all() {
            let r = runner.run(sys, Primitive::AllReduce, tensor, &ranks, &ready);
            bw.insert(sys.name(), r.algo_bw_gbytes);
        }
        assert!(bw["AdapCC"] > bw["NCCL"], "{bw:?}");
        assert!(bw["AdapCC"] > bw["MSCCL"], "{bw:?}");
        assert!(bw["AdapCC"] > bw["Blink"], "{bw:?}");
        // Blink's unpipelined stages make it the slowest (paper).
        assert!(bw["Blink"] < bw["NCCL"], "{bw:?}");
    }

    #[test]
    fn speedup_ratios_are_paper_shaped() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let runner = Runner::new(&c, &topo, &profile);
        let ranks = all(&c);
        let tensor = ByteSize::from_mib(256);
        let ready = BTreeMap::new();
        let adapcc = runner
            .run(System::AdapCc, Primitive::AllReduce, tensor, &ranks, &ready)
            .algo_bw_gbytes;
        let nccl = runner
            .run(System::Nccl, Primitive::AllReduce, tensor, &ranks, &ready)
            .algo_bw_gbytes;
        let ratio = adapcc / nccl;
        // Paper Fig. 12: 1.05x-1.29x over NCCL. Allow a wider band for
        // the simulated fabric, but demand the win be material and not
        // absurd.
        assert!(ratio > 1.03 && ratio < 3.0, "AdapCC/NCCL = {ratio}");
    }

    #[test]
    fn alltoall_excludes_blink() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let runner = Runner::new(&c, &topo, &profile);
        let ranks = all(&c);
        let ready = BTreeMap::new();
        for sys in [System::AdapCc, System::Nccl, System::Msccl] {
            let r = runner.run(
                sys,
                Primitive::AllToAll,
                ByteSize::from_mib(32),
                &ranks,
                &ready,
            );
            assert!(r.algo_bw_gbytes > 0.0);
        }
    }

    #[test]
    fn blink_runs_all_three_stages() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let runner = Runner::new(&c, &topo, &profile);
        let ranks = all(&c);
        let ready = BTreeMap::new();
        let ar = runner.run(
            System::Blink,
            Primitive::AllReduce,
            ByteSize::from_mib(32),
            &ranks,
            &ready,
        );
        let red = runner.run(
            System::Blink,
            Primitive::Reduce,
            ByteSize::from_mib(32),
            &ranks,
            &ready,
        );
        assert!(
            ar.comm_time > red.comm_time,
            "allreduce adds the broadcast stage"
        );
    }

    #[test]
    fn plan_cache_hit_replays_the_cold_strategy() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let ranks = all(&c);
        let tensor = ByteSize::from_mib(64);
        let cold = Runner::new(&c, &topo, &profile);
        let want = cold.strategy(System::AdapCc, Primitive::AllReduce, tensor, &ranks);
        let cached = Runner::new(&c, &topo, &profile)
            .with_plan_service(Arc::new(PlanService::new(ServiceConfig::one_shard())));
        let first = cached.strategy(System::AdapCc, Primitive::AllReduce, tensor, &ranks);
        let second = cached.strategy(System::AdapCc, Primitive::AllReduce, tensor, &ranks);
        assert_eq!(first, want, "cold solve through the cache is unchanged");
        assert_eq!(
            second, want,
            "exact hit serves the stored strategy verbatim"
        );
        let stats = cached.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
        assert!(stats.saved.as_secs() > 0.0);
        // The default service stores nothing: every request solves cold.
        assert_eq!(cold.plan_cache_stats().misses, 1);
        assert_eq!(cold.plan_service_stats().entries, 0);
    }

    #[test]
    fn straggler_propagates_into_baseline_timing() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let runner = Runner::new(&c, &topo, &profile);
        let ranks = all(&c);
        let mut ready = BTreeMap::new();
        ready.insert(Rank(3), SimTime::from_secs(0.2));
        let r = runner.run(
            System::Nccl,
            Primitive::AllReduce,
            ByteSize::from_mib(16),
            &ranks,
            &ready,
        );
        assert!(r.finish.as_secs() > 0.2);
    }
}
