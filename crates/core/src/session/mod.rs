//! The top-level AdapCC session — the public API a training script
//! uses (paper Sec. VI-A mirrors it as `adapcc.init()` /
//! `adapcc.setup()` / `adapcc.allreduce()` / `adapcc.profile()`).
//!
//! [`AdapCC::init`] runs the detector and the profiler and caches
//! nothing else; strategies are synthesized lazily per
//! [`crate::collective::plan::StrategyKey`] and reused.
//! [`AdapCC::setup`] builds the transmission contexts. Every collective
//! entry point lowers a [`crate::collective::CollectiveSpec`] through
//! the staged pipeline (plan → relay → execute → assemble → report)
//! wrapped in the recovery loop; the adaptive entry point
//! [`AdapCC::allreduce_adaptive`] consults the relay
//! [`crate::relay::Coordinator`] each iteration and runs
//! the phase-1 / phase-2 protocol when the ski-rental rule says to
//! proceed without stragglers. [`AdapCC::reprofile`] is the in-place
//! graph reconstruction: profile → re-solve → re-set-up, never
//! restarting the job.
//!
//! Module layout:
//!
//! - [`lifecycle`](self) — init, setup, fault arming, accessors
//! - `planning` — lazy synthesis through the plan service, buy estimates
//! - `recovery` — the retry / exclusion loop and its policy
//! - `health` — the membership state machine (rejoin probing,
//!   probation, flap quarantine)
//! - `scaling` — reprofile, reconstruction, elastic scale-out
//! - `collectives` — the public entry points (one spec each)

mod collectives;
mod groups;
mod health;
mod lifecycle;
mod planning;
mod recovery;
mod scaling;
#[cfg(test)]
mod tests;

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use adapcc_planserve::{PlanService, PlanStats, ServiceConfig};
use adapcc_profile::profiler::{LinkProfile, Profiler};
use adapcc_simnet::cluster::{Cluster, LinkId, Rank};
use adapcc_simnet::faults::FaultSchedule;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_synth::solver::SynthConfig;
use adapcc_synth::strategy::Strategy;
use adapcc_topo::detect::{DetectionReport, Detector};
use adapcc_topo::logical::LogicalTopology;

pub use crate::collective::report::IterationReport;
pub use groups::GroupHandle;
pub use health::{HealthMonitor, HealthPolicy, RankHealth, QUARANTINE_FACTOR};
pub use recovery::{RecoveryEvent, RecoveryPolicy};
pub use scaling::ScaleReport;

use adapcc_synth::group::ProcessGroup;

use crate::collective::plan::StrategyKey;
use crate::communicator::Communicator;
use crate::executor::{CompiledPlan, EdgePaths, ExecutionRequest};
use crate::reconstruct::ReconstructReport;
use crate::relay::{BuyEstimate, Coordinator, RelayConfig};

/// Initialization options.
#[derive(Debug, Clone)]
pub struct InitOptions {
    /// Parallel sub-collectives per strategy (`M`, paper default 4).
    pub parallelism: usize,
    /// Seed for every stochastic component (probing noise, annealer,
    /// RPC jitter).
    pub seed: u64,
    /// Relay-control configuration.
    pub relay: RelayConfig,
    /// Relative bandwidth change that triggers re-synthesis on
    /// re-profiling.
    pub resynth_threshold: f64,
    /// Synthesizer effort.
    pub synth: SynthConfig,
    /// Telemetry sink threaded through every pipeline phase (detect,
    /// profile, synthesize, execute, relay). Disabled by default; an
    /// enabled sink records phase spans on one stitched timeline plus
    /// per-link flow records from the executor.
    pub telemetry: adapcc_telemetry::Telemetry,
    /// The plan service every synthesis request resolves through:
    /// exact fingerprint hits skip the solver, shape siblings
    /// warm-start it, and cold keys solve once under single-flight
    /// admission. Share one `Arc` across sessions (jobs) to share every
    /// solve; give a service built with `PlanService::with_disk_tier`
    /// for a persistent tier, or one with a `byte_budget` of `0` for
    /// the cold baseline. `None` (the default) builds a private
    /// [`ServiceConfig::one_shard`] service for this session.
    pub plan_service: Option<Arc<PlanService>>,
}

impl Default for InitOptions {
    fn default() -> Self {
        InitOptions {
            parallelism: 4,
            seed: 0,
            relay: RelayConfig::default(),
            resynth_threshold: 0.15,
            synth: SynthConfig::default(),
            telemetry: adapcc_telemetry::Telemetry::disabled(),
            plan_service: None,
        }
    }
}

/// What initialization cost (detection + profiling, charged before
/// training starts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitReport {
    /// Topology detection time (constant in job scale).
    pub detection: SimDuration,
    /// First profiling pass.
    pub profiling: SimDuration,
}

impl InitReport {
    /// Total initialization time.
    pub fn total(&self) -> SimDuration {
        self.detection + self.profiling
    }
}

/// One memoized strategy, and the plan its first execution compiles:
/// validated and lowered once, reused by every later call until the
/// memo drops the entry.
#[derive(Debug)]
pub(crate) struct MemoEntry {
    pub(crate) strategy: Strategy,
    pub(crate) plan: OnceLock<CompiledPlan>,
}

impl MemoEntry {
    /// A timing-only request of `tensor` bytes that carries the
    /// entry's compiled plan.
    pub(crate) fn request(&self, tensor: adapcc_simnet::units::ByteSize) -> ExecutionRequest<'_> {
        ExecutionRequest::timing(&self.strategy, tensor).with_plan(&self.plan)
    }
}

/// The AdapCC session over one cluster.
///
/// # Examples
///
/// ```
/// use adapcc::{AdapCC, InitOptions};
/// use adapcc_simnet::cluster::Cluster;
/// use adapcc_simnet::units::ByteSize;
///
/// let cluster = Cluster::homogeneous_a100(2);
/// let mut cc = AdapCC::init(&cluster, InitOptions::default());
/// cc.setup();
/// let report = cc
///     .allreduce(ByteSize::from_mib(16), &Default::default(), None)
///     .expect("healthy fabric");
/// assert!(report.finish.as_secs() > 0.0);
/// ```
#[derive(Debug)]
pub struct AdapCC<'c> {
    pub(crate) cluster: &'c Cluster,
    pub(crate) options: InitOptions,
    pub(crate) detection: DetectionReport,
    pub(crate) topo: LogicalTopology,
    pub(crate) profile: LinkProfile,
    pub(crate) init_report: InitReport,
    pub(crate) communicator: Communicator,
    pub(crate) coordinator: Coordinator,
    /// Per-worker-set strategy memo, cleared on every worker-set or
    /// profile change; keyed by the canonical [`StrategyKey`]. Plans
    /// lend their entries out by reference count, never by copy. Each
    /// entry keeps the executor tables its strategy's first execution
    /// compiled, so they go wherever the entry goes.
    pub(crate) strategies: HashMap<StrategyKey, Arc<MemoEntry>>,
    /// The physical path of every logical edge the executor has
    /// crossed, built once per topology and shared by every run.
    pub(crate) edge_paths: Mutex<EdgePaths>,
    /// The fingerprinted plan store behind `strategies`. Unlike the
    /// memo (cleared on every worker-set change), it is keyed by
    /// content and survives `set_workers`, reprofiles and exclusions —
    /// returning to a previously-seen state hits.
    pub(crate) plan_service: Arc<PlanService>,
    /// How this session's requests were served since session start;
    /// reconstruction paths diff it around their re-synthesis loops to
    /// charge the matching modeled cost.
    pub(crate) plan_stats: PlanStats,
    /// Ski-rental buy estimates keyed by (primitive, tensor bytes,
    /// scope group id — `0` for the world scope).
    pub(crate) estimates: HashMap<(adapcc_synth::primitive::Primitive, u64, u64), BuyEstimate>,
    /// Zero-skew execution time per cached strategy: timing-only
    /// wait-all collectives reuse it instead of re-simulating (the
    /// collective itself is deterministic; only readiness varies).
    pub(crate) exec_cache: HashMap<StrategyKey, f64>,
    pub(crate) workers: Vec<Rank>,
    /// The process group the in-flight collective is scoped to
    /// (`None` = the whole job). Set by [`GroupHandle`] entry points
    /// around the pipeline and restored on exit, so the plan/relay/
    /// execute path reads one consistent scope per attempt.
    pub(crate) active_scope: Option<ProcessGroup>,
    /// Registry of every process group the session has planned for,
    /// keyed by stable group id. Exclusion consults it to invalidate
    /// exactly the groups containing a dead rank.
    pub(crate) groups: BTreeMap<u64, ProcessGroup>,
    /// Declared concurrency set: ids of groups expected to run their
    /// collectives at the same time. Folded into plan fingerprints so
    /// a strategy solved for one concurrency regime never serves
    /// another.
    pub(crate) concurrent: Vec<u64>,
    pub(crate) iteration: u64,
    pub(crate) fabric_factors: Vec<(LinkId, f64)>,
    pub(crate) profile_period: Option<u64>,
    pub(crate) last_reconstruct: Option<ReconstructReport>,
    pub(crate) fault_schedule: Option<FaultSchedule>,
    pub(crate) session_clock: SimTime,
    pub(crate) recovery: RecoveryPolicy,
    pub(crate) recovery_log: Vec<RecoveryEvent>,
    pub(crate) pending_probe_losses: Vec<(LinkId, u32)>,
    /// Membership lifecycle: per-rank health states (rejoin probing,
    /// probation) and per-link flap quarantines.
    pub(crate) health: HealthMonitor,
}

impl<'c> AdapCC<'c> {
    /// Detects the topology, profiles the links, and returns a ready
    /// session (the paper's `adapcc.init()`).
    pub fn init(cluster: &'c Cluster, options: InitOptions) -> Self {
        let mut detector =
            Detector::new(cluster, options.seed).with_telemetry(options.telemetry.clone());
        let detection = detector.run();
        let topo = detection.logical_topology(cluster);
        let prof = Profiler::new(cluster, &topo, options.seed)
            .with_telemetry(options.telemetry.at_offset(detection.elapsed.as_secs()))
            .run();
        let init_report = InitReport {
            detection: detection.elapsed,
            profiling: prof.elapsed,
        };
        let workers = (0..cluster.gpu_count()).map(Rank).collect();
        let plan_service = options
            .plan_service
            .clone()
            .unwrap_or_else(|| Arc::new(PlanService::new(ServiceConfig::one_shard())));
        let edge_paths = Mutex::new(EdgePaths::new(topo.edge_count()));
        AdapCC {
            cluster,
            coordinator: Coordinator::new(options.seed)
                .with_config(options.relay.clone())
                .with_telemetry(options.telemetry.clone()),
            options,
            detection,
            topo,
            profile: prof.links,
            init_report,
            communicator: Communicator::new(),
            strategies: HashMap::new(),
            edge_paths,
            plan_service,
            plan_stats: PlanStats::default(),
            estimates: HashMap::new(),
            exec_cache: HashMap::new(),
            workers,
            active_scope: None,
            groups: BTreeMap::new(),
            concurrent: Vec::new(),
            iteration: 0,
            fabric_factors: Vec::new(),
            profile_period: None,
            last_reconstruct: None,
            fault_schedule: None,
            session_clock: SimTime::ZERO,
            recovery: RecoveryPolicy::default(),
            recovery_log: Vec::new(),
            pending_probe_losses: Vec::new(),
            health: HealthMonitor::default(),
        }
    }
}
