//! Argument parsing for the `adapcc-sim` command-line tool (no
//! external CLI dependency).

use adapcc_baselines::runner::System;
use adapcc_simnet::cluster::{Cluster, ClusterBuilder};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::Primitive;

/// A parsed `adapcc-sim` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    /// Server fleet, e.g. `a100:4,v100:2`.
    pub servers: Vec<(ServerKind, usize)>,
    /// Use TCP instead of RDMA.
    pub tcp: bool,
    /// The collective to run.
    pub primitive: Primitive,
    /// Per-rank tensor size.
    pub tensor: ByteSize,
    /// The system under test.
    pub system: System,
    /// AdapCC parallelism (`M`).
    pub parallelism: usize,
    /// Seed threaded into profiling and synthesis (`InitOptions::seed`).
    pub seed: u64,
    /// Annealing chains for AdapCC synthesis (1 ≡ legacy schedule).
    pub solver_chains: usize,
    /// Worker threads running those chains (wall-clock only; the
    /// strategy is bit-identical for any thread count).
    pub solver_threads: usize,
    /// Force two-tier hierarchical synthesis regardless of fleet size
    /// (default: automatic at 64+ GPUs).
    pub hierarchical: bool,
    /// Persistent plan-cache directory for AdapCC strategy synthesis.
    pub plan_cache_dir: Option<String>,
    /// Print the synthesized strategy.
    pub describe: bool,
    /// Write a Chrome-trace JSON timeline of the run here.
    pub trace_out: Option<String>,
    /// Write a flat metrics summary (JSON) here.
    pub metrics_out: Option<String>,
    /// Append a one-line machine-readable benchmark record here.
    pub bench_append: Option<String>,
}

/// Server model selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// 4x A100, PCIe 4.0, 100 Gbps NIC.
    A100,
    /// 4x V100, PCIe 3.0, 50 Gbps NIC.
    V100,
    /// 8x H100, PCIe 5.0, 400 Gbps NIC.
    H100,
}

impl Default for SimArgs {
    fn default() -> Self {
        SimArgs {
            servers: vec![(ServerKind::A100, 2)],
            tcp: false,
            primitive: Primitive::AllReduce,
            tensor: ByteSize::from_mib(256),
            system: System::AdapCc,
            parallelism: 4,
            seed: 1,
            solver_chains: 1,
            solver_threads: 1,
            hierarchical: false,
            plan_cache_dir: None,
            describe: false,
            trace_out: None,
            metrics_out: None,
            bench_append: None,
        }
    }
}

/// The usage string printed on `--help` or a parse error.
pub fn usage() -> &'static str {
    "adapcc-sim: run one collective on a simulated cluster\n\
     \n\
     options:\n\
       --servers a100:4,v100:2   server fleet of a100|v100|h100 (default a100:2);\n\
                                 a plain integer N is shorthand for a100:N\n\
       --tcp                     kernel TCP instead of RDMA\n\
       --primitive P             reduce|broadcast|allreduce|alltoall (default allreduce)\n\
       --size-mib N              per-rank tensor MiB (default 256)\n\
       --system S                adapcc|nccl|msccl|blink (default adapcc)\n\
       --parallelism M           AdapCC sub-collectives (default 4)\n\
       --seed N                  profiling/synthesis seed (default 1)\n\
       --solver-chains K         annealing chains; 1 reproduces the legacy\n\
                                 sequential schedule bit-for-bit (default 1)\n\
       --solver-threads N        worker threads for the chains; affects\n\
                                 wall-clock only, never the strategy (default 1)\n\
       --hierarchical            force two-tier (intra/inter-server) synthesis;\n\
                                 without it, tiering engages automatically at\n\
                                 64+ GPUs\n\
       --plan-cache DIR          persistent strategy cache; a repeat run\n\
                                 with the same dir serves cached plans\n\
       --describe                print the synthesized strategy\n\
       --trace-out FILE          write a Chrome-trace JSON timeline (chrome://tracing)\n\
       --metrics-out FILE        write a flat metrics summary (JSON)\n\
       --bench-append FILE       append a one-line machine-readable run record\n\
       --help                    this message\n\
     \n\
     subcommands:\n\
       chaos                     sweep randomized fault schedules through\n\
                                 the recovery path (adapcc-sim chaos --help)\n\
       churn                     sweep dense leave/rejoin schedules through\n\
                                 the membership lifecycle (adapcc-sim churn --help)\n\
       engine                    engine-throughput storm micro-benchmark\n\
                                 (adapcc-sim engine --help)\n\
       serve                     many-job shared plan-service benchmark\n\
                                 (adapcc-sim serve --help)\n\
       parallel3d                3D-parallel + MoE step: group-oblivious vs\n\
                                 contention-aware co-scheduled synthesis\n\
                                 (adapcc-sim parallel3d --help)"
}

/// A parsed `adapcc-sim chaos` invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosArgs {
    /// Number of consecutive seeds to sweep.
    pub seeds: u64,
    /// First seed.
    pub seed_base: u64,
    /// Homogeneous A100 servers in the chaos cluster.
    pub servers: usize,
    /// Per-rank tensor size in KiB for the clock-driving iterations.
    pub size_kib: u64,
    /// Fault horizon in simulated milliseconds.
    pub horizon_ms: f64,
    /// Print every seed's outcome, not just the summary.
    pub verbose: bool,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        ChaosArgs {
            seeds: 200,
            seed_base: 0,
            servers: 2,
            size_kib: 1024,
            horizon_ms: 2.0,
            verbose: false,
        }
    }
}

/// The usage string for the `chaos` subcommand.
pub fn chaos_usage() -> &'static str {
    "adapcc-sim chaos: sweep randomized fault schedules through recovery\n\
     \n\
     options:\n\
       --seeds N        consecutive seeds to run (default 200)\n\
       --seed-base N    first seed (default 0)\n\
       --servers N      homogeneous A100 servers (default 2)\n\
       --size-kib N     per-rank tensor KiB (default 1024)\n\
       --horizon-ms N   fault window in simulated ms (default 2)\n\
       --verbose        print every seed's outcome\n\
       --help           this message"
}

/// Parses `adapcc-sim chaos` arguments (everything after the
/// subcommand word).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed
/// values (`--help` arrives as an `Err` carrying the usage text).
pub fn parse_chaos_args<I: IntoIterator<Item = String>>(args: I) -> Result<ChaosArgs, String> {
    let mut out = ChaosArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n\n{}", chaos_usage()))
        };
        let positive = |flag: &str, v: String| -> Result<u64, String> {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("{flag} expects an integer"))?;
            if n == 0 {
                return Err(format!("{flag} must be positive"));
            }
            Ok(n)
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(chaos_usage().to_string()),
            "--verbose" => out.verbose = true,
            "--seeds" => out.seeds = positive("--seeds", value("--seeds")?)?,
            "--seed-base" => {
                out.seed_base = value("--seed-base")?
                    .parse()
                    .map_err(|_| "--seed-base expects an integer".to_string())?;
            }
            "--servers" => out.servers = positive("--servers", value("--servers")?)? as usize,
            "--size-kib" => out.size_kib = positive("--size-kib", value("--size-kib")?)?,
            "--horizon-ms" => {
                let ms: f64 = value("--horizon-ms")?
                    .parse()
                    .map_err(|_| "--horizon-ms expects a number".to_string())?;
                if ms <= 0.0 || ms.is_nan() {
                    return Err("--horizon-ms must be positive".into());
                }
                out.horizon_ms = ms;
            }
            other => return Err(format!("unknown flag {other}\n\n{}", chaos_usage())),
        }
    }
    Ok(out)
}

/// A parsed `adapcc-sim engine` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineArgs {
    /// Homogeneous A100 servers in the storm cluster.
    pub servers: usize,
    /// Storm waves (each wave is one transfer per server, fully
    /// drained before the next).
    pub waves: usize,
    /// Workload shape: synchronized waves or staggered churn.
    pub storm: crate::engine_bench::StormMode,
    /// Allocator selection: exact, incremental, or the executor's
    /// automatic scale gate.
    pub alloc: crate::engine_bench::AllocMode,
    /// Append an `EngineBenchRecord` line here.
    pub bench_append: Option<String>,
}

impl Default for EngineArgs {
    fn default() -> Self {
        EngineArgs {
            servers: 32,
            waves: 4,
            storm: crate::engine_bench::StormMode::Wave,
            alloc: crate::engine_bench::AllocMode::Auto,
            bench_append: None,
        }
    }
}

/// The usage string for the `engine` subcommand.
pub fn engine_usage() -> &'static str {
    "adapcc-sim engine: flood the fluid-flow engine with contending\n\
     cross-server transfers and report events per wall-clock second\n\
     \n\
     options:\n\
       --servers N          homogeneous A100 servers (default 32)\n\
       --waves N            storm waves, each fully drained (default 4)\n\
       --storm MODE         wave (synchronized rounds, default) or churn\n\
                            (staggered arrivals interleaved with completions)\n\
       --alloc MODE         exact | incremental | auto (default auto:\n\
                            incremental at 64+ servers, like the executor)\n\
       --bench-append FILE  append a one-line machine-readable record\n\
       --help               this message"
}

/// Parses `adapcc-sim engine` arguments (everything after the
/// subcommand word).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed
/// values (`--help` arrives as an `Err` carrying the usage text).
pub fn parse_engine_args<I: IntoIterator<Item = String>>(args: I) -> Result<EngineArgs, String> {
    let mut out = EngineArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n\n{}", engine_usage()))
        };
        let positive = |flag: &str, v: String| -> Result<usize, String> {
            let n: usize = v
                .parse()
                .map_err(|_| format!("{flag} expects an integer"))?;
            if n == 0 {
                return Err(format!("{flag} must be positive"));
            }
            Ok(n)
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(engine_usage().to_string()),
            "--servers" => {
                out.servers = positive("--servers", value("--servers")?)?;
                if out.servers < 2 {
                    return Err("--servers must be at least 2 (the storm is cross-server)".into());
                }
            }
            "--waves" => out.waves = positive("--waves", value("--waves")?)?,
            "--storm" => {
                out.storm = match value("--storm")?.as_str() {
                    "wave" => crate::engine_bench::StormMode::Wave,
                    "churn" => crate::engine_bench::StormMode::Churn,
                    other => return Err(format!("--storm expects wave or churn, got {other}")),
                }
            }
            "--alloc" => {
                out.alloc = match value("--alloc")?.as_str() {
                    "exact" => crate::engine_bench::AllocMode::Exact,
                    "incremental" => crate::engine_bench::AllocMode::Incremental,
                    "auto" => crate::engine_bench::AllocMode::Auto,
                    other => {
                        return Err(format!(
                            "--alloc expects exact, incremental or auto, got {other}"
                        ))
                    }
                }
            }
            "--bench-append" => out.bench_append = Some(value("--bench-append")?),
            other => return Err(format!("unknown flag {other}\n\n{}", engine_usage())),
        }
    }
    Ok(out)
}

/// A parsed `adapcc-sim serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Concurrent jobs (`M`), each one AdapCC session.
    pub jobs: usize,
    /// Worker threads (`K`) driving the jobs.
    pub threads: usize,
    /// Fraction of jobs repeating canonical fingerprints.
    pub repeat_ratio: f64,
    /// Distinct fleet shapes the jobs cycle through.
    pub shapes: usize,
    /// Base profiling/synthesis seed.
    pub seed: u64,
    /// Service store stripes.
    pub shards: usize,
    /// Service byte budget in MiB.
    pub budget_mib: usize,
    /// Append a `ServiceBenchRecord` line here.
    pub bench_append: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            jobs: 32,
            threads: 8,
            repeat_ratio: 0.75,
            shapes: 2,
            seed: 1,
            shards: 16,
            budget_mib: 64,
            bench_append: None,
        }
    }
}

/// The usage string for the `serve` subcommand.
pub fn serve_usage() -> &'static str {
    "adapcc-sim serve: drive a synthetic many-job workload against one\n\
     shared plan service (sharded store + single-flight admission) and\n\
     against per-session private caches, and report the speedup\n\
     \n\
     options:\n\
       --jobs M             concurrent jobs, one session each (default 32)\n\
       --threads K          worker threads (default 8)\n\
       --repeat-ratio F     fraction of jobs repeating canonical\n\
                            fingerprints, 0..=1 (default 0.75); the rest\n\
                            carry per-job profiler noise and warm-start\n\
       --shapes N           distinct fleet shapes cycled through (default 2)\n\
       --seed N             base profiling seed (default 1)\n\
       --shards N           service store stripes (default 16)\n\
       --budget-mib N       service byte budget in MiB (default 64)\n\
       --bench-append FILE  append a one-line machine-readable record\n\
       --help               this message"
}

/// Parses `adapcc-sim serve` arguments (everything after the
/// subcommand word).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed
/// values (`--help` arrives as an `Err` carrying the usage text).
pub fn parse_serve_args<I: IntoIterator<Item = String>>(args: I) -> Result<ServeArgs, String> {
    let mut out = ServeArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n\n{}", serve_usage()))
        };
        let positive = |flag: &str, v: String| -> Result<usize, String> {
            let n: usize = v
                .parse()
                .map_err(|_| format!("{flag} expects an integer"))?;
            if n == 0 {
                return Err(format!("{flag} must be positive"));
            }
            Ok(n)
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(serve_usage().to_string()),
            "--jobs" => out.jobs = positive("--jobs", value("--jobs")?)?,
            "--threads" => out.threads = positive("--threads", value("--threads")?)?,
            "--shapes" => out.shapes = positive("--shapes", value("--shapes")?)?,
            "--shards" => out.shards = positive("--shards", value("--shards")?)?,
            "--budget-mib" => out.budget_mib = positive("--budget-mib", value("--budget-mib")?)?,
            "--bench-append" => out.bench_append = Some(value("--bench-append")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--repeat-ratio" => {
                let f: f64 = value("--repeat-ratio")?
                    .parse()
                    .map_err(|_| "--repeat-ratio expects a number".to_string())?;
                if !(0.0..=1.0).contains(&f) {
                    return Err("--repeat-ratio must be in 0..=1".into());
                }
                out.repeat_ratio = f;
            }
            other => return Err(format!("unknown flag {other}\n\n{}", serve_usage())),
        }
    }
    Ok(out)
}

/// A parsed `adapcc-sim churn` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnArgs {
    /// Number of consecutive seeds to sweep.
    pub seeds: u64,
    /// First seed.
    pub seed_base: u64,
    /// Homogeneous A100 servers in the churn cluster.
    pub servers: usize,
    /// Per-rank tensor size in KiB for the clock-driving iterations.
    pub size_kib: u64,
    /// Churn horizon in simulated milliseconds.
    pub horizon_ms: f64,
    /// Settle iterations past the horizon for probe-driven rejoin.
    pub settle_iters: usize,
    /// Print every seed's outcome, not just the summary.
    pub verbose: bool,
    /// Append a `ChurnBenchRecord` line here.
    pub bench_append: Option<String>,
}

impl Default for ChurnArgs {
    fn default() -> Self {
        ChurnArgs {
            seeds: 200,
            seed_base: 0,
            servers: 2,
            size_kib: 1024,
            horizon_ms: 2.0,
            settle_iters: 6,
            verbose: false,
            bench_append: None,
        }
    }
}

/// The usage string for the `churn` subcommand.
pub fn churn_usage() -> &'static str {
    "adapcc-sim churn: sweep dense leave/rejoin schedules through the\n\
     elastic membership lifecycle\n\
     \n\
     options:\n\
       --seeds N         consecutive seeds to run (default 200)\n\
       --seed-base N     first seed (default 0)\n\
       --servers N       homogeneous A100 servers (default 2)\n\
       --size-kib N      per-rank tensor KiB (default 1024)\n\
       --horizon-ms N    churn window in simulated ms (default 2)\n\
       --settle-iters N  iterations past the horizon so probes can\n\
                         readmit restarted workers (default 6)\n\
       --verbose         print every seed's outcome\n\
       --bench-append FILE  append a one-line machine-readable record\n\
       --help            this message"
}

/// Parses `adapcc-sim churn` arguments (everything after the
/// subcommand word).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed
/// values (`--help` arrives as an `Err` carrying the usage text).
pub fn parse_churn_args<I: IntoIterator<Item = String>>(args: I) -> Result<ChurnArgs, String> {
    let mut out = ChurnArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n\n{}", churn_usage()))
        };
        let positive = |flag: &str, v: String| -> Result<u64, String> {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("{flag} expects an integer"))?;
            if n == 0 {
                return Err(format!("{flag} must be positive"));
            }
            Ok(n)
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(churn_usage().to_string()),
            "--verbose" => out.verbose = true,
            "--seeds" => out.seeds = positive("--seeds", value("--seeds")?)?,
            "--seed-base" => {
                out.seed_base = value("--seed-base")?
                    .parse()
                    .map_err(|_| "--seed-base expects an integer".to_string())?;
            }
            "--servers" => out.servers = positive("--servers", value("--servers")?)? as usize,
            "--size-kib" => out.size_kib = positive("--size-kib", value("--size-kib")?)?,
            "--bench-append" => out.bench_append = Some(value("--bench-append")?),
            "--settle-iters" => {
                out.settle_iters = positive("--settle-iters", value("--settle-iters")?)? as usize;
            }
            "--horizon-ms" => {
                let ms: f64 = value("--horizon-ms")?
                    .parse()
                    .map_err(|_| "--horizon-ms expects a number".to_string())?;
                if ms <= 0.0 || ms.is_nan() {
                    return Err("--horizon-ms must be positive".into());
                }
                out.horizon_ms = ms;
            }
            other => return Err(format!("unknown flag {other}\n\n{}", churn_usage())),
        }
    }
    Ok(out)
}

/// A parsed `adapcc-sim parallel3d` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Parallel3dArgs {
    /// Fat-tree servers.
    pub servers: usize,
    /// GPUs per server.
    pub gpus: usize,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// Model parameter MiB (sharded over tp*pp).
    pub model_mib: u64,
    /// AdapCC parallelism (`M`).
    pub parallelism: usize,
    /// Profiling/synthesis seed.
    pub seed: u64,
    /// Co-scheduling fix-point sweep cap.
    pub rounds: usize,
    /// Print every phase's outcome, not just the step totals.
    pub verbose: bool,
    /// Append a `ParallelBenchRecord` line here.
    pub bench_append: Option<String>,
}

impl Default for Parallel3dArgs {
    fn default() -> Self {
        Parallel3dArgs {
            servers: 8,
            gpus: 4,
            tp: 2,
            pp: 2,
            model_mib: 512,
            parallelism: 4,
            seed: 1,
            rounds: 4,
            verbose: false,
            bench_append: None,
        }
    }
}

impl Parallel3dArgs {
    /// The data-parallel degree the fleet leaves after tp and pp:
    /// `gpus_total / (tp * pp)`.
    ///
    /// # Errors
    ///
    /// Returns a message when `tp * pp` does not divide the fleet.
    pub fn dp(&self) -> Result<usize, String> {
        let world = self.servers * self.gpus;
        let cell = self.tp * self.pp;
        if cell == 0 || !world.is_multiple_of(cell) {
            return Err(format!("tp*pp = {cell} must divide the {world}-GPU fleet"));
        }
        Ok(world / cell)
    }
}

/// The usage string for the `parallel3d` subcommand.
pub fn parallel3d_usage() -> &'static str {
    "adapcc-sim parallel3d: one 3D-parallel + MoE training step on a\n\
     fat tree, group-oblivious vs contention-aware co-scheduling\n\
     \n\
     options:\n\
       --servers N       fat-tree servers (default 8)\n\
       --gpus N          GPUs per server (default 4)\n\
       --tp N            tensor-parallel degree (default 2)\n\
       --pp N            pipeline stages (default 2); dp is derived as\n\
                         gpus_total / (tp*pp) and must divide evenly\n\
       --model-mib N     model parameter MiB (default 512)\n\
       --parallelism M   AdapCC sub-collectives (default 4)\n\
       --seed N          profiling/synthesis seed (default 1)\n\
       --rounds N        co-scheduling fix-point sweep cap (default 4)\n\
       --verbose         print every phase's outcome\n\
       --bench-append FILE  append a one-line machine-readable record\n\
       --help            this message"
}

/// Parses `adapcc-sim parallel3d` arguments (everything after the
/// subcommand word).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed
/// values (`--help` arrives as an `Err` carrying the usage text).
pub fn parse_parallel3d_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<Parallel3dArgs, String> {
    let mut out = Parallel3dArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n\n{}", parallel3d_usage()))
        };
        let positive = |flag: &str, v: String| -> Result<u64, String> {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("{flag} expects an integer"))?;
            if n == 0 {
                return Err(format!("{flag} must be positive"));
            }
            Ok(n)
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(parallel3d_usage().to_string()),
            "--verbose" => out.verbose = true,
            "--servers" => out.servers = positive("--servers", value("--servers")?)? as usize,
            "--gpus" => out.gpus = positive("--gpus", value("--gpus")?)? as usize,
            "--tp" => out.tp = positive("--tp", value("--tp")?)? as usize,
            "--pp" => out.pp = positive("--pp", value("--pp")?)? as usize,
            "--model-mib" => out.model_mib = positive("--model-mib", value("--model-mib")?)?,
            "--parallelism" => {
                out.parallelism = positive("--parallelism", value("--parallelism")?)? as usize;
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--rounds" => out.rounds = positive("--rounds", value("--rounds")?)? as usize,
            "--bench-append" => out.bench_append = Some(value("--bench-append")?),
            other => return Err(format!("unknown flag {other}\n\n{}", parallel3d_usage())),
        }
    }
    out.dp()?;
    Ok(out)
}

/// Parses command-line style arguments.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed
/// values (`--help` also arrives as an `Err` carrying the usage text).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<SimArgs, String> {
    let mut out = SimArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n\n{}", usage()))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(usage().to_string()),
            "--tcp" => out.tcp = true,
            "--describe" => out.describe = true,
            "--hierarchical" => out.hierarchical = true,
            "--servers" => out.servers = parse_servers(&value("--servers")?)?,
            "--trace-out" => out.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => out.metrics_out = Some(value("--metrics-out")?),
            "--bench-append" => out.bench_append = Some(value("--bench-append")?),
            "--plan-cache" => out.plan_cache_dir = Some(value("--plan-cache")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "seed expects an integer".to_string())?;
            }
            "--solver-chains" => {
                let k: usize = value("--solver-chains")?
                    .parse()
                    .map_err(|_| "solver-chains expects an integer".to_string())?;
                if k == 0 {
                    return Err("solver-chains must be positive".into());
                }
                out.solver_chains = k;
            }
            "--solver-threads" => {
                let n: usize = value("--solver-threads")?
                    .parse()
                    .map_err(|_| "solver-threads expects an integer".to_string())?;
                if n == 0 {
                    return Err("solver-threads must be positive".into());
                }
                out.solver_threads = n;
            }
            "--primitive" => {
                out.primitive = match value("--primitive")?.as_str() {
                    "reduce" => Primitive::Reduce,
                    "broadcast" => Primitive::Broadcast,
                    "allreduce" => Primitive::AllReduce,
                    "alltoall" => Primitive::AllToAll,
                    other => return Err(format!("unknown primitive {other}\n\n{}", usage())),
                }
            }
            "--size-mib" => {
                let n: u64 = value("--size-mib")?
                    .parse()
                    .map_err(|_| "size-mib expects an integer".to_string())?;
                if n == 0 {
                    return Err("size-mib must be positive".into());
                }
                out.tensor = ByteSize::from_mib(n);
            }
            "--system" => {
                out.system = match value("--system")?.as_str() {
                    "adapcc" => System::AdapCc,
                    "nccl" => System::Nccl,
                    "msccl" => System::Msccl,
                    "blink" => System::Blink,
                    other => return Err(format!("unknown system {other}\n\n{}", usage())),
                }
            }
            "--parallelism" => {
                let m: usize = value("--parallelism")?
                    .parse()
                    .map_err(|_| "parallelism expects an integer".to_string())?;
                if m == 0 {
                    return Err("parallelism must be positive".into());
                }
                out.parallelism = m;
            }
            other => return Err(format!("unknown flag {other}\n\n{}", usage())),
        }
    }
    Ok(out)
}

fn parse_servers(spec: &str) -> Result<Vec<(ServerKind, usize)>, String> {
    // Plain integer: shorthand for a homogeneous a100:N fleet, the
    // common case of the scale sweeps.
    if let Ok(n) = spec.parse::<usize>() {
        if n == 0 {
            return Err("zero servers".into());
        }
        return Ok(vec![(ServerKind::A100, n)]);
    }
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (kind, count) = part
            .split_once(':')
            .ok_or_else(|| format!("bad server spec `{part}` (want kind:count)"))?;
        let kind = match kind {
            "a100" => ServerKind::A100,
            "v100" => ServerKind::V100,
            "h100" => ServerKind::H100,
            other => return Err(format!("unknown server kind {other}")),
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("bad server count in `{part}`"))?;
        if count == 0 {
            return Err(format!("zero servers in `{part}`"));
        }
        out.push((kind, count));
    }
    if out.is_empty() {
        return Err("empty server spec".into());
    }
    Ok(out)
}

/// Materializes the cluster described by the arguments.
pub fn build_cluster(args: &SimArgs) -> Cluster {
    let mut b = ClusterBuilder::new();
    for (kind, count) in &args.servers {
        let spec = match kind {
            ServerKind::A100 => InstanceSpec::a100_server(),
            ServerKind::V100 => InstanceSpec::v100_server(),
            ServerKind::H100 => InstanceSpec::h100_server(),
        };
        let spec = if args.tcp { spec.with_tcp() } else { spec };
        b.add_instances(spec, *count);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<SimArgs, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, SimArgs::default());
    }

    #[test]
    fn full_invocation() {
        let a = parse(&[
            "--servers",
            "a100:4,v100:2",
            "--tcp",
            "--primitive",
            "alltoall",
            "--size-mib",
            "64",
            "--system",
            "msccl",
            "--parallelism",
            "2",
            "--describe",
        ])
        .unwrap();
        assert_eq!(
            a.servers,
            vec![(ServerKind::A100, 4), (ServerKind::V100, 2)]
        );
        assert!(a.tcp);
        assert_eq!(a.primitive, Primitive::AllToAll);
        assert_eq!(a.tensor, ByteSize::from_mib(64));
        assert_eq!(a.system, System::Msccl);
        assert_eq!(a.parallelism, 2);
        assert!(a.describe);
        let cluster = build_cluster(&a);
        assert_eq!(cluster.gpu_count(), 24);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["--servers", "h200:1"]).is_err());
        assert!(parse(&["--servers", "a100"]).is_err());
        assert!(parse(&["--size-mib", "zero"]).is_err());
        assert!(parse(&["--size-mib", "0"]).is_err());
        assert!(parse(&["--primitive", "gather"]).is_err());
        assert!(parse(&["--banana"]).is_err());
        assert!(parse(&["--system"]).is_err(), "missing value");
    }

    #[test]
    fn help_carries_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.contains("--servers"));
        assert!(err.contains("--trace-out"));
        assert!(err.contains("chaos"));
    }

    #[test]
    fn telemetry_output_flags() {
        let a = parse(&[
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.json",
            "--bench-append",
            "bench.jsonl",
        ])
        .unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(a.metrics_out.as_deref(), Some("metrics.json"));
        assert_eq!(a.bench_append.as_deref(), Some("bench.jsonl"));
        assert!(parse(&["--trace-out"]).is_err(), "missing value");
        assert!(parse(&["--metrics-out"]).is_err(), "missing value");
    }

    #[test]
    fn seed_and_plan_cache_flags() {
        let a = parse(&["--seed", "42", "--plan-cache", "/tmp/plans"]).unwrap();
        assert_eq!(a.seed, 42);
        assert_eq!(a.plan_cache_dir.as_deref(), Some("/tmp/plans"));
        assert_eq!(
            SimArgs::default().seed,
            1,
            "default seed matches the historic run"
        );
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seed"]).is_err(), "missing value");
        assert!(parse(&["--plan-cache"]).is_err(), "missing value");
    }

    #[test]
    fn solver_flags() {
        let a = parse(&["--solver-chains", "4", "--solver-threads", "2"]).unwrap();
        assert_eq!(a.solver_chains, 4);
        assert_eq!(a.solver_threads, 2);
        assert_eq!(SimArgs::default().solver_chains, 1, "legacy schedule");
        assert_eq!(SimArgs::default().solver_threads, 1);
        assert!(parse(&["--solver-chains", "0"]).is_err());
        assert!(parse(&["--solver-threads", "0"]).is_err());
        assert!(parse(&["--solver-threads", "two"]).is_err());
        assert!(parse(&["--solver-chains"]).is_err(), "missing value");
    }

    #[test]
    fn plain_integer_servers_shorthand() {
        let a = parse(&["--servers", "128"]).unwrap();
        assert_eq!(a.servers, vec![(ServerKind::A100, 128)]);
        assert!(parse(&["--servers", "0"]).is_err());
    }

    #[test]
    fn hierarchical_flag() {
        assert!(!SimArgs::default().hierarchical);
        assert!(parse(&["--hierarchical"]).unwrap().hierarchical);
        let usage = parse(&["--help"]).unwrap_err();
        assert!(usage.contains("--hierarchical"));
    }

    #[test]
    fn h100_server_kind_builds() {
        let a = parse(&["--servers", "h100:2,a100:1"]).unwrap();
        assert_eq!(
            a.servers,
            vec![(ServerKind::H100, 2), (ServerKind::A100, 1)]
        );
        let cluster = build_cluster(&a);
        assert_eq!(cluster.instance_count(), 3);
    }

    fn parse_chaos(words: &[&str]) -> Result<ChaosArgs, String> {
        parse_chaos_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn chaos_defaults_and_full_invocation() {
        assert_eq!(parse_chaos(&[]).unwrap(), ChaosArgs::default());
        let a = parse_chaos(&[
            "--seeds",
            "500",
            "--seed-base",
            "100",
            "--servers",
            "3",
            "--size-kib",
            "256",
            "--horizon-ms",
            "150",
            "--verbose",
        ])
        .unwrap();
        assert_eq!(a.seeds, 500);
        assert_eq!(a.seed_base, 100);
        assert_eq!(a.servers, 3);
        assert_eq!(a.size_kib, 256);
        assert_eq!(a.horizon_ms, 150.0);
        assert!(a.verbose);
    }

    #[test]
    fn chaos_rejects_malformed_input() {
        assert!(parse_chaos(&["--seeds", "0"]).is_err());
        assert!(parse_chaos(&["--horizon-ms", "-1"]).is_err());
        assert!(parse_chaos(&["--banana"]).is_err());
        assert!(parse_chaos(&["--help"])
            .unwrap_err()
            .contains("--seed-base"));
    }

    fn parse_churn(words: &[&str]) -> Result<ChurnArgs, String> {
        parse_churn_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn churn_defaults_and_full_invocation() {
        assert_eq!(parse_churn(&[]).unwrap(), ChurnArgs::default());
        let a = parse_churn(&[
            "--seeds",
            "400",
            "--seed-base",
            "200",
            "--servers",
            "3",
            "--size-kib",
            "512",
            "--horizon-ms",
            "4",
            "--settle-iters",
            "8",
            "--verbose",
            "--bench-append",
            "BENCH_churn.json",
        ])
        .unwrap();
        assert_eq!(a.seeds, 400);
        assert_eq!(a.seed_base, 200);
        assert_eq!(a.servers, 3);
        assert_eq!(a.size_kib, 512);
        assert_eq!(a.horizon_ms, 4.0);
        assert_eq!(a.settle_iters, 8);
        assert!(a.verbose);
        assert_eq!(a.bench_append.as_deref(), Some("BENCH_churn.json"));
    }

    fn parse_serve(words: &[&str]) -> Result<ServeArgs, String> {
        parse_serve_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn serve_defaults_and_full_invocation() {
        assert_eq!(parse_serve(&[]).unwrap(), ServeArgs::default());
        let a = parse_serve(&[
            "--jobs",
            "64",
            "--threads",
            "16",
            "--repeat-ratio",
            "0.5",
            "--shapes",
            "4",
            "--seed",
            "7",
            "--shards",
            "32",
            "--budget-mib",
            "128",
            "--bench-append",
            "BENCH_service.json",
        ])
        .unwrap();
        assert_eq!(a.jobs, 64);
        assert_eq!(a.threads, 16);
        assert_eq!(a.repeat_ratio, 0.5);
        assert_eq!(a.shapes, 4);
        assert_eq!(a.seed, 7);
        assert_eq!(a.shards, 32);
        assert_eq!(a.budget_mib, 128);
        assert_eq!(a.bench_append.as_deref(), Some("BENCH_service.json"));
    }

    #[test]
    fn serve_rejects_malformed_input() {
        assert!(parse_serve(&["--jobs", "0"]).is_err());
        assert!(parse_serve(&["--threads", "0"]).is_err());
        assert!(parse_serve(&["--repeat-ratio", "1.5"]).is_err());
        assert!(parse_serve(&["--repeat-ratio", "-0.1"]).is_err());
        assert!(parse_serve(&["--shards", "x"]).is_err());
        assert!(parse_serve(&["--banana"]).is_err());
        assert!(parse_serve(&["--help"])
            .unwrap_err()
            .contains("--repeat-ratio"));
        let usage = parse(&["--help"]).unwrap_err();
        assert!(usage.contains("serve"), "main usage advertises serve");
    }

    fn parse_engine(words: &[&str]) -> Result<EngineArgs, String> {
        parse_engine_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn engine_defaults_and_full_invocation() {
        let d = parse_engine(&[]).unwrap();
        assert_eq!(d, EngineArgs::default());
        assert_eq!(d.storm, crate::engine_bench::StormMode::Wave);
        assert_eq!(d.alloc, crate::engine_bench::AllocMode::Auto);
        let a = parse_engine(&[
            "--servers",
            "128",
            "--waves",
            "8",
            "--storm",
            "churn",
            "--alloc",
            "incremental",
            "--bench-append",
            "BENCH_engine.json",
        ])
        .unwrap();
        assert_eq!(a.servers, 128);
        assert_eq!(a.waves, 8);
        assert_eq!(a.storm, crate::engine_bench::StormMode::Churn);
        assert_eq!(a.alloc, crate::engine_bench::AllocMode::Incremental);
        assert_eq!(a.bench_append.as_deref(), Some("BENCH_engine.json"));
        let e = parse_engine(&["--storm", "wave", "--alloc", "exact"]).unwrap();
        assert_eq!(e.storm, crate::engine_bench::StormMode::Wave);
        assert_eq!(e.alloc, crate::engine_bench::AllocMode::Exact);
    }

    #[test]
    fn engine_rejects_malformed_input() {
        assert!(parse_engine(&["--servers", "1"]).is_err(), "cross-server");
        assert!(parse_engine(&["--waves", "0"]).is_err());
        assert!(parse_engine(&["--storm", "tsunami"]).is_err());
        assert!(parse_engine(&["--alloc", "magic"]).is_err());
        assert!(parse_engine(&["--banana"]).is_err());
        assert!(parse_engine(&["--help"]).unwrap_err().contains("--waves"));
        assert!(parse_engine(&["--help"]).unwrap_err().contains("--storm"));
        let usage = parse(&["--help"]).unwrap_err();
        assert!(usage.contains("engine"), "main usage advertises engine");
    }

    #[test]
    fn churn_rejects_malformed_input() {
        assert!(parse_churn(&["--seeds", "0"]).is_err());
        assert!(parse_churn(&["--settle-iters", "0"]).is_err());
        assert!(parse_churn(&["--horizon-ms", "nan"]).is_err());
        assert!(parse_churn(&["--banana"]).is_err());
        assert!(parse_churn(&["--help"])
            .unwrap_err()
            .contains("--settle-iters"));
        let usage = parse(&["--help"]).unwrap_err();
        assert!(usage.contains("churn"), "main usage advertises churn");
    }
}
