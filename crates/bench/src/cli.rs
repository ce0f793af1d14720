//! Argument parsing for the `adapcc-sim` command-line tool (no
//! external CLI dependency), plus the main run's bench row.
//!
//! Every parser reads its words through one flag reader, so all six
//! commands take values, integers, numbers, ratios and named choices
//! the same way. A subcommand parses straight into the config it feeds,
//! wrapped in a [`Run`] with the run-level flags.

use std::str::FromStr;

use adapcc_baselines::runner::{RunReport, System};
use adapcc_planserve::PlanStats;
use adapcc_simnet::cluster::{Cluster, ClusterBuilder};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::Primitive;
use adapcc_telemetry::Telemetry;

use crate::chaos::ChaosConfig;
use crate::churn::ChurnConfig;
use crate::engine_bench::{StormConfig, StormMode};
use crate::parallel_bench::ParallelConfig;
use crate::record::Row;
use crate::service_bench::ServiceWorkload;

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

impl ServerKind {
    const ALL: [ServerKind; 3] = [ServerKind::A100, ServerKind::V100, ServerKind::H100];

    /// The kind's name in a fleet spec.
    pub fn name(self) -> &'static str {
        match self {
            ServerKind::A100 => "a100",
            ServerKind::V100 => "v100",
            ServerKind::H100 => "h100",
        }
    }
}

impl SimArgs {
    /// The fleet as a spec string, e.g. `a100:4,v100:2`.
    pub fn servers_spec(&self) -> String {
        self.servers
            .iter()
            .map(|(kind, count)| format!("{}:{count}", kind.name()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The `--bench-append` row of one finished run. `solver` is the
    /// telemetry sink of one extra cold synthesis that took
    /// `solver_wall_ms` of host time (a disabled sink and 0 for baseline
    /// systems); its `synth.*` counters fill the solver columns.
    pub fn row(
        &self,
        report: &RunReport,
        cache: &PlanStats,
        solver: &Telemetry,
        solver_wall_ms: f64,
        sim_wall_ms: f64,
        engine_events_per_sec: f64,
    ) -> Row {
        let synth = |name: &str| solver.counter(name) as u64;
        Row::new()
            .str("system", self.system.name())
            .str("primitive", &self.primitive.to_string())
            .str("servers", &self.servers_spec())
            .int("tensor_mib", self.tensor.as_u64() / (1024 * 1024))
            .int("parallelism", self.parallelism)
            .float("comm_time_ms", report.comm_time.as_millis(), 6)
            .float("algo_bw_gbytes", report.algo_bw_gbytes, 6)
            .plan_cache(cache.hits, cache.misses, cache.warm_starts)
            .float("solver_wall_ms", solver_wall_ms, 3)
            .int("synth_full_evals", synth("synth.full_evals"))
            .int("synth_delta_evals", synth("synth.delta_evals"))
            .int("synth_chains", synth("synth.chains"))
            .bool("hierarchical", self.hierarchical)
            .float("sim_wall_ms", sim_wall_ms, 3)
            .float("engine_events_per_sec", engine_events_per_sec, 1)
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

/// A parsed subcommand: the config it runs plus the run-level flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Run<C> {
    /// The config the subcommand feeds.
    pub config: C,
    /// Consecutive seeds to sweep (`chaos`, `churn`; default 200).
    pub seeds: u64,
    /// First seed of the sweep (`chaos`, `churn`).
    pub seed_base: u64,
    /// The fault or churn window in simulated ms as given (`chaos`,
    /// `churn`). The churn row echoes it, and the config's
    /// `SimDuration` does not round-trip every millisecond value.
    pub horizon_ms: f64,
    /// Print every seed's or phase's outcome, not just the summary.
    pub verbose: bool,
    /// Append a one-line bench row here.
    pub bench_append: Option<String>,
}

impl<C> Run<C> {
    fn new(config: C) -> Self {
        Run {
            config,
            seeds: 200,
            seed_base: 0,
            horizon_ms: 0.0,
            verbose: false,
            bench_append: None,
        }
    }
}

/// The flag reader every parser runs on: yields each flag word and
/// parses the value after it.
struct Flags<I> {
    words: I,
    usage: &'static str,
}

impl<I: Iterator<Item = String>> Flags<I> {
    fn new(words: impl IntoIterator<IntoIter = I>, usage: &'static str) -> Self {
        Flags {
            words: words.into_iter(),
            usage,
        }
    }

    /// The next flag word; `--help` ends parsing with the usage text.
    fn flag(&mut self) -> Result<Option<String>, String> {
        match self.words.next() {
            Some(word) if word == "--help" || word == "-h" => Err(self.usage.to_string()),
            word => Ok(word),
        }
    }

    /// The error for a flag this command does not take.
    fn unknown(&self, flag: &str) -> String {
        format!("unknown flag {flag}\n\n{}", self.usage)
    }

    /// The word after `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.words
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n\n{}", self.usage))
    }

    /// An integer.
    fn int<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects an integer"))
    }

    /// A positive integer.
    fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, String> {
        let n: T = self.int(flag)?;
        if n == T::default() {
            return Err(format!("{flag} must be positive"));
        }
        Ok(n)
    }

    /// A positive count of `unit`-byte units.
    fn bytes(&mut self, flag: &str, unit: u64) -> Result<ByteSize, String> {
        let n: u64 = self.positive(flag)?;
        n.checked_mul(unit)
            .map(ByteSize::from_bytes)
            .ok_or_else(|| format!("{flag} is too large"))
    }

    /// A positive, finite number.
    fn number(&mut self, flag: &str) -> Result<f64, String> {
        let x = self.float(flag)?;
        if !(x > 0.0 && x.is_finite()) {
            return Err(format!("{flag} must be positive"));
        }
        Ok(x)
    }

    /// A ratio in `0..=1`.
    fn ratio(&mut self, flag: &str) -> Result<f64, String> {
        let x = self.float(flag)?;
        if !(0.0..=1.0).contains(&x) {
            return Err(format!("{flag} must be in 0..=1"));
        }
        Ok(x)
    }

    fn float(&mut self, flag: &str) -> Result<f64, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a number"))
    }

    /// One of `choices`, by name.
    fn choice<T: Copy>(&mut self, flag: &str, choices: &[(&str, T)]) -> Result<T, String> {
        let word = self.value(flag)?;
        if let Some(&(_, choice)) = choices.iter().find(|(name, _)| *name == word) {
            return Ok(choice);
        }
        let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
        Err(format!("{flag} expects {}, got {word}", names.join(" | ")))
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
pub fn parse_chaos_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<Run<ChaosConfig>, String> {
    let mut run = Run::new(ChaosConfig::default());
    run.horizon_ms = run.config.horizon.as_millis();
    let mut f = Flags::new(args, chaos_usage());
    while let Some(flag) = f.flag()? {
        let c = &mut run.config;
        match flag.as_str() {
            "--verbose" => run.verbose = true,
            "--seeds" => run.seeds = f.positive(&flag)?,
            "--seed-base" => run.seed_base = f.int(&flag)?,
            "--servers" => c.servers = f.positive(&flag)?,
            "--size-kib" => c.tensor = f.bytes(&flag, 1 << 10)?,
            "--horizon-ms" => run.horizon_ms = f.number(&flag)?,
            _ => return Err(f.unknown(&flag)),
        }
    }
    run.config.horizon = SimDuration::from_millis(run.horizon_ms);
    Ok(run)
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
pub fn parse_engine_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<Run<StormConfig>, String> {
    let mut run = Run::new(StormConfig::default());
    let mut f = Flags::new(args, engine_usage());
    while let Some(flag) = f.flag()? {
        let c = &mut run.config;
        match flag.as_str() {
            "--servers" => c.servers = f.positive(&flag)?,
            "--waves" => c.waves = f.positive(&flag)?,
            "--storm" => {
                c.storm = f.choice(
                    &flag,
                    &[("wave", StormMode::Wave), ("churn", StormMode::Churn)],
                )?;
            }
            "--bench-append" => run.bench_append = Some(f.value(&flag)?),
            _ => return Err(f.unknown(&flag)),
        }
    }
    if run.config.servers < 2 {
        return Err("--servers must be at least 2 (the storm is cross-server)".into());
    }
    Ok(run)
}

/// The usage string for the `serve` subcommand.
pub fn serve_usage() -> &'static str {
    "adapcc-sim serve: drive a synthetic many-job workload against one\n\
     shared plan service (sharded store + single-flight admission) and\n\
     against each session's own one-shard service, and report the speedup\n\
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
pub fn parse_serve_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<Run<ServiceWorkload>, String> {
    let mut run = Run::new(ServiceWorkload::default());
    let mut f = Flags::new(args, serve_usage());
    while let Some(flag) = f.flag()? {
        let w = &mut run.config;
        match flag.as_str() {
            "--jobs" => w.jobs = f.positive(&flag)?,
            "--threads" => w.threads = f.positive(&flag)?,
            "--repeat-ratio" => w.repeat_ratio = f.ratio(&flag)?,
            "--shapes" => w.shapes = f.positive(&flag)?,
            "--seed" => w.seed = f.int(&flag)?,
            "--shards" => w.shards = f.positive(&flag)?,
            "--budget-mib" => w.byte_budget = f.bytes(&flag, 1 << 20)?.as_u64() as usize,
            "--bench-append" => run.bench_append = Some(f.value(&flag)?),
            _ => return Err(f.unknown(&flag)),
        }
    }
    Ok(run)
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
pub fn parse_churn_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<Run<ChurnConfig>, String> {
    let mut run = Run::new(ChurnConfig::default());
    run.horizon_ms = run.config.horizon.as_millis();
    let mut f = Flags::new(args, churn_usage());
    while let Some(flag) = f.flag()? {
        let c = &mut run.config;
        match flag.as_str() {
            "--verbose" => run.verbose = true,
            "--seeds" => run.seeds = f.positive(&flag)?,
            "--seed-base" => run.seed_base = f.int(&flag)?,
            "--servers" => c.servers = f.positive(&flag)?,
            "--size-kib" => c.tensor = f.bytes(&flag, 1 << 10)?,
            "--horizon-ms" => run.horizon_ms = f.number(&flag)?,
            "--settle-iters" => c.settle_iters = f.positive(&flag)?,
            "--bench-append" => run.bench_append = Some(f.value(&flag)?),
            _ => return Err(f.unknown(&flag)),
        }
    }
    run.config.horizon = SimDuration::from_millis(run.horizon_ms);
    Ok(run)
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
/// subcommand word). The data-parallel degree is what the fleet leaves
/// after tp and pp: `gpus_total / (tp * pp)`.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed
/// values (`--help` arrives as an `Err` carrying the usage text).
pub fn parse_parallel3d_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<Run<ParallelConfig>, String> {
    let mut run = Run::new(ParallelConfig::default());
    let mut f = Flags::new(args, parallel3d_usage());
    while let Some(flag) = f.flag()? {
        let c = &mut run.config;
        match flag.as_str() {
            "--verbose" => run.verbose = true,
            "--servers" => c.servers = f.positive(&flag)?,
            "--gpus" => c.gpus_per_server = f.positive(&flag)?,
            "--tp" => c.layout.tp = f.positive(&flag)?,
            "--pp" => c.layout.pp = f.positive(&flag)?,
            "--model-mib" => c.model = f.bytes(&flag, 1 << 20)?,
            "--parallelism" => c.parallelism = f.positive(&flag)?,
            "--seed" => c.seed = f.int(&flag)?,
            "--rounds" => c.max_rounds = f.positive(&flag)?,
            "--bench-append" => run.bench_append = Some(f.value(&flag)?),
            _ => return Err(f.unknown(&flag)),
        }
    }
    let c = &mut run.config;
    let (world, cell) = (c.servers * c.gpus_per_server, c.layout.tp * c.layout.pp);
    if !world.is_multiple_of(cell) {
        return Err(format!("tp*pp = {cell} must divide the {world}-GPU fleet"));
    }
    c.layout.dp = world / cell;
    Ok(run)
}

/// Parses command-line style arguments.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed
/// values (`--help` also arrives as an `Err` carrying the usage text).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<SimArgs, String> {
    let mut out = SimArgs::default();
    let mut f = Flags::new(args, usage());
    while let Some(flag) = f.flag()? {
        match flag.as_str() {
            "--tcp" => out.tcp = true,
            "--describe" => out.describe = true,
            "--hierarchical" => out.hierarchical = true,
            "--servers" => out.servers = parse_servers(&f.value(&flag)?)?,
            "--trace-out" => out.trace_out = Some(f.value(&flag)?),
            "--metrics-out" => out.metrics_out = Some(f.value(&flag)?),
            "--bench-append" => out.bench_append = Some(f.value(&flag)?),
            "--plan-cache" => out.plan_cache_dir = Some(f.value(&flag)?),
            "--seed" => out.seed = f.int(&flag)?,
            "--solver-chains" => out.solver_chains = f.positive(&flag)?,
            "--solver-threads" => out.solver_threads = f.positive(&flag)?,
            "--size-mib" => out.tensor = f.bytes(&flag, 1 << 20)?,
            "--parallelism" => out.parallelism = f.positive(&flag)?,
            "--primitive" => {
                out.primitive = f.choice(
                    &flag,
                    &[
                        ("reduce", Primitive::Reduce),
                        ("broadcast", Primitive::Broadcast),
                        ("allreduce", Primitive::AllReduce),
                        ("alltoall", Primitive::AllToAll),
                    ],
                )?;
            }
            "--system" => {
                out.system = f.choice(
                    &flag,
                    &[
                        ("adapcc", System::AdapCc),
                        ("nccl", System::Nccl),
                        ("msccl", System::Msccl),
                        ("blink", System::Blink),
                    ],
                )?;
            }
            _ => return Err(f.unknown(&flag)),
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
        let kind = ServerKind::ALL
            .into_iter()
            .find(|k| k.name() == kind)
            .ok_or_else(|| format!("unknown server kind {kind}"))?;
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

    fn parse_chaos(words: &[&str]) -> Result<Run<ChaosConfig>, String> {
        parse_chaos_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn chaos_defaults_and_full_invocation() {
        let mut d = Run::new(ChaosConfig::default());
        d.horizon_ms = 2.0;
        assert_eq!(parse_chaos(&[]).unwrap(), d);
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
        assert_eq!(a.config.servers, 3);
        assert_eq!(a.config.tensor, ByteSize::from_kib(256));
        assert_eq!(a.horizon_ms, 150.0);
        assert_eq!(a.config.horizon, SimDuration::from_millis(150.0));
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

    fn parse_churn(words: &[&str]) -> Result<Run<ChurnConfig>, String> {
        parse_churn_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn churn_defaults_and_full_invocation() {
        let mut d = Run::new(ChurnConfig::default());
        d.horizon_ms = 2.0;
        assert_eq!(parse_churn(&[]).unwrap(), d);
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
        assert_eq!(a.config.servers, 3);
        assert_eq!(a.config.tensor, ByteSize::from_kib(512));
        assert_eq!(a.horizon_ms, 4.0);
        assert_eq!(a.config.horizon, SimDuration::from_millis(4.0));
        assert_eq!(a.config.settle_iters, 8);
        assert!(a.verbose);
        assert_eq!(a.bench_append.as_deref(), Some("BENCH_churn.json"));
    }

    fn parse_serve(words: &[&str]) -> Result<Run<ServiceWorkload>, String> {
        parse_serve_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn serve_defaults_and_full_invocation() {
        assert_eq!(
            parse_serve(&[]).unwrap(),
            Run::new(ServiceWorkload::default())
        );
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
        let w = &a.config;
        assert_eq!(w.jobs, 64);
        assert_eq!(w.threads, 16);
        assert_eq!(w.repeat_ratio, 0.5);
        assert_eq!(w.shapes, 4);
        assert_eq!(w.seed, 7);
        assert_eq!(w.shards, 32);
        assert_eq!(w.byte_budget, 128 << 20);
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

    fn parse_engine(words: &[&str]) -> Result<Run<StormConfig>, String> {
        parse_engine_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn engine_defaults_and_full_invocation() {
        let d = parse_engine(&[]).unwrap();
        assert_eq!(d, Run::new(StormConfig::default()));
        assert_eq!(d.config.storm, StormMode::Wave);
        let a = parse_engine(&[
            "--servers",
            "128",
            "--waves",
            "8",
            "--storm",
            "churn",
            "--bench-append",
            "BENCH_engine.json",
        ])
        .unwrap();
        assert_eq!(a.config.servers, 128);
        assert_eq!(a.config.waves, 8);
        assert_eq!(a.config.storm, StormMode::Churn);
        assert_eq!(a.bench_append.as_deref(), Some("BENCH_engine.json"));
        let e = parse_engine(&["--storm", "wave"]).unwrap();
        assert_eq!(e.config.storm, StormMode::Wave);
    }

    #[test]
    fn engine_rejects_malformed_input() {
        assert!(parse_engine(&["--servers", "1"]).is_err(), "cross-server");
        assert!(parse_engine(&["--waves", "0"]).is_err());
        assert!(parse_engine(&["--storm", "tsunami"]).is_err());
        assert!(parse_engine(&["--alloc", "auto"]).is_err(), "one allocator");
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

    fn parse_parallel3d(words: &[&str]) -> Result<Run<ParallelConfig>, String> {
        parse_parallel3d_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parallel3d_derives_dp_from_the_fleet() {
        let d = parse_parallel3d(&[]).unwrap();
        assert_eq!(d.config.layout, ParallelConfig::default().layout);
        let a = parse_parallel3d(&[
            "--servers",
            "2",
            "--gpus",
            "4",
            "--tp",
            "2",
            "--pp",
            "2",
            "--model-mib",
            "64",
            "--rounds",
            "2",
            "--verbose",
        ])
        .unwrap();
        assert_eq!(
            (a.config.layout.dp, a.config.layout.tp, a.config.layout.pp),
            (2, 2, 2)
        );
        assert_eq!(a.config.model, ByteSize::from_mib(64));
        assert_eq!(a.config.max_rounds, 2);
        assert!(a.verbose);
        assert!(
            parse_parallel3d(&["--tp", "3"]).is_err(),
            "3 does not divide 32"
        );
        assert!(parse_parallel3d(&["--pp", "0"]).is_err());
        assert!(parse_parallel3d(&["--banana"]).is_err());
        assert!(parse_parallel3d(&["--help"])
            .unwrap_err()
            .contains("--rounds"));
    }

    #[test]
    fn flag_reader_rejects_values_no_config_can_hold() {
        assert!(parse_churn(&["--horizon-ms", "inf"]).is_err());
        assert!(parse_chaos(&["--size-kib", "18014398509481984"]).is_err());
        assert!(parse(&["--size-mib", "17592186044416"]).is_err());
        let err = parse_engine(&["--storm", "magic"]).unwrap_err();
        assert!(err.contains("wave | churn"), "{err}");
    }

    #[test]
    fn servers_spec_round_trips() {
        let a = parse(&["--servers", "h100:2,a100:1,v100:3"]).unwrap();
        assert_eq!(a.servers_spec(), "h100:2,a100:1,v100:3");
    }
}
