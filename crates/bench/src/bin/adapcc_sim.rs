//! `adapcc-sim`: run one collective on a simulated cluster from the
//! command line.
//!
//! ```text
//! cargo run --release -p adapcc-bench --bin adapcc_sim -- \
//!     --servers a100:4,v100:2 --primitive allreduce --size-mib 256 --describe
//! ```

use std::path::Path;
use std::time::Instant;

use adapcc_baselines::runner::{Runner, System};
use adapcc_bench::chaos::{self, ChaosConfig};
use adapcc_bench::churn::{self, ChurnConfig};
use adapcc_bench::cli::{self, build_cluster, Run, SimArgs};
use adapcc_bench::engine_bench::{engine_storm, AllocMode, StormConfig, StormMode};
use adapcc_bench::harness::profiled_with_telemetry;
use adapcc_bench::parallel_bench::{self, ParallelConfig};
use adapcc_bench::record::Row;
use adapcc_bench::service_bench::{run_service_bench, ServiceWorkload};
use adapcc_planserve::{PlanService, ServiceConfig};
use adapcc_profile::profiler::LinkProfile;
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_telemetry::Telemetry;
use adapcc_topo::logical::LogicalTopology;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = || argv.iter().skip(1).cloned();
    match argv.first().map(String::as_str) {
        Some("chaos") => run_chaos(parsed(cli::parse_chaos_args(rest()))),
        Some("churn") => run_churn(parsed(cli::parse_churn_args(rest()))),
        Some("engine") => run_engine(parsed(cli::parse_engine_args(rest()))),
        Some("serve") => run_serve(parsed(cli::parse_serve_args(rest()))),
        Some("parallel3d") => run_parallel3d(parsed(cli::parse_parallel3d_args(rest()))),
        _ => run_collective(parsed(cli::parse_args(argv.iter().cloned()))),
    }
}

/// Unwraps a parsed command line, or exits: 0 after `--help` (whose
/// usage text arrives as the error), 2 on a malformed one.
fn parsed<T>(parse: Result<T, String>) -> T {
    parse.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(if msg.starts_with("adapcc-sim") { 0 } else { 2 })
    })
}

/// Appends `row()` to the `--bench-append` file when one was given, or
/// exits 1 when it cannot.
fn append(path: Option<&str>, what: &str, row: impl FnOnce() -> Row) {
    let Some(path) = path else { return };
    if let Err(e) = row().append_to(Path::new(path)) {
        eprintln!("cannot append {what} record to {path}: {e}");
        std::process::exit(1);
    }
    println!("{what} record appended to {path}");
}

fn wall_ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A runner at the arguments' solver settings, reporting into
/// `telemetry`.
fn runner_for<'a>(
    args: &SimArgs,
    cluster: &'a Cluster,
    topo: &'a LogicalTopology,
    profile: &'a LinkProfile,
    telemetry: Telemetry,
) -> Runner<'a> {
    let hierarchical = if args.hierarchical {
        adapcc_synth::Hierarchical::On
    } else {
        adapcc_synth::Hierarchical::Auto
    };
    let mut runner = Runner::new(cluster, topo, profile)
        .with_parallelism(args.parallelism)
        .with_solver(args.solver_chains, args.solver_threads)
        .with_hierarchical(hierarchical)
        .with_telemetry(telemetry);
    runner.seed = args.seed;
    runner
}

fn run_collective(args: SimArgs) {
    let cluster = build_cluster(&args);
    println!(
        "cluster: {} servers / {} GPUs ({})",
        cluster.instance_count(),
        cluster.gpu_count(),
        if args.tcp { "TCP" } else { "RDMA" }
    );
    let wants_telemetry = args.trace_out.is_some() || args.metrics_out.is_some();
    let telemetry = if wants_telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let run_start = Instant::now();
    let (topo, profile, control_secs) =
        profiled_with_telemetry(&cluster, args.seed, telemetry.clone());
    let mut runner = runner_for(
        &args,
        &cluster,
        &topo,
        &profile,
        telemetry.at_offset(control_secs),
    );
    if let Some(dir) = &args.plan_cache_dir {
        runner = runner.with_plan_service(std::sync::Arc::new(
            PlanService::new(ServiceConfig::one_shard()).with_disk_tier(dir),
        ));
    }
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    if args.describe && args.system != System::Blink {
        let strategy = runner.strategy(args.system, args.primitive, args.tensor, &ranks);
        print!("{}", adapcc_synth::describe(&topo, &strategy));
    }
    let report = runner.run(
        args.system,
        args.primitive,
        args.tensor,
        &ranks,
        &Default::default(),
    );
    let sim_wall_ms = wall_ms_since(run_start);
    println!(
        "{} {} of {}: {} ({:.2} GB/s algorithm bandwidth, {:.0} ms wall)",
        args.system.name(),
        args.primitive,
        args.tensor,
        report.comm_time,
        report.algo_bw_gbytes,
        sim_wall_ms
    );
    // The runner exports its `plancache.*` counters on every resolve;
    // the trace itself carries no cache-dependent spans, so it stays
    // byte-identical warm or cold.
    let cache_stats = runner.plan_cache_stats();
    if args.plan_cache_dir.is_some() {
        println!(
            "plan cache: {} hit(s), {} warm start(s), {} miss(es), {:.2}s modeled solve time saved",
            cache_stats.hits,
            cache_stats.warm_starts,
            cache_stats.misses,
            cache_stats.saved.as_secs()
        );
    }
    if let Some(path) = &args.trace_out {
        write_or_die(path, &telemetry.chrome_trace(), "trace");
        println!("trace written to {path} (load in chrome://tracing)");
    }
    if let Some(path) = &args.metrics_out {
        write_or_die(path, &telemetry.metrics_summary(), "metrics");
        println!("metrics written to {path}");
    }
    append(args.bench_append.as_deref(), "bench", || {
        // One extra cold synthesis, timed on the host clock with a
        // throwaway telemetry sink for the synth.* counters. The wall
        // time is a property of this machine, never of the simulated
        // timeline, so it lives only in the bench record.
        let (solver, solver_wall_ms) = if args.system == System::AdapCc {
            let probe = Telemetry::enabled();
            let timed = runner_for(&args, &cluster, &topo, &profile, probe.clone());
            let start = Instant::now();
            let _ = timed.strategy(System::AdapCc, args.primitive, args.tensor, &ranks);
            (probe, wall_ms_since(start))
        } else {
            (Telemetry::disabled(), 0.0)
        };
        // Engine throughput on the same cluster: a short storm so
        // BENCH rows carry events/sec alongside the solver numbers.
        let engine_events_per_sec = if cluster.instance_count() >= 2 {
            engine_storm(&cluster, 4, StormMode::Wave, AllocMode::Auto).events_per_sec()
        } else {
            0.0
        };
        args.row(
            &report,
            &cache_stats,
            &solver,
            solver_wall_ms,
            sim_wall_ms,
            engine_events_per_sec,
        )
    });
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
}

fn run_engine(run: Run<StormConfig>) {
    let cfg = run.config;
    let cluster = Cluster::homogeneous_a100(cfg.servers);
    let report = engine_storm(&cluster, cfg.waves, cfg.storm, AllocMode::Auto);
    println!(
        "engine storm ({}): {} servers / {} GPUs, {} waves, {} transfers \
         -> {} events in {:.1} ms wall ({:.0} events/sec, {:.3} ms simulated, \
         {} fillings touching {} flows)",
        cfg.storm.as_str(),
        cluster.instance_count(),
        cluster.gpu_count(),
        cfg.waves,
        report.transfers,
        report.events,
        report.wall_ms,
        report.events_per_sec(),
        report.sim_ms,
        report.fillings,
        report.frontier_flows
    );
    append(run.bench_append.as_deref(), "engine", || {
        report.row(&cfg, cluster.gpu_count())
    });
}

fn run_serve(run: Run<ServiceWorkload>) {
    let w = &run.config;
    println!(
        "serve: {} jobs on {} threads, repeat ratio {:.2}, {} shapes, \
         {} shards / {} MiB budget",
        w.jobs,
        w.threads,
        w.repeat_ratio,
        w.shapes,
        w.shards,
        w.byte_budget >> 20
    );
    let r = run_service_bench(w);
    println!(
        "service:  {} requests in {:.1} ms -> {:.0} plans/sec \
         (hit {} / warm {} / cold {} / coalesced {}; p50 {:.0} us, p99 {:.0} us)",
        r.service.requests,
        r.service.wall_ms,
        r.service.plans_per_sec,
        r.service.hits,
        r.service.warm_starts,
        r.service.cold_solves,
        r.service.coalesced,
        r.service.p50_us,
        r.service.p99_us,
    );
    println!(
        "baseline: {} requests in {:.1} ms -> {:.0} plans/sec \
         (hit {} / warm {} / cold {}; p50 {:.0} us, p99 {:.0} us)",
        r.baseline.requests,
        r.baseline.wall_ms,
        r.baseline.plans_per_sec,
        r.baseline.hits,
        r.baseline.warm_starts,
        r.baseline.cold_solves,
        r.baseline.p50_us,
        r.baseline.p99_us,
    );
    println!(
        "store: {} entries / {} bytes, {} evictions; speedup {:.2}x",
        r.entries, r.bytes, r.evictions, r.speedup
    );
    append(run.bench_append.as_deref(), "service", || r.row(w));
}

fn run_chaos(run: Run<ChaosConfig>) {
    let cfg = &run.config;
    println!(
        "chaos: {} seeds from {} on {} servers, {} KiB tensors, {} ms horizon",
        run.seeds,
        run.seed_base,
        cfg.servers,
        cfg.tensor.as_u64() / 1024,
        run.horizon_ms
    );
    let summary = chaos::run_sweep(cfg, run.seed_base, run.seeds, |r| {
        if run.verbose {
            println!(
                "  seed {:>4} ({} faults, {} iters): {:?}",
                r.seed, r.schedule_len, r.iterations, r.outcome
            );
        }
    });
    println!(
        "clean {} / recovered {} / classified {} / mismatched {} (of {})",
        summary.clean,
        summary.recovered,
        summary.classified,
        summary.mismatches.len(),
        summary.total
    );
    if !summary.mismatches.is_empty() {
        for m in &summary.mismatches {
            eprintln!("NUMERIC MISMATCH seed {}: {:?}", m.seed, m.outcome);
        }
        std::process::exit(1);
    }
}

fn run_churn(run: Run<ChurnConfig>) {
    let cfg = &run.config;
    println!(
        "churn: {} seeds from {} on {} servers, {} KiB tensors, {} ms horizon, {} settle iters",
        run.seeds,
        run.seed_base,
        cfg.servers,
        cfg.tensor.as_u64() / 1024,
        run.horizon_ms,
        cfg.settle_iters
    );
    let start = Instant::now();
    let summary = churn::run_sweep(cfg, run.seed_base, run.seeds, |r| {
        if run.verbose {
            println!(
                "  seed {:>4} ({} events, {} iters, {} errors, {} rejoins): {:?}",
                r.seed, r.schedule_len, r.iterations, r.errors, r.rejoins, r.outcome
            );
        }
    });
    let wall_ms = wall_ms_since(start);
    println!(
        "converged {} / classified {} / violations {} (of {}); {} rejoins, {} errors absorbed",
        summary.converged,
        summary.classified,
        summary.violations.len(),
        summary.total,
        summary.rejoins,
        summary.errors
    );
    println!(
        "plan cache over the sweep: {} hit(s), {} warm start(s), {} miss(es)",
        summary.plan_hits, summary.plan_warm_starts, summary.plan_misses
    );
    append(run.bench_append.as_deref(), "churn", || {
        summary.row(cfg, run.seeds, run.seed_base, run.horizon_ms, wall_ms)
    });
    if !summary.violations.is_empty() {
        for v in &summary.violations {
            eprintln!("INVARIANT VIOLATION seed {}: {:?}", v.seed, v.outcome);
        }
        std::process::exit(1);
    }
}

fn run_parallel3d(run: Run<ParallelConfig>) {
    let cfg = &run.config;
    let layout = cfg.layout;
    let cluster = Cluster::fat_tree(cfg.servers, cfg.gpus_per_server);
    println!(
        "parallel3d: {} servers x {} GPUs fat tree, dp={} tp={} pp={}, {} MiB model, {} rounds max",
        cfg.servers,
        cfg.gpus_per_server,
        layout.dp,
        layout.tp,
        layout.pp,
        cfg.model.as_u64() >> 20,
        cfg.max_rounds
    );
    let start = Instant::now();
    let (topo, profile, _) = profiled_with_telemetry(&cluster, cfg.seed, Telemetry::disabled());
    let report = parallel_bench::run_parallel3d(&cluster, &topo, &profile, cfg);
    let wall_ms = wall_ms_since(start);
    if run.verbose {
        for p in &report.phases {
            println!(
                "  {:<14} {:>3} groups: executed {:.3} ms oblivious vs {:.3} ms aware \
                 (modeled {:.3} vs {:.3} ms, {} sweeps)",
                p.name,
                p.groups,
                p.oblivious_executed_s * 1e3,
                p.aware_executed_s * 1e3,
                p.oblivious_modeled_s * 1e3,
                p.aware_modeled_s * 1e3,
                p.rounds
            );
        }
    }
    let obl = report.oblivious_executed_s();
    let aware = report.aware_executed_s();
    println!(
        "executed step: {:.3} ms oblivious vs {:.3} ms contention-aware ({:+.1}%); \
         modeled {:.3} vs {:.3} ms ({:.0} ms wall)",
        obl * 1e3,
        aware * 1e3,
        (aware / obl - 1.0) * 100.0,
        report.oblivious_modeled_s() * 1e3,
        report.aware_modeled_s() * 1e3,
        wall_ms
    );
    append(run.bench_append.as_deref(), "parallel", || {
        report.row(cfg, wall_ms)
    });
}
