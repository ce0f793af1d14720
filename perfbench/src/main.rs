//! The AdapCC reproduction's benchmark: four workloads driven through
//! the library's public API, end-to-end metrics from an untraced run
//! and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--spans-out <file>]
//! ```
//!
//! Prints one `provenance` line, one line per metric (name, value,
//! unit) and, last, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any output check failed. See
//! `perfbench/README.md` for the workloads and the layer map.

mod common;
mod ddp;
mod oracle;
mod par3d;
mod pod;
mod probes;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{percentile, Outcome, Params};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "ddp-testbed",
    "pod-allreduce",
    "parallel3d-step",
    "plan-serve",
];

/// Every per-layer metric the traced run reports, with its unit. A
/// layer a workload leaves idle reports 0.
const LAYER_METRICS: [(&str, &str); 42] = [
    ("topo.detect_ms", "ms"),
    ("profile.run_ms", "ms"),
    ("core.session.init_ms", "ms"),
    ("core.session.setup_ms", "ms"),
    ("core.session.plan_ms", "ms"),
    ("synth.cold_solves", "count"),
    ("synth.cold_ms", "ms"),
    ("synth.warm_solves", "count"),
    ("synth.warm_ms", "ms"),
    ("synth.full_evals", "count"),
    ("synth.delta_evals", "count"),
    ("synth.coschedule_ms", "ms"),
    ("synth.coschedule_rounds", "count"),
    ("plancache.hits", "count"),
    ("plancache.misses", "count"),
    ("plancache.warm_starts", "count"),
    ("plancache.hit_ratio", "ratio"),
    ("planserve.hits", "count"),
    ("planserve.coalesced", "count"),
    ("planserve.warm_starts", "count"),
    ("planserve.cold_solves", "count"),
    ("planserve.evictions", "count"),
    ("planserve.bytes", "B"),
    ("planserve.hit_ratio", "ratio"),
    ("planserve.resolve_ms.hit", "ms"),
    ("planserve.resolve_ms.warm", "ms"),
    ("planserve.resolve_ms.cold", "ms"),
    ("planserve.coalesced_wait_ms", "ms"),
    ("core.relay.partial_ratio", "ratio"),
    ("core.relay.wait_sim_ms", "ms"),
    ("core.relay.false_faults", "count"),
    ("core.executor.timing_ms", "ms"),
    ("core.executor.data_ms", "ms"),
    ("core.executor.requests", "count/op"),
    ("core.executor.bytes_on_wire", "B/op"),
    ("core.collective.other_ms", "ms"),
    ("simnet.engine.events_per_s.wave", "1/s"),
    ("simnet.engine.events_per_s.churn", "1/s"),
    ("simnet.engine.fillings", "count"),
    ("simnet.engine.frontier_flows", "count"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.ops", "count"),
];

struct Args {
    workload: String,
    params: Params,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            params.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => params.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                params.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(params.seconds > 0.0 && params.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        params,
        spans_out,
    })
}

fn provenance(a: &Args) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"source\":\"{}\",\"host\":\"{}\",\"cpu\":\"{}\",\"nproc\":{nproc},\"profile\":\"{}\"}}}}",
        a.workload,
        a.params.seed,
        a.params.seconds,
        u8::from(a.params.trace),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE"),
        json_escape(&host),
        json_escape(&env("PERFBENCH_CPU")),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| if c == '"' || c == '\\' { ' ' } else { c })
        .collect()
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json`
/// order.
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let (ops_per_s, op_ms_p50, setup_s) = out.best_round();
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("op_ms.p50", op_ms_p50, "ms"),
        ("sim_comm_ms", out.sim_comm_ms, "ms"),
        ("plan_cost_ms", out.plan_cost_ms, "ms"),
        ("peak_rss_mib", common::peak_rss_mib(), "MiB"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let p = &args.params;
    let out = match args.workload.as_str() {
        "ddp-testbed" => ddp::run(p),
        "pod-allreduce" => pod::run(p),
        "parallel3d-step" => par3d::run(p),
        _ => serve::run(p),
    };
    let metrics: Vec<(&str, f64, &str)> = if p.trace {
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                let v = out.layers.get(*name).copied().unwrap_or(0.0);
                (*name, v, *unit)
            })
            .collect()
    } else {
        end_to_end(&out)
    };
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, &out.spans_jsonl) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
        }
    }
    let n = out.op_ms.len();
    let failed_ratio = common::ratio(out.tally.failed as f64, out.tally.attempted as f64);
    println!(
        "# {} ops measured, {n} latency samples",
        out.tally.attempted
    );
    println!(
        "failed_ratio = {failed_ratio} ratio ({} of {} ops)",
        out.tally.failed, out.tally.attempted
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    if !p.trace {
        // A tail percentile is reported only with ten samples beyond it.
        for (name, q) in [("op_ms.p90", 90), ("op_ms.p99", 99)] {
            if n * (100 - q) / 100 >= 10 {
                let v = percentile(&out.op_ms, q as f64);
                println!("{name} = {v} ms ({n} samples)");
            } else {
                println!("{name} not reported: {n} samples leave fewer than 10 beyond it");
            }
        }
    }
    for v in &out.tally.violations {
        println!("VIOLATION: {v}");
    }
    let mut json = String::new();
    let correct = out.tally.failed == 0;
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.attempted, out.tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
