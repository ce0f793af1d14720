//! End-to-end bench rows: every row-emitting `adapcc_sim` command, run
//! once with `--bench-append`, appends exactly one line whose keys come
//! in the committed `BENCH_*.json` order and whose values that do not
//! depend on wall time are exact. Also pins every command's exit codes:
//! 0 on `--help`, 2 on an unknown flag.

use std::process::{Command, Output};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adapcc_sim"))
        .args(args)
        .output()
        .expect("adapcc_sim runs")
}

/// Runs `args --bench-append FILE` and returns the appended row as
/// `(key, raw JSON value)` pairs in output order. Rows are flat, and no
/// value these commands write contains a comma.
fn row(name: &str, args: &[&str]) -> Vec<(String, String)> {
    let path =
        std::env::temp_dir().join(format!("adapcc-rows-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut argv = args.to_vec();
    argv.extend(["--bench-append", path.to_str().unwrap()]);
    let out = sim(&argv);
    assert!(
        out.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let line = text.strip_suffix('\n').expect("a newline-terminated row");
    assert!(!line.contains('\n'), "{name} appends one line: {text}");
    let body = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .expect("a JSON object");
    body.split(',')
        .map(|pair| {
            let (key, value) = pair.split_once(':').expect("key:value");
            (key.trim_matches('"').to_string(), value.to_string())
        })
        .collect()
}

/// Asserts the row's keys are exactly `keys`, in order, that every
/// `(key, value)` in `exact` appears verbatim, and that every other
/// value (the wall-time columns) is a non-negative number.
fn check(row: &[(String, String)], keys: &[&str], exact: &[(&str, &str)]) {
    let got: Vec<&str> = row.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, keys);
    for (key, value) in row {
        match exact.iter().find(|(k, _)| k == key) {
            Some((_, want)) => assert_eq!(value, want, "{key}"),
            None => {
                let x: f64 = value.parse().unwrap_or_else(|_| panic!("{key}: {value}"));
                assert!(x >= 0.0, "{key}: {value}");
            }
        }
    }
}

#[test]
fn main_run_row() {
    check(
        &row("main", &["--servers", "a100:2", "--size-mib", "1"]),
        &[
            "system",
            "primitive",
            "servers",
            "tensor_mib",
            "parallelism",
            "comm_time_ms",
            "algo_bw_gbytes",
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_cache_warm_starts",
            "solver_wall_ms",
            "synth_full_evals",
            "synth_delta_evals",
            "synth_chains",
            "hierarchical",
            "sim_wall_ms",
            "engine_events_per_sec",
        ],
        &[
            ("system", "\"AdapCC\""),
            ("primitive", "\"allreduce\""),
            ("servers", "\"a100:2\""),
            ("tensor_mib", "1"),
            ("parallelism", "4"),
            ("comm_time_ms", "0.189814"),
            ("algo_bw_gbytes", "5.524231"),
            ("plan_cache_hits", "0"),
            ("plan_cache_misses", "1"),
            ("plan_cache_warm_starts", "0"),
            ("synth_full_evals", "7"),
            ("synth_delta_evals", "103"),
            ("synth_chains", "1"),
            ("hierarchical", "false"),
        ],
    );
}

#[test]
fn engine_row() {
    check(
        &row("engine", &["engine", "--servers", "2", "--waves", "1"]),
        &[
            "servers",
            "gpus",
            "waves",
            "storm",
            "transfers",
            "events",
            "sim_ms",
            "wall_ms",
            "events_per_sec",
            "fillings",
            "frontier_flows",
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_cache_warm_starts",
            "hierarchical",
        ],
        &[
            ("servers", "\"a100:2\""),
            ("gpus", "8"),
            ("waves", "1"),
            ("storm", "\"wave\""),
            ("transfers", "2"),
            ("events", "4"),
            ("sim_ms", "0.024972"),
            ("fillings", "2"),
            ("frontier_flows", "2"),
            ("plan_cache_hits", "0"),
            ("plan_cache_misses", "0"),
            ("plan_cache_warm_starts", "0"),
            ("hierarchical", "false"),
        ],
    );
}

#[test]
fn churn_row() {
    check(
        &row("churn", &["churn", "--seeds", "1"]),
        &[
            "seeds",
            "seed_base",
            "servers",
            "size_kib",
            "horizon_ms",
            "settle_iters",
            "converged",
            "classified",
            "violations",
            "rejoins",
            "errors",
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_cache_warm_starts",
            "hierarchical",
            "wall_ms",
        ],
        &[
            ("seeds", "1"),
            ("seed_base", "0"),
            ("servers", "2"),
            ("size_kib", "1024"),
            ("horizon_ms", "2.000"),
            ("settle_iters", "6"),
            ("converged", "1"),
            ("classified", "0"),
            ("violations", "0"),
            ("rejoins", "0"),
            ("errors", "0"),
            ("plan_cache_hits", "0"),
            ("plan_cache_misses", "2"),
            ("plan_cache_warm_starts", "0"),
            ("hierarchical", "false"),
        ],
    );
}

#[test]
fn serve_row() {
    check(
        &row("serve", &["serve", "--jobs", "2", "--threads", "1"]),
        &[
            "jobs",
            "threads",
            "repeat_ratio",
            "shapes",
            "requests",
            "hits",
            "warm_starts",
            "cold_solves",
            "coalesced",
            "entries",
            "bytes",
            "evictions",
            "plans_per_sec",
            "p50_us",
            "p99_us",
            "wall_ms",
            "baseline_plans_per_sec",
            "baseline_p50_us",
            "baseline_p99_us",
            "baseline_wall_ms",
            "speedup",
        ],
        &[
            ("jobs", "2"),
            ("threads", "1"),
            ("repeat_ratio", "0.75"),
            ("shapes", "2"),
            ("requests", "9"),
            ("hits", "0"),
            ("warm_starts", "4"),
            ("cold_solves", "5"),
            ("coalesced", "0"),
            ("entries", "9"),
            ("bytes", "33336"),
            ("evictions", "0"),
        ],
    );
}

#[test]
fn parallel3d_row() {
    check(
        &row(
            "parallel3d",
            &[
                "parallel3d",
                "--servers",
                "2",
                "--gpus",
                "4",
                "--tp",
                "2",
                "--pp",
                "2",
            ],
        ),
        &[
            "servers",
            "gpus_per_server",
            "gpus",
            "dp",
            "tp",
            "pp",
            "model_mib",
            "parallelism",
            "seed",
            "phases",
            "rounds",
            "oblivious_modeled_s",
            "aware_modeled_s",
            "oblivious_executed_s",
            "aware_executed_s",
            "wall_ms",
        ],
        &[
            ("servers", "2"),
            ("gpus_per_server", "4"),
            ("gpus", "8"),
            ("dp", "2"),
            ("tp", "2"),
            ("pp", "2"),
            ("model_mib", "512"),
            ("parallelism", "4"),
            ("seed", "1"),
            ("phases", "4"),
            ("rounds", "4"),
            ("oblivious_modeled_s", "0.055478"),
            ("aware_modeled_s", "0.055478"),
            ("oblivious_executed_s", "0.048895"),
            ("aware_executed_s", "0.048895"),
        ],
    );
}

#[test]
fn every_command_exits_0_on_help_and_2_on_an_unknown_flag() {
    for command in [
        None,
        Some("chaos"),
        Some("churn"),
        Some("engine"),
        Some("serve"),
        Some("parallel3d"),
    ] {
        let argv = |flag| command.into_iter().chain([flag]).collect::<Vec<_>>();
        assert_eq!(sim(&argv("--help")).status.code(), Some(0), "{command:?}");
        assert_eq!(sim(&argv("--banana")).status.code(), Some(2), "{command:?}");
    }
}
