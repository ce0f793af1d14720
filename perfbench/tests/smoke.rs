//! Tiny-size smoke runs of every workload through the real binary:
//! each must exit 0, report every metric of its mode and pass its own
//! output checks.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "ddp-testbed",
    "pod-allreduce",
    "parallel3d-step",
    "plan-serve",
];

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_runs_untraced_and_reports_end_to_end_metrics() {
    for w in WORKLOADS {
        let last = run(w, 0);
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{w}: {last}"
        );
        assert!(last.contains("\"failed\": 0"), "{w}: {last}");
        for m in [
            "setup_s",
            "ops_per_s",
            "op_ms.p50",
            "sim_comm_ms",
            "plan_cost_ms",
            "peak_rss_mib",
        ] {
            assert!(
                last.contains(&format!("\"{m}\": {{\"value\": ")),
                "{w} lacks {m}: {last}"
            );
        }
        assert!(
            !last.contains("\"value\": 0,"),
            "{w}: an end-to-end metric is 0: {last}"
        );
    }
}

#[test]
fn every_workload_runs_traced_and_reports_layer_metrics() {
    for w in WORKLOADS {
        let last = run(w, 1);
        assert!(last.contains("\"correct\": true"), "{w}: {last}");
        for m in [
            "trace.overhead_ops_per_s",
            "core.collective.other_ms",
            "synth.cold_ms",
        ] {
            assert!(
                last.contains(&format!("\"{m}\": ")),
                "{w} lacks {m}: {last}"
            );
        }
        assert!(
            !last.contains("setup_s"),
            "{w}: traced run reports end-to-end metrics"
        );
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
