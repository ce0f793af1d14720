//! Layer probes shared by the workloads: a traced session set-up that
//! replays detection and profiling from outside `AdapCC::init`, the
//! engine storms on a workload's own fleet, and the export of the
//! telemetry counters the library already keeps.

use adapcc::{AdapCC, InitOptions};
use adapcc_bench::engine_bench::{engine_storm, AllocMode, StormMode};
use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::Cluster;
use adapcc_telemetry::Telemetry;
use adapcc_topo::detect::Detector;

use crate::common::Outcome;
use crate::trace::{Tracer, NO_OP};

/// `AdapCC::init` + `setup`. When tracing, detection and profiling are
/// first replayed on their own with the session's seed, so their wall
/// time is known apart from `init`, which runs both again.
pub fn session<'c>(cluster: &'c Cluster, options: InitOptions, tr: &mut Tracer) -> AdapCC<'c> {
    if tr.enabled() {
        let seed = options.seed;
        let detection = tr.time("topo.detect", None, NO_OP, || {
            Detector::new(cluster, seed).run()
        });
        let topo = detection.logical_topology(cluster);
        tr.time("profile.run", None, NO_OP, || {
            Profiler::new(cluster, &topo, seed).run()
        });
    }
    let mut cc = tr.time("core.session.init", None, NO_OP, || {
        AdapCC::init(cluster, options)
    });
    tr.time("core.session.setup", None, NO_OP, || cc.setup());
    cc
}

/// Set-up layer metrics from a traced [`session`] call.
pub fn session_layers(out: &mut Outcome, tr: &Tracer) {
    out.layer("topo.detect_ms", tr.get("topo.detect").total_ms);
    out.layer("profile.run_ms", tr.get("profile.run").total_ms);
    // Includes the detection and profiling init runs itself.
    out.layer("core.session.init_ms", tr.get("core.session.init").total_ms);
    out.layer(
        "core.session.setup_ms",
        tr.get("core.session.setup").total_ms,
    );
}

/// Wave and churn storms on `cluster` under the executor's allocator
/// choice for that fleet size.
pub fn engine_layers(out: &mut Outcome, cluster: &Cluster, waves: usize) {
    let wave = engine_storm(cluster, waves, StormMode::Wave, AllocMode::Auto);
    let churn = engine_storm(cluster, waves, StormMode::Churn, AllocMode::Auto);
    out.layer("simnet.engine.events_per_s.wave", wave.events_per_sec());
    out.layer("simnet.engine.events_per_s.churn", churn.events_per_sec());
    out.layer(
        "simnet.engine.fillings",
        (wave.fillings + churn.fillings) as f64,
    );
    out.layer(
        "simnet.engine.frontier_flows",
        (wave.frontier_flows + churn.frontier_flows) as f64,
    );
}

/// Executor work counters (`exec.requests`, `exec.bytes_on_wire`) as
/// the session's telemetry holds them right now.
pub fn exec_counters(telemetry: &Telemetry) -> [f64; 2] {
    [
        telemetry.counter("exec.requests"),
        telemetry.counter("exec.bytes_on_wire"),
    ]
}

/// Solver counters from telemetry, and the executor work the ops did
/// (summed [`exec_counters`] deltas around the op calls only, so the
/// benchmark's own replays are not counted).
pub fn work_layers(out: &mut Outcome, telemetry: &Telemetry, exec: [f64; 2], ops: usize) {
    out.layer("synth.full_evals", telemetry.counter("synth.full_evals"));
    out.layer("synth.delta_evals", telemetry.counter("synth.delta_evals"));
    let n = ops.max(1) as f64;
    out.layer("core.executor.requests", exec[0] / n);
    out.layer("core.executor.bytes_on_wire", exec[1] / n);
}
