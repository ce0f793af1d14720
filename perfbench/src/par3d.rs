//! `parallel3d-step`: one 3D-parallel + MoE training step per op on
//! `Cluster::fat_tree(8, 4)` (32 GPUs), laid out dp8 / tp2 / pp2.
//!
//! Set-up profiles the fabric and co-schedules every phase of
//! `ParallelLayout::three_d_step` (`co_schedule`: each group re-solved
//! against its peers' pinned load). An op executes the four phases back
//! to back, each phase as one concurrent timing-only batch of its
//! groups' co-scheduled strategies: the executor and the exact
//! allocator under cross-group contention, with no data path. This is
//! the only workload that runs `co_schedule`.

use std::time::Instant;

use adapcc::{AdapCC, ExecutionRequest, InitOptions};
use adapcc_simnet::cluster::Cluster;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::coschedule::{co_schedule, CoScheduleOptions};
use adapcc_synth::strategy::Strategy;
use adapcc_telemetry::Telemetry;
use adapcc_train::parallel::ParallelLayout;

use crate::common::{
    busy_rate, closed_loop, segmented, Outcome, Params, Rng, Round, Tally, SESSION_SEED,
};
use crate::probes;
use crate::trace::{Tracer, NO_OP};

/// Model parameter bytes (sharded over tp·pp), KiB. Step wall time is
/// nearly independent of it: the `moe.alltoall` batch dominates.
const MODEL_KIB: u64 = 3072;
/// Seeded jitter around [`MODEL_KIB`].
const MODEL_JITTER_KIB: usize = 60;

fn cluster(p: &Params) -> Cluster {
    if p.tiny {
        Cluster::fat_tree(2, 4)
    } else {
        Cluster::fat_tree(8, 4)
    }
}

fn layout(p: &Params) -> ParallelLayout {
    if p.tiny {
        ParallelLayout::new(2, 2, 2)
    } else {
        ParallelLayout::new(8, 2, 2)
    }
}

/// One phase ready to execute.
struct Phase {
    tensor: ByteSize,
    strategies: Vec<Strategy>,
}

/// The co-scheduled step plus what set-up checked about it.
struct Step<'c> {
    cc: AdapCC<'c>,
    phases: Vec<Phase>,
    /// Summed contended modeled makespan of the aware strategies (ms).
    aware_ms: f64,
    /// Fix-point sweeps `co_schedule` ran, over all phases.
    rounds: usize,
    /// Set-up oracle verdict: every plan validates and co-scheduling
    /// never models worse than the oblivious baseline.
    check: Result<(), String>,
}

fn prepare<'c>(
    cluster: &'c Cluster,
    p: &Params,
    telemetry: Telemetry,
    tr: &mut Tracer,
) -> Step<'c> {
    let options = InitOptions {
        seed: SESSION_SEED,
        telemetry: telemetry.clone(),
        ..InitOptions::default()
    };
    let cc = probes::session(cluster, options, tr);
    // About 3 MiB of parameters, jittered by the seed within ±2 % so
    // seeds vary the plans without changing the workload's scale.
    let kib = MODEL_KIB + Rng::new(p.seed, 0x3D).below(2 * MODEL_JITTER_KIB + 1) as u64
        - MODEL_JITTER_KIB as u64;
    let model = ByteSize::from_kib(kib);
    let (mut phases, mut aware_ms, mut check, mut rounds) = (Vec::new(), 0.0, Ok(()), 0);
    for phase in layout(p).three_d_step(model) {
        let reqs = phase.synth_requests(4);
        let cs = tr.time("synth.coschedule", None, NO_OP, || {
            co_schedule(
                cc.topology(),
                cc.link_profile(),
                &Default::default(),
                &telemetry,
                &reqs,
                &CoScheduleOptions::default(),
            )
        });
        rounds += cs.rounds;
        aware_ms += cs.contended_makespan() * 1e3;
        if cs.contended_makespan() > cs.oblivious_makespan() {
            check = Err(format!(
                "{}: aware modeled {} s > oblivious {} s",
                phase.name,
                cs.contended_makespan(),
                cs.oblivious_makespan()
            ));
        }
        for s in cs.strategies.iter().chain(&cs.oblivious) {
            if let Err(e) = s.validate(cc.topology()) {
                check = Err(format!("{}: plan does not validate: {e:?}", phase.name));
            }
        }
        phases.push(Phase {
            tensor: phase.tensor,
            strategies: cs.strategies,
        });
    }
    Step {
        cc,
        phases,
        aware_ms,
        rounds,
        check,
    }
}

impl Step<'_> {
    /// Executes the step; returns its makespan in simulated seconds.
    fn execute(&self, op: u64, tr: &mut Tracer) -> Result<f64, String> {
        let mut total = 0.0;
        for phase in &self.phases {
            let batch: Vec<ExecutionRequest<'_>> = phase
                .strategies
                .iter()
                .map(|s| ExecutionRequest::timing(s, phase.tensor))
                .collect();
            let report = tr
                .time("core.executor.timing", None, op, || {
                    self.cc.run_batch(&batch)
                })
                .map_err(|e| format!("step {op}: phase batch failed: {e}"))?;
            total += report.finish.as_secs();
        }
        Ok(total)
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let loop_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let t0 = Instant::now();
    let fleet = cluster(p);
    let mut off = Tracer::new(false, t0);
    let step = prepare(&fleet, p, Telemetry::disabled(), &mut off);
    out.setup_s.push(vec![t0.elapsed().as_secs_f64()]);
    let (mut d, mut rounds) = (Driver::default(), Vec::new());
    let repeats = segmented(
        loop_s,
        p.trace,
        |slice, last| {
            let start = d.op_ms.len();
            d.drive(&step, slice, last, &mut off);
            rounds.push(Round::of(&d.op_ms[start..]));
        },
        || {
            let fleet = cluster(p);
            prepare(
                &fleet,
                p,
                Telemetry::disabled(),
                &mut Tracer::new(false, Instant::now()),
            );
        },
    );
    out.setup_s.extend(repeats);
    out.rounds = rounds;
    out.mean_ops_per_s = busy_rate(&d.op_ms);
    out.sim_comm_ms = d.first.unwrap_or(0.0) * 1e3;
    out.plan_cost_ms = step.aware_ms;
    out.op_ms = d.op_ms;
    out.tally = d.tally;
    if p.trace {
        traced(p, &mut out);
    }
    out
}

/// The closed loop's state. Every step must take exactly the simulated
/// time the first one took: the executor is deterministic.
#[derive(Default)]
struct Driver {
    next: usize,
    first: Option<f64>,
    op_ms: Vec<f64>,
    tally: Tally,
}

impl Driver {
    fn drive(&mut self, step: &Step<'_>, seconds: f64, last: bool, tr: &mut Tracer) {
        let min = if last { 10 } else { 0 };
        let Driver {
            next,
            first,
            op_ms,
            tally,
        } = self;
        closed_loop(seconds, min, next, |i| {
            let t0 = Instant::now();
            let op = tr.open("op", None, i as u64);
            let result = step.execute(i as u64, tr);
            tr.close(op);
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let verdict = result.and_then(|sim| match *first {
                None => {
                    *first = Some(sim);
                    step.check.clone()
                }
                Some(f) if f.to_bits() == sim.to_bits() => Ok(()),
                Some(f) => Err(format!(
                    "step {i} took {sim} s simulated, the first took {f} s"
                )),
            });
            tally.record(verdict);
        });
    }
}

fn traced(p: &Params, out: &mut Outcome) {
    let mut tr = Tracer::new(true, Instant::now());
    let telemetry = Telemetry::enabled();
    let fleet = cluster(p);
    let step = prepare(&fleet, p, telemetry.clone(), &mut tr);
    probes::session_layers(out, &tr);
    out.layer("synth.coschedule_ms", tr.get("synth.coschedule").total_ms);
    out.layer("synth.coschedule_rounds", step.rounds as f64);
    out.layer("synth.cold_solves", telemetry.counter("synth.requests"));
    let w0 = probes::exec_counters(&telemetry);
    let mut d = Driver::default();
    d.drive(&step, p.seconds / 2.0, true, &mut tr);
    let w1 = probes::exec_counters(&telemetry);
    let ops = d.op_ms.len();
    out.layer("trace.ops", ops as f64);
    out.layer(
        "trace.overhead_ops_per_s",
        busy_rate(&d.op_ms) - out.mean_ops_per_s,
    );
    let (op, timing) = (tr.get("op"), tr.get("core.executor.timing"));
    let n = ops.max(1) as f64;
    out.layer("core.executor.timing_ms", timing.total_ms / n);
    out.layer(
        "core.collective.other_ms",
        (op.total_ms - timing.total_ms) / n,
    );
    probes::work_layers(out, &telemetry, [w1[0] - w0[0], w1[1] - w0[1]], ops);
    probes::engine_layers(out, &fleet, if p.tiny { 4 } else { 64 });
    out.tally.merge(d.tally);
    out.spans_jsonl = tr.to_jsonl();
}
