//! `pod-allreduce`: wait-all `allreduce` of small buckets with real
//! inputs on `Cluster::homogeneous_a100(128)` (512 GPUs in 8 pods),
//! one client.
//!
//! The fleet sits above both scale thresholds: synthesis goes
//! hierarchical and the executor runs the incremental allocator. Set-up
//! is detection, profiling and one hierarchical solve per bucket size;
//! the loop is the executor at scale. Relay control and the exact
//! allocator stay idle.

use std::collections::BTreeMap;
use std::time::Instant;

use adapcc::{AdapCC, ExecutionRequest, InitOptions};
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::cost::CostModel;
use adapcc_synth::primitive::Primitive;
use adapcc_telemetry::Telemetry;

use crate::common::{
    busy_rate, closed_loop, int_input, mean, ratio, segmented, Outcome, Params, Rng, Round, Tally,
    SESSION_SEED,
};
use crate::oracle::{self, Tensors};
use crate::probes;
use crate::trace::{Tracer, NO_OP};

/// Bucket sizes the ops draw from.
const BUCKET_KIB: [u64; 3] = [16, 32, 64];
/// Ops whose simulated time defines `sim_comm_ms`.
const SIM_OPS: usize = 120;

fn cluster(p: &Params) -> Cluster {
    Cluster::homogeneous_a100(if p.tiny { 4 } else { 128 })
}

fn tensor_of(seed: u64, i: usize) -> ByteSize {
    let mut rng = Rng::new(seed, 0x90D_0000 + i as u64);
    ByteSize::from_kib(BUCKET_KIB[rng.below(BUCKET_KIB.len())])
}

fn prepare<'c>(cluster: &'c Cluster, telemetry: Telemetry, tr: &mut Tracer) -> AdapCC<'c> {
    let options = InitOptions {
        seed: SESSION_SEED,
        telemetry,
        ..InitOptions::default()
    };
    let mut cc = probes::session(cluster, options, tr);
    for kib in BUCKET_KIB {
        tr.time("synth.setup_plan", None, NO_OP, || {
            cc.strategy_for(Primitive::AllReduce, ByteSize::from_kib(kib));
        });
    }
    cc
}

struct Client<'c> {
    cc: AdapCC<'c>,
    seed: u64,
    workers: Vec<Rank>,
    telemetry: Telemetry,
    exec: [f64; 2],
    tally: Tally,
    op_ms: Vec<f64>,
    sim_ms: Vec<f64>,
    plan_cost_ms: Vec<f64>,
}

impl Client<'_> {
    fn op(&mut self, i: usize, tr: &mut Tracer) {
        let tensor = tensor_of(self.seed, i);
        let elems = (tensor.as_u64() / 4) as usize;
        let inputs: Tensors = self
            .workers
            .iter()
            .map(|w| (*w, int_input(self.seed, i as u64, w.0, elems)))
            .collect();
        let sum = oracle::exact_sum(&inputs, &self.workers);
        let replay_inputs = tr.enabled().then(|| inputs.clone());
        let op = i as u64;
        let t0 = Instant::now();
        let op_span = tr.open("op", None, op);
        let w0 = probes::exec_counters(&self.telemetry);
        let call = tr.open("core.collective", op_span, op);
        let result = self.cc.allreduce(tensor, &BTreeMap::new(), Some(inputs));
        tr.close(call);
        tr.close(op_span);
        let w1 = probes::exec_counters(&self.telemetry);
        self.exec[0] += w1[0] - w0[0];
        self.exec[1] += w1[1] - w0[1];
        self.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let verdict = result
            .map_err(|e| format!("allreduce call {i} failed: {e}"))
            .and_then(|report| {
                if i < SIM_OPS {
                    self.sim_ms.push(report.comm_time.as_millis());
                    let s = self.cc.strategy_for(Primitive::AllReduce, tensor).clone();
                    let cost = CostModel::new(self.cc.topology(), self.cc.link_profile())
                        .evaluate(&s, tensor)
                        .completion;
                    self.plan_cost_ms.push(cost.as_millis());
                }
                oracle::check_no_faults(&report.faults)?;
                oracle::check_allreduce(&sum, &report.outputs, &self.workers)
            });
        self.tally.record(verdict);
        if let Some(inputs) = replay_inputs {
            // The call's planning is a session lookup of the plan set-up
            // solved; replay it on its own.
            let cc = &mut self.cc;
            tr.time("core.session.plan", None, op, || {
                cc.strategy_for(Primitive::AllReduce, tensor);
            });
            let s = self.cc.strategy_for(Primitive::AllReduce, tensor).clone();
            let cc = &self.cc;
            tr.time("core.executor.timing", None, op, || {
                cc.run_batch(&[ExecutionRequest::timing(&s, tensor)])
            })
            .ok();
            tr.time("core.executor.data", None, op, || {
                cc.run_batch(&[ExecutionRequest::timing(&s, tensor).with_inputs(inputs)])
            })
            .ok();
        }
    }
}

fn client<'c>(cc: AdapCC<'c>, p: &Params, telemetry: &Telemetry) -> Client<'c> {
    let workers = cc.workers().to_vec();
    Client {
        cc,
        seed: p.seed,
        workers,
        telemetry: telemetry.clone(),
        exec: [0.0; 2],
        tally: Tally::default(),
        op_ms: Vec::new(),
        sim_ms: Vec::new(),
        plan_cost_ms: Vec::new(),
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let loop_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let min_ops = if p.tiny { 3 } else { SIM_OPS };
    let t0 = Instant::now();
    let fleet = cluster(p);
    let mut off = Tracer::new(false, t0);
    let cc = prepare(&fleet, Telemetry::disabled(), &mut off);
    out.setup_s.push(vec![t0.elapsed().as_secs_f64()]);
    let mut c = client(cc, p, &Telemetry::disabled());
    let (mut next, mut rounds) = (0, Vec::new());
    let repeats = segmented(
        loop_s,
        p.trace,
        |slice, last| {
            let min = if last { min_ops } else { 0 };
            let start = c.op_ms.len();
            closed_loop(slice, min, &mut next, |i| c.op(i, &mut off));
            rounds.push(Round::of(&c.op_ms[start..]));
        },
        || {
            let fleet = cluster(p);
            prepare(
                &fleet,
                Telemetry::disabled(),
                &mut Tracer::new(false, Instant::now()),
            );
        },
    );
    out.setup_s.extend(repeats);
    out.rounds = rounds;
    out.sim_comm_ms = mean(&c.sim_ms);
    out.plan_cost_ms = mean(&c.plan_cost_ms);
    out.mean_ops_per_s = busy_rate(&c.op_ms);
    out.op_ms = std::mem::take(&mut c.op_ms);
    out.tally = std::mem::take(&mut c.tally);
    drop(c);
    if p.trace {
        traced(p, &mut out);
    }
    out
}

fn traced(p: &Params, out: &mut Outcome) {
    let mut tr = Tracer::new(true, Instant::now());
    let telemetry = Telemetry::enabled();
    let fleet = cluster(p);
    let cc = prepare(&fleet, telemetry.clone(), &mut tr);
    probes::session_layers(out, &tr);
    let setup_plan = tr.get("synth.setup_plan");
    let stats = cc.plan_cache_stats();
    // Every set-up plan miss is a cold hierarchical solve.
    out.layer("synth.cold_solves", stats.misses as f64);
    out.layer(
        "synth.cold_ms",
        ratio(setup_plan.total_ms, stats.misses as f64),
    );
    let mut c = client(cc, p, &telemetry);
    let mut ops = 0;
    closed_loop(p.seconds / 2.0, 1, &mut ops, |i| c.op(i, &mut tr));
    out.layer("trace.ops", ops as f64);
    out.layer(
        "trace.overhead_ops_per_s",
        busy_rate(&c.op_ms) - out.mean_ops_per_s,
    );
    let after = c.cc.plan_cache_stats();
    let (hits, misses) = (
        (after.hits - stats.hits) as f64,
        (after.misses - stats.misses) as f64,
    );
    out.layer("plancache.hits", hits);
    out.layer("plancache.misses", misses);
    out.layer(
        "plancache.warm_starts",
        (after.warm_starts - stats.warm_starts) as f64,
    );
    out.layer("plancache.hit_ratio", ratio(hits, hits + misses));
    let n = ops as f64;
    let (plan, call, timing, data) = (
        tr.get("core.session.plan"),
        tr.get("core.collective"),
        tr.get("core.executor.timing"),
        tr.get("core.executor.data"),
    );
    out.layer("core.session.plan_ms", plan.total_ms / n);
    out.layer("core.executor.timing_ms", timing.mean_ms());
    out.layer("core.executor.data_ms", data.mean_ms() - timing.mean_ms());
    out.layer(
        "core.collective.other_ms",
        (call.total_ms - data.total_ms - plan.total_ms) / n,
    );
    probes::work_layers(out, &telemetry, c.exec, ops);
    probes::engine_layers(out, &fleet, if p.tiny { 4 } else { 64 });
    out.tally.merge(std::mem::take(&mut c.tally));
    out.spans_jsonl = tr.to_jsonl();
}
