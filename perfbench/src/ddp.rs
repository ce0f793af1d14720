//! `ddp-testbed`: data-parallel training steps on the paper testbed
//! (four A100 and two V100 servers, 24 GPUs), one client.
//!
//! A step is `BUCKETS` bucketed `allreduce_adaptive` calls followed by
//! one ZeRO-style `reduce_scatter` + `allgather` pair, every call with
//! integer-valued f32 inputs and its own ready times. Ready times are
//! seeded jitter plus one straggler whose lag stays below the
//! coordinator's fault floor (`RelayConfig::fault_floor`, 50 ms): the
//! fault horizon is never shorter than that floor past the first ready
//! worker, so every worker stays in the job. This models per-GPU batch
//! sizes that balance A100 and V100 compute; raw heavy-tailed straggler
//! draws instead get the V100 ranks excluded on the first partial
//! decision and the job shrinks mid-run, which would change the
//! workload under measurement.

use std::collections::BTreeMap;
use std::time::Instant;

use adapcc::{AdapCC, Decision, ExecutionRequest, InitOptions, IterationReport};
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::time::SimTime;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::cost::CostModel;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::solver::{SynthRequest, Synthesizer};
use adapcc_telemetry::Telemetry;

use crate::common::{
    busy_rate, closed_loop, int_input, mean, ratio, segmented, Outcome, Params, Rng, Round, Tally,
    SESSION_SEED,
};
use crate::oracle::{self, Tensors};
use crate::probes;
use crate::trace::{Tracer, NO_OP};

/// Gradient buckets per step.
const BUCKETS: usize = 8;
/// Calls per step: the buckets plus reduce_scatter and allgather.
const OPS_PER_STEP: usize = BUCKETS + 2;
/// Ops whose simulated time defines `sim_comm_ms` (fixed, so the
/// metric depends only on the seed).
const SIM_OPS: usize = 200;
/// Gradient bucket size: equal buckets, as a DDP bucketer cuts them.
const BUCKET_KIB: u64 = 32;
/// Elements per reduce_scatter shard (the allgather tensor).
const SHARD_ELEMS: usize = 1024;
/// The straggler's lag range. Its top stays below the 50 ms fault floor;
/// its bottom lies above the buy cost of every op here, so the relay
/// goes partial on every seed rather than on some.
const MIN_LAG_MS: f64 = 20.0;
const MAX_LAG_MS: f64 = 40.0;

fn cluster(p: &Params) -> Cluster {
    if p.tiny {
        Cluster::heterogeneous_2a100_2v100()
    } else {
        Cluster::paper_testbed()
    }
}

fn options(telemetry: Telemetry) -> InitOptions {
    InitOptions {
        seed: SESSION_SEED,
        telemetry,
        ..InitOptions::default()
    }
}

/// The op's collective, tensor and ready times, all from the seed.
struct OpInput {
    kind: Primitive,
    tensor: ByteSize,
    ready: BTreeMap<Rank, SimTime>,
}

fn op_input(seed: u64, i: usize, workers: &[Rank]) -> OpInput {
    let (step, slot) = (i / OPS_PER_STEP, i % OPS_PER_STEP);
    let (kind, tensor) = if slot < BUCKETS {
        (Primitive::AllReduce, ByteSize::from_kib(BUCKET_KIB))
    } else if slot == BUCKETS {
        let bytes = (workers.len() * SHARD_ELEMS * 4) as u64;
        (Primitive::ReduceScatter, ByteSize::from_bytes(bytes))
    } else {
        (
            Primitive::AllGather,
            ByteSize::from_bytes((SHARD_ELEMS * 4) as u64),
        )
    };
    // The straggler is slow for a whole step; steps walk a seeded
    // permutation of the workers, so every worker straggles equally
    // often and seeds differ in order, jitter and lag only.
    let mut order: Vec<usize> = (0..workers.len()).collect();
    let mut perm = Rng::new(seed, 0xDD9);
    for k in (1..order.len()).rev() {
        order.swap(k, perm.below(k + 1));
    }
    let straggler = order[step % order.len()];
    let mut rng = Rng::new(seed, 0xDD9_0000 + i as u64);
    let lag = rng.uniform(MIN_LAG_MS, MAX_LAG_MS);
    let ready = workers
        .iter()
        .enumerate()
        .map(|(j, w)| {
            let ms = rng.uniform(0.0, 2.0) + if j == straggler { lag } else { 0.0 };
            (*w, SimTime::from_millis(ms))
        })
        .collect();
    OpInput {
        kind,
        tensor,
        ready,
    }
}

fn inputs_for(seed: u64, i: usize, workers: &[Rank], tensor: ByteSize) -> Tensors {
    let elems = (tensor.as_u64() / 4) as usize;
    workers
        .iter()
        .map(|w| (*w, int_input(seed, i as u64, w.0, elems)))
        .collect()
}

/// Per-op facts the traced run aggregates.
#[derive(Default)]
struct OpStats {
    partial: u64,
    adaptive: u64,
    wait_sim_ms: f64,
    false_faults: u64,
    cold_solves: u64,
    warm_solves: u64,
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
    stats: OpStats,
}

impl Client<'_> {
    fn op(&mut self, i: usize, tr: &mut Tracer) {
        let inp = op_input(self.seed, i, &self.workers);
        let inputs = inputs_for(self.seed, i, &self.workers, inp.tensor);
        let expected = match inp.kind {
            Primitive::AllGather => oracle::concatenation(&inputs, &self.workers),
            _ => oracle::exact_sum(&inputs, &self.workers),
        };
        let mut replay_inputs =
            (tr.enabled() && inp.kind == Primitive::AllReduce).then(|| inputs.clone());
        let before = self.cc.plan_cache_stats();
        let t0 = Instant::now();
        let op_span = tr.open("op", None, i as u64);
        let w0 = probes::exec_counters(&self.telemetry);
        let result = if inp.kind == Primitive::AllReduce {
            let call = tr.open("core.collective", op_span, i as u64);
            let r = self
                .cc
                .allreduce_adaptive(inp.tensor, &inp.ready, Some(inputs));
            tr.close(call);
            r
        } else {
            let call = tr.open("core.collective", op_span, i as u64);
            let r = if inp.kind == Primitive::ReduceScatter {
                self.cc.reduce_scatter(inp.tensor, &inp.ready, Some(inputs))
            } else {
                self.cc.allgather(inp.tensor, &inp.ready, Some(inputs))
            };
            tr.close(call);
            r
        };
        tr.close(op_span);
        let w1 = probes::exec_counters(&self.telemetry);
        self.exec[0] += w1[0] - w0[0];
        self.exec[1] += w1[1] - w0[1];
        self.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let after = self.cc.plan_cache_stats();
        let cold = after.misses - before.misses;
        self.stats.cold_solves += cold;
        self.stats.warm_solves += after.warm_starts - before.warm_starts;
        let verdict = result.map_err(|e| format!("{:?} call {i} failed: {e}", inp.kind));
        let verdict = verdict.and_then(|report| {
            self.observe(i, &inp, &report);
            if tr.enabled() && inp.kind == Primitive::AllReduce {
                self.replay(
                    i,
                    &inp,
                    &report,
                    cold,
                    replay_inputs.take().unwrap_or_default(),
                    tr,
                );
            }
            oracle::check_no_faults(&report.faults)?;
            match inp.kind {
                Primitive::AllReduce => {
                    oracle::check_allreduce(&expected, &report.outputs, &self.workers)
                }
                Primitive::ReduceScatter => {
                    oracle::check_reduce_scatter(&expected, &report.outputs, &self.workers)
                }
                _ => oracle::check_allgather(&expected, &report.outputs, &self.workers),
            }
        });
        self.tally.record(verdict);
    }

    fn observe(&mut self, i: usize, inp: &OpInput, report: &IterationReport) {
        if i < SIM_OPS {
            self.sim_ms.push(report.comm_time.as_millis());
            if inp.kind == Primitive::AllReduce {
                let cost = self.executed_plan_cost(inp.tensor, &report.decision);
                self.plan_cost_ms.push(cost);
            }
        }
        self.stats.adaptive += 1;
        if matches!(report.decision, Decision::Partial { .. }) {
            self.stats.partial += 1;
        }
        self.stats.wait_sim_ms += report.wait_time.as_millis();
        self.stats.false_faults += report.faults.len() as u64;
    }

    /// Modeled cost (ms) of the plans an adaptive allreduce executed:
    /// the full-set plan (phase 1 runs it with relay sources muted) plus,
    /// after a partial decision, each late worker's phase-2 broadcast.
    fn executed_plan_cost(&mut self, tensor: ByteSize, decision: &Decision) -> f64 {
        let mut plans = vec![self.cc.strategy_for(Primitive::AllReduce, tensor).clone()];
        if let Decision::Partial { ready, .. } = decision {
            for w in self.workers.iter().filter(|w| !ready.contains(w)) {
                plans.push(
                    self.cc
                        .strategy_for_root(Primitive::Broadcast, tensor, Some(*w))
                        .clone(),
                );
            }
        }
        let model = CostModel::new(self.cc.topology(), self.cc.link_profile());
        plans
            .iter()
            .map(|s| model.evaluate(s, tensor).completion.as_millis())
            .sum()
    }

    /// Outside-in replays of what one allreduce op did: the session
    /// lookups of the plans it ran (the full-set allreduce and, after a
    /// partial decision, each late worker's phase-2 broadcast), one of
    /// its cold solves (when it made any) and timing-only and
    /// with-inputs executions of the full-set plan.
    fn replay(
        &mut self,
        i: usize,
        inp: &OpInput,
        report: &IterationReport,
        cold: u64,
        inputs: Tensors,
        tr: &mut Tracer,
    ) {
        let op = i as u64;
        let late: Vec<Rank> = match &report.decision {
            Decision::Partial { ready, .. } => self
                .workers
                .iter()
                .filter(|w| !ready.contains(w))
                .copied()
                .collect(),
            _ => Vec::new(),
        };
        let cc = &mut self.cc;
        tr.time("core.session.plan", None, op, || {
            cc.strategy_for(Primitive::AllReduce, inp.tensor);
            for w in &late {
                cc.strategy_for_root(Primitive::Broadcast, inp.tensor, Some(*w));
            }
        });
        // A partial decision's cold solves are the late workers' phase-2
        // broadcast plans; replay one to time a solve.
        if let (true, Decision::Partial { ready, .. }) = (cold > 0, &report.decision) {
            if let Some(late) = self.workers.iter().find(|w| !ready.contains(w)) {
                let mut req =
                    SynthRequest::new(Primitive::Broadcast, inp.tensor, 4, self.workers.clone());
                req.root = Some(*late);
                req.seed = SESSION_SEED;
                let (topo, profile) = (self.cc.topology(), self.cc.link_profile());
                tr.time("synth.cold", None, op, || {
                    Synthesizer::new(topo, profile).synthesize_with_seed(&req)
                });
            }
        }
        let s = self
            .cc
            .strategy_for(Primitive::AllReduce, inp.tensor)
            .clone();
        let cc = &self.cc;
        tr.time("core.executor.timing", None, op, || {
            cc.run_batch(&[ExecutionRequest::timing(&s, inp.tensor).with_ready(inp.ready.clone())])
        })
        .ok();
        tr.time("core.executor.data", None, op, || {
            cc.run_batch(&[ExecutionRequest::timing(&s, inp.tensor)
                .with_ready(inp.ready.clone())
                .with_inputs(inputs)])
        })
        .ok();
    }
}

/// Set-up: init (detect + profile), setup, and the buckets' full-set
/// allreduce plan.
fn prepare<'c>(cluster: &'c Cluster, telemetry: Telemetry, tr: &mut Tracer) -> AdapCC<'c> {
    let mut cc = probes::session(cluster, options(telemetry), tr);
    tr.time("synth.setup_plan", None, NO_OP, || {
        cc.strategy_for(Primitive::AllReduce, ByteSize::from_kib(BUCKET_KIB));
    });
    cc
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
        stats: OpStats::default(),
    }
}

/// Runs whole steps for `seconds` (and until `min_steps` ran in all),
/// so a round's rate never counts a step's cheap buckets without its
/// reduce_scatter.
fn steps(c: &mut Client<'_>, seconds: f64, min_steps: usize, next: &mut usize, tr: &mut Tracer) {
    closed_loop(seconds, min_steps, next, |s| {
        for i in s * OPS_PER_STEP..(s + 1) * OPS_PER_STEP {
            c.op(i, tr);
        }
    });
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let loop_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let min_steps = if p.tiny { 1 } else { SIM_OPS / OPS_PER_STEP };
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
            let min = if last { min_steps } else { 0 };
            let start = c.op_ms.len();
            steps(&mut c, slice, min, &mut next, &mut off);
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

/// The traced half: a fresh set-up and loop with spans and telemetry on.
fn traced(p: &Params, out: &mut Outcome) {
    let origin = Instant::now();
    let mut tr = Tracer::new(true, origin);
    let telemetry = Telemetry::enabled();
    let cluster = cluster(p);
    let cc = prepare(&cluster, telemetry.clone(), &mut tr);
    probes::session_layers(out, &tr);
    let mut c = client(cc, p, &telemetry);
    let before = c.cc.plan_cache_stats();
    let mut done = 0;
    steps(&mut c, p.seconds / 2.0, 1, &mut done, &mut tr);
    let ops = done * OPS_PER_STEP;
    out.layer("trace.ops", ops as f64);
    let after = c.cc.plan_cache_stats();
    out.layer(
        "trace.overhead_ops_per_s",
        busy_rate(&c.op_ms) - out.mean_ops_per_s,
    );
    let t = tr.totals();
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let n = ops as f64;
    let (lookups, call, cold) = (
        get("core.session.plan"),
        get("core.collective"),
        get("synth.cold"),
    );
    let (timing, data) = (get("core.executor.timing"), get("core.executor.data"));
    let s = &c.stats;
    // Planning inside the calls: the replayed session lookups of the
    // allreduce ops' plans plus every cold solve the ops made (each
    // priced at the replayed cold-solve mean).
    let plan = lookups.total_ms + cold.mean_ms() * s.cold_solves as f64;
    out.layer("core.session.plan_ms", plan / n);
    out.layer("synth.cold_solves", s.cold_solves as f64);
    out.layer("synth.cold_ms", cold.mean_ms());
    out.layer("synth.warm_solves", s.warm_solves as f64);
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    out.layer("plancache.hits", hits);
    out.layer("plancache.misses", misses);
    out.layer(
        "plancache.warm_starts",
        (after.warm_starts - before.warm_starts) as f64,
    );
    out.layer("plancache.hit_ratio", ratio(hits, hits + misses));
    out.layer(
        "core.relay.partial_ratio",
        ratio(s.partial as f64, s.adaptive as f64),
    );
    out.layer(
        "core.relay.wait_sim_ms",
        ratio(s.wait_sim_ms, s.adaptive as f64),
    );
    out.layer("core.relay.false_faults", s.false_faults as f64);
    out.layer("core.executor.timing_ms", timing.mean_ms());
    out.layer("core.executor.data_ms", data.mean_ms() - timing.mean_ms());
    // What the calls spent beyond their replayed executor work and
    // planning; reduce_scatter and allgather are not replayed, so
    // their whole call lands here.
    let other = call.total_ms - data.total_ms - plan;
    out.layer("core.collective.other_ms", other / n);
    probes::work_layers(out, &telemetry, c.exec, ops);
    probes::engine_layers(out, &cluster, if p.tiny { 4 } else { 64 });
    out.tally.merge(std::mem::take(&mut c.tally));
    out.spans_jsonl = tr.to_jsonl();
}
