//! `plan-serve`: many jobs on mixed fleet shapes sharing one
//! `PlanService` through their sessions, driven by `CLIENTS`
//! closed-loop client threads.
//!
//! The jobs and requests are the repository's many-job service workload
//! (`ServiceWorkload::default()` in `adapcc_bench::service_bench`): 32
//! jobs cycling through two fleet shapes (two A100 servers, two V100
//! servers), three in four repeating their shape's canonical profile and
//! the rest carrying their own profiler noise, each asking for allreduce
//! plans of 4, 8, 16 and 32 MiB. Repeats share fingerprints and hit
//! entries another job paid for; unique jobs warm-start from a stored
//! shape sibling. Two things differ: two client threads instead of
//! eight (one per core of a 2-core machine) and a byte budget small
//! enough to evict, so hits run beside warm and cold solves, inserts
//! and evictions.
//!
//! Each op is one `AdapCC::strategy_for_root` call of a job built with
//! `InitOptions::plan_service`: the session fingerprints the request,
//! resolves it through the shared service and validates a plan another
//! job stored, as every job does. Before each request the job's strategy
//! memo is dropped (`set_workers` with its own workers), so a repeat
//! reaches the service instead of the memo. The executor and the engine
//! stay idle: this is the only workload for `planserve`.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use adapcc::{AdapCC, InitOptions};
use adapcc_bench::service_bench::ServiceWorkload;
use adapcc_planserve::{PlanService, ServiceConfig};
use adapcc_simnet::cluster::{Cluster, ClusterBuilder};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::cost::CostModel;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::solver::{SynthRequest, Synthesizer};
use adapcc_synth::strategy::Strategy;
use adapcc_telemetry::Telemetry;

use crate::common::{
    closed_loop, mean, median, ratio, segmented, Outcome, Params, Rng, Round, Tally,
};
use crate::probes;
use crate::trace::{Tracer, NO_OP};

/// Client threads: two, so each has a core of its own on a 2-core
/// machine.
const CLIENTS: usize = 2;
/// The thundering herd's request size: a size class no other request
/// uses.
const HERD_TENSOR: ByteSize = ByteSize::from_mib(2);
/// Byte budget over all stripes. The store keeps a fleet shape's plans
/// of one size class (its canonical plan and four unique jobs' plans,
/// about 3.7 KiB each) in one stripe, so at 16 stripes each gets a
/// 16 KiB slice that holds four of those five plans: the largest
/// power-of-two budget at which the store still evicts.
const BYTE_BUDGET: usize = 256 << 10;
/// Each client's first `COST_PREFIX` requests are recorded: a fixed,
/// seed-determined request set whose served plans' mean modeled cost is
/// `plan_cost_ms`. After it, one request in `SAMPLE_EVERY` is recorded,
/// at most `MAX_SAMPLES` per client and round, so the oracle also
/// covers the rest of the run without peak memory growing with
/// throughput. The oracle checks every recorded plan between rounds,
/// outside the timed requests.
const COST_PREFIX: usize = 256;
const SAMPLE_EVERY: usize = 512;
const MAX_SAMPLES: usize = 48;
/// One request latency in this many per client is kept for the whole
/// run's percentiles, and one in `ROUND_LATENCY_EVERY` for the round's
/// median; all of them count in `ops_per_s`.
const LATENCY_EVERY: usize = 64;
const ROUND_LATENCY_EVERY: usize = 8;
/// How much slower than a cold solve of the same request a warm-started
/// plan may model. Warm starts of this workload model within 0.1 % of
/// the cold solve (2-core Intel Xeon VM, seed 1).
const WARM_TOLERANCE: f64 = 0.01;

/// The workload as the repository's service benchmark defines it.
fn workload() -> ServiceWorkload {
    ServiceWorkload::default()
}

/// Fleet shape `i`: alternating A100 / V100 fleets that grow every
/// other index (the service benchmark's shape cycle).
fn shape_cluster(i: usize) -> Cluster {
    let mut b = ClusterBuilder::new();
    let spec = if i.is_multiple_of(2) {
        InstanceSpec::a100_server()
    } else {
        InstanceSpec::v100_server()
    };
    b.add_instances(spec, 2 + i / 2);
    b.build()
}

/// One job's fleet shape and profiling seed: repeats share their
/// shape's canonical seed, unique jobs (spread evenly over the job
/// list) get their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct JobSpec {
    shape: usize,
    seed: u64,
}

fn job_specs(w: &ServiceWorkload, jobs: usize) -> Vec<JobSpec> {
    let uniques = ((1.0 - w.repeat_ratio).clamp(0.0, 1.0) * jobs as f64).round() as usize;
    (0..jobs)
        .map(|j| {
            let shape = j % w.shapes;
            let unique = (j + 1) * uniques / jobs > j * uniques / jobs;
            JobSpec {
                shape,
                seed: if unique {
                    w.seed + 1000 + j as u64
                } else {
                    w.seed + shape as u64
                },
            }
        })
        .collect()
}

fn session_options(spec: JobSpec, service: &Arc<PlanService>, telemetry: Telemetry) -> InitOptions {
    InitOptions {
        seed: spec.seed,
        // Any profiler noise is a new key, as in the service benchmark.
        resynth_threshold: 1e-3,
        plan_service: Some(Arc::clone(service)),
        telemetry,
        ..InitOptions::default()
    }
}

/// Everything set-up builds: the fleets, the service and every job.
struct Fleet {
    clusters: Vec<Cluster>,
    specs: Vec<JobSpec>,
    service: Arc<PlanService>,
}

fn fleet(p: &Params) -> Fleet {
    let w = workload();
    let jobs = if p.tiny { 8 } else { w.jobs };
    Fleet {
        clusters: (0..w.shapes).map(shape_cluster).collect(),
        specs: job_specs(&w, jobs),
        service: Arc::new(PlanService::new(ServiceConfig {
            shards: w.shards,
            byte_budget: BYTE_BUDGET,
            warm_start: true,
        })),
    }
}

/// One job's session (with its own telemetry sink in the traced run).
struct Job<'c> {
    index: usize,
    cc: AdapCC<'c>,
    telemetry: Telemetry,
}

/// Initializes every job's session; `traced` gives each its own
/// enabled telemetry sink, so a request's solves can be told apart.
fn sessions<'c>(f: &'c Fleet, traced: bool) -> Vec<Job<'c>> {
    f.specs
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            let telemetry = if traced {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let options = session_options(*spec, &f.service, telemetry.clone());
            Job {
                index,
                cc: AdapCC::init(&f.clusters[spec.shape], options),
                telemetry,
            }
        })
        .collect()
}

/// A recorded request: which job asked for which tensor, and the plan
/// it got.
struct Sample {
    /// Whether the request is in the client's cost prefix.
    prefix: bool,
    job: usize,
    tensor: ByteSize,
    plan: Strategy,
}

/// How the traced run saw a request served.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Hit,
    Coalesced,
    Warm,
    Cold,
}

/// One client thread: the jobs it owns and what it measured.
struct Client<'c> {
    id: usize,
    jobs: Vec<Job<'c>>,
    rng: Rng,
    next: usize,
    /// Requests made and the milliseconds spent in them.
    ops: usize,
    busy_ms: f64,
    /// Latency of one request in `LATENCY_EVERY`.
    op_ms: Vec<f64>,
    /// This round's latencies, one request in `ROUND_LATENCY_EVERY`.
    round_ms: Vec<f64>,
    samples: Vec<Sample>,
    by_class: HashMap<Class, Vec<f64>>,
    tracer: Tracer,
}

impl Client<'_> {
    /// One request from a job and size drawn from the client's stream.
    fn op(&mut self, i: usize, tensors: &[u64], service: &PlanService) {
        let k = self.rng.below(self.jobs.len());
        let tensor = ByteSize::from_mib(tensors[self.rng.below(tensors.len())]);
        let op = (self.id as u64) << 48 | i as u64;
        let job = &mut self.jobs[k];
        let index = job.index;
        let (ms, plan) = timed_request(
            job,
            tensor,
            service,
            op,
            &mut self.tracer,
            &mut self.by_class,
        );
        if i < COST_PREFIX || (i.is_multiple_of(SAMPLE_EVERY) && self.samples.len() < MAX_SAMPLES) {
            self.samples.push(Sample {
                prefix: i < COST_PREFIX,
                job: index,
                tensor,
                plan: plan.clone(),
            });
        }
        self.record(i, ms);
    }

    fn record(&mut self, i: usize, ms: f64) {
        self.ops += 1;
        self.busy_ms += ms;
        if i.is_multiple_of(LATENCY_EVERY) {
            self.op_ms.push(ms);
        }
        if i.is_multiple_of(ROUND_LATENCY_EVERY) {
            self.round_ms.push(ms);
        }
    }

    /// Requests per second spent in requests.
    fn rate(&self) -> f64 {
        self.ops as f64 / (self.busy_ms / 1e3).max(1e-9)
    }
}

/// One timed `strategy_for_root` request of `job`; returns its wall
/// milliseconds and the plan served. The traced run also classes it.
fn timed_request<'a>(
    job: &'a mut Job<'_>,
    tensor: ByteSize,
    service: &PlanService,
    op: u64,
    tr: &mut Tracer,
    by_class: &mut HashMap<Class, Vec<f64>>,
) -> (f64, &'a Strategy) {
    // Drop the job's strategy memo so the request reaches the service,
    // as a fresh job asking for the same plan would.
    let workers = job.cc.workers().to_vec();
    job.cc.set_workers(workers);
    let before = tr
        .enabled()
        .then(|| solve_counters(&job.telemetry, service));
    let t0 = Instant::now();
    let span = tr.open("op", None, op);
    job.cc.strategy_for_root(Primitive::AllReduce, tensor, None);
    tr.close(span);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(b) = before {
        let a = solve_counters(&job.telemetry, service);
        // With at most two clients a request can only coalesce onto
        // the other client's solve, so a rise in the service's
        // coalesced count during it is its own.
        let class = if a[0] > b[0] {
            Class::Cold
        } else if a[1] > b[1] {
            Class::Warm
        } else if a[2] > b[2] {
            Class::Coalesced
        } else {
            Class::Hit
        };
        by_class.entry(class).or_default().push(ms);
    }
    // Memoized by the request just made.
    let plan = job.cc.strategy_for_root(Primitive::AllReduce, tensor, None);
    (ms, plan)
}

/// This job's cold and warm solve counts and the service's coalesced
/// count.
fn solve_counters(telemetry: &Telemetry, service: &PlanService) -> [f64; 3] {
    [
        telemetry.counter("synth.requests"),
        telemetry.counter("synth.warm_requests"),
        service.stats().coalesced as f64,
    ]
}

/// Splits the jobs round-robin over the clients.
fn clients<'c>(jobs: Vec<Job<'c>>, p: &Params, traced: bool) -> Vec<Client<'c>> {
    let n = if p.tiny { 1 } else { CLIENTS };
    let origin = Instant::now();
    let mut out: Vec<Client<'c>> = (0..n)
        .map(|t| Client {
            id: t,
            jobs: Vec::new(),
            rng: Rng::new(p.seed, 0x5E_0000 + t as u64),
            next: 0,
            ops: 0,
            busy_ms: 0.0,
            op_ms: Vec::new(),
            round_ms: Vec::new(),
            samples: Vec::new(),
            by_class: HashMap::new(),
            tracer: Tracer::new(traced, origin),
        })
        .collect();
    for (j, job) in jobs.into_iter().enumerate() {
        out[j % n].jobs.push(job);
    }
    out
}

/// Runs every client for `seconds` at once. Each round opens, as the
/// service benchmark does, with a thundering herd: behind a barrier
/// every client asks a fresh job of its own for the same new key (the
/// canonical fleet shape at a size no other request uses, profiled with
/// a seed of the round's), so one solves and the others coalesce onto
/// it.
fn run_clients(cs: &mut [Client<'_>], f: &Fleet, round: usize, seconds: f64) {
    let tensors = workload().tensors_mib;
    let barrier = Barrier::new(cs.len());
    let herd = JobSpec {
        shape: 0,
        seed: workload().seed + 2000 + round as u64,
    };
    std::thread::scope(|s| {
        for c in cs.iter_mut() {
            let (tensors, barrier) = (&tensors, &barrier);
            s.spawn(move || {
                let telemetry = if c.tracer.enabled() {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                let options = session_options(herd, &f.service, telemetry.clone());
                let mut job = Job {
                    index: usize::MAX,
                    cc: AdapCC::init(&f.clusters[herd.shape], options),
                    telemetry,
                };
                let i = c.next;
                let op = (c.id as u64) << 48 | i as u64;
                barrier.wait();
                let (ms, _) = timed_request(
                    &mut job,
                    HERD_TENSOR,
                    &f.service,
                    op,
                    &mut c.tracer,
                    &mut c.by_class,
                );
                c.record(i, ms);
                let mut next = i + 1;
                closed_loop(seconds, 1, &mut next, |i| c.op(i, tensors, &f.service));
                c.next = next;
            });
        }
    });
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let loop_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let t0 = Instant::now();
    let f = fleet(p);
    let jobs = sessions(&f, false);
    out.setup_s.push(vec![t0.elapsed().as_secs_f64()]);
    let mut cs = clients(jobs, p, false);
    let mut reference = Reference::default();
    let (mut costs, mut rounds) = (Vec::new(), Vec::new());
    let repeats = segmented(
        loop_s,
        p.trace,
        |slice, _| {
            let before: Vec<(usize, f64)> = cs.iter().map(|c| (c.ops, c.busy_ms)).collect();
            run_clients(&mut cs, &f, rounds.len(), slice);
            let rate: f64 = cs
                .iter()
                .zip(before)
                .map(|(c, (ops, busy))| (c.ops - ops) as f64 / ((c.busy_ms - busy) / 1e3).max(1e-9))
                .sum();
            let latencies: Vec<f64> = cs.iter_mut().flat_map(|c| c.round_ms.drain(..)).collect();
            rounds.push(Round {
                ops_per_s: rate,
                op_ms_p50: median(&latencies),
            });
            costs.extend(check_samples(&f, &mut cs, &mut reference, &mut out.tally));
        },
        || {
            let f = fleet(p);
            sessions(&f, false);
        },
    );
    out.setup_s.extend(repeats);
    out.rounds = rounds;
    out.mean_ops_per_s = cs.iter().map(Client::rate).sum();
    for c in &mut cs {
        out.op_ms.append(&mut c.op_ms);
    }
    // Every request was attempted; the failures are among the checked
    // samples (a request has no error path of its own).
    out.tally.attempted = cs.iter().map(|c| c.ops as u64).sum();
    out.plan_cost_ms = mean(&costs);
    // Nothing executes here; the simulated cost is the modeled one.
    out.sim_comm_ms = out.plan_cost_ms;
    drop(cs);
    if p.trace {
        traced(p, &mut out);
    }
    out
}

/// Checks the plans recorded since the last call and drops them;
/// returns the modeled costs (ms) of those in a cost prefix.
fn check_samples(
    f: &Fleet,
    cs: &mut [Client<'_>],
    reference: &mut Reference,
    tally: &mut Tally,
) -> Vec<f64> {
    let samples: Vec<Sample> = cs.iter_mut().flat_map(|c| c.samples.drain(..)).collect();
    let jobs: HashMap<usize, &Job<'_>> = cs
        .iter()
        .flat_map(|c| c.jobs.iter().map(|j| (j.index, j)))
        .collect();
    let mut costs = Vec::new();
    for s in &samples {
        let job = jobs[&s.job];
        let cost =
            CostModel::new(job.cc.topology(), job.cc.link_profile()).evaluate(&s.plan, s.tensor);
        if s.prefix {
            costs.push(cost.completion.as_millis());
        }
        let verdict = reference.check(f, &jobs, s);
        tally.record(verdict.map_err(|e| format!("plan for job {} of {}: {e}", s.job, s.tensor)));
    }
    costs
}

/// What a job's request is, as its session builds it.
fn request(job: &Job<'_>, spec: JobSpec, tensor: ByteSize) -> SynthRequest {
    let mut req = SynthRequest::new(
        Primitive::AllReduce,
        tensor,
        InitOptions::default().parallelism,
        job.cc.workers().to_vec(),
    );
    req.seed = spec.seed;
    req
}

/// The oracle's memo of reference solves, keyed by job spec and tensor.
#[derive(Default)]
struct Reference {
    cold: HashMap<(JobSpec, u64), Strategy>,
}

impl Reference {
    fn cold_of(&mut self, job: &Job<'_>, spec: JobSpec, tensor: ByteSize) -> &Strategy {
        self.cold.entry((spec, tensor.as_u64())).or_insert_with(|| {
            Synthesizer::new(job.cc.topology(), job.cc.link_profile())
                .with_config(InitOptions::default().synth)
                .synthesize(&request(job, spec, tensor))
        })
    }

    /// The plan-serve oracle. A served plan validates on the
    /// requester's topology, implements an allreduce, and is what the
    /// service can have produced for the request: a cold solve of it,
    /// or a warm start from a stored shape sibling (a job on the same
    /// fleet shape asking for the same size). A warm start re-sweeps
    /// chunk sizes and polishes the sibling's trees, and a chain of them
    /// depends on the order the clients ran in, so it is held to the
    /// cold solve's modeled cost instead of to a single plan.
    fn check(
        &mut self,
        f: &Fleet,
        jobs: &HashMap<usize, &Job<'_>>,
        s: &Sample,
    ) -> Result<(), String> {
        let job = jobs[&s.job];
        s.plan
            .validate(job.cc.topology())
            .map_err(|e| format!("served plan does not validate: {e:?}"))?;
        if s.plan.primitive != Primitive::AllReduce {
            return Err(format!(
                "served a {} plan for an allreduce",
                s.plan.primitive
            ));
        }
        let cold = self.cold_of(job, f.specs[s.job], s.tensor).clone();
        if cold == s.plan {
            return Ok(());
        }
        let model = CostModel::new(job.cc.topology(), job.cc.link_profile());
        let cost = |plan: &Strategy| model.evaluate(plan, s.tensor).completion.as_secs();
        let (served, reference) = (cost(&s.plan), cost(&cold));
        if served <= reference * (1.0 + WARM_TOLERANCE) {
            Ok(())
        } else {
            Err(format!(
                "served plan models {served} s, a cold solve of the request {reference} s"
            ))
        }
    }
}

/// Outside-in replays of the solver on each fleet shape and size: a
/// cold solve of the canonical job's request, and a warm start of a
/// unique job's request from it, as the service runs them.
fn replay_solves(f: &Fleet, jobs: &[&Job<'_>], tr: &mut Tracer) {
    let config = InitOptions::default().synth;
    for shape in 0..f.clusters.len() {
        let of_shape = |unique: bool| {
            jobs.iter().copied().find(|j| {
                let spec = f.specs[j.index];
                spec.shape == shape && (spec.seed >= workload().seed + 1000) == unique
            })
        };
        let (Some(canonical), Some(unique)) = (of_shape(false), of_shape(true)) else {
            continue;
        };
        for mib in workload().tensors_mib {
            let tensor = ByteSize::from_mib(mib);
            let req = request(canonical, f.specs[canonical.index], tensor);
            let synth = Synthesizer::new(canonical.cc.topology(), canonical.cc.link_profile())
                .with_config(config.clone());
            let (_, seed) = tr.time("synth.cold", None, NO_OP, || {
                synth.synthesize_with_seed(&req)
            });
            let req = request(unique, f.specs[unique.index], tensor);
            let synth = Synthesizer::new(unique.cc.topology(), unique.cc.link_profile())
                .with_config(config.clone());
            tr.time("synth.warm", None, NO_OP, || {
                synth.synthesize_warm(&req, &seed)
            });
        }
    }
}

/// The traced half: the same jobs against a fresh service.
fn traced(p: &Params, out: &mut Outcome) {
    let f = fleet(p);
    let jobs = sessions(&f, true);
    let mut cs = clients(jobs, p, true);
    run_clients(&mut cs, &f, 0, p.seconds / 2.0);
    let mut tr = Tracer::new(true, Instant::now());
    let mut by_class: HashMap<Class, Vec<f64>> = HashMap::new();
    let (mut ops, mut total, mut rate) = (0, 0.0, 0.0);
    for c in &mut cs {
        rate += c.rate();
        ops += c.ops;
        total += c.busy_ms;
        for (k, v) in c.by_class.drain() {
            by_class.entry(k).or_default().extend(v);
        }
        tr.absorb(std::mem::replace(
            &mut c.tracer,
            Tracer::new(false, Instant::now()),
        ));
    }
    let ops = ops as f64;
    out.layer("trace.ops", ops);
    out.layer("trace.overhead_ops_per_s", rate - out.mean_ops_per_s);
    let s = f.service.stats();
    out.layer("planserve.hits", s.hits as f64);
    out.layer("planserve.coalesced", s.coalesced as f64);
    out.layer("planserve.warm_starts", s.warm as f64);
    out.layer("planserve.cold_solves", s.cold as f64);
    out.layer("planserve.evictions", s.evictions as f64);
    out.layer("planserve.bytes", s.bytes as f64);
    let served = (s.hits + s.coalesced + s.warm + s.cold) as f64;
    out.layer(
        "planserve.hit_ratio",
        ratio((s.hits + s.coalesced) as f64, served),
    );
    let class = |k: Class| by_class.get(&k).map_or(0.0, |v| mean(v));
    out.layer("planserve.resolve_ms.hit", class(Class::Hit));
    out.layer("planserve.resolve_ms.warm", class(Class::Warm));
    out.layer("planserve.resolve_ms.cold", class(Class::Cold));
    out.layer("planserve.coalesced_wait_ms", class(Class::Coalesced));
    let mut tally = Tally::default();
    check_samples(&f, &mut cs, &mut Reference::default(), &mut tally);
    tally.attempted = cs.iter().map(|c| c.ops as u64).sum();
    out.tally.merge(tally);
    let jobs: Vec<&Job<'_>> = cs.iter().flat_map(|c| &c.jobs).collect();
    let mut rt = Tracer::new(true, Instant::now());
    replay_solves(&f, &jobs, &mut rt);
    let (cold, warm) = (rt.get("synth.cold"), rt.get("synth.warm"));
    out.layer("synth.cold_solves", s.cold as f64);
    out.layer("synth.cold_ms", cold.mean_ms());
    out.layer("synth.warm_solves", s.warm as f64);
    out.layer("synth.warm_ms", warm.mean_ms());
    let full: f64 = cs
        .iter()
        .flat_map(|c| &c.jobs)
        .map(|j| j.telemetry.counter("synth.full_evals"))
        .sum();
    let delta: f64 = cs
        .iter()
        .flat_map(|c| &c.jobs)
        .map(|j| j.telemetry.counter("synth.delta_evals"))
        .sum();
    out.layer("synth.full_evals", full);
    out.layer("synth.delta_evals", delta);
    out.layer("core.session.plan_ms", ratio(total, ops));
    // Request time beyond the solves: fingerprint, lookup, admission,
    // validation of a stored plan and coalesced waiting.
    let solving = cold.mean_ms() * s.cold as f64 + warm.mean_ms() * s.warm as f64;
    out.layer("core.collective.other_ms", ratio(total - solving, ops));
    // The engine is idle here; the storm on the largest shape gives the
    // layer's number beside a workload it should not move.
    let w = workload();
    probes::engine_layers(
        out,
        &shape_cluster(w.shapes - 1),
        if p.tiny { 4 } else { 64 },
    );
    out.spans_jsonl = tr.to_jsonl();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            seed: 3,
            seconds: 0.1,
            trace: false,
            tiny: true,
        }
    }

    #[test]
    fn jobs_follow_the_service_benchmark_mix() {
        let w = workload();
        let specs = job_specs(&w, w.jobs);
        let repeats = specs.iter().filter(|s| s.seed < w.seed + 1000).count();
        assert_eq!(repeats as f64 / w.jobs as f64, w.repeat_ratio);
        assert!(specs.iter().all(|s| s.shape < w.shapes));
    }

    #[test]
    fn plan_oracle_rejects_a_plan_for_another_request() {
        let f = fleet(&tiny());
        let jobs_vec = sessions(&f, false);
        let jobs: HashMap<usize, &Job<'_>> = jobs_vec.iter().map(|j| (j.index, j)).collect();
        let job = &jobs_vec[0];
        let tensor = ByteSize::from_mib(4);
        let good = Synthesizer::new(job.cc.topology(), job.cc.link_profile())
            .with_config(InitOptions::default().synth)
            .synthesize(&request(job, f.specs[0], tensor));
        let mut reference = Reference::default();
        let sample = |plan: Strategy| Sample {
            prefix: true,
            job: 0,
            tensor,
            plan,
        };
        assert!(reference.check(&f, &jobs, &sample(good)).is_ok());
        // A valid plan, but for another tensor size.
        let other = Synthesizer::new(job.cc.topology(), job.cc.link_profile())
            .with_config(InitOptions::default().synth)
            .synthesize(&request(job, f.specs[0], ByteSize::from_mib(32)));
        assert!(reference.check(&f, &jobs, &sample(other)).is_err());
    }
}
