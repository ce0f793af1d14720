//! The chunk-pipelined executor (paper Sec. V).
//!
//! Executes synthesized [`Strategy`] graphs over the simulated fabric:
//! every sub-collective's flows are lowered to *segments* (maximal
//! aggregation-free route stretches), chunks move hop-by-hop with
//! store-and-forward pipelining, aggregation kernels synchronize
//! same-offset chunks and charge launch + reduction time, AllReduce
//! pipelines its Reduce and reverse-Broadcast stages chunk-by-chunk at
//! the root, and TCP paths pay the host-staging overhead per chunk.
//!
//! Timing rides the [`NetSim`] fluid engine, so concurrent
//! sub-collectives and unrelated traffic contend exactly as eq. 3
//! models. The data plane is real: when inputs are supplied, actual
//! `f32` buffers are accumulated at kernel points, which is what makes
//! the accuracy experiment (Fig. 19(b)) honest.
//!
//! A strategy is validated and lowered once into a compiled plan
//! (`compile`): dense tables that number every node visit, segment and
//! hop of a sub, so all per-visit, per-segment and per-hop state of a
//! run lives in vectors indexed by those ids. The session keeps each
//! memoized strategy's plan, so its calls only simulate and move data;
//! a raw batch compiles its plans for that batch alone. Data buffers
//! exist only at Reduce visits that receive data over a segment, where
//! inputs combine; leaves are read in the caller's buffers, relay hops
//! and Broadcast visits hold nothing (a Broadcast visit reads its
//! origin), and sinks write finalized chunks straight into the output
//! tensors (DESIGN.md, "Executor: lowered tables and the data plane").

mod compile;

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Mutex, OnceLock, PoisonError};

use adapcc_simnet::cluster::{Cluster, Path, Rank};
use adapcc_simnet::engine::{NetSim, SimEvent};
use adapcc_simnet::faults::FaultSchedule;
use adapcc_simnet::hardware::kernel_launch_overhead;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::strategy::Strategy;
use adapcc_topo::logical::{EdgeId, LogicalNode, LogicalTopology};

use crate::error::{AdapCCError, FaultKind, FaultReport};
use compile::{hop_path, split_elems, P2pRange, PlanSub, Shape, SubKind};
pub(crate) use compile::{CompiledPlan, EdgePaths};

/// Default per-hop deadline multiplier over the hop's solo α–β cost.
///
/// Pipelined chunks legitimately share links with sibling
/// sub-collectives and sibling requests, so a healthy hop can run well
/// past its uncontended time; 16x stays clear of that while still
/// catching stalls quickly. (The paper's relay layer uses `T_fault` =
/// 5x at iteration granularity; per-hop granularity needs more slack
/// because contention concentrates on single links.)
pub const DEFAULT_DEADLINE_MULTIPLIER: f64 = 16.0;

/// Floor on any hop deadline, so microsecond-scale chunks do not trip
/// their deadline on transient queueing.
fn deadline_floor() -> SimDuration {
    SimDuration::from_millis(5.0)
}

/// One collective to execute.
#[derive(Debug)]
pub struct ExecutionRequest<'a> {
    /// The strategy, of any primitive. AllReduce is stage-pipelined
    /// internally (a Reduce and its reverse Broadcast); AllGather and
    /// ReduceScatter strategies run as Broadcast and Reduce trees.
    /// The session's composite collectives (`crate::collective`)
    /// arrive as batches of per-worker Broadcast or Reduce requests.
    pub strategy: &'a Strategy,
    /// Per-rank tensor size. Must be a multiple of 4 bytes (f32).
    pub tensor: ByteSize,
    /// When each worker's tensor becomes ready (missing ranks: 0).
    pub ready: BTreeMap<Rank, SimTime>,
    /// Real input data per rank (length = tensor elements), owned or
    /// borrowed from the caller; omit for timing-only runs (large
    /// benchmarks).
    pub inputs: Option<Cow<'a, BTreeMap<Rank, Vec<f32>>>>,
    /// Where `strategy`'s compiled plan lives: the first execution
    /// fills it, later ones skip validation and lowering. `None`
    /// compiles a plan for this batch alone.
    pub(crate) plan: Option<&'a OnceLock<CompiledPlan>>,
}

impl<'a> ExecutionRequest<'a> {
    /// A timing-only request with all workers ready at time zero.
    pub fn timing(strategy: &'a Strategy, tensor: ByteSize) -> Self {
        ExecutionRequest {
            strategy,
            tensor,
            ready: BTreeMap::new(),
            inputs: None,
            plan: None,
        }
    }

    /// Attaches the slot that holds `strategy`'s compiled plan. The
    /// slot must only ever hold plans of this strategy, compiled for
    /// the executor's topology.
    pub(crate) fn with_plan(mut self, plan: &'a OnceLock<CompiledPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches worker ready times.
    pub fn with_ready(mut self, ready: BTreeMap<Rank, SimTime>) -> Self {
        self.ready = ready;
        self
    }

    /// Attaches real input data, handing the buffers over.
    pub fn with_inputs(mut self, inputs: BTreeMap<Rank, Vec<f32>>) -> Self {
        self.inputs = Some(Cow::Owned(inputs));
        self
    }

    /// Attaches real input data the caller keeps: the executor reads
    /// the buffers in place and copies none of them.
    pub fn with_borrowed_inputs(mut self, inputs: &'a BTreeMap<Rank, Vec<f32>>) -> Self {
        self.inputs = Some(Cow::Borrowed(inputs));
        self
    }
}

/// One recorded transfer span (tracing).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Request index within the batch.
    pub request: usize,
    /// Sub-collective index within the lowered batch.
    pub sub: usize,
    /// Chunk index.
    pub chunk: usize,
    /// Human-readable hop description, e.g. `gpu1->nic0`.
    pub hop: String,
    /// Transfer start instant.
    pub start: SimTime,
    /// Transfer completion instant.
    pub end: SimTime,
}

/// Result of one request within a batch.
#[derive(Debug, Clone)]
pub struct RequestReport {
    /// Instant the request's last sink chunk finalized.
    pub finish: SimTime,
    /// Output tensors per sink rank (present when inputs were given).
    pub outputs: BTreeMap<Rank, Vec<f32>>,
}

/// Result of an executed batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Instant the whole batch finished.
    pub finish: SimTime,
    /// Per-request results, in request order.
    pub requests: Vec<RequestReport>,
    /// Total bytes put on physical links (pipelined chunks included).
    pub bytes_on_wire: u64,
    /// Recorded transfer spans (empty unless tracing was enabled).
    pub trace: Vec<TraceSpan>,
}

impl BatchReport {
    /// Renders the trace as a time-ordered textual timeline (one line
    /// per transfer), the debugging view a `NCCL_DEBUG`-style knob
    /// would print.
    pub fn timeline(&self) -> String {
        let mut spans = self.trace.clone();
        spans.sort_by(|a, b| a.start.cmp(&b.start).then(a.end.cmp(&b.end)));
        let mut out = String::new();
        for s in &spans {
            out.push_str(&format!(
                "[{:>10.3}ms..{:>10.3}ms] req{} sub{} chunk{:>4} {}\n",
                s.start.as_millis(),
                s.end.as_millis(),
                s.request,
                s.sub,
                s.chunk,
                s.hop
            ));
        }
        out
    }
}

/// The executor.
///
/// # Examples
///
/// ```
/// use adapcc_simnet::cluster::{Cluster, Rank};
/// use adapcc_simnet::units::ByteSize;
/// use adapcc_topo::detect::Detector;
/// use adapcc_profile::profiler::Profiler;
/// use adapcc_synth::{Primitive, SynthRequest, Synthesizer};
/// use adapcc::executor::{ExecutionRequest, Executor};
///
/// let cluster = Cluster::homogeneous_a100(2);
/// let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
/// let profile = Profiler::new(&cluster, &topo, 1).run().links;
/// let req = SynthRequest::new(Primitive::AllReduce, ByteSize::from_mib(16), 2,
///                             (0..8).map(Rank).collect());
/// let strategy = Synthesizer::new(&topo, &profile).synthesize(&req);
/// let exec = Executor::new(&cluster, &topo);
/// let report = exec.execute(&[ExecutionRequest::timing(&strategy, ByteSize::from_mib(16))]);
/// assert!(report.finish.as_secs() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    cluster: &'a Cluster,
    topo: &'a LogicalTopology,
    factors: Vec<(adapcc_simnet::cluster::LinkId, f64)>,
    tracing: bool,
    telemetry: adapcc_telemetry::Telemetry,
    /// Fault schedule armed on every run's fabric, with the session
    /// clock offset at which the run starts. Attaching a schedule also
    /// enables per-hop deadline timers and the completion audit.
    faults: Option<(FaultSchedule, SimTime)>,
    deadline_multiplier: f64,
    /// The physical path of every logical edge, shared across runs
    /// (`None`: built per batch).
    paths: Option<&'a Mutex<EdgePaths>>,
}

// ---------- one batch ----------

/// One batch's view of its requests' compiled plans: every request's
/// subs numbered densely in request order (the batch sub ids traces
/// report), and what this call's tensors make of each.
struct Batch<'p> {
    plans: Vec<Cow<'p, CompiledPlan>>,
    paths: &'p EdgePaths,
    /// Per batch sub: its request, and its sub within that request's
    /// plan.
    at: Vec<(u32, u32)>,
    /// Per request: its first batch sub.
    base: Vec<usize>,
    /// Per batch sub: its element range and chunking.
    shapes: Vec<Shape>,
    /// Per batch sub, per segment: point-to-point ranges (empty for
    /// tree subs).
    p2p: Vec<Vec<P2pRange>>,
}

impl<'p> Batch<'p> {
    fn new(
        requests: &[ExecutionRequest<'_>],
        plans: Vec<Cow<'p, CompiledPlan>>,
        paths: &'p EdgePaths,
    ) -> Self {
        let n: usize = plans.iter().map(|p| p.subs.len()).sum();
        let mut batch = Batch {
            at: Vec::with_capacity(n),
            base: Vec::with_capacity(plans.len()),
            shapes: Vec::with_capacity(n),
            p2p: Vec::with_capacity(n),
            plans: Vec::new(),
            paths,
        };
        for (ri, (req, plan)) in requests.iter().zip(&plans).enumerate() {
            batch.base.push(batch.at.len());
            batch
                .at
                .extend((0..plan.subs.len() as u32).map(|s| (ri as u32, s)));
            let elems = (req.tensor.as_u64() / 4) as usize;
            plan.shapes(req.strategy, elems, &mut batch.shapes, &mut batch.p2p);
        }
        batch.plans = plans;
        batch
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    fn sub(&self, si: usize) -> &PlanSub {
        let (r, s) = self.at[si];
        &self.plans[r as usize].subs[s as usize]
    }

    fn request(&self, si: usize) -> usize {
        self.at[si].0 as usize
    }

    /// The batch id of sub `local` of batch sub `si`'s plan.
    fn sibling(&self, si: usize, local: u32) -> usize {
        self.base[self.request(si)] + local as usize
    }
}

// ---------- run state ----------

#[derive(Debug, Clone, Copy)]
enum Task {
    Hop {
        sub: usize,
        hop: usize,
        chunk: usize,
    },
    Kernel {
        sub: usize,
        visit: usize,
        chunk: usize,
    },
    OwnReady {
        sub: usize,
        visit: usize,
    },
    /// Deadline timer for the in-flight transfer of hop task
    /// `hop_task`; ignored if that transfer already completed.
    HopDeadline {
        hop_task: usize,
    },
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Finalize {
        sub: usize,
        visit: usize,
        chunk: usize,
    },
    StartSegs {
        sub: usize,
        visit: usize,
        chunk: usize,
    },
    Deliver {
        sub: usize,
        seg: usize,
        chunk: usize,
    },
}

/// The chunk transfer a hop has on the wire.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    token: usize,
    enqueued: SimTime,
    start: SimTime,
    bytes: u64,
}

#[derive(Debug, Default)]
struct HopState {
    inflight: Option<InFlight>,
    /// Chunks waiting for the hop, with their enqueue instants.
    queue: VecDeque<(usize, SimTime)>,
}

#[derive(Debug, Default)]
struct KernelState {
    busy: bool,
    queue: VecDeque<usize>,
}

/// Per-sub chunk state of one run; `arrived` and `finalized` are
/// indexed by `visit * n_chunks + chunk`.
struct SubState {
    hops: Vec<HopState>,
    arrived: Vec<usize>,
    finalized: Vec<bool>,
    kernels: Vec<KernelState>,
}

/// Where a visit's chunk values live during a data run.
#[derive(Debug, Clone, Copy)]
enum Src<'r> {
    /// No data was supplied: zeros.
    Zero,
    /// The caller's buffer, narrowed to the sub's element range.
    Input(&'r [f32]),
    /// Accumulator `i` of the run (sub-relative element range).
    Acc(usize),
}

/// The data plane of one run. Timing-only subs leave their entries
/// empty.
#[derive(Default)]
struct DataPlane<'r> {
    /// Per sub, per visit: where the visit's values live.
    src: Vec<Vec<Src<'r>>>,
    /// Per sub, per visit: the output buffer a sink writes (`usize::MAX`
    /// elsewhere).
    out: Vec<Vec<usize>>,
    /// Per sub, per segment: the sending rank's tensor (point-to-point).
    p2p_src: Vec<Vec<&'r [f32]>>,
    /// Buffers of the Reduce visits that combine inputs.
    accs: Vec<Vec<f32>>,
    /// Output tensors, and the (request, rank) each belongs to.
    outputs: Vec<Vec<f32>>,
    owners: Vec<(usize, Rank)>,
    output_of: HashMap<(usize, Rank), usize>,
}

/// "No output buffer" in [`DataPlane::out`].
const NO_OUTPUT: usize = usize::MAX;

impl<'r> DataPlane<'r> {
    /// The output tensor of `rank` in request `ri`, created zeroed on
    /// first use.
    fn output(&mut self, ri: usize, rank: Rank, elems: usize) -> usize {
        let next = self.outputs.len();
        let id = *self.output_of.entry((ri, rank)).or_insert(next);
        if id == next {
            self.outputs.push(vec![0.0; elems]);
            self.owners.push((ri, rank));
        }
        id
    }
}

/// Elements `[a, b)` of `src` (`None` for zeros).
fn values<'s>(accs: &'s [Vec<f32>], src: Src<'s>, a: usize, b: usize) -> Option<&'s [f32]> {
    match src {
        Src::Zero => None,
        Src::Input(buf) => Some(&buf[a..b]),
        Src::Acc(i) => Some(&accs[i][a..b]),
    }
}

/// All mutable state of one run, grouped so helper methods can borrow
/// it coherently.
struct RunState<'c, 'r> {
    sim: NetSim<'c>,
    tasks: Vec<Task>,
    subs: Vec<SubState>,
    data: DataPlane<'r>,
    worklist: VecDeque<Action>,
    bytes_on_wire: u64,
    finish: SimTime,
    req_finish: Vec<SimTime>,
    trace: Vec<TraceSpan>,
}

impl<'a> Executor<'a> {
    /// An executor over a cluster and its logical topology.
    pub fn new(cluster: &'a Cluster, topo: &'a LogicalTopology) -> Self {
        Executor {
            cluster,
            topo,
            factors: Vec::new(),
            tracing: false,
            telemetry: adapcc_telemetry::Telemetry::disabled(),
            faults: None,
            deadline_multiplier: DEFAULT_DEADLINE_MULTIPLIER,
            paths: None,
        }
    }

    /// Shares a path table across runs: every logical edge's physical
    /// path is built once per topology instead of once per batch. The
    /// table must belong to this executor's topology.
    pub(crate) fn with_edge_paths(mut self, paths: &'a Mutex<EdgePaths>) -> Self {
        self.paths = Some(paths);
        self
    }
    /// Records a [`TraceSpan`] for every chunk transfer (costs memory
    /// proportional to the number of transfers; off by default).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Attaches a telemetry sink: every run emits an `execute` span,
    /// a per-link [`adapcc_telemetry::FlowRecord`] for every chunk
    /// transfer (bytes, enqueue/start/finish, request/sub/chunk), and
    /// `exec.*` counters. The handle's offset places the run on the
    /// session timeline.
    pub fn with_telemetry(mut self, telemetry: adapcc_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Arms `schedule` on every run's fabric, shifted so that sim time
    /// zero corresponds to `offset` on the session clock (see
    /// [`FaultSchedule::arm`]). Attaching a schedule also turns on
    /// per-hop deadline timers and the end-of-run completion audit, so
    /// a faulted run returns a classified [`FaultReport`] from
    /// [`Executor::try_execute`] instead of hanging or finishing
    /// silently incomplete.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule, offset: SimTime) -> Self {
        self.faults = Some((schedule, offset));
        self
    }

    /// Overrides the per-hop deadline multiplier (default
    /// [`DEFAULT_DEADLINE_MULTIPLIER`]). A hop whose transfer exceeds
    /// `multiplier x` its uncontended α–β cost is declared stalled.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is not greater than 1.
    pub fn with_deadline_multiplier(mut self, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 1.0,
            "deadline multiplier must exceed 1: {multiplier}"
        );
        self.deadline_multiplier = multiplier;
        self
    }

    /// Applies live capacity factors (trace-driven bandwidth
    /// variability) to the fabric every request runs over.
    pub fn with_capacity_factors(
        mut self,
        factors: &[(adapcc_simnet::cluster::LinkId, f64)],
    ) -> Self {
        self.factors = factors.to_vec();
        self
    }

    /// Executes all requests concurrently on one fabric.
    ///
    /// # Panics
    ///
    /// Panics where [`Executor::try_execute`] returns an error: a
    /// strategy fails validation or cannot be lowered, a tensor is not
    /// f32-aligned, a supplied input buffer has the wrong length, an
    /// AlltoAll with data lacks a participant's input or has a tensor
    /// not divisible by the participant count (shards must align), or
    /// an attached fault schedule faults the run.
    pub fn execute(&self, requests: &[ExecutionRequest<'_>]) -> BatchReport {
        match self.try_execute(requests) {
            Ok(report) => report,
            Err(AdapCCError::InvalidRequest(msg)) => panic!("{msg}"),
            Err(e) => panic!("execution fault without recovery: {e}"),
        }
    }

    /// Executes all requests concurrently on one fabric, returning a
    /// typed error instead of panicking: malformed requests yield
    /// [`AdapCCError::InvalidRequest`], and — when a fault schedule is
    /// attached — a stalled or aborted run yields a classified
    /// [`AdapCCError::Fault`] rather than hanging.
    pub fn try_execute(
        &self,
        requests: &[ExecutionRequest<'_>],
    ) -> Result<BatchReport, AdapCCError> {
        for r in requests {
            // A compiled plan validated when it was compiled.
            if r.plan.and_then(OnceLock::get).is_none() {
                if let Err(e) = r.strategy.validate(self.topo) {
                    return Err(AdapCCError::InvalidRequest(format!(
                        "strategy must validate before execution: {e:?}"
                    )));
                }
            }
            if r.tensor.as_u64() % 4 != 0 {
                return Err(AdapCCError::InvalidRequest(
                    "tensor must be f32-aligned".into(),
                ));
            }
            let elems = (r.tensor.as_u64() / 4) as usize;
            if let Some(inputs) = &r.inputs {
                for (rank, buf) in inputs.iter() {
                    if buf.len() != elems {
                        return Err(AdapCCError::InvalidRequest(format!(
                            "input of {rank} has wrong length: {} vs {elems}",
                            buf.len()
                        )));
                    }
                }
                if r.strategy.primitive == Primitive::AllToAll {
                    let participants = r.strategy.participants();
                    if !elems.is_multiple_of(participants.len().max(1)) {
                        return Err(AdapCCError::InvalidRequest(
                            "alltoall with data needs shard-aligned tensors".into(),
                        ));
                    }
                    if let Some(rank) = participants.iter().find(|p| !inputs.contains_key(p)) {
                        return Err(AdapCCError::InvalidRequest(format!(
                            "alltoall with data needs an input from every participant; {rank} has none"
                        )));
                    }
                }
            }
        }
        let mut plans = Vec::with_capacity(requests.len());
        for r in requests {
            let lower = || CompiledPlan::lower(self.cluster, self.topo, r.strategy);
            plans.push(match r.plan {
                Some(slot) => Cow::Borrowed(match slot.get() {
                    Some(plan) => plan,
                    None => {
                        let plan = lower()?;
                        slot.get_or_init(|| plan)
                    }
                }),
                None => Cow::Owned(lower()?),
            });
        }
        let mut local;
        let mut shared;
        let paths: &mut EdgePaths = match self.paths {
            Some(table) => {
                // Paths are only ever appended whole, so a table a panic
                // left poisoned is still consistent.
                shared = table.lock().unwrap_or_else(PoisonError::into_inner);
                &mut shared
            }
            None => {
                local = EdgePaths::new(self.topo.edge_count());
                &mut local
            }
        };
        for plan in &plans {
            paths.cover(self.cluster, self.topo, plan);
        }
        let batch = Batch::new(requests, plans, paths);
        self.run(requests, &batch).map_err(AdapCCError::Fault)
    }

    // ---------- data plane ----------

    /// Binds every data run's buffers: where each visit's values live,
    /// an accumulator for each Reduce visit that receives data, and
    /// the output tensors sinks write into. AlltoAll outputs start
    /// with each rank's own shard, which never rides the wire.
    fn bind_data<'r>(
        &self,
        requests: &'r [ExecutionRequest<'_>],
        batch: &Batch<'_>,
    ) -> DataPlane<'r> {
        let mut dp = DataPlane::default();
        for si in 0..batch.len() {
            let (sub, shape) = (batch.sub(si), batch.shapes[si]);
            let ri = batch.request(si);
            let req = &requests[ri];
            let Some(inputs) = req.inputs.as_deref() else {
                dp.src.push(Vec::new());
                dp.out.push(Vec::new());
                dp.p2p_src.push(Vec::new());
                continue;
            };
            let elems = (req.tensor.as_u64() / 4) as usize;
            let mut out = vec![NO_OUTPUT; sub.visits.len()];
            for &v in &sub.sinks {
                if let LogicalNode::Gpu(rank) = sub.visits[v as usize].node {
                    out[v as usize] = dp.output(ri, rank, elems);
                }
            }
            let range = shape.elem_off..shape.elem_off + shape.elem_len;
            let own_input = |v: usize| match sub.visits[v].node {
                LogicalNode::Gpu(rank) if sub.own[v] => {
                    inputs.get(&rank).map(|b| &b[range.clone()])
                }
                _ => None,
            };
            let src = match sub.kind {
                SubKind::Reduce => (0..sub.visits.len())
                    .map(|v| {
                        let input = own_input(v);
                        if sub.required[v] > u32::from(sub.own[v]) {
                            let acc =
                                input.map_or_else(|| vec![0.0; shape.elem_len], <[f32]>::to_vec);
                            dp.accs.push(acc);
                            Src::Acc(dp.accs.len() - 1)
                        } else {
                            input.map_or(Src::Zero, Src::Input)
                        }
                    })
                    .collect(),
                SubKind::Broadcast => {
                    // Every visit forwards the origin's values unchanged.
                    let origin = match sub.fed_by {
                        Some((rs, rv)) => dp.src[batch.sibling(si, rs)][rv as usize],
                        None => sub
                            .contributors
                            .first()
                            .and_then(|c| own_input(*c as usize))
                            .map_or(Src::Zero, Src::Input),
                    };
                    vec![origin; sub.visits.len()]
                }
                SubKind::PointToPoint => Vec::new(),
            };
            let p2p_src = match sub.kind {
                SubKind::PointToPoint => sub
                    .segs
                    .iter()
                    .map(|&(start, _)| match sub.visits[start as usize].node {
                        LogicalNode::Gpu(rank) => inputs.get(&rank).map_or(&[][..], Vec::as_slice),
                        LogicalNode::Nic(_) => &[][..],
                    })
                    .collect(),
                _ => Vec::new(),
            };
            dp.src.push(src);
            dp.out.push(out);
            dp.p2p_src.push(p2p_src);
        }
        for (ri, req) in requests.iter().enumerate() {
            if req.strategy.primitive != Primitive::AllToAll {
                continue;
            }
            let Some(inputs) = req.inputs.as_deref() else {
                continue;
            };
            let participants = req.strategy.participants();
            let elems = (req.tensor.as_u64() / 4) as usize;
            let shard = split_elems(elems, participants.len().max(1));
            let mut off = 0;
            for (j, rank) in participants.iter().enumerate() {
                let o = dp.output(ri, *rank, elems);
                let own = off..off + shard[j];
                dp.outputs[o][own.clone()].copy_from_slice(&inputs[rank][own]);
                off += shard[j];
            }
        }
        dp
    }

    // ---------- event loop ----------

    fn run(
        &self,
        requests: &[ExecutionRequest<'_>],
        batch: &Batch<'_>,
    ) -> Result<BatchReport, FaultReport> {
        let mut sim = NetSim::new(self.cluster);
        for (l, f) in &self.factors {
            sim.set_capacity_factor(*l, *f);
        }
        if let Some((schedule, offset)) = &self.faults {
            schedule.arm(&mut sim, *offset);
        }
        let mut st = RunState {
            sim,
            tasks: Vec::new(),
            subs: (0..batch.len())
                .map(|si| {
                    let sub = batch.sub(si);
                    let cells = sub.visits.len() * batch.shapes[si].n_chunks;
                    SubState {
                        hops: sub.hop_edge.iter().map(|_| HopState::default()).collect(),
                        arrived: vec![0; cells],
                        finalized: vec![false; cells],
                        kernels: sub.visits.iter().map(|_| KernelState::default()).collect(),
                    }
                })
                .collect(),
            data: self.bind_data(requests, batch),
            worklist: VecDeque::new(),
            bytes_on_wire: 0,
            finish: SimTime::ZERO,
            req_finish: vec![SimTime::ZERO; requests.len()],
            trace: Vec::new(),
        };

        // Schedule every contributor's readiness timer.
        for si in 0..batch.len() {
            let sub = batch.sub(si);
            for &v in &sub.contributors {
                if sub.fed_by.is_some() && v == sub.root {
                    continue; // fed chunk-by-chunk by the reduce stage
                }
                let LogicalNode::Gpu(rank) = &sub.visits[v as usize].node else {
                    continue;
                };
                let at = requests[batch.request(si)]
                    .ready
                    .get(rank)
                    .copied()
                    .unwrap_or(SimTime::ZERO);
                st.tasks.push(Task::OwnReady {
                    sub: si,
                    visit: v as usize,
                });
                let token = st.tasks.len() as u64 - 1;
                st.sim
                    .schedule_timer(at.duration_since(SimTime::ZERO), token);
            }
        }

        loop {
            while let Some(action) = st.worklist.pop_front() {
                self.apply(batch, &mut st, action);
            }
            let Some(ev) = st.sim.step() else { break };
            let token = ev.token() as usize;
            match (ev, st.tasks[token]) {
                (SimEvent::Timer { .. }, Task::OwnReady { sub: si, visit }) => {
                    let n = batch.shapes[si].n_chunks;
                    for chunk in 0..n {
                        st.subs[si].arrived[visit * n + chunk] += 1;
                        self.try_finalize(batch, &mut st, si, visit, chunk);
                    }
                }
                (
                    SimEvent::Timer { .. },
                    Task::Kernel {
                        sub: si,
                        visit,
                        chunk,
                    },
                ) => {
                    st.subs[si].kernels[visit].busy = false;
                    st.worklist.push_back(Action::Finalize {
                        sub: si,
                        visit,
                        chunk,
                    });
                    if let Some(next) = st.subs[si].kernels[visit].queue.pop_front() {
                        self.start_kernel(batch, &mut st, si, visit, next);
                    }
                }
                (
                    SimEvent::TransferDone { .. },
                    Task::Hop {
                        sub: si,
                        hop,
                        chunk,
                    },
                ) => {
                    let sub = batch.sub(si);
                    let done = st.subs[si].hops[hop].inflight.take();
                    if let Some(f) = done.filter(|_| self.tracing) {
                        let e = self.topo.edge(EdgeId(sub.hop_edge[hop] as usize));
                        st.trace.push(TraceSpan {
                            request: batch.request(si),
                            sub: si,
                            chunk,
                            hop: format!("{}->{}", e.from, e.to),
                            start: f.start,
                            end: st.sim.now(),
                        });
                    }
                    if let Some(f) = done.filter(|_| self.telemetry.is_enabled()) {
                        let e = self.topo.edge(EdgeId(sub.hop_edge[hop] as usize));
                        self.telemetry.flow(adapcc_telemetry::FlowRecord {
                            link: format!("{}->{}", e.from, e.to),
                            bytes: f.bytes,
                            enqueued_secs: f.enqueued.as_secs(),
                            start_secs: f.start.as_secs(),
                            end_secs: st.sim.now().as_secs(),
                            request: batch.request(si),
                            sub: si,
                            chunk,
                        });
                    }
                    if let Some((c, enqueued)) = st.subs[si].hops[hop].queue.pop_front() {
                        self.start_hop(batch, &mut st, si, hop, c, enqueued);
                    }
                    if sub.ends_segment(hop) {
                        st.worklist.push_back(Action::Deliver {
                            sub: si,
                            seg: sub.hop_seg[hop] as usize,
                            chunk,
                        });
                    } else {
                        self.enqueue_hop(batch, &mut st, si, hop + 1, chunk);
                    }
                }
                (
                    SimEvent::TransferAborted { .. },
                    Task::Hop {
                        sub: si,
                        hop,
                        chunk,
                    },
                ) => {
                    let at = st.sim.now();
                    let edge = batch.sub(si).hop_edge[hop];
                    return Err(self.fault_report(FaultKind::TransferAborted, at, edge, chunk));
                }
                (SimEvent::Timer { .. }, Task::HopDeadline { hop_task }) => {
                    let Task::Hop {
                        sub: si,
                        hop,
                        chunk,
                    } = st.tasks[hop_task]
                    else {
                        unreachable!("deadline timers reference hop tasks");
                    };
                    let open = st.subs[si].hops[hop].inflight;
                    if open.is_some_and(|f| f.token == hop_task) {
                        let at = st.sim.now();
                        let edge = batch.sub(si).hop_edge[hop];
                        return Err(self.fault_report(FaultKind::HopTimeout, at, edge, chunk));
                    }
                }
                (ev, task) => unreachable!("event/task mismatch: {ev:?} vs {task:?}"),
            }
        }

        // Completion audit (fault-aware runs only): the event queue
        // drained, so anything unfinalized now never finishes — report
        // a stall (the first sub's least unfinished sink) instead of
        // returning a silently incomplete batch.
        if self.faults.is_some() {
            for si in 0..batch.len() {
                let (sub, n) = (batch.sub(si), batch.shapes[si].n_chunks);
                let unfinished = sub
                    .sinks
                    .iter()
                    .filter_map(|&v| {
                        let v = v as usize;
                        let cells = &st.subs[si].finalized[v * n..(v + 1) * n];
                        cells.iter().position(|f| !f).map(|c| (sub.visits[v], c))
                    })
                    .min();
                if let Some((sink, chunk)) = unfinished {
                    return Err(FaultReport {
                        kind: FaultKind::Incomplete,
                        at: st.sim.now(),
                        links: Vec::new(),
                        suspects: self.suspects_of(sink.node),
                        hop: format!("sink {} missing chunk {chunk}", sink.node),
                    });
                }
            }
        }

        if self.telemetry.is_enabled() {
            self.telemetry
                .span("execute", "phase", 0.0, st.finish.as_secs());
            self.telemetry
                .add_counter("exec.bytes_on_wire", st.bytes_on_wire as f64);
            self.telemetry
                .add_counter("exec.requests", requests.len() as f64);
        }

        Ok(assemble(st))
    }

    fn apply(&self, batch: &Batch<'_>, st: &mut RunState<'_, '_>, action: Action) {
        match action {
            Action::Finalize {
                sub: si,
                visit,
                chunk,
            } => {
                let sub = batch.sub(si);
                let cell = visit * batch.shapes[si].n_chunks + chunk;
                if st.subs[si].finalized[cell] {
                    return;
                }
                st.subs[si].finalized[cell] = true;
                if sub.sink[visit] {
                    let ri = batch.request(si);
                    st.finish = st.finish.max(st.sim.now());
                    st.req_finish[ri] = st.req_finish[ri].max(st.sim.now());
                    if sub.kind != SubKind::PointToPoint {
                        write_output(batch, &mut st.data, si, visit, chunk);
                    }
                }
                if let Some((link, root)) = sub.chain.filter(|_| visit == sub.root as usize) {
                    // The chained broadcast's root reads this root's
                    // values in place; its chunk k is ready now.
                    st.worklist.push_back(Action::Finalize {
                        sub: batch.sibling(si, link),
                        visit: root as usize,
                        chunk,
                    });
                }
                st.worklist.push_back(Action::StartSegs {
                    sub: si,
                    visit,
                    chunk,
                });
            }
            Action::StartSegs {
                sub: si,
                visit,
                chunk,
            } => {
                let sub = batch.sub(si);
                for &seg in sub.out_segs(visit) {
                    let hop = sub.seg_hop[seg as usize] as usize;
                    self.enqueue_hop(batch, st, si, hop, chunk);
                }
            }
            Action::Deliver {
                sub: si,
                seg,
                chunk,
            } => {
                let end = batch.sub(si).segs[seg].1 as usize;
                if !st.data.out[si].is_empty() {
                    deliver(batch, &mut st.data, si, seg, chunk);
                }
                st.subs[si].arrived[end * batch.shapes[si].n_chunks + chunk] += 1;
                self.try_finalize(batch, st, si, end, chunk);
            }
        }
    }

    fn try_finalize(
        &self,
        batch: &Batch<'_>,
        st: &mut RunState<'_, '_>,
        si: usize,
        visit: usize,
        chunk: usize,
    ) {
        let sub = batch.sub(si);
        let cell = visit * batch.shapes[si].n_chunks + chunk;
        let need = sub.required[visit].max(1) as usize;
        if st.subs[si].arrived[cell] < need || st.subs[si].finalized[cell] {
            return;
        }
        if sub.kernel[visit].is_some() {
            if st.subs[si].kernels[visit].busy {
                st.subs[si].kernels[visit].queue.push_back(chunk);
            } else {
                self.start_kernel(batch, st, si, visit, chunk);
            }
        } else {
            st.worklist.push_back(Action::Finalize {
                sub: si,
                visit,
                chunk,
            });
        }
    }

    fn start_kernel(
        &self,
        batch: &Batch<'_>,
        st: &mut RunState<'_, '_>,
        si: usize,
        visit: usize,
        chunk: usize,
    ) {
        // Only kernel visits (lowered with their GPU's bandwidth) queue.
        let bw = batch.sub(si).kernel[visit].unwrap_or_default();
        let dur = kernel_launch_overhead() + bw.time_for(batch.shapes[si].chunk_bytes(chunk));
        st.subs[si].kernels[visit].busy = true;
        st.tasks.push(Task::Kernel {
            sub: si,
            visit,
            chunk,
        });
        let token = st.tasks.len() as u64 - 1;
        st.sim.schedule_timer(dur, token);
    }

    fn enqueue_hop(
        &self,
        batch: &Batch<'_>,
        st: &mut RunState<'_, '_>,
        si: usize,
        hop: usize,
        chunk: usize,
    ) {
        let now = st.sim.now();
        let state = &mut st.subs[si].hops[hop];
        if state.inflight.is_some() {
            state.queue.push_back((chunk, now));
        } else {
            self.start_hop(batch, st, si, hop, chunk, now);
        }
    }

    fn start_hop(
        &self,
        batch: &Batch<'_>,
        st: &mut RunState<'_, '_>,
        si: usize,
        hop: usize,
        chunk: usize,
        enqueued: SimTime,
    ) {
        let (sub, shape) = (batch.sub(si), &batch.shapes[si]);
        let path = batch.paths.get(sub.hop_edge[hop]);
        let bytes = if sub.kind == SubKind::PointToPoint {
            // Per-segment slice length bounds the chunk.
            let r = batch.p2p[si][sub.hop_seg[hop] as usize];
            let (a, b) = shape.chunk_range(chunk);
            ByteSize::from_bytes(((b.min(r.len)).saturating_sub(a) * 4) as u64)
        } else {
            shape.chunk_bytes(chunk)
        };
        st.bytes_on_wire += bytes.as_u64();
        st.tasks.push(Task::Hop {
            sub: si,
            hop,
            chunk,
        });
        let token = st.tasks.len() - 1;
        st.sim.submit_transfer(path, bytes, token as u64);
        st.subs[si].hops[hop].inflight = Some(InFlight {
            token,
            enqueued,
            start: st.sim.now(),
            bytes: bytes.as_u64(),
        });
        if self.faults.is_some() {
            // Stall detector: a deadline timer races the transfer. If
            // it fires while the hop is still open, the hop stalled.
            let deadline = self.hop_deadline(path, bytes);
            st.tasks.push(Task::HopDeadline { hop_task: token });
            let dl = st.tasks.len() as u64 - 1;
            st.sim.schedule_timer(deadline, dl);
        }
    }

    /// Deadline for one chunk transfer: the hop's uncontended α–β cost
    /// on ground-truth link data (nominal capacity scaled by any live
    /// capacity factors, per-flow caps honoured), times the configured
    /// multiplier, floored so tiny chunks do not trip on noise.
    fn hop_deadline(&self, path: &Path, bytes: ByteSize) -> SimDuration {
        let alpha = self.cluster.path_alpha(path);
        let mut bw = f64::INFINITY;
        for l in &path.links {
            let def = self.cluster.link(*l);
            let factor = self
                .factors
                .iter()
                .find(|(id, _)| id == l)
                .map_or(1.0, |(_, f)| *f);
            let mut b = def.capacity.as_bytes_per_sec() * factor;
            if let Some(cap) = def.per_flow_cap {
                b = b.min(cap.as_bytes_per_sec());
            }
            bw = bw.min(b);
        }
        let beta = if bw.is_finite() && bw > 0.0 {
            SimDuration::from_secs(bytes.as_f64() / bw)
        } else {
            SimDuration::ZERO
        };
        (alpha + beta)
            .scale(self.deadline_multiplier)
            .max(deadline_floor())
    }

    /// Classifies one faulted hop: which physical links it crossed and
    /// which ranks its endpoints implicate.
    fn fault_report(&self, kind: FaultKind, at: SimTime, edge: u32, chunk: usize) -> FaultReport {
        let edge = EdgeId(edge as usize);
        let e = self.topo.edge(edge);
        let links = hop_path(self.cluster, self.topo, edge).links;
        let mut suspects = self.suspects_of(e.from);
        suspects.extend(self.suspects_of(e.to));
        suspects.sort_unstable();
        suspects.dedup();
        FaultReport {
            kind,
            at,
            links,
            suspects,
            hop: format!("{}->{} chunk {chunk}", e.from, e.to),
        }
    }

    /// Ranks a faulted logical node implicates: the rank itself for a
    /// GPU, every rank of the instance for a NIC (losing the NIC cuts
    /// them all off the fabric).
    fn suspects_of(&self, node: LogicalNode) -> Vec<Rank> {
        match node {
            LogicalNode::Gpu(r) => vec![r],
            LogicalNode::Nic(inst) => (0..self.cluster.gpus_on(inst))
                .map(|local| self.cluster.rank_of(inst, local))
                .collect(),
        }
    }
}

// ---------- free helpers ----------

/// Moves a finished run's output tensors into per-request reports.
fn assemble(st: RunState<'_, '_>) -> BatchReport {
    let mut requests: Vec<RequestReport> = st
        .req_finish
        .iter()
        .map(|f| RequestReport {
            finish: *f,
            outputs: BTreeMap::new(),
        })
        .collect();
    let DataPlane {
        outputs, owners, ..
    } = st.data;
    for (buf, (ri, rank)) in outputs.into_iter().zip(owners) {
        requests[ri].outputs.insert(rank, buf);
    }
    BatchReport {
        finish: st.finish,
        requests,
        bytes_on_wire: st.bytes_on_wire,
        trace: st.trace,
    }
}

/// A tree sink's finalized chunk, written into its output tensor.
fn write_output(batch: &Batch<'_>, dp: &mut DataPlane<'_>, si: usize, visit: usize, chunk: usize) {
    let Some(&o) = dp.out[si].get(visit).filter(|o| **o != NO_OUTPUT) else {
        return;
    };
    let shape = &batch.shapes[si];
    let (a, b) = shape.chunk_range(chunk);
    if let Some(vals) = values(&dp.accs, dp.src[si][visit], a, b) {
        dp.outputs[o][shape.elem_off + a..shape.elem_off + b].copy_from_slice(vals);
    }
}

/// Moves chunk `chunk` of segment `seg` into its end visit: a Reduce
/// visit adds it into its accumulator, a point-to-point sink copies
/// its slice into the output tensor. Broadcast visits hold no values
/// of their own, so a Broadcast delivery moves none.
fn deliver(batch: &Batch<'_>, dp: &mut DataPlane<'_>, si: usize, seg: usize, chunk: usize) {
    let sub = batch.sub(si);
    let (start, end) = sub.segs[seg];
    let (start, end) = (start as usize, end as usize);
    let (a, b) = batch.shapes[si].chunk_range(chunk);
    match sub.kind {
        SubKind::PointToPoint => {
            let r = batch.p2p[si][seg];
            let b = b.min(r.len);
            let o = dp.out[si][end];
            if a < b && o != NO_OUTPUT {
                let src = &dp.p2p_src[si][seg][r.src_off + a..r.src_off + b];
                dp.outputs[o][r.dst_off + a..r.dst_off + b].copy_from_slice(src);
            }
        }
        SubKind::Reduce => {
            // Visits with an incoming segment accumulate.
            let Src::Acc(d) = dp.src[si][end] else {
                return;
            };
            let mut acc = std::mem::take(&mut dp.accs[d]);
            match values(&dp.accs, dp.src[si][start], a, b) {
                Some(vals) => {
                    for (x, v) in acc[a..b].iter_mut().zip(vals) {
                        *x += v;
                    }
                }
                // A contributor without data adds zeros, as a zeroed
                // buffer would (which turns a -0.0 sum into +0.0).
                None => {
                    for x in &mut acc[a..b] {
                        *x += 0.0;
                    }
                }
            }
            dp.accs[d] = acc;
        }
        SubKind::Broadcast => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_profile::profiler::{LinkProfile, Profiler};
    use adapcc_simnet::cluster::Cluster;
    use adapcc_synth::solver::{SynthRequest, Synthesizer};
    use adapcc_topo::detect::Detector;

    fn setup(cluster: &Cluster) -> (LogicalTopology, LinkProfile) {
        let topo = Detector::new(cluster, 1).run().logical_topology(cluster);
        let profile = Profiler::new(cluster, &topo, 1).without_noise().run().links;
        (topo, profile)
    }

    fn inputs_for(ranks: &[Rank], elems: usize) -> BTreeMap<Rank, Vec<f32>> {
        ranks
            .iter()
            .map(|r| {
                let buf: Vec<f32> = (0..elems)
                    .map(|i| ((r.0 * 31 + i * 7) % 97) as f32 / 9.0)
                    .collect();
                (*r, buf)
            })
            .collect()
    }

    #[test]
    fn reduce_computes_exact_sum() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_kib(64);
        let elems = 64 * 1024 / 4;
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::Reduce,
            tensor,
            3,
            ranks.clone(),
        ));
        let inputs = inputs_for(&ranks, elems);
        let exec = Executor::new(&c, &topo);
        let report = exec
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        let root = strategy.subs[0].root.expect("rooted");
        let out = &report.requests[0].outputs[&root];
        for i in [0usize, 1, elems / 2, elems - 1] {
            let expect: f32 = ranks.iter().map(|r| inputs[r][i]).sum();
            assert!(
                (out[i] - expect).abs() < 1e-3,
                "elem {i}: got {} want {expect}",
                out[i]
            );
        }
    }

    #[test]
    fn allreduce_delivers_sum_everywhere() {
        let c = Cluster::heterogeneous_2a100_2v100();
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..16).map(Rank).collect();
        let tensor = ByteSize::from_kib(256);
        let elems = 256 * 1024 / 4;
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            4,
            ranks.clone(),
        ));
        let inputs = inputs_for(&ranks, elems);
        let exec = Executor::new(&c, &topo);
        let report = exec
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        let outputs = &report.requests[0].outputs;
        assert_eq!(outputs.len(), 16, "every rank gets the aggregate");
        for r in &ranks {
            let out = &outputs[r];
            for i in [0usize, elems / 3, elems - 1] {
                let expect: f32 = ranks.iter().map(|x| inputs[x][i]).sum();
                assert!(
                    (out[i] - expect).abs() < 1e-2,
                    "rank {r} elem {i}: got {} want {expect}",
                    out[i]
                );
            }
        }
    }

    #[test]
    fn broadcast_copies_root_tensor() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_kib(64);
        let elems = 64 * 1024 / 4;
        let mut req = SynthRequest::new(Primitive::Broadcast, tensor, 2, ranks.clone());
        req.root = Some(Rank(2));
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&req);
        let inputs = inputs_for(&ranks, elems);
        let exec = Executor::new(&c, &topo);
        let report = exec
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        for (r, out) in &report.requests[0].outputs {
            assert_ne!(*r, Rank(2));
            assert_eq!(out, &inputs[&Rank(2)], "rank {r} must hold root's tensor");
        }
    }

    #[test]
    fn alltoall_transposes_shards() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        // 8 ranks, shard-aligned tensor: 8 shards of 512 elements.
        let tensor = ByteSize::from_bytes(8 * 512 * 4);
        let elems = 8 * 512;
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllToAll,
            tensor,
            2,
            ranks.clone(),
        ));
        let inputs = inputs_for(&ranks, elems);
        let exec = Executor::new(&c, &topo);
        let report = exec
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        let shard = 512;
        for (j, dst) in ranks.iter().enumerate() {
            let out = &report.requests[0].outputs[dst];
            for (i, src) in ranks.iter().enumerate() {
                // Shard i of dst's output == shard j of src's input.
                let got = &out[i * shard..(i + 1) * shard];
                let want = &inputs[src][j * shard..(j + 1) * shard];
                assert_eq!(got, want, "dst {dst} src {src}");
            }
        }
    }

    #[test]
    fn straggler_delays_completion() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_mib(16);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            2,
            ranks,
        ));
        let exec = Executor::new(&c, &topo);
        let fast = exec.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        let mut ready = BTreeMap::new();
        ready.insert(Rank(5), SimTime::from_secs(0.5));
        let slow = exec.execute(&[ExecutionRequest::timing(&strategy, tensor).with_ready(ready)]);
        assert!(slow.finish.as_secs() > 0.5);
        assert!(fast.finish.as_secs() < 0.1);
    }

    #[test]
    fn more_parallelism_helps_on_tcp() {
        let mut b = adapcc_simnet::cluster::ClusterBuilder::new();
        b.add_instances(
            adapcc_simnet::hardware::InstanceSpec::a100_server().with_tcp(),
            4,
        );
        let c = b.build();
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..16).map(Rank).collect();
        let tensor = ByteSize::from_mib(64);
        let exec = Executor::new(&c, &topo);
        let time_for = |m: usize| {
            let s = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
                Primitive::AllReduce,
                tensor,
                m,
                ranks.clone(),
            ));
            exec.execute(&[ExecutionRequest::timing(&s, tensor)])
                .finish
                .as_secs()
        };
        let m1 = time_for(1);
        let m4 = time_for(4);
        // One TCP stream is capped at 20 Gbps; four parallel
        // sub-collectives aggregate toward the 100 Gbps line rate.
        assert!(m4 < m1 * 0.75, "m1={m1} m4={m4}");
    }

    #[test]
    fn timing_only_run_produces_no_outputs() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_mib(32);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            4,
            ranks,
        ));
        let exec = Executor::new(&c, &topo);
        let report = exec.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        assert!(report.requests[0].outputs.is_empty());
        assert!(report.bytes_on_wire > tensor.as_u64());
        assert!(report.finish.as_secs() > 0.0);
    }

    #[test]
    fn deterministic_execution() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..24).map(Rank).collect();
        let tensor = ByteSize::from_mib(32);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            4,
            ranks,
        ));
        let exec = Executor::new(&c, &topo);
        let a = exec.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        let b = exec.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        assert_eq!(a.finish.as_secs().to_bits(), b.finish.as_secs().to_bits());
        assert_eq!(a.bytes_on_wire, b.bytes_on_wire);
    }

    #[test]
    fn tracing_records_every_hop_consistently() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_mib(8);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            2,
            ranks,
        ));
        let traced = Executor::new(&c, &topo).with_tracing();
        let report = traced.execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        assert!(!report.trace.is_empty());
        for span in &report.trace {
            assert!(span.end >= span.start, "{span:?}");
            assert!(span.end <= report.finish);
            assert!(span.hop.contains("->"));
        }
        // Timeline renders one line per span.
        let timeline = report.timeline();
        assert_eq!(timeline.lines().count(), report.trace.len());
        // Untraced runs stay lean and agree on timing.
        let plain =
            Executor::new(&c, &topo).execute(&[ExecutionRequest::timing(&strategy, tensor)]);
        assert!(plain.trace.is_empty());
        assert_eq!(plain.finish, report.finish);
    }

    #[test]
    fn nic_failure_aborts_and_classifies() {
        use adapcc_simnet::cluster::InstanceId;
        use adapcc_simnet::faults::Fault;
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_kib(256);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            3,
            ranks,
        ));
        let schedule = FaultSchedule::new().with(Fault::NicFail {
            instance: InstanceId(1),
            at: SimTime::ZERO,
        });
        let exec = Executor::new(&c, &topo).with_fault_schedule(schedule, SimTime::ZERO);
        let err = exec
            .try_execute(&[ExecutionRequest::timing(&strategy, tensor)])
            .expect_err("the dead NIC must abort the collective");
        let AdapCCError::Fault(report) = err else {
            panic!("expected a classified fault, got {err}");
        };
        assert_eq!(report.kind, FaultKind::TransferAborted);
        assert!(report.is_permanent());
        assert!(
            report.suspects.iter().any(|r| r.0 >= 4),
            "suspects {:?} must implicate the dead instance",
            report.suspects
        );
    }

    #[test]
    fn stalled_link_trips_the_hop_deadline() {
        use adapcc_simnet::cluster::InstanceId;
        use adapcc_simnet::faults::{nic_links, Fault};
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_mib(4);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            3,
            ranks,
        ));
        // Every NIC link of instance 0 flaps for far longer than the
        // collective: inter-instance hops stall at rate zero.
        let downed = nic_links(&c, InstanceId(0));
        let mut schedule = FaultSchedule::new();
        for l in &downed {
            schedule.push(Fault::LinkDown {
                link: *l,
                from: SimTime::ZERO,
                until: SimTime::from_secs(30.0),
            });
        }
        let exec = Executor::new(&c, &topo).with_fault_schedule(schedule, SimTime::ZERO);
        let err = exec
            .try_execute(&[ExecutionRequest::timing(&strategy, tensor)])
            .expect_err("stalled hops must trip their deadline");
        let AdapCCError::Fault(report) = err else {
            panic!("expected a classified fault, got {err}");
        };
        assert_eq!(report.kind, FaultKind::HopTimeout);
        assert!(!report.is_permanent());
        assert!(
            report.links.iter().any(|l| downed.contains(l)),
            "faulted hop links {:?} must cross a downed link {downed:?}",
            report.links
        );
    }

    #[test]
    fn empty_schedule_is_behavior_neutral() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_kib(64);
        let elems = 64 * 1024 / 4;
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            3,
            ranks.clone(),
        ));
        let inputs = inputs_for(&ranks, elems);
        let plain = Executor::new(&c, &topo)
            .execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
        let guarded = Executor::new(&c, &topo)
            .with_fault_schedule(FaultSchedule::new(), SimTime::ZERO)
            .try_execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs)])
            .expect("empty schedule cannot fault");
        assert_eq!(
            plain.finish, guarded.finish,
            "deadlines must not perturb timing"
        );
        for r in &ranks {
            assert_eq!(
                plain.requests[0].outputs[r], guarded.requests[0].outputs[r],
                "bitwise-identical outputs for {r}"
            );
        }
    }

    #[test]
    fn misaligned_tensor_is_invalid_request() {
        let c = Cluster::homogeneous_a100(1);
        let (topo, profile) = setup(&c);
        let ranks: Vec<Rank> = (0..4).map(Rank).collect();
        let tensor = ByteSize::from_kib(64);
        let strategy = Synthesizer::new(&topo, &profile).synthesize(&SynthRequest::new(
            Primitive::AllReduce,
            tensor,
            2,
            ranks,
        ));
        let exec = Executor::new(&c, &topo);
        let err = exec
            .try_execute(&[ExecutionRequest::timing(
                &strategy,
                ByteSize::from_bytes(1002),
            )])
            .expect_err("odd byte count is not f32-aligned");
        assert!(
            matches!(&err, AdapCCError::InvalidRequest(msg) if msg.contains("f32-aligned")),
            "{err}"
        );
    }

    /// A one-sub strategy over `flows` (given as node chains) on
    /// `topo`, aggregating at `aggregate`.
    fn hand_built(
        topo: &LogicalTopology,
        primitive: Primitive,
        root: Option<Rank>,
        chains: &[&[LogicalNode]],
        aggregate: &[LogicalNode],
    ) -> Strategy {
        use adapcc_synth::strategy::{Flow, SubCollective};
        let flows = chains
            .iter()
            .map(|nodes| Flow {
                src: nodes[0],
                dst: nodes[nodes.len() - 1],
                route: nodes
                    .windows(2)
                    .map(|w| topo.edge_between(w[0], w[1]).expect("edge"))
                    .collect(),
            })
            .collect();
        let strategy = Strategy {
            primitive,
            subs: vec![SubCollective {
                fraction: 1.0,
                chunk: ByteSize::from_kib(4),
                root,
                flows,
                aggregate: aggregate.iter().map(|n| (*n, true)).collect(),
            }],
        };
        assert_eq!(
            strategy.validate(topo),
            Ok(()),
            "hand-built strategies validate"
        );
        strategy
    }

    fn invalid_request(exec: &Executor<'_>, strategy: &Strategy, elems: usize) -> String {
        let ranks: Vec<Rank> = (0..8).map(Rank).collect();
        let tensor = ByteSize::from_bytes((elems * 4) as u64);
        let request =
            ExecutionRequest::timing(strategy, tensor).with_inputs(inputs_for(&ranks, elems));
        match exec.try_execute(&[request]) {
            Err(AdapCCError::InvalidRequest(msg)) => msg,
            other => panic!("expected an invalid request, got {other:?}"),
        }
    }

    #[test]
    fn aggregating_at_a_nic_is_an_invalid_request() {
        use adapcc_simnet::cluster::InstanceId;
        let c = Cluster::homogeneous_a100(2);
        let (topo, _) = setup(&c);
        let (g, nic) = (
            |r: usize| LogicalNode::Gpu(Rank(r)),
            |i: usize| LogicalNode::Nic(InstanceId(i)),
        );
        // Two flows meet at nic1, which claims to aggregate them.
        let strategy = hand_built(
            &topo,
            Primitive::Reduce,
            Some(Rank(0)),
            &[&[g(4), nic(1), nic(0), g(0)], &[g(5), nic(1), nic(0), g(0)]],
            &[nic(1), g(0)],
        );
        let msg = invalid_request(&Executor::new(&c, &topo), &strategy, 1024);
        assert!(msg.contains("kernels run on GPUs only"), "{msg}");
    }

    #[test]
    fn alltoall_flows_touching_a_nic_are_invalid_requests() {
        use adapcc_simnet::cluster::InstanceId;
        let c = Cluster::homogeneous_a100(2);
        let (topo, _) = setup(&c);
        let (g, nic) = (
            |r: usize| LogicalNode::Gpu(Rank(r)),
            |i: usize| LogicalNode::Nic(InstanceId(i)),
        );
        let exec = Executor::new(&c, &topo);
        // A NIC as the sender: no tensor to read the message from.
        let from_nic = hand_built(
            &topo,
            Primitive::AllToAll,
            None,
            &[&[g(0), nic(0), nic(1), g(4)], &[nic(1), g(5)]],
            &[],
        );
        let msg = invalid_request(&exec, &from_nic, 384);
        assert!(msg.contains("alltoall flows connect GPUs"), "{msg}");
        // A NIC as the receiver: no tensor to land the message in.
        let to_nic = hand_built(
            &topo,
            Primitive::AllToAll,
            None,
            &[&[g(4), nic(1), nic(0)], &[g(0), nic(0), nic(1), g(4)]],
            &[],
        );
        let msg = invalid_request(&exec, &to_nic, 384);
        assert!(msg.contains("alltoall flows connect GPUs"), "{msg}");
    }
}
