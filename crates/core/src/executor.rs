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
//! Lowering numbers every node visit of a sub densely in one walk of
//! its flows, so all per-visit, per-segment and per-hop state of a run
//! lives in vectors indexed by those ids. Data buffers exist only at
//! Reduce visits that receive data over a segment, where inputs
//! combine; leaves are read in the caller's buffers, relay hops and
//! Broadcast visits hold nothing (a Broadcast visit reads its origin),
//! and sinks write finalized chunks straight into the output tensors
//! (DESIGN.md, "Executor: lowered tables and the data plane").

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};

use adapcc_simnet::cluster::{Cluster, Path, Rank};
use adapcc_simnet::engine::{NetSim, SimEvent};
use adapcc_simnet::faults::FaultSchedule;
use adapcc_simnet::hardware::kernel_launch_overhead;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::{Bandwidth, ByteSize};
use adapcc_synth::primitive::Primitive;
use adapcc_synth::strategy::Strategy;
use adapcc_topo::logical::{EdgeId, EdgeKind, LogicalNode, LogicalTopology};

use crate::error::{AdapCCError, FaultKind, FaultReport};

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
}

impl<'a> ExecutionRequest<'a> {
    /// A timing-only request with all workers ready at time zero.
    pub fn timing(strategy: &'a Strategy, tensor: ByteSize) -> Self {
        ExecutionRequest {
            strategy,
            tensor,
            ready: BTreeMap::new(),
            inputs: None,
        }
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
}

// ---------- lowered IR ----------

/// "No entry" in the dense per-visit tables.
const NONE: usize = usize::MAX;

/// A node *visit*: routes may legitimately revisit a node (a broadcast
/// enters a NIC, descends to the instance leader, and leaves through
/// the same NIC), and each visit needs independent chunk state. `gen`
/// is the number of earlier occurrences of `node` on the same route;
/// flows sharing a route prefix share generations, so segment
/// deduplication still collapses common prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct VNode {
    node: LogicalNode,
    gen: u8,
}

impl VNode {
    fn first(node: LogicalNode) -> Self {
        VNode { node, gen: 0 }
    }
}

/// A route stretch between two visits (by visit id).
#[derive(Debug)]
struct Segment {
    start: usize,
    end: usize,
    edges: Vec<EdgeId>,
}

/// One hop of a segment; a sub's hops are numbered densely, segment
/// by segment, so a segment's next hop is the next id.
#[derive(Debug, Clone, Copy)]
struct Hop {
    seg: usize,
    /// Whether this hop ends its segment.
    last: bool,
    edge: EdgeId,
    /// Index of the hop's physical path in [`Lowered::paths`].
    path: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubKind {
    Reduce,
    Broadcast,
    PointToPoint,
}

/// Point-to-point data mapping of one segment: source tensor offset,
/// sink tensor offset, slice length in elements.
#[derive(Debug, Clone, Copy)]
struct P2pRange {
    src_off: usize,
    dst_off: usize,
    len: usize,
}

/// One lowered sub-collective. Every `Vec` named "per visit" is
/// indexed by visit id.
#[derive(Debug)]
struct LoweredSub {
    request: usize,
    kind: SubKind,
    /// Element range of the tensor this sub carries (tree kinds).
    elem_off: usize,
    elem_len: usize,
    chunk_elems: usize,
    n_chunks: usize,
    /// Per visit: the node visit it stands for.
    visits: Vec<VNode>,
    /// Per visit: inputs required to finalize a chunk (incoming
    /// segments plus one if the visit contributes its own data).
    required: Vec<usize>,
    /// Per visit: whether the visit contributes its own data.
    own: Vec<bool>,
    /// Per visit: the reduction bandwidth of the GPU whose
    /// aggregation kernel the visit runs, if it runs one.
    kernel: Vec<Option<Bandwidth>>,
    /// Per visit: whether the sub delivers its result here.
    sink: Vec<bool>,
    /// Sink visits, each once.
    sinks: Vec<usize>,
    /// Contributing visits, sorted by node visit: the order their
    /// readiness timers are scheduled in.
    contributors: Vec<usize>,
    segments: Vec<Segment>,
    /// First hop of each segment.
    seg_hop: Vec<usize>,
    hops: Vec<Hop>,
    /// Outgoing segments per visit, in segment order:
    /// `out_segs[out_start[v]..out_start[v + 1]]`.
    out_start: Vec<usize>,
    out_segs: Vec<usize>,
    /// The root's visit ([`NONE`] for rootless subs).
    root: usize,
    /// AllReduce stage chaining, on the Reduce stage: when this sub's
    /// root finalizes chunk k, chunk k finalizes at visit `.1` of sub
    /// `.0` (the reverse Broadcast's root).
    chain: Option<(usize, usize)>,
    /// The same link seen from the reverse Broadcast: its root is fed
    /// chunk by chunk by visit `.1` of Reduce sub `.0`, never seeded.
    fed_by: Option<(usize, usize)>,
    /// Per segment (point-to-point only).
    p2p_ranges: Vec<P2pRange>,
}

impl LoweredSub {
    /// Element range `[a, b)` of chunk `k`, relative to the sub's
    /// partition.
    fn chunk_range(&self, k: usize) -> (usize, usize) {
        let a = (k * self.chunk_elems).min(self.elem_len);
        let b = ((k + 1) * self.chunk_elems).min(self.elem_len);
        (a, b)
    }

    fn chunk_bytes(&self, k: usize) -> ByteSize {
        let (a, b) = self.chunk_range(k);
        ByteSize::from_bytes(((b - a) * 4) as u64)
    }
}

/// Dense numbering of the fleet's logical nodes: GPUs by rank, then
/// NICs by instance.
#[derive(Debug, Clone, Copy)]
struct NodeSlots {
    gpus: usize,
    len: usize,
}

impl NodeSlots {
    fn of(self, node: LogicalNode) -> Option<usize> {
        match node {
            LogicalNode::Gpu(r) => (r.0 < self.gpus).then_some(r.0),
            LogicalNode::Nic(i) => (self.gpus + i.0 < self.len).then_some(self.gpus + i.0),
        }
    }
}

/// A lowered batch: the subs of every request, and the physical path
/// of every logical edge they cross, built once per batch.
struct Lowered {
    subs: Vec<LoweredSub>,
    slots: NodeSlots,
    paths: Vec<Path>,
    /// Per logical edge: its index in `paths` ([`NONE`] until a hop
    /// crosses it).
    path_of: Vec<usize>,
    /// Per logical edge: its duplex twin ([`NONE`] until a reverse
    /// stage crosses it).
    twin_of: Vec<usize>,
}

impl Lowered {
    /// The duplex twin of `e` (its opposite-direction edge).
    fn twin(&mut self, topo: &LogicalTopology, e: EdgeId) -> Result<EdgeId, AdapCCError> {
        if self.twin_of[e.0] == NONE {
            let d = topo.edge(e);
            let t = topo.edge_between(d.to, d.from).ok_or_else(|| {
                AdapCCError::InvalidRequest(format!(
                    "edge {}->{} has no reverse twin",
                    d.from, d.to
                ))
            })?;
            self.twin_of[e.0] = t.0;
        }
        Ok(EdgeId(self.twin_of[e.0]))
    }
}

/// Dense visit numbering of one sub, assigned in first-seen order.
struct Visits {
    slots: NodeSlots,
    /// Per node slot: the node's first visit ([`NONE`] if unvisited).
    first: Vec<usize>,
    /// Every other visit: re-entries, and nodes outside the slots.
    later: HashMap<VNode, usize>,
    nodes: Vec<VNode>,
}

impl Visits {
    fn new(slots: NodeSlots) -> Self {
        Visits {
            slots,
            first: vec![NONE; slots.len],
            later: HashMap::new(),
            nodes: Vec::new(),
        }
    }

    fn intern(&mut self, v: VNode) -> usize {
        let next = self.nodes.len();
        let id = match self.slots.of(v.node).filter(|_| v.gen == 0) {
            Some(s) => {
                if self.first[s] == NONE {
                    self.first[s] = next;
                }
                self.first[s]
            }
            None => *self.later.entry(v).or_insert(next),
        };
        if id == next {
            self.nodes.push(v);
        }
        id
    }
}

/// What a sub looks like before its tables are derived: its element
/// range and chunking, visits, deduplicated segments (in first-seen
/// order), the visits that contribute data, and the sink visits.
struct SubGraph {
    kind: SubKind,
    elem_off: usize,
    elem_len: usize,
    chunk_elems: usize,
    visits: Visits,
    segments: Vec<Segment>,
    own: Vec<usize>,
    sinks: Vec<usize>,
    p2p_ranges: Vec<P2pRange>,
}

impl SubGraph {
    fn new(kind: SubKind, slots: NodeSlots, elem_off: usize, elem_len: usize) -> Self {
        SubGraph {
            kind,
            elem_off,
            elem_len,
            chunk_elems: 1,
            visits: Visits::new(slots),
            segments: Vec::new(),
            own: Vec::new(),
            sinks: Vec::new(),
            p2p_ranges: Vec::new(),
        }
    }
}

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
    /// Per sub, per visit: the output buffer a sink writes ([`NONE`]
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
        }
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
            if let Err(e) = r.strategy.validate(self.topo) {
                return Err(AdapCCError::InvalidRequest(format!(
                    "strategy must validate before execution: {e:?}"
                )));
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
        let mut lowered = Lowered {
            subs: Vec::new(),
            slots: NodeSlots {
                gpus: self.cluster.gpu_count(),
                len: self.cluster.gpu_count() + self.cluster.instance_count(),
            },
            paths: Vec::new(),
            path_of: vec![NONE; self.topo.edge_count()],
            twin_of: vec![NONE; self.topo.edge_count()],
        };
        for (ri, r) in requests.iter().enumerate() {
            self.lower_request(ri, r, &mut lowered)?;
        }
        self.run(requests, &lowered).map_err(AdapCCError::Fault)
    }

    // ---------- lowering ----------

    fn lower_request(
        &self,
        ri: usize,
        req: &ExecutionRequest<'_>,
        out: &mut Lowered,
    ) -> Result<(), AdapCCError> {
        let elems = (req.tensor.as_u64() / 4) as usize;
        let strategy = req.strategy;
        match strategy.primitive {
            Primitive::Reduce | Primitive::ReduceScatter => {
                self.lower_tree(ri, strategy, elems, SubKind::Reduce, out)
            }
            Primitive::Broadcast | Primitive::AllGather => {
                self.lower_tree(ri, strategy, elems, SubKind::Broadcast, out)
            }
            Primitive::AllReduce => {
                // The Reduce, then its reverse Broadcast: the same flows
                // run backwards (`Strategy::reversed`, without building
                // the reversed strategy).
                let base = out.subs.len();
                let n_subs = strategy.subs.len();
                self.lower_tree(ri, strategy, elems, SubKind::Reduce, out)?;
                self.lower_tree(ri, strategy, elems, SubKind::Broadcast, out)?;
                for m in 0..n_subs {
                    let (r, b) = (base + m, base + n_subs + m);
                    let (rv, bv) = (out.subs[r].root, out.subs[b].root);
                    if rv != NONE && bv != NONE {
                        out.subs[r].chain = Some((b, bv));
                        out.subs[b].fed_by = Some((r, rv));
                    }
                }
                Ok(())
            }
            Primitive::AllToAll => self.lower_alltoall(ri, strategy, elems, out),
        }
    }

    /// Lowers every sub of a Reduce or Broadcast tree. A Broadcast of
    /// an AllReduce strategy is its reverse stage: every flow runs from
    /// its destination back to its source over the duplex twins of its
    /// edges, and no node aggregates.
    fn lower_tree(
        &self,
        ri: usize,
        strategy: &Strategy,
        elems: usize,
        kind: SubKind,
        out: &mut Lowered,
    ) -> Result<(), AdapCCError> {
        let reverse = kind == SubKind::Broadcast && strategy.primitive == Primitive::AllReduce;
        let parts = partition_elems(strategy, elems);
        let mut route: Vec<EdgeId> = Vec::new();
        for (m, sub) in strategy.subs.iter().enumerate() {
            let (off, len) = parts[m];
            // Every flow as (src, dst, end of its route in `route`), in
            // execution direction.
            route.clear();
            let mut flows = Vec::with_capacity(sub.flows.len());
            for f in &sub.flows {
                if reverse {
                    for e in f.route.iter().rev() {
                        route.push(out.twin(self.topo, *e)?);
                    }
                    flows.push((f.dst, f.src, route.len()));
                } else {
                    route.extend_from_slice(&f.route);
                    flows.push((f.src, f.dst, route.len()));
                }
            }
            let routes = || {
                flows.iter().scan(0, |from, &(src, dst, to)| {
                    let edges = &route[*from..to];
                    *from = to;
                    Some((src, dst, edges))
                })
            };
            // Broadcast replicas on a shared route prefix must ride the
            // wire once: split segments at fan-out nodes (distinct
            // successors among flows) so identical prefixes dedup.
            // Split also at every flow *destination*: in a chain
            // broadcast one replica stops where others pass through,
            // and only a boundary there lets the shared prefix dedup.
            let slots = out.slots;
            let mut fan_out = vec![false; slots.len];
            if kind == SubKind::Broadcast {
                let mut succ = vec![NONE; slots.len];
                for (src, dst, edges) in routes() {
                    let mut here = slots.of(src);
                    for e in edges {
                        let next = slots.of(self.topo.edge(*e).to);
                        if let (Some(h), Some(n)) = (here, next) {
                            if succ[h] == NONE {
                                succ[h] = n;
                            } else if succ[h] != n {
                                fan_out[h] = true;
                            }
                        }
                        here = next;
                    }
                    if let Some(d) = slots.of(dst) {
                        fan_out[d] = true;
                    }
                }
            }
            let mut g = SubGraph::new(kind, slots, off, len);
            g.chunk_elems = ((sub.chunk.as_u64() / 4) as usize).clamp(1, len.max(1));
            // Segments by content, keyed `[start, end, edges..]` so a
            // repeated one is found without building it.
            let mut seg_id: HashMap<Vec<usize>, usize> = HashMap::new();
            let mut key: Vec<usize> = Vec::new();
            let mut aggregates = vec![false; slots.len];
            for (n, on) in &sub.aggregate {
                if let Some(s) = slots.of(*n).filter(|_| *on && !reverse) {
                    aggregates[s] = true;
                }
            }
            let aggregates_at = |n: LogicalNode| slots.of(n).is_some_and(|s| aggregates[s]);
            let splits_at = |n: LogicalNode| slots.of(n).is_some_and(|s| fan_out[s]);
            // Per-flow visit generations: (node, visits so far).
            let mut gens: Vec<(LogicalNode, u8)> = Vec::new();
            for (src, dst, edges) in routes() {
                // Walk the route with per-flow visit generations so a
                // re-entered node gets independent chunk state.
                gens.clear();
                gens.push((src, 1));
                let mut seg_start = VNode::first(src);
                let mut seg_from = 0;
                let mut sink = seg_start;
                for (i, e) in edges.iter().enumerate() {
                    let to = self.topo.edge(*e).to;
                    let gen = match gens.iter_mut().find(|(n, _)| *n == to) {
                        Some((_, seen)) => {
                            *seen += 1;
                            *seen - 1
                        }
                        None => {
                            gens.push((to, 1));
                            0
                        }
                    };
                    let here = VNode { node: to, gen };
                    sink = here;
                    if aggregates_at(to) || to == dst || splits_at(to) {
                        let (start, end) = (g.visits.intern(seg_start), g.visits.intern(here));
                        let stretch = &edges[seg_from..=i];
                        key.clear();
                        key.extend([start, end]);
                        key.extend(stretch.iter().map(|e| e.0));
                        if !seg_id.contains_key(key.as_slice()) {
                            seg_id.insert(key.clone(), g.segments.len());
                            g.segments.push(Segment {
                                start,
                                end,
                                edges: stretch.to_vec(),
                            });
                        }
                        seg_start = here;
                        seg_from = i + 1;
                    }
                }
                match kind {
                    // The root participates with its own tensor too.
                    SubKind::Reduce => g.own.push(g.visits.intern(VNode::first(src))),
                    _ => g.sinks.push(g.visits.intern(sink)),
                }
            }
            let root = sub
                .root
                .map(|r| g.visits.intern(VNode::first(LogicalNode::Gpu(r))));
            let first = |g: &mut SubGraph, node: Option<LogicalNode>| {
                root.or_else(|| node.map(|n| g.visits.intern(VNode::first(n))))
            };
            let ends = flows.first().map(|(src, dst, _)| (*src, *dst));
            if kind == SubKind::Reduce {
                g.own.extend(root);
                let sink = first(&mut g, ends.map(|(_, dst)| dst));
                g.sinks.extend(sink);
            } else {
                let origin = first(&mut g, ends.map(|(src, _)| src));
                g.own.extend(origin);
            }
            let mut lowered = self.tables(ri, g, out);
            lowered.root = root.unwrap_or(NONE);
            for (v, node) in lowered.visits.iter().enumerate() {
                if kind == SubKind::Reduce && aggregates_at(node.node) && lowered.required[v] >= 2 {
                    let LogicalNode::Gpu(rank) = node.node else {
                        return Err(AdapCCError::InvalidRequest(format!(
                            "sub-collective {m} aggregates at {}: kernels run on GPUs only",
                            node.node
                        )));
                    };
                    let (inst, _) = self.cluster.locate(rank);
                    lowered.kernel[v] = Some(self.cluster.spec(inst).gpu.reduce_bandwidth());
                }
            }
            out.subs.push(lowered);
        }
        Ok(())
    }

    fn lower_alltoall(
        &self,
        ri: usize,
        strategy: &Strategy,
        elems: usize,
        out: &mut Lowered,
    ) -> Result<(), AdapCCError> {
        let participants = strategy.participants();
        let n = participants.len().max(1);
        let shard_sizes = split_elems(elems, n);
        let mut shard_off = vec![0usize; n];
        for j in 1..n {
            shard_off[j] = shard_off[j - 1] + shard_sizes[j - 1];
        }
        let fracs: Vec<f64> = strategy.subs.iter().map(|s| s.fraction).collect();
        for (m, sub) in strategy.subs.iter().enumerate() {
            let mut g = SubGraph::new(SubKind::PointToPoint, out.slots, 0, 0);
            let mut max_len = 0usize;
            for f in &sub.flows {
                let (LogicalNode::Gpu(src), LogicalNode::Gpu(dst)) = (f.src, f.dst) else {
                    return Err(AdapCCError::InvalidRequest(format!(
                        "alltoall flows connect GPUs: sub-collective {m} has a flow {}->{}",
                        f.src, f.dst
                    )));
                };
                if f.route.is_empty() {
                    return Err(AdapCCError::InvalidRequest(format!(
                        "alltoall flow {}->{} of sub-collective {m} has no route",
                        f.src, f.dst
                    )));
                }
                // Participants are sorted, so a flow's endpoints index
                // them by binary search.
                let si = participants.binary_search(&src).unwrap_or(0);
                let di = participants.binary_search(&dst).unwrap_or(0);
                // Message src->dst: shard `di` of src's tensor, landing at
                // shard `si` of dst's tensor. Sub m carries its slice.
                let (s_off, s_len) = frac_slice(shard_sizes[di], &fracs, m);
                let (d_off, _d_len) = frac_slice(shard_sizes[si], &fracs, m);
                // Every GPU is both a source and a sink in AlltoAll; the
                // two roles get distinct visit generations (gen 0 sends,
                // gen 1 receives) so a source's own readiness cannot
                // finalize its sink state.
                let start = g.visits.intern(VNode::first(f.src));
                let sink = g.visits.intern(VNode {
                    node: f.dst,
                    gen: 1,
                });
                g.segments.push(Segment {
                    start,
                    end: sink,
                    edges: f.route.clone(),
                });
                g.p2p_ranges.push(P2pRange {
                    src_off: shard_off[di] + s_off,
                    dst_off: shard_off[si] + d_off,
                    len: s_len,
                });
                max_len = max_len.max(s_len);
                g.own.push(start);
                g.sinks.push(sink);
            }
            g.elem_len = max_len;
            g.chunk_elems = ((sub.chunk.as_u64() / 4) as usize).clamp(1, max_len.max(1));
            let lowered = self.tables(ri, g, out);
            out.subs.push(lowered);
        }
        Ok(())
    }

    /// Derives a sub's dense tables from its graph: per-visit input
    /// counts, sink and contributor flags, the outgoing segments of
    /// every visit, and every hop with its interned physical path.
    fn tables(&self, ri: usize, g: SubGraph, out: &mut Lowered) -> LoweredSub {
        let SubGraph {
            kind,
            elem_off,
            elem_len,
            chunk_elems,
            visits,
            segments,
            own: own_list,
            sinks: sink_list,
            p2p_ranges,
        } = g;
        let visits = visits.nodes;
        let n = visits.len();
        let mut own = vec![false; n];
        let mut contributors = Vec::new();
        for v in own_list {
            if !own[v] {
                own[v] = true;
                contributors.push(v);
            }
        }
        contributors.sort_unstable_by_key(|v| visits[*v]);
        let mut sink = vec![false; n];
        let mut sinks = Vec::new();
        for v in sink_list {
            if !sink[v] {
                sink[v] = true;
                sinks.push(v);
            }
        }
        let mut required: Vec<usize> = own.iter().map(|o| usize::from(*o)).collect();
        let mut out_start = vec![0usize; n + 1];
        for s in &segments {
            required[s.end] += 1;
            out_start[s.start + 1] += 1;
        }
        for v in 0..n {
            out_start[v + 1] += out_start[v];
        }
        let mut fill = out_start.clone();
        let mut out_segs = vec![0usize; segments.len()];
        let mut seg_hop = Vec::with_capacity(segments.len());
        let mut hops = Vec::new();
        for (i, s) in segments.iter().enumerate() {
            out_segs[fill[s.start]] = i;
            fill[s.start] += 1;
            seg_hop.push(hops.len());
            for (k, e) in s.edges.iter().enumerate() {
                if out.path_of[e.0] == NONE {
                    out.path_of[e.0] = out.paths.len();
                    out.paths.push(self.hop_path(*e));
                }
                let path = out.path_of[e.0];
                hops.push(Hop {
                    seg: i,
                    last: k + 1 == s.edges.len(),
                    edge: *e,
                    path,
                });
            }
        }
        let n_chunks = if elem_len == 0 {
            1
        } else {
            elem_len.div_ceil(chunk_elems)
        };
        LoweredSub {
            request: ri,
            kind,
            elem_off,
            elem_len,
            chunk_elems,
            n_chunks,
            kernel: vec![None; n],
            visits,
            required,
            own,
            sink,
            sinks,
            contributors,
            segments,
            seg_hop,
            hops,
            out_start,
            out_segs,
            root: NONE,
            chain: None,
            fed_by: None,
            p2p_ranges,
        }
    }

    // ---------- data plane ----------

    /// Binds every data run's buffers: where each visit's values live,
    /// an accumulator for each Reduce visit that receives data, and
    /// the output tensors sinks write into. AlltoAll outputs start
    /// with each rank's own shard, which never rides the wire.
    fn bind_data<'r>(
        &self,
        requests: &'r [ExecutionRequest<'_>],
        subs: &[LoweredSub],
    ) -> DataPlane<'r> {
        let mut dp = DataPlane::default();
        for sub in subs {
            let req = &requests[sub.request];
            let Some(inputs) = req.inputs.as_deref() else {
                dp.src.push(Vec::new());
                dp.out.push(Vec::new());
                dp.p2p_src.push(Vec::new());
                continue;
            };
            let elems = (req.tensor.as_u64() / 4) as usize;
            let mut out = vec![NONE; sub.visits.len()];
            for &v in &sub.sinks {
                if let LogicalNode::Gpu(rank) = sub.visits[v].node {
                    out[v] = dp.output(sub.request, rank, elems);
                }
            }
            let range = sub.elem_off..sub.elem_off + sub.elem_len;
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
                        if sub.required[v] > usize::from(sub.own[v]) {
                            let acc =
                                input.map_or_else(|| vec![0.0; sub.elem_len], <[f32]>::to_vec);
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
                        Some((rs, rv)) => dp.src[rs][rv],
                        None => sub
                            .contributors
                            .first()
                            .and_then(|c| own_input(*c))
                            .map_or(Src::Zero, Src::Input),
                    };
                    vec![origin; sub.visits.len()]
                }
                SubKind::PointToPoint => Vec::new(),
            };
            let p2p_src = match sub.kind {
                SubKind::PointToPoint => sub
                    .segments
                    .iter()
                    .map(|s| match sub.visits[s.start].node {
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
        lowered: &Lowered,
    ) -> Result<BatchReport, FaultReport> {
        let subs = &lowered.subs;
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
            subs: subs
                .iter()
                .map(|sub| {
                    let cells = sub.visits.len() * sub.n_chunks;
                    SubState {
                        hops: sub.hops.iter().map(|_| HopState::default()).collect(),
                        arrived: vec![0; cells],
                        finalized: vec![false; cells],
                        kernels: sub.visits.iter().map(|_| KernelState::default()).collect(),
                    }
                })
                .collect(),
            data: self.bind_data(requests, subs),
            worklist: VecDeque::new(),
            bytes_on_wire: 0,
            finish: SimTime::ZERO,
            req_finish: vec![SimTime::ZERO; requests.len()],
            trace: Vec::new(),
        };

        // Schedule every contributor's readiness timer.
        for (si, sub) in subs.iter().enumerate() {
            for &v in &sub.contributors {
                if sub.fed_by.is_some() && v == sub.root {
                    continue; // fed chunk-by-chunk by the reduce stage
                }
                let LogicalNode::Gpu(rank) = &sub.visits[v].node else {
                    continue;
                };
                let at = requests[sub.request]
                    .ready
                    .get(rank)
                    .copied()
                    .unwrap_or(SimTime::ZERO);
                st.tasks.push(Task::OwnReady { sub: si, visit: v });
                let token = st.tasks.len() as u64 - 1;
                st.sim
                    .schedule_timer(at.duration_since(SimTime::ZERO), token);
            }
        }

        loop {
            while let Some(action) = st.worklist.pop_front() {
                self.apply(lowered, &mut st, action);
            }
            let Some(ev) = st.sim.step() else { break };
            let token = ev.token() as usize;
            match (ev, st.tasks[token]) {
                (SimEvent::Timer { .. }, Task::OwnReady { sub: si, visit }) => {
                    for chunk in 0..subs[si].n_chunks {
                        st.subs[si].arrived[visit * subs[si].n_chunks + chunk] += 1;
                        self.try_finalize(subs, &mut st, si, visit, chunk);
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
                        self.start_kernel(subs, &mut st, si, visit, next);
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
                    let h = subs[si].hops[hop];
                    let done = st.subs[si].hops[hop].inflight.take();
                    if let Some(f) = done.filter(|_| self.tracing) {
                        let e = self.topo.edge(h.edge);
                        st.trace.push(TraceSpan {
                            request: subs[si].request,
                            sub: si,
                            chunk,
                            hop: format!("{}->{}", e.from, e.to),
                            start: f.start,
                            end: st.sim.now(),
                        });
                    }
                    if let Some(f) = done.filter(|_| self.telemetry.is_enabled()) {
                        let e = self.topo.edge(h.edge);
                        self.telemetry.flow(adapcc_telemetry::FlowRecord {
                            link: format!("{}->{}", e.from, e.to),
                            bytes: f.bytes,
                            enqueued_secs: f.enqueued.as_secs(),
                            start_secs: f.start.as_secs(),
                            end_secs: st.sim.now().as_secs(),
                            request: subs[si].request,
                            sub: si,
                            chunk,
                        });
                    }
                    if let Some((c, enqueued)) = st.subs[si].hops[hop].queue.pop_front() {
                        self.start_hop(lowered, &mut st, si, hop, c, enqueued);
                    }
                    if h.last {
                        st.worklist.push_back(Action::Deliver {
                            sub: si,
                            seg: h.seg,
                            chunk,
                        });
                    } else {
                        self.enqueue_hop(lowered, &mut st, si, hop + 1, chunk);
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
                    let edge = subs[si].hops[hop].edge;
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
                        let edge = subs[si].hops[hop].edge;
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
            for (si, sub) in subs.iter().enumerate() {
                let unfinished = sub
                    .sinks
                    .iter()
                    .filter_map(|&v| {
                        let cells =
                            &st.subs[si].finalized[v * sub.n_chunks..(v + 1) * sub.n_chunks];
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

    fn apply(&self, lowered: &Lowered, st: &mut RunState<'_, '_>, action: Action) {
        let subs = &lowered.subs;
        match action {
            Action::Finalize {
                sub: si,
                visit,
                chunk,
            } => {
                let sub = &subs[si];
                let cell = visit * sub.n_chunks + chunk;
                if st.subs[si].finalized[cell] {
                    return;
                }
                st.subs[si].finalized[cell] = true;
                if sub.sink[visit] {
                    st.finish = st.finish.max(st.sim.now());
                    st.req_finish[sub.request] = st.req_finish[sub.request].max(st.sim.now());
                    if sub.kind != SubKind::PointToPoint {
                        write_output(sub, &mut st.data, si, visit, chunk);
                    }
                }
                if let Some((link, root)) = sub.chain.filter(|_| visit == sub.root) {
                    // The chained broadcast's root reads this root's
                    // values in place; its chunk k is ready now.
                    st.worklist.push_back(Action::Finalize {
                        sub: link,
                        visit: root,
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
                let sub = &subs[si];
                for &seg in &sub.out_segs[sub.out_start[visit]..sub.out_start[visit + 1]] {
                    self.enqueue_hop(lowered, st, si, sub.seg_hop[seg], chunk);
                }
            }
            Action::Deliver {
                sub: si,
                seg,
                chunk,
            } => {
                let sub = &subs[si];
                let end = sub.segments[seg].end;
                if !st.data.out[si].is_empty() {
                    deliver(sub, &mut st.data, si, seg, chunk);
                }
                st.subs[si].arrived[end * sub.n_chunks + chunk] += 1;
                self.try_finalize(subs, st, si, end, chunk);
            }
        }
    }

    fn try_finalize(
        &self,
        subs: &[LoweredSub],
        st: &mut RunState<'_, '_>,
        si: usize,
        visit: usize,
        chunk: usize,
    ) {
        let sub = &subs[si];
        let cell = visit * sub.n_chunks + chunk;
        let need = sub.required[visit].max(1);
        if st.subs[si].arrived[cell] < need || st.subs[si].finalized[cell] {
            return;
        }
        if sub.kernel[visit].is_some() {
            if st.subs[si].kernels[visit].busy {
                st.subs[si].kernels[visit].queue.push_back(chunk);
            } else {
                self.start_kernel(subs, st, si, visit, chunk);
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
        subs: &[LoweredSub],
        st: &mut RunState<'_, '_>,
        si: usize,
        visit: usize,
        chunk: usize,
    ) {
        let sub = &subs[si];
        // Only kernel visits (lowered with their GPU's bandwidth) queue.
        let bw = sub.kernel[visit].unwrap_or_default();
        let dur = kernel_launch_overhead() + bw.time_for(sub.chunk_bytes(chunk));
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
        lowered: &Lowered,
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
            self.start_hop(lowered, st, si, hop, chunk, now);
        }
    }

    fn start_hop(
        &self,
        lowered: &Lowered,
        st: &mut RunState<'_, '_>,
        si: usize,
        hop: usize,
        chunk: usize,
        enqueued: SimTime,
    ) {
        let sub = &lowered.subs[si];
        let h = sub.hops[hop];
        let path = &lowered.paths[h.path];
        let bytes = if sub.kind == SubKind::PointToPoint {
            // Per-segment slice length bounds the chunk.
            let r = sub.p2p_ranges[h.seg];
            let (a, b) = sub.chunk_range(chunk);
            ByteSize::from_bytes(((b.min(r.len)).saturating_sub(a) * 4) as u64)
        } else {
            sub.chunk_bytes(chunk)
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
    fn fault_report(
        &self,
        kind: FaultKind,
        at: SimTime,
        edge: EdgeId,
        chunk: usize,
    ) -> FaultReport {
        let e = self.topo.edge(edge);
        let links = self.hop_path(edge).links;
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

    /// Physical path of a logical edge, including per-chunk staging
    /// overhead on non-GPU-Direct (TCP) network hops.
    fn hop_path(&self, edge: EdgeId) -> Path {
        let e = self.topo.edge(edge);
        let mut path = self.topo.edge_path(self.cluster, edge);
        if e.kind == EdgeKind::Network {
            if let (LogicalNode::Nic(a), LogicalNode::Nic(b)) = (e.from, e.to) {
                let stage = self.cluster.spec(a).nic.staging_overhead()
                    + self.cluster.spec(b).nic.staging_overhead();
                path.extra_alpha += stage;
            }
        }
        path
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
fn write_output(sub: &LoweredSub, dp: &mut DataPlane<'_>, si: usize, visit: usize, chunk: usize) {
    let Some(&o) = dp.out[si].get(visit).filter(|o| **o != NONE) else {
        return;
    };
    let (a, b) = sub.chunk_range(chunk);
    if let Some(vals) = values(&dp.accs, dp.src[si][visit], a, b) {
        dp.outputs[o][sub.elem_off + a..sub.elem_off + b].copy_from_slice(vals);
    }
}

/// Moves chunk `chunk` of segment `seg` into its end visit: a Reduce
/// visit adds it into its accumulator, a point-to-point sink copies
/// its slice into the output tensor. Broadcast visits hold no values
/// of their own, so a Broadcast delivery moves none.
fn deliver(sub: &LoweredSub, dp: &mut DataPlane<'_>, si: usize, seg: usize, chunk: usize) {
    let Segment { start, end, .. } = sub.segments[seg];
    let (a, b) = sub.chunk_range(chunk);
    match sub.kind {
        SubKind::PointToPoint => {
            let r = sub.p2p_ranges[seg];
            let b = b.min(r.len);
            let o = dp.out[si][end];
            if a < b && o != NONE {
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

/// Largest-remainder split of `len` items into `n` parts.
fn split_elems(len: usize, n: usize) -> Vec<usize> {
    let base = len / n;
    let rem = len % n;
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

/// Contiguous (offset, len) slice assigned to fraction `m`.
fn frac_slice(len: usize, fracs: &[f64], m: usize) -> (usize, usize) {
    let sizes = apportion(len, fracs);
    let off: usize = sizes[..m].iter().sum();
    (off, sizes[m])
}

fn apportion(len: usize, fracs: &[f64]) -> Vec<usize> {
    let mut sizes: Vec<usize> = fracs.iter().map(|f| (len as f64 * f) as usize).collect();
    let mut assigned: usize = sizes.iter().sum();
    let n = sizes.len();
    let mut i = 0;
    while assigned < len {
        sizes[i % n] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > len {
        let j = sizes
            .iter()
            .position(|s| *s > 0)
            .expect("cannot shrink empty apportionment");
        sizes[j] -= 1;
        assigned -= 1;
    }
    sizes
}

fn partition_elems(strategy: &Strategy, elems: usize) -> Vec<(usize, usize)> {
    let fracs: Vec<f64> = strategy.subs.iter().map(|s| s.fraction).collect();
    let sizes = apportion(elems, &fracs);
    let mut out = Vec::with_capacity(sizes.len());
    let mut off = 0;
    for s in sizes {
        out.push((off, s));
        off += s;
    }
    out
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

    #[test]
    fn apportion_preserves_total() {
        for len in [0usize, 1, 7, 1000, 65536] {
            for fracs in [vec![1.0], vec![0.25, 0.25, 0.5], vec![0.3, 0.3, 0.4]] {
                let sizes = apportion(len, &fracs);
                assert_eq!(sizes.iter().sum::<usize>(), len);
            }
        }
    }
}
