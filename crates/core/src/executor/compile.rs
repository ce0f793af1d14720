//! Compiling a strategy into the executor's tables.
//!
//! The paper's Communicator builds each sub-collective's transmission
//! context once, at set-up, and a call only moves chunks (Sec. V).
//! Compiling is that step here: the executor validates a strategy
//! against the logical topology and [`CompiledPlan::lower`] lowers it
//! into dense tables (visits, segments, hops, per-visit input counts,
//! sinks, kernels and outgoing segments). Everything it keeps depends
//! on the strategy and the topology only, so one plan serves every
//! call of its strategy, whatever the tensor: a call derives its
//! element partitions, chunk counts and point-to-point ranges through
//! [`Shape`] and [`ShardSlices`]. The physical path of each logical
//! edge lives apart from any plan, in [`EdgePaths`], built once per
//! topology.

use std::collections::HashMap;

use adapcc_simnet::cluster::{Cluster, Path};
use adapcc_simnet::units::{Bandwidth, ByteSize};
use adapcc_synth::primitive::Primitive;
use adapcc_synth::strategy::Strategy;
use adapcc_topo::logical::{EdgeId, EdgeKind, LogicalNode, LogicalTopology};

use crate::error::AdapCCError;

/// "No entry" in the compiled tables.
pub(super) const NONE: u32 = u32::MAX;

/// A node *visit*: routes may legitimately revisit a node (a broadcast
/// enters a NIC, descends to the instance leader, and leaves through
/// the same NIC), and each visit needs independent chunk state. `gen`
/// is the number of earlier occurrences of `node` on the same route;
/// flows sharing a route prefix share generations, so segment
/// deduplication still collapses common prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(super) struct VNode {
    pub(super) node: LogicalNode,
    gen: u8,
}

impl VNode {
    fn first(node: LogicalNode) -> Self {
        VNode { node, gen: 0 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SubKind {
    Reduce,
    Broadcast,
    PointToPoint,
}

/// One compiled sub-collective. A `Vec` named "per visit" is indexed
/// by visit id, "per segment" by segment id and "per hop" by hop id;
/// a sub's hops are numbered densely, segment by segment, so a
/// segment's next hop is the next id.
#[derive(Debug, Clone)]
pub(super) struct PlanSub {
    pub(super) kind: SubKind,
    /// The strategy sub-collective this sub runs: its fraction of the
    /// tensor and its chunk size.
    pub(super) part: u32,
    /// Per visit: the node visit it stands for.
    pub(super) visits: Vec<VNode>,
    /// Per visit: inputs required to finalize a chunk (incoming
    /// segments plus one if the visit contributes its own data).
    pub(super) required: Vec<u32>,
    /// Per visit: whether the visit contributes its own data.
    pub(super) own: Vec<bool>,
    /// Per visit: whether the sub delivers its result here.
    pub(super) sink: Vec<bool>,
    /// Per visit: the reduction bandwidth of the GPU whose aggregation
    /// kernel the visit runs, if it runs one.
    pub(super) kernel: Vec<Option<Bandwidth>>,
    /// Sink visits, each once.
    pub(super) sinks: Vec<u32>,
    /// Contributing visits, sorted by node visit: the order their
    /// readiness timers are scheduled in.
    pub(super) contributors: Vec<u32>,
    /// Per segment: its start and end visits.
    pub(super) segs: Vec<(u32, u32)>,
    /// Per segment and one past the last (CSR offsets into the hops):
    /// segment `s` owns hops `seg_hop[s]..seg_hop[s + 1]`.
    pub(super) seg_hop: Vec<u32>,
    /// Per hop: the logical edge it crosses.
    pub(super) hop_edge: Vec<u32>,
    /// Per hop: its segment.
    pub(super) hop_seg: Vec<u32>,
    /// Outgoing segments per visit, in segment order:
    /// `out_segs[out_start[v]..out_start[v + 1]]`.
    pub(super) out_start: Vec<u32>,
    pub(super) out_segs: Vec<u32>,
    /// The root's visit ([`NONE`] for rootless subs).
    pub(super) root: u32,
    /// AllReduce stage chaining, on the Reduce stage: when this sub's
    /// root finalizes chunk k, chunk k finalizes at visit `.1` of sub
    /// `.0` of the same plan (the reverse Broadcast's root).
    pub(super) chain: Option<(u32, u32)>,
    /// The same link seen from the reverse Broadcast: its root is fed
    /// chunk by chunk by visit `.1` of Reduce sub `.0`, never seeded.
    pub(super) fed_by: Option<(u32, u32)>,
    /// Per segment (point-to-point only): the participant indices of
    /// its sender and receiver, which pick the shards it moves.
    pub(super) p2p_shards: Vec<(u32, u32)>,
}

impl PlanSub {
    /// The outgoing segments of visit `v`.
    pub(super) fn out_segs(&self, v: usize) -> &[u32] {
        &self.out_segs[self.out_start[v] as usize..self.out_start[v + 1] as usize]
    }

    /// Whether hop `h` ends its segment.
    pub(super) fn ends_segment(&self, h: usize) -> bool {
        h as u32 + 1 == self.seg_hop[self.hop_seg[h] as usize + 1]
    }
}

/// A strategy validated and lowered for one topology: the executor's
/// tables for every sub-collective it runs. An AllReduce compiles to
/// its Reduce subs followed by their reverse Broadcasts.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPlan {
    pub(super) subs: Vec<PlanSub>,
    /// Every logical edge a hop crosses, once each.
    pub(super) edges: Vec<u32>,
    /// Participants: the shards an AllToAll splits a tensor into.
    pub(super) shards: u32,
}

impl CompiledPlan {
    /// Lowers a strategy that has validated against `topo`.
    pub(super) fn lower(
        cluster: &Cluster,
        topo: &LogicalTopology,
        strategy: &Strategy,
    ) -> Result<Self, AdapCCError> {
        let mut low = Lowering {
            cluster,
            topo,
            slots: NodeSlots {
                gpus: cluster.gpu_count(),
                len: cluster.gpu_count() + cluster.instance_count(),
            },
            twin_of: Vec::new(),
            subs: Vec::new(),
        };
        let mut shards = 1;
        match strategy.primitive {
            Primitive::Reduce | Primitive::ReduceScatter => low.tree(strategy, SubKind::Reduce)?,
            Primitive::Broadcast | Primitive::AllGather => {
                low.tree(strategy, SubKind::Broadcast)?
            }
            Primitive::AllReduce => {
                // The Reduce, then its reverse Broadcast: the same flows
                // run backwards (`Strategy::reversed`, without building
                // the reversed strategy).
                let n_subs = strategy.subs.len();
                low.tree(strategy, SubKind::Reduce)?;
                low.tree(strategy, SubKind::Broadcast)?;
                for m in 0..n_subs {
                    let (r, b) = (m, n_subs + m);
                    let (rv, bv) = (low.subs[r].root, low.subs[b].root);
                    if rv != NONE && bv != NONE {
                        low.subs[r].chain = Some((b as u32, bv));
                        low.subs[b].fed_by = Some((r as u32, rv));
                    }
                }
            }
            Primitive::AllToAll => shards = low.alltoall(strategy)?,
        }
        let subs = low.subs;
        let mut edges: Vec<u32> = subs
            .iter()
            .flat_map(|s| s.hop_edge.iter().copied())
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Ok(CompiledPlan {
            subs,
            edges,
            shards,
        })
    }
}

// ---------- per-call shapes ----------

/// What one call's tensor makes of a compiled sub: its element range
/// and its chunking.
#[derive(Debug, Clone, Copy)]
pub(super) struct Shape {
    /// Element range of the tensor this sub carries (tree kinds).
    pub(super) elem_off: usize,
    pub(super) elem_len: usize,
    pub(super) chunk_elems: usize,
    pub(super) n_chunks: usize,
}

impl Shape {
    fn new(elem_off: usize, elem_len: usize, chunk: ByteSize) -> Self {
        let chunk_elems = ((chunk.as_u64() / 4) as usize).clamp(1, elem_len.max(1));
        let n_chunks = if elem_len == 0 {
            1
        } else {
            elem_len.div_ceil(chunk_elems)
        };
        Shape {
            elem_off,
            elem_len,
            chunk_elems,
            n_chunks,
        }
    }

    /// Element range `[a, b)` of chunk `k`, relative to the sub's
    /// partition.
    pub(super) fn chunk_range(&self, k: usize) -> (usize, usize) {
        let a = (k * self.chunk_elems).min(self.elem_len);
        let b = ((k + 1) * self.chunk_elems).min(self.elem_len);
        (a, b)
    }

    pub(super) fn chunk_bytes(&self, k: usize) -> ByteSize {
        let (a, b) = self.chunk_range(k);
        ByteSize::from_bytes(((b - a) * 4) as u64)
    }
}

/// Point-to-point data mapping of one segment: source tensor offset,
/// sink tensor offset, slice length in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct P2pRange {
    pub(super) src_off: usize,
    pub(super) dst_off: usize,
    pub(super) len: usize,
}

impl CompiledPlan {
    /// Appends the shape of every sub for a call of `elems` elements
    /// per rank, and each sub's point-to-point ranges (empty for tree
    /// subs).
    pub(super) fn shapes(
        &self,
        strategy: &Strategy,
        elems: usize,
        shapes: &mut Vec<Shape>,
        p2p: &mut Vec<Vec<P2pRange>>,
    ) {
        if strategy.primitive == Primitive::AllToAll {
            let slices = ShardSlices::new(elems, self.shards as usize, strategy);
            for sub in &self.subs {
                let m = sub.part as usize;
                let ranges: Vec<P2pRange> = sub
                    .p2p_shards
                    .iter()
                    .map(|&(si, di)| slices.range(si as usize, di as usize, m))
                    .collect();
                let max_len = ranges.iter().map(|r| r.len).max().unwrap_or(0);
                shapes.push(Shape::new(0, max_len, strategy.subs[m].chunk));
                p2p.push(ranges);
            }
        } else {
            let parts = partition_elems(strategy, elems);
            for sub in &self.subs {
                let m = sub.part as usize;
                let (off, len) = parts[m];
                shapes.push(Shape::new(off, len, strategy.subs[m].chunk));
                p2p.push(Vec::new());
            }
        }
    }
}

/// The slices of an AllToAll's shards that each sub-collective carries.
/// A tensor of `elems` elements splits over `n` participants into
/// shards of at most two sizes (largest remainder), so each distinct
/// size is apportioned over the subs' fractions once, not once per
/// flow.
#[derive(Debug)]
pub(super) struct ShardSlices {
    base: usize,
    rem: usize,
    /// Per distinct shard size (`base`, then `base + 1`): the prefix
    /// sums of its apportionment, `m + 1` entries for `m` subs.
    offs: [Vec<usize>; 2],
}

impl ShardSlices {
    pub(super) fn new(elems: usize, n: usize, strategy: &Strategy) -> Self {
        let fracs: Vec<f64> = strategy.subs.iter().map(|s| s.fraction).collect();
        let (base, rem) = (elems / n, elems % n);
        let prefix = |len: usize| {
            let mut offs = vec![0];
            for s in apportion(len, &fracs) {
                offs.push(offs[offs.len() - 1] + s);
            }
            offs
        };
        let larger = if rem > 0 {
            prefix(base + 1)
        } else {
            Vec::new()
        };
        ShardSlices {
            base,
            rem,
            offs: [prefix(base), larger],
        }
    }

    /// Offset of shard `j` in the tensor, and its apportionment.
    fn shard(&self, j: usize) -> (usize, &[usize]) {
        let off = j * self.base + j.min(self.rem);
        (off, &self.offs[usize::from(j < self.rem)])
    }

    /// Message `src -> dst` of sub `m`, where `si` and `di` index the
    /// sender and receiver among the participants: the sub's slice of
    /// shard `di` of the sender's tensor, landing at the same slice of
    /// shard `si` of the receiver's tensor.
    pub(super) fn range(&self, si: usize, di: usize, m: usize) -> P2pRange {
        let (src_shard, src) = self.shard(di);
        let (dst_shard, dst) = self.shard(si);
        P2pRange {
            src_off: src_shard + src[m],
            dst_off: dst_shard + dst[m],
            len: src[m + 1] - src[m],
        }
    }
}

/// Largest-remainder split of `len` items into `n` parts.
pub(super) fn split_elems(len: usize, n: usize) -> Vec<usize> {
    let base = len / n;
    let rem = len % n;
    (0..n).map(|i| base + usize::from(i < rem)).collect()
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

// ---------- physical paths ----------

/// The physical path of every logical edge a run has crossed, built on
/// first use. Paths depend on the cluster and the logical topology
/// only, so one table serves every plan and batch of a topology.
#[derive(Debug)]
pub(crate) struct EdgePaths {
    /// Per logical edge: its index in `paths` ([`NONE`] until built).
    of: Vec<u32>,
    paths: Vec<Path>,
}

impl EdgePaths {
    /// An empty table for a topology of `edges` logical edges.
    pub(crate) fn new(edges: usize) -> Self {
        EdgePaths {
            of: vec![NONE; edges],
            paths: Vec::new(),
        }
    }

    /// Builds the path of every edge `plan` crosses that has none yet.
    pub(super) fn cover(&mut self, cluster: &Cluster, topo: &LogicalTopology, plan: &CompiledPlan) {
        debug_assert_eq!(
            self.of.len(),
            topo.edge_count(),
            "paths of another topology"
        );
        for &e in &plan.edges {
            if self.of[e as usize] == NONE {
                let path = hop_path(cluster, topo, EdgeId(e as usize));
                self.paths.push(path);
                self.of[e as usize] = self.paths.len() as u32 - 1;
            }
        }
    }

    /// The path of an edge [`EdgePaths::cover`] has built.
    pub(super) fn get(&self, edge: u32) -> &Path {
        &self.paths[self.of[edge as usize] as usize]
    }
}

/// Physical path of a logical edge, including per-chunk staging
/// overhead on non-GPU-Direct (TCP) network hops.
pub(super) fn hop_path(cluster: &Cluster, topo: &LogicalTopology, edge: EdgeId) -> Path {
    let e = topo.edge(edge);
    let mut path = topo.edge_path(cluster, edge);
    if e.kind == EdgeKind::Network {
        if let (LogicalNode::Nic(a), LogicalNode::Nic(b)) = (e.from, e.to) {
            let stage =
                cluster.spec(a).nic.staging_overhead() + cluster.spec(b).nic.staging_overhead();
            path.extra_alpha += stage;
        }
    }
    path
}

// ---------- lowering ----------

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

/// Dense visit numbering of one sub, assigned in first-seen order.
struct Visits {
    slots: NodeSlots,
    /// Per node slot: the node's first visit ([`NONE`] if unvisited).
    first: Vec<u32>,
    /// Every other visit: re-entries, and nodes outside the slots.
    later: HashMap<VNode, u32>,
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

    fn intern(&mut self, v: VNode) -> u32 {
        let next = self.nodes.len() as u32;
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

/// A route stretch between two visits (by visit id).
struct Segment {
    start: u32,
    end: u32,
    edges: Vec<EdgeId>,
}

/// What a sub looks like before its tables are derived: its visits,
/// deduplicated segments (in first-seen order), the visits that
/// contribute data, and the sink visits.
struct SubGraph {
    kind: SubKind,
    part: usize,
    visits: Visits,
    segments: Vec<Segment>,
    own: Vec<u32>,
    sinks: Vec<u32>,
    p2p_shards: Vec<(u32, u32)>,
}

impl SubGraph {
    fn new(kind: SubKind, part: usize, slots: NodeSlots) -> Self {
        SubGraph {
            kind,
            part,
            visits: Visits::new(slots),
            segments: Vec::new(),
            own: Vec::new(),
            sinks: Vec::new(),
            p2p_shards: Vec::new(),
        }
    }
}

/// One strategy's lowering in progress.
struct Lowering<'a> {
    cluster: &'a Cluster,
    topo: &'a LogicalTopology,
    slots: NodeSlots,
    /// Per logical edge: its duplex twin ([`NONE`] until a reverse
    /// stage crosses it; empty until the first does).
    twin_of: Vec<u32>,
    subs: Vec<PlanSub>,
}

impl Lowering<'_> {
    /// The duplex twin of `e` (its opposite-direction edge).
    fn twin(&mut self, e: EdgeId) -> Result<EdgeId, AdapCCError> {
        if self.twin_of.is_empty() {
            self.twin_of = vec![NONE; self.topo.edge_count()];
        }
        if self.twin_of[e.0] == NONE {
            let d = self.topo.edge(e);
            let t = self.topo.edge_between(d.to, d.from).ok_or_else(|| {
                AdapCCError::InvalidRequest(format!(
                    "edge {}->{} has no reverse twin",
                    d.from, d.to
                ))
            })?;
            self.twin_of[e.0] = t.0 as u32;
        }
        Ok(EdgeId(self.twin_of[e.0] as usize))
    }

    /// Lowers every sub of a Reduce or Broadcast tree. A Broadcast of
    /// an AllReduce strategy is its reverse stage: every flow runs from
    /// its destination back to its source over the duplex twins of its
    /// edges, and no node aggregates.
    fn tree(&mut self, strategy: &Strategy, kind: SubKind) -> Result<(), AdapCCError> {
        let reverse = kind == SubKind::Broadcast && strategy.primitive == Primitive::AllReduce;
        let topo = self.topo;
        let slots = self.slots;
        let mut route: Vec<EdgeId> = Vec::new();
        for (m, sub) in strategy.subs.iter().enumerate() {
            // Every flow as (src, dst, end of its route in `route`), in
            // execution direction.
            route.clear();
            let mut flows = Vec::with_capacity(sub.flows.len());
            for f in &sub.flows {
                if reverse {
                    for e in f.route.iter().rev() {
                        route.push(self.twin(*e)?);
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
            let mut fan_out = vec![false; slots.len];
            if kind == SubKind::Broadcast {
                let mut succ = vec![usize::MAX; slots.len];
                for (src, dst, edges) in routes() {
                    let mut here = slots.of(src);
                    for e in edges {
                        let next = slots.of(topo.edge(*e).to);
                        if let (Some(h), Some(n)) = (here, next) {
                            if succ[h] == usize::MAX {
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
            let mut g = SubGraph::new(kind, m, slots);
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
                    let to = topo.edge(*e).to;
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
                        key.extend([start as usize, end as usize]);
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
            let mut lowered = tables(g);
            lowered.root = root.unwrap_or(NONE);
            for (v, visit) in lowered.visits.iter().enumerate() {
                let node = visit.node;
                if kind == SubKind::Reduce && aggregates_at(node) && lowered.required[v] >= 2 {
                    let LogicalNode::Gpu(rank) = node else {
                        return Err(AdapCCError::InvalidRequest(format!(
                            "sub-collective {m} aggregates at {node}: kernels run on GPUs only"
                        )));
                    };
                    let (inst, _) = self.cluster.locate(rank);
                    lowered.kernel[v] = Some(self.cluster.spec(inst).gpu.reduce_bandwidth());
                }
            }
            self.subs.push(lowered);
        }
        Ok(())
    }

    /// Lowers every sub of an AllToAll; returns its participant count.
    fn alltoall(&mut self, strategy: &Strategy) -> Result<u32, AdapCCError> {
        let participants = strategy.participants();
        for (m, sub) in strategy.subs.iter().enumerate() {
            let mut g = SubGraph::new(SubKind::PointToPoint, m, self.slots);
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
                g.p2p_shards.push((si as u32, di as u32));
                g.own.push(start);
                g.sinks.push(sink);
            }
            self.subs.push(tables(g));
        }
        Ok(participants.len().max(1) as u32)
    }
}

/// Derives a sub's dense tables from its graph: per-visit input
/// counts, sink and contributor flags, the outgoing segments of every
/// visit, and every hop.
fn tables(g: SubGraph) -> PlanSub {
    let SubGraph {
        kind,
        part,
        visits,
        segments,
        own: own_list,
        sinks: sink_list,
        p2p_shards,
    } = g;
    let visits = visits.nodes;
    let n = visits.len();
    let mut own = vec![false; n];
    let mut contributors = Vec::new();
    for v in own_list {
        if !own[v as usize] {
            own[v as usize] = true;
            contributors.push(v);
        }
    }
    contributors.sort_unstable_by_key(|v| visits[*v as usize]);
    let mut sink = vec![false; n];
    let mut sinks = Vec::new();
    for v in sink_list {
        if !sink[v as usize] {
            sink[v as usize] = true;
            sinks.push(v);
        }
    }
    let mut required: Vec<u32> = own.iter().map(|o| u32::from(*o)).collect();
    let mut out_start = vec![0u32; n + 1];
    for s in &segments {
        required[s.end as usize] += 1;
        out_start[s.start as usize + 1] += 1;
    }
    for v in 0..n {
        out_start[v + 1] += out_start[v];
    }
    let mut fill = out_start.clone();
    let mut out_segs = vec![0u32; segments.len()];
    let mut segs = Vec::with_capacity(segments.len());
    let mut seg_hop = Vec::with_capacity(segments.len() + 1);
    let hop_count: usize = segments.iter().map(|s| s.edges.len()).sum();
    let mut hop_edge = Vec::with_capacity(hop_count);
    let mut hop_seg = Vec::with_capacity(hop_count);
    for (i, s) in segments.iter().enumerate() {
        out_segs[fill[s.start as usize] as usize] = i as u32;
        fill[s.start as usize] += 1;
        segs.push((s.start, s.end));
        seg_hop.push(hop_edge.len() as u32);
        for e in &s.edges {
            hop_edge.push(e.0 as u32);
            hop_seg.push(i as u32);
        }
    }
    seg_hop.push(hop_edge.len() as u32);
    PlanSub {
        kind,
        part: part as u32,
        visits,
        required,
        own,
        sink,
        kernel: vec![None; n],
        sinks,
        contributors,
        segs,
        seg_hop,
        hop_edge,
        hop_seg,
        out_start,
        out_segs,
        root: NONE,
        chain: None,
        fed_by: None,
        p2p_shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_simnet::rng::seeded_rng;
    use adapcc_synth::strategy::SubCollective;
    use rand::Rng;

    /// Contiguous (offset, len) slice assigned to fraction `m`: the
    /// per-flow formula the shard slices replace.
    fn frac_slice(len: usize, fracs: &[f64], m: usize) -> (usize, usize) {
        let sizes = apportion(len, fracs);
        let off: usize = sizes[..m].iter().sum();
        (off, sizes[m])
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

    #[test]
    fn shard_slices_match_the_per_flow_formula() {
        let mut rng = seeded_rng(7);
        for _ in 0..200 {
            let subs = rng.gen_range(1..6);
            let raw: Vec<f64> = (0..subs).map(|_| rng.gen_range(0.01..1.0)).collect();
            let total: f64 = raw.iter().sum();
            let strategy = Strategy {
                primitive: Primitive::AllToAll,
                subs: raw
                    .iter()
                    .map(|f| SubCollective {
                        fraction: f / total,
                        chunk: ByteSize::from_kib(4),
                        root: None,
                        flows: Vec::new(),
                        aggregate: Default::default(),
                    })
                    .collect(),
            };
            let fracs: Vec<f64> = strategy.subs.iter().map(|s| s.fraction).collect();
            let n = rng.gen_range(1..12);
            let elems = rng.gen_range(0..5000);
            let shard_sizes = split_elems(elems, n);
            let shard_off: Vec<usize> = (0..n).map(|j| shard_sizes[..j].iter().sum()).collect();
            let slices = ShardSlices::new(elems, n, &strategy);
            for si in 0..n {
                for di in 0..n {
                    for m in 0..subs {
                        let (s_off, s_len) = frac_slice(shard_sizes[di], &fracs, m);
                        let (d_off, _) = frac_slice(shard_sizes[si], &fracs, m);
                        let want = P2pRange {
                            src_off: shard_off[di] + s_off,
                            dst_off: shard_off[si] + d_off,
                            len: s_len,
                        };
                        assert_eq!(
                            slices.range(si, di, m),
                            want,
                            "elems {elems}, {n} shards, fractions {fracs:?}, {si}->{di} sub {m}"
                        );
                    }
                }
            }
        }
    }
}
