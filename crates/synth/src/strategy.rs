//! Communication strategies (the synthesizer's output, paper Sec. IV-D).
//!
//! A [`Strategy`] for one primitive splits the tensor into `M` parallel
//! **sub-collectives** (Fig. 8(a)); each sub-collective has its own
//! communication graph — a set of [`Flow`]s routed over logical edges —
//! a chunk size for pipelined transmission, and per-node aggregation
//! flags (the `a_{m,g}` variables of eq. 2).

use std::collections::{BTreeMap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use adapcc_simnet::cluster::Rank;
use adapcc_simnet::units::ByteSize;
use adapcc_topo::logical::{EdgeId, LogicalNode, LogicalTopology};

use crate::primitive::Primitive;

/// One routed flow: tensor data travelling from `src` to `dst` along
/// `route` (a chain of logical edges).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flow {
    /// Origin node (holds the data).
    pub src: LogicalNode,
    /// Destination node.
    pub dst: LogicalNode,
    /// Edge chain from `src` to `dst`.
    pub route: Vec<EdgeId>,
}

impl Flow {
    /// The node sequence the flow visits, starting at `src`.
    pub fn nodes(&self, topo: &LogicalTopology) -> Vec<LogicalNode> {
        let mut v = vec![self.src];
        for e in &self.route {
            v.push(topo.edge(*e).to);
        }
        v
    }
}

/// One parallel sub-collective: a fraction of the tensor with its own
/// graph and chunk size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubCollective {
    /// Share of the total tensor carried by this sub-collective
    /// (fractions across a strategy sum to 1).
    pub fraction: f64,
    /// Pipelining chunk size `C_m`.
    pub chunk: ByteSize,
    /// Root GPU for rooted primitives.
    pub root: Option<Rank>,
    /// The routed flows.
    pub flows: Vec<Flow>,
    /// Aggregation control: nodes mapped to `true` launch aggregation
    /// kernels that synchronize same-offset chunks of all flows
    /// traversing them (eq. 2, case `a_{m,j} = 1`). Absent nodes
    /// forward flows individually.
    pub aggregate: BTreeMap<LogicalNode, bool>,
}

impl SubCollective {
    /// Whether a node aggregates in this sub-collective.
    pub fn aggregates_at(&self, node: LogicalNode) -> bool {
        self.aggregate.get(&node).copied().unwrap_or(false)
    }

    /// All nodes touched by any flow.
    pub fn nodes(&self, topo: &LogicalTopology) -> Vec<LogicalNode> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for f in &self.flows {
            for n in f.nodes(topo) {
                if seen.insert(n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// All distinct edges used by any flow.
    pub fn edges(&self) -> Vec<EdgeId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for f in &self.flows {
            for e in &f.route {
                if seen.insert(*e) {
                    out.push(*e);
                }
            }
        }
        out
    }
}

/// A complete strategy for one primitive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Strategy {
    /// The primitive the strategy implements.
    pub primitive: Primitive,
    /// The parallel sub-collectives (`M` of them).
    pub subs: Vec<SubCollective>,
}

/// Why a strategy failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidStrategy {
    /// A strategy must contain at least one sub-collective.
    NoSubCollectives,
    /// Sub-collective fractions must sum to 1 (±1e-6).
    BadFractions,
    /// A chunk size was zero.
    ZeroChunk,
    /// A flow's route does not connect its endpoints.
    BrokenRoute {
        /// Index of the offending sub-collective.
        sub: usize,
        /// Index of the offending flow.
        flow: usize,
    },
    /// Flows through an aggregating node diverge to different
    /// successors, so chunk synchronization is ill-defined.
    DivergentAggregation {
        /// Index of the offending sub-collective.
        sub: usize,
        /// The offending node.
        node: LogicalNode,
    },
    /// The union of routes contains a cycle.
    CyclicGraph {
        /// Index of the offending sub-collective.
        sub: usize,
    },
}

impl std::fmt::Display for InvalidStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidStrategy::NoSubCollectives => write!(f, "strategy has no sub-collectives"),
            InvalidStrategy::BadFractions => write!(f, "sub-collective fractions do not sum to 1"),
            InvalidStrategy::ZeroChunk => write!(f, "chunk size is zero"),
            InvalidStrategy::BrokenRoute { sub, flow } => {
                write!(
                    f,
                    "flow {flow} of sub-collective {sub} has a disconnected route"
                )
            }
            InvalidStrategy::DivergentAggregation { sub, node } => {
                write!(
                    f,
                    "aggregating node {node} of sub-collective {sub} has divergent successors"
                )
            }
            InvalidStrategy::CyclicGraph { sub } => {
                write!(f, "sub-collective {sub} routes form a cycle")
            }
        }
    }
}

impl std::error::Error for InvalidStrategy {}

impl Strategy {
    /// Number of parallel sub-collectives (`M`).
    pub fn parallelism(&self) -> usize {
        self.subs.len()
    }

    /// Checks structural invariants against the topology.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: non-empty sub-collective
    /// list, fractions summing to one, positive chunks, connected
    /// routes, convergent successors at aggregating nodes, and acyclic
    /// per-sub graphs.
    pub fn validate(&self, topo: &LogicalTopology) -> Result<(), InvalidStrategy> {
        if self.subs.is_empty() {
            return Err(InvalidStrategy::NoSubCollectives);
        }
        let total: f64 = self.subs.iter().map(|s| s.fraction).sum();
        if (total - 1.0).abs() > 1e-6 || self.subs.iter().any(|s| s.fraction < 0.0) {
            return Err(InvalidStrategy::BadFractions);
        }
        for (si, sub) in self.subs.iter().enumerate() {
            validate_sub(sub, topo, si)?;
        }
        Ok(())
    }

    /// Tensor bytes carried by sub-collective `m` for a total tensor of
    /// `total` bytes: the fractional split, rounded so the parts sum to
    /// the whole (earlier subs take the remainder).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn partition(&self, total: ByteSize, m: usize) -> ByteSize {
        assert!(m < self.subs.len(), "sub-collective {m} out of range");
        let fractions: Vec<f64> = self.subs.iter().map(|s| s.fraction).collect();
        ByteSize::from_bytes(split_sizes(&fractions, total)[m])
    }

    /// The GPUs participating as data sources or destinations.
    pub fn participants(&self) -> Vec<Rank> {
        let mut set = std::collections::BTreeSet::new();
        for sub in &self.subs {
            if let Some(r) = sub.root {
                set.insert(r);
            }
            for f in &sub.flows {
                if let LogicalNode::Gpu(r) = f.src {
                    set.insert(r);
                }
                if let LogicalNode::Gpu(r) = f.dst {
                    set.insert(r);
                }
            }
        }
        set.into_iter().collect()
    }

    /// Builds the reverse strategy: every flow's route reversed (with
    /// each edge replaced by its opposite-direction twin), sources and
    /// destinations swapped, aggregation cleared. Turning a Reduce tree
    /// into the Broadcast the paper executes "reversely" for AllReduce.
    ///
    /// # Panics
    ///
    /// Panics if some edge has no reverse twin in the topology (cannot
    /// happen for topologies built by `adapcc-topo`, which are duplex).
    pub fn reversed(&self, topo: &LogicalTopology, primitive: Primitive) -> Strategy {
        let subs = self
            .subs
            .iter()
            .map(|sub| reversed_sub(sub, topo))
            .collect();
        Strategy { primitive, subs }
    }
}

/// Per-sub-collective half of [`Strategy::validate`]: positive chunk,
/// connected routes, convergent successors at aggregating nodes, and an
/// acyclic synchronization graph. The solver's incremental evaluator
/// revalidates only the mutated sub-collective through this, which is
/// equivalent to the full check because the per-sub invariants of
/// untouched subs cannot change.
pub(crate) fn validate_sub(
    sub: &SubCollective,
    topo: &LogicalTopology,
    si: usize,
) -> Result<(), InvalidStrategy> {
    if sub.chunk.is_zero() {
        return Err(InvalidStrategy::ZeroChunk);
    }
    for (fi, flow) in sub.flows.iter().enumerate() {
        let mut cur = flow.src;
        for e in &flow.route {
            let edge = topo.edge(*e);
            if edge.from != cur {
                return Err(InvalidStrategy::BrokenRoute { sub: si, flow: fi });
            }
            cur = edge.to;
        }
        if cur != flow.dst {
            return Err(InvalidStrategy::BrokenRoute { sub: si, flow: fi });
        }
    }
    // Aggregating nodes: all flows leaving the node go to the same
    // successor. The same walk collects the synchronization graph:
    // an arc between consecutive boundaries (route ends and
    // aggregating nodes) of every flow.
    let any_aggregation = sub.aggregate.values().any(|v| *v);
    let mut successor: HashMap<LogicalNode, LogicalNode> = HashMap::new();
    let mut arcs: Vec<(LogicalNode, LogicalNode)> = Vec::new();
    for flow in &sub.flows {
        let mut here = flow.src;
        let mut here_aggregates = sub.aggregates_at(here);
        let mut boundary = here;
        for (i, e) in flow.route.iter().enumerate() {
            let next = topo.edge(*e).to;
            if here_aggregates {
                if let Some(prev) = successor.insert(here, next) {
                    if prev != next {
                        return Err(InvalidStrategy::DivergentAggregation {
                            sub: si,
                            node: here,
                        });
                    }
                }
            }
            here = next;
            here_aggregates = sub.aggregates_at(here);
            if any_aggregation && (here_aggregates || i + 1 == flow.route.len()) {
                if boundary != here {
                    arcs.push((boundary, here));
                }
                boundary = here;
            }
        }
    }
    // Acyclicity of the union graph — only needed when aggregation
    // creates cross-flow chunk dependencies. Independent point-to-point
    // flows (AlltoAll) may legally form cycles in the union
    // (gpu0→gpu1 and gpu1→gpu0).
    if any_aggregation && has_cycle(arcs) {
        return Err(InvalidStrategy::CyclicGraph { sub: si });
    }
    Ok(())
}

/// The deterministic largest-remainder split behind
/// [`Strategy::partition`], over raw fraction values. Exposed so the
/// solver's incremental cost state computes byte-identical partition
/// sizes without assembling a `Strategy`.
pub(crate) fn split_sizes(fractions: &[f64], total: ByteSize) -> Vec<u64> {
    let mut assigned = 0u64;
    let mut sizes = Vec::with_capacity(fractions.len());
    for (i, fraction) in fractions.iter().enumerate() {
        let size = if i + 1 == fractions.len() {
            total.as_u64() - assigned
        } else {
            ((total.as_f64() * fraction).round() as u64).min(total.as_u64() - assigned)
        };
        assigned += size;
        sizes.push(size);
    }
    sizes
}

/// One sub-collective of [`Strategy::reversed`]: every flow's route
/// reversed edge by edge (duplex twins), endpoints swapped, aggregation
/// cleared. The cost model's AllReduce duplex pricing rebuilds a single
/// mutated reverse twin through this instead of reversing the whole
/// strategy.
pub(crate) fn reversed_sub(sub: &SubCollective, topo: &LogicalTopology) -> SubCollective {
    let flows = sub
        .flows
        .iter()
        .map(|f| {
            let route: Vec<EdgeId> = f
                .route
                .iter()
                .rev()
                .map(|e| {
                    let d = topo.edge(*e);
                    topo.edge_between(d.to, d.from)
                        .expect("logical topologies are duplex")
                })
                .collect();
            Flow {
                src: f.dst,
                dst: f.src,
                route,
            }
        })
        .collect();
    SubCollective {
        fraction: sub.fraction,
        chunk: sub.chunk,
        root: sub.root,
        flows,
        aggregate: BTreeMap::new(),
    }
}

/// Cycle check over the *synchronization* graph of a sub-collective:
/// the contraction of every route to its boundary nodes (sources,
/// aggregation points, destinations). Interior forwarders (NICs) are
/// skipped — a route legitimately enters and leaves the same NIC at
/// different tree levels, which is not a dependency cycle.
/// Whether the directed graph of `arcs` has a cycle (Kahn's
/// algorithm over the arcs' endpoints, numbered by sorted position).
fn has_cycle(mut arcs: Vec<(LogicalNode, LogicalNode)>) -> bool {
    arcs.sort_unstable();
    arcs.dedup();
    let mut nodes: Vec<LogicalNode> = arcs.iter().flat_map(|(a, b)| [*a, *b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let id = |n: &LogicalNode| nodes.binary_search(n).unwrap_or_default();
    // Arcs are sorted by source, so each node's out-arcs are one run.
    let mut first_out = vec![0usize; nodes.len() + 1];
    let mut indeg = vec![0usize; nodes.len()];
    for (a, b) in &arcs {
        first_out[id(a) + 1] += 1;
        indeg[id(b)] += 1;
    }
    for i in 0..nodes.len() {
        first_out[i + 1] += first_out[i];
    }
    let mut queue: Vec<usize> = (0..nodes.len()).filter(|n| indeg[*n] == 0).collect();
    let mut visited = 0;
    while let Some(n) = queue.pop() {
        visited += 1;
        for (_, b) in &arcs[first_out[n]..first_out[n + 1]] {
            let b = id(b);
            indeg[b] -= 1;
            if indeg[b] == 0 {
                queue.push(b);
            }
        }
    }
    visited != nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_simnet::cluster::{Cluster, InstanceId};
    use adapcc_topo::detect::Detector;

    fn topo2() -> (Cluster, LogicalTopology) {
        let c = Cluster::homogeneous_a100(2);
        let t = Detector::new(&c, 1).run().logical_topology(&c);
        (c, t)
    }

    fn simple_reduce(topo: &LogicalTopology) -> Strategy {
        // gpu1 -> gpu0 (root) over NVLink; gpu4 -> nic1 -> nic0 -> gpu0.
        let g = |r: usize| LogicalNode::Gpu(Rank(r));
        let nic = |i: usize| LogicalNode::Nic(InstanceId(i));
        let e = |a, b| topo.edge_between(a, b).expect("edge");
        let flows = vec![
            Flow {
                src: g(1),
                dst: g(0),
                route: vec![e(g(1), g(0))],
            },
            Flow {
                src: g(4),
                dst: g(0),
                route: vec![e(g(4), nic(1)), e(nic(1), nic(0)), e(nic(0), g(0))],
            },
        ];
        let mut aggregate = BTreeMap::new();
        aggregate.insert(g(0), true);
        Strategy {
            primitive: Primitive::Reduce,
            subs: vec![SubCollective {
                fraction: 1.0,
                chunk: ByteSize::from_mib(1),
                root: Some(Rank(0)),
                flows,
                aggregate,
            }],
        }
    }

    #[test]
    fn valid_strategy_passes() {
        let (_c, topo) = topo2();
        let s = simple_reduce(&topo);
        assert_eq!(s.validate(&topo), Ok(()));
        assert_eq!(s.participants(), vec![Rank(0), Rank(1), Rank(4)]);
    }

    #[test]
    fn broken_route_detected() {
        let (_c, topo) = topo2();
        let mut s = simple_reduce(&topo);
        s.subs[0].flows[1].route.remove(1);
        assert!(matches!(
            s.validate(&topo),
            Err(InvalidStrategy::BrokenRoute { sub: 0, flow: 1 })
        ));
    }

    #[test]
    fn bad_fractions_detected() {
        let (_c, topo) = topo2();
        let mut s = simple_reduce(&topo);
        s.subs[0].fraction = 0.5;
        assert_eq!(s.validate(&topo), Err(InvalidStrategy::BadFractions));
    }

    #[test]
    fn divergent_aggregation_detected() {
        let (_c, topo) = topo2();
        let g = |r: usize| LogicalNode::Gpu(Rank(r));
        let e = |a, b| topo.edge_between(a, b).expect("edge");
        // Two flows pass through gpu1 (aggregating) but then diverge.
        let flows = vec![
            Flow {
                src: g(0),
                dst: g(2),
                route: vec![e(g(0), g(1)), e(g(1), g(2))],
            },
            Flow {
                src: g(3),
                dst: g(0),
                route: vec![e(g(3), g(1)), e(g(1), g(0))],
            },
        ];
        let mut aggregate = BTreeMap::new();
        aggregate.insert(g(1), true);
        let s = Strategy {
            primitive: Primitive::Reduce,
            subs: vec![SubCollective {
                fraction: 1.0,
                chunk: ByteSize::from_mib(1),
                root: Some(Rank(2)),
                flows,
                aggregate,
            }],
        };
        assert!(matches!(
            s.validate(&topo),
            Err(InvalidStrategy::DivergentAggregation { .. })
        ));
    }

    #[test]
    fn cycle_detected() {
        let (_c, topo) = topo2();
        let g = |r: usize| LogicalNode::Gpu(Rank(r));
        let e = |a, b| topo.edge_between(a, b).expect("edge");
        let flows = vec![
            Flow {
                src: g(0),
                dst: g(1),
                route: vec![e(g(0), g(1))],
            },
            Flow {
                src: g(1),
                dst: g(2),
                route: vec![e(g(1), g(2))],
            },
            Flow {
                src: g(2),
                dst: g(0),
                route: vec![e(g(2), g(0))],
            },
        ];
        let mut aggregate = BTreeMap::new();
        aggregate.insert(g(0), true);
        let s = Strategy {
            primitive: Primitive::Reduce,
            subs: vec![SubCollective {
                fraction: 1.0,
                chunk: ByteSize::from_mib(1),
                root: Some(Rank(0)),
                flows,
                aggregate,
            }],
        };
        assert_eq!(
            s.validate(&topo),
            Err(InvalidStrategy::CyclicGraph { sub: 0 })
        );
        // Without aggregation the same union cycle is legal (AlltoAll).
        let mut p2p = s.clone();
        p2p.primitive = Primitive::AllToAll;
        p2p.subs[0].aggregate.clear();
        p2p.subs[0].root = None;
        assert_eq!(p2p.validate(&topo), Ok(()));
    }

    #[test]
    fn partition_sums_to_total() {
        let (_c, topo) = topo2();
        let mut s = simple_reduce(&topo);
        s.subs = vec![
            SubCollective {
                fraction: 0.333,
                ..s.subs[0].clone()
            },
            SubCollective {
                fraction: 0.333,
                ..s.subs[0].clone()
            },
            SubCollective {
                fraction: 0.334,
                ..s.subs[0].clone()
            },
        ];
        let total = ByteSize::from_bytes(1_000_001);
        let sum: u64 = (0..3).map(|m| s.partition(total, m).as_u64()).sum();
        assert_eq!(sum, total.as_u64());
    }

    #[test]
    fn reversed_roundtrip() {
        let (_c, topo) = topo2();
        let s = simple_reduce(&topo);
        let b = s.reversed(&topo, Primitive::Broadcast);
        assert_eq!(b.validate(&topo), Ok(()));
        assert_eq!(b.subs[0].flows[0].src, LogicalNode::Gpu(Rank(0)));
        let back = b.reversed(&topo, Primitive::Reduce);
        for (orig, rt) in s.subs[0].flows.iter().zip(&back.subs[0].flows) {
            assert_eq!(orig.src, rt.src);
            assert_eq!(orig.dst, rt.dst);
            assert_eq!(orig.route, rt.route);
        }
    }
}
