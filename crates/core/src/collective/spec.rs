//! The declarative collective grammar (paper Sec. IV-D).
//!
//! AdapCC composes every collective out of two base primitives:
//! AllReduce = Reduce + reverse Broadcast, AllGather = per-GPU
//! Broadcasts. A [`CollectiveSpec`] captures that composition as data —
//! which primitive each stage runs, how it fans out into
//! sub-collectives, how the call tensor shards across them, whether the
//! relay coordinator is consulted, and how per-sub outputs assemble
//! into the collective's result. The staged pipeline (the private
//! `pipeline` sibling module) lowers a spec onto synthesized
//! strategies and runs it through one of two executors, wait-all or
//! phase-1/phase-2 partial; adding a collective means writing a new
//! spec, not a new orchestration method (the TACCL/SCCL lesson:
//! declarative specs over a common engine keep a synthesizer
//! extensible).

use adapcc_synth::primitive::Primitive;

/// How a stage fans out into sub-collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// One synthesized strategy spanning every worker.
    Single,
    /// One sub-collective per worker, rooted at that worker and
    /// spanning the full worker set (AllGather = per-GPU Broadcasts,
    /// paper Sec. IV-D).
    PerWorker,
    /// One sub-collective per non-root worker `w`, spanning exactly
    /// `{w, root}` — a synthesized point-to-point route.
    /// `worker_is_root` picks which end sources the data: the worker
    /// (Gather) or the call root (Scatter).
    Pairwise {
        /// Whether the per-worker end (rather than the call root)
        /// roots each pairwise sub-collective.
        worker_is_root: bool,
    },
}

/// How the call tensor maps onto each sub-collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRule {
    /// Every sub-collective moves the full call tensor.
    Full,
    /// The call tensor splits into `N` equal f32 shards, one per worker
    /// slot. A tensor that does not divide evenly is rejected with
    /// [`crate::error::AdapCCError::InvalidRequest`] — including when
    /// fault exclusion has shrunk `N` since the caller sharded its
    /// data.
    SplitEven,
}

/// How per-sub executor outputs assemble into the collective's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssembleRule {
    /// The single sub-collective's outputs are the result.
    Identity,
    /// Every worker receives the rank-ordered concatenation of all
    /// slots (AllGather).
    ConcatSlots,
    /// Each slot owner keeps its own aggregated shard (ReduceScatter).
    OwnerShard,
    /// The root receives the rank-ordered concatenation of all slots
    /// (Gather).
    ConcatAtRoot,
    /// Each slot owner receives its shard of the root tensor (Scatter).
    OwnerSlice,
}

/// Whether the relay [`crate::relay::Coordinator`] is consulted before
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayPolicy {
    /// Wait for the slowest worker; the coordinator is never consulted
    /// and the decision is always `WaitAll`.
    WaitAll,
    /// Consult the ski-rental rule each iteration: wait while waiting
    /// is cheap, otherwise run phase 1 among the ready workers with the
    /// stragglers as relays and complete their contributions in
    /// phase 2.
    Adaptive {
        /// How workers absent from the `ready` map are read: fault
        /// candidates (the adaptive AllReduce API contract) or
        /// ready-at-zero (the composite entry points, whose callers
        /// historically passed partial or empty maps).
        missing_is_fault: bool,
    },
}

/// One stage of a collective's DAG: a primitive, its fanout, and how
/// the tensor shards across the fanned-out sub-collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// The primitive each sub-collective of this stage runs.
    pub primitive: Primitive,
    /// How the stage fans out into sub-collectives.
    pub fanout: Fanout,
    /// How the call tensor maps onto each sub-collective.
    pub shard: ShardRule,
}

/// A complete declarative collective: stages, relay policy, assembly
/// rule, root requirement and buy-estimate volume. Every public entry
/// point of [`crate::AdapCC`] is one of these; the staged pipeline
/// (plan → relay → execute → assemble, wrapped in the recovery loop)
/// is shared by all of them.
#[derive(Debug, Clone)]
pub struct CollectiveSpec {
    /// Human-readable name (spans, errors, docs).
    pub name: &'static str,
    /// The stage DAG, executed in order; stage `k+1` starts when stage
    /// `k` has drained and consumes its outputs.
    pub stages: Vec<StageSpec>,
    /// Whether/how the relay coordinator is consulted.
    pub relay: RelayPolicy,
    /// How the final stage's per-sub outputs become the result.
    pub assemble: AssembleRule,
    /// Whether the entry point takes an explicit root rank.
    pub needs_root: bool,
    /// The primitive whose volume model prices the ski-rental buy
    /// estimate (composite stages carry base primitives, but the buy
    /// decision must be priced at the composite's traffic volume).
    pub estimate_as: Primitive,
}

impl CollectiveSpec {
    fn single(name: &'static str, primitive: Primitive, needs_root: bool) -> Self {
        CollectiveSpec {
            name,
            stages: vec![StageSpec {
                primitive,
                fanout: Fanout::Single,
                shard: ShardRule::Full,
            }],
            relay: RelayPolicy::WaitAll,
            assemble: AssembleRule::Identity,
            needs_root,
            estimate_as: primitive,
        }
    }

    /// AllReduce without relay control: waits for every worker.
    pub fn allreduce() -> Self {
        Self::single("allreduce", Primitive::AllReduce, false)
    }

    /// Reduce onto an automatically chosen root.
    pub fn reduce() -> Self {
        Self::single("reduce", Primitive::Reduce, false)
    }

    /// Broadcast from an explicit root.
    pub fn broadcast() -> Self {
        Self::single("broadcast", Primitive::Broadcast, true)
    }

    /// AlltoAll personalized exchange.
    pub fn alltoall() -> Self {
        Self::single("alltoall", Primitive::AllToAll, false)
    }

    /// AllReduce with adaptive relay control (paper Sec. IV-C).
    pub fn allreduce_adaptive() -> Self {
        CollectiveSpec {
            relay: RelayPolicy::Adaptive {
                missing_is_fault: true,
            },
            ..Self::single("allreduce_adaptive", Primitive::AllReduce, false)
        }
    }

    /// AllGather: one Broadcast per worker, outputs concatenated in
    /// rank order (paper Sec. IV-D).
    pub fn allgather() -> Self {
        CollectiveSpec {
            name: "allgather",
            stages: vec![StageSpec {
                primitive: Primitive::Broadcast,
                fanout: Fanout::PerWorker,
                shard: ShardRule::Full,
            }],
            relay: RelayPolicy::Adaptive {
                missing_is_fault: false,
            },
            assemble: AssembleRule::ConcatSlots,
            needs_root: false,
            estimate_as: Primitive::AllGather,
        }
    }

    /// ReduceScatter: one Reduce per worker over its shard (paper
    /// Sec. IV-D).
    pub fn reduce_scatter() -> Self {
        CollectiveSpec {
            name: "reduce_scatter",
            stages: vec![StageSpec {
                primitive: Primitive::Reduce,
                fanout: Fanout::PerWorker,
                shard: ShardRule::SplitEven,
            }],
            relay: RelayPolicy::Adaptive {
                missing_is_fault: false,
            },
            assemble: AssembleRule::OwnerShard,
            needs_root: false,
            estimate_as: Primitive::ReduceScatter,
        }
    }

    /// Gather: every worker's tensor collected at the root, composed of
    /// per-worker point-to-point Broadcasts — a pure spec, no bespoke
    /// orchestration.
    pub fn gather() -> Self {
        CollectiveSpec {
            name: "gather",
            stages: vec![StageSpec {
                primitive: Primitive::Broadcast,
                fanout: Fanout::Pairwise {
                    worker_is_root: true,
                },
                shard: ShardRule::Full,
            }],
            relay: RelayPolicy::WaitAll,
            assemble: AssembleRule::ConcatAtRoot,
            needs_root: true,
            estimate_as: Primitive::AllGather,
        }
    }

    /// Scatter: the root's tensor split into per-worker shards, each
    /// delivered over a point-to-point Broadcast — a pure spec, no
    /// bespoke orchestration.
    pub fn scatter() -> Self {
        CollectiveSpec {
            name: "scatter",
            stages: vec![StageSpec {
                primitive: Primitive::Broadcast,
                fanout: Fanout::Pairwise {
                    worker_is_root: false,
                },
                shard: ShardRule::SplitEven,
            }],
            relay: RelayPolicy::WaitAll,
            assemble: AssembleRule::OwnerSlice,
            needs_root: true,
            estimate_as: Primitive::Broadcast,
        }
    }

    /// Structural validity of the spec. The pipeline debug-asserts
    /// this; the built-in specs are valid by construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("a collective needs at least one stage".into());
        }
        if matches!(self.relay, RelayPolicy::Adaptive { .. }) {
            if self.stages.len() != 1 {
                return Err("adaptive relay requires a single-stage spec".into());
            }
            if matches!(self.stages[0].fanout, Fanout::Pairwise { .. }) {
                return Err("pairwise fanout is wait-all only".into());
            }
        }
        for s in &self.stages {
            if matches!(s.fanout, Fanout::Pairwise { .. }) && !self.needs_root {
                return Err("pairwise fanout requires a root".into());
            }
            if s.shard == ShardRule::SplitEven && s.fanout == Fanout::Single {
                return Err("an even split needs a fanout with slots".into());
            }
        }
        match self.assemble {
            AssembleRule::ConcatAtRoot | AssembleRule::OwnerSlice if !self.needs_root => {
                Err("root-directed assembly requires a root".into())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_are_valid() {
        for spec in [
            CollectiveSpec::allreduce(),
            CollectiveSpec::reduce(),
            CollectiveSpec::broadcast(),
            CollectiveSpec::alltoall(),
            CollectiveSpec::allreduce_adaptive(),
            CollectiveSpec::allgather(),
            CollectiveSpec::reduce_scatter(),
            CollectiveSpec::gather(),
            CollectiveSpec::scatter(),
        ] {
            assert!(
                spec.validate().is_ok(),
                "{}: {:?}",
                spec.name,
                spec.validate()
            );
        }
    }

    #[test]
    fn adaptive_relay_rejects_multi_stage() {
        let mut spec = CollectiveSpec::allreduce_adaptive();
        spec.stages.push(spec.stages[0]);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn pairwise_fanout_requires_a_root() {
        let spec = CollectiveSpec {
            needs_root: false,
            ..CollectiveSpec::gather()
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn split_even_needs_slots() {
        let mut spec = CollectiveSpec::allreduce();
        spec.stages[0].shard = ShardRule::SplitEven;
        assert!(spec.validate().is_err());
    }
}
