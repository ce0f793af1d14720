//! Lowering a [`CollectiveSpec`] onto concrete per-stage sub-plans.
//!
//! [`expand`] turns a spec plus the call parameters (root, tensor,
//! worker set) into a list of [`StagePlan`]s: for each stage, the
//! sub-collectives to synthesize (their root, participant scope and
//! tensor size) and how the caller's input buffers slice onto each
//! sub-collective. Expansion is pure — no synthesis, no execution —
//! so a plan can be inspected and tested without a session.

use std::borrow::Cow;
use std::collections::BTreeMap;

use adapcc_simnet::cluster::Rank;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::group::ProcessGroup;
use adapcc_synth::primitive::Primitive;

use crate::collective::spec::{CollectiveSpec, Fanout, ShardRule, StageSpec};
use crate::error::AdapCCError;

/// Canonical key of one synthesized strategy in the session's
/// per-worker-set memo: the primitive, tensor size, optional root and
/// optional participant scope (`None` = the full worker set).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StrategyKey {
    /// The primitive the strategy implements.
    pub primitive: Primitive,
    /// Tensor size in bytes.
    pub tensor: u64,
    /// Root rank for rooted primitives.
    pub root: Option<Rank>,
    /// Participant process group (canonical: sorted, deduplicated,
    /// non-empty); `None` spans the whole job.
    pub scope: Option<ProcessGroup>,
}

/// One sub-collective of one stage: what to synthesize and which slot
/// of the call tensor it carries.
#[derive(Debug, Clone)]
pub struct SubPlan {
    /// Root of the synthesized strategy (`None` lets the synthesizer
    /// choose; resolved during planning for stages that chain).
    pub root: Option<Rank>,
    /// Participant process group (`None` = all workers).
    pub scope: Option<ProcessGroup>,
    /// Tensor this sub-collective moves.
    pub tensor: ByteSize,
    /// The worker whose data (or result slot) this sub carries, for
    /// fanned-out stages; `None` for single-fanout stages.
    pub owner: Option<Rank>,
    /// Slot index in the rank-ordered worker list (drives input
    /// slicing and output concatenation).
    pub slot: usize,
}

impl SubPlan {
    /// The memo key of this sub-plan's strategy.
    pub fn key(&self, primitive: Primitive) -> StrategyKey {
        StrategyKey {
            primitive,
            tensor: self.tensor.as_u64(),
            root: self.root,
            scope: self.scope.clone(),
        }
    }
}

/// One lowered stage: the primitive, the fanout/shard it was expanded
/// under, and its sub-plans in slot order.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// The primitive every sub-collective of this stage runs.
    pub primitive: Primitive,
    /// The fanout the stage expanded under.
    pub fanout: Fanout,
    /// The shard rule the stage expanded under.
    pub shard: ShardRule,
    /// Sub-plans in slot order (pairwise fanout skips the root's
    /// slot, but slot indices still index the full worker list).
    pub subs: Vec<SubPlan>,
}

impl StagePlan {
    /// Slices the caller's input buffers onto one sub-plan, mirroring
    /// the shard rule: a full-tensor broadcast sees only the buffer it
    /// reads, its owner's (gather, allgather) or its root's (a
    /// single-fanout broadcast); other full-tensor subs borrow the
    /// whole map (the executor picks the entries its primitive
    /// consumes); split subs see their slot's shard.
    pub fn sub_inputs<'i>(
        &self,
        sub: &SubPlan,
        inputs: &'i BTreeMap<Rank, Vec<f32>>,
        call_root: Option<Rank>,
    ) -> Cow<'i, BTreeMap<Rank, Vec<f32>>> {
        let elems = (sub.tensor.as_u64() / 4) as usize;
        let shard = sub.slot * elems..(sub.slot + 1) * elems;
        match (self.shard, self.fanout) {
            // A broadcast reads its source's buffer alone (the executor
            // seeds the root only), so handing every sub the whole map
            // would copy N^2 tensors per allgather call.
            (ShardRule::Full, _) if self.primitive == Primitive::Broadcast => {
                match sub.owner.or(sub.root) {
                    Some(src) => Cow::Owned(
                        inputs
                            .get(&src)
                            .map(|b| (src, b.clone()))
                            .into_iter()
                            .collect(),
                    ),
                    None => Cow::Borrowed(inputs),
                }
            }
            (ShardRule::Full, _) => Cow::Borrowed(inputs),
            (ShardRule::SplitEven, Fanout::Pairwise { .. }) => {
                // Scatter: the owner's shard of the root tensor.
                let root = call_root.expect("split pairwise requires a root");
                Cow::Owned(
                    inputs
                        .get(&root)
                        .map(|b| (root, b[shard].to_vec()))
                        .into_iter()
                        .collect(),
                )
            }
            (ShardRule::SplitEven, _) => {
                // ReduceScatter: shard `slot` of every input feeds the
                // reduce rooted at this slot's owner.
                Cow::Owned(
                    inputs
                        .iter()
                        .map(|(r, buf)| (*r, buf[shard.clone()].to_vec()))
                        .collect(),
                )
            }
        }
    }
}

fn shard_tensor(rule: ShardRule, tensor: ByteSize, n: usize) -> Result<ByteSize, AdapCCError> {
    match rule {
        ShardRule::Full => Ok(tensor),
        ShardRule::SplitEven => {
            if !tensor.as_u64().is_multiple_of(4 * n as u64) {
                return Err(AdapCCError::InvalidRequest(format!(
                    "tensor of {} bytes must split into f32 shards over {n} worker(s)",
                    tensor.as_u64()
                )));
            }
            Ok(ByteSize::from_bytes(tensor.as_u64() / n as u64))
        }
    }
}

fn expand_stage(
    stage: &StageSpec,
    root: Option<Rank>,
    tensor: ByteSize,
    workers: &[Rank],
) -> Result<StagePlan, AdapCCError> {
    let stage_tensor = shard_tensor(stage.shard, tensor, workers.len())?;
    let subs = match stage.fanout {
        Fanout::Single => vec![SubPlan {
            root,
            scope: None,
            tensor: stage_tensor,
            owner: None,
            slot: 0,
        }],
        Fanout::PerWorker => workers
            .iter()
            .enumerate()
            .map(|(j, w)| SubPlan {
                root: Some(*w),
                scope: None,
                tensor: stage_tensor,
                owner: Some(*w),
                slot: j,
            })
            .collect(),
        Fanout::Pairwise { worker_is_root } => {
            let call_root = root.expect("validated: pairwise fanout requires a root");
            workers
                .iter()
                .enumerate()
                .filter(|(_, w)| **w != call_root)
                .map(|(j, w)| {
                    let scope = ProcessGroup::canonical(&[*w, call_root])
                        .expect("a pair scope is never empty");
                    SubPlan {
                        root: Some(if worker_is_root { *w } else { call_root }),
                        scope: Some(scope),
                        tensor: stage_tensor,
                        owner: Some(*w),
                        slot: j,
                    }
                })
                .collect()
        }
    };
    Ok(StagePlan {
        primitive: stage.primitive,
        fanout: stage.fanout,
        shard: stage.shard,
        subs,
    })
}

/// Lowers a spec onto the current worker set. Fails with
/// [`AdapCCError::InvalidRequest`] when an even-split stage cannot
/// shard the tensor over the workers — the error surfaces through the
/// recovery loop untouched, so a caller whose worker count shrank
/// through exclusion re-shards and retries.
pub fn expand(
    spec: &CollectiveSpec,
    root: Option<Rank>,
    tensor: ByteSize,
    workers: &[Rank],
) -> Result<Vec<StagePlan>, AdapCCError> {
    debug_assert!(spec.validate().is_ok(), "invalid spec {}", spec.name);
    spec.stages
        .iter()
        .map(|stage| expand_stage(stage, root, tensor, workers))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers(n: usize) -> Vec<Rank> {
        (0..n).map(Rank).collect()
    }

    #[test]
    fn allgather_expands_per_worker() {
        let plan = expand(
            &CollectiveSpec::allgather(),
            None,
            ByteSize::from_kib(16),
            &workers(4),
        )
        .unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].subs.len(), 4);
        for (j, sub) in plan[0].subs.iter().enumerate() {
            assert_eq!(sub.root, Some(Rank(j)));
            assert_eq!(sub.owner, Some(Rank(j)));
            assert_eq!(sub.slot, j);
            assert_eq!(sub.tensor, ByteSize::from_kib(16));
        }
    }

    #[test]
    fn reduce_scatter_shards_and_rejects_indivisible() {
        let plan = expand(
            &CollectiveSpec::reduce_scatter(),
            None,
            ByteSize::from_bytes(4 * 1024 * 4),
            &workers(4),
        )
        .unwrap();
        assert_eq!(plan[0].subs.len(), 4);
        assert_eq!(plan[0].subs[0].tensor.as_u64(), 1024 * 4);
        let err = expand(
            &CollectiveSpec::reduce_scatter(),
            None,
            ByteSize::from_bytes(1000),
            &workers(3),
        )
        .unwrap_err();
        assert!(matches!(err, AdapCCError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn gather_is_pairwise_rooted_at_workers() {
        let plan = expand(
            &CollectiveSpec::gather(),
            Some(Rank(1)),
            ByteSize::from_kib(4),
            &workers(3),
        )
        .unwrap();
        let subs = &plan[0].subs;
        assert_eq!(subs.len(), 2, "the root has no pairwise sub");
        assert_eq!(subs[0].root, Some(Rank(0)));
        assert_eq!(
            subs[0].scope,
            Some(ProcessGroup::canonical(&[Rank(0), Rank(1)]).unwrap())
        );
        assert_eq!(subs[0].slot, 0);
        assert_eq!(subs[1].root, Some(Rank(2)));
        assert_eq!(subs[1].slot, 2, "slots index the full worker list");
    }

    #[test]
    fn scatter_slices_the_root_tensor() {
        let spec = CollectiveSpec::scatter();
        let plan = expand(
            &spec,
            Some(Rank(0)),
            ByteSize::from_bytes(3 * 8),
            &workers(3),
        )
        .unwrap();
        let stage = &plan[0];
        assert!(stage.subs.iter().all(|s| s.root == Some(Rank(0))));
        let inputs: BTreeMap<Rank, Vec<f32>> =
            [(Rank(0), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0])].into();
        let sliced = stage.sub_inputs(&stage.subs[1], &inputs, Some(Rank(0)));
        assert_eq!(sliced[&Rank(0)], vec![4.0, 5.0], "slot 2 shard");
    }

    #[test]
    fn broadcast_reads_the_roots_buffer_and_allreduce_borrows_the_map() {
        let inputs: BTreeMap<Rank, Vec<f32>> = workers(4)
            .into_iter()
            .map(|r| (r, vec![r.0 as f32; 2]))
            .collect();
        let tensor = ByteSize::from_bytes(2 * 4);
        let bcast = expand(
            &CollectiveSpec::broadcast(),
            Some(Rank(2)),
            tensor,
            &workers(4),
        )
        .unwrap();
        let sliced = bcast[0].sub_inputs(&bcast[0].subs[0], &inputs, Some(Rank(2)));
        assert_eq!(sliced.len(), 1, "only the root's buffer is copied");
        assert_eq!(sliced[&Rank(2)], inputs[&Rank(2)]);
        let allreduce = expand(&CollectiveSpec::allreduce(), None, tensor, &workers(4)).unwrap();
        let sliced = allreduce[0].sub_inputs(&allreduce[0].subs[0], &inputs, None);
        assert!(matches!(sliced, Cow::Borrowed(_)), "no copy of the map");
    }

    #[test]
    fn allgather_subs_carry_only_their_owners_buffer() {
        let plan = expand(
            &CollectiveSpec::allgather(),
            None,
            ByteSize::from_bytes(2 * 4),
            &workers(4),
        )
        .unwrap();
        let inputs: BTreeMap<Rank, Vec<f32>> = workers(4)
            .into_iter()
            .map(|r| (r, vec![r.0 as f32; 2]))
            .collect();
        for sub in &plan[0].subs {
            let owner = sub.owner.unwrap();
            let sliced = plan[0].sub_inputs(sub, &inputs, None);
            assert_eq!(sliced.len(), 1, "sub of {owner}");
            assert_eq!(sliced[&owner], inputs[&owner]);
        }
    }
}
