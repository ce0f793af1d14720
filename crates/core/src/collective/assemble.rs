//! Output assembly: per-sub executor outputs → the collective's
//! result buffers, driven by the spec's [`AssembleRule`].

use std::collections::BTreeMap;

use adapcc_simnet::cluster::Rank;

use crate::collective::spec::AssembleRule;

/// Outputs of one executed sub-collective, tagged with its slot.
#[derive(Debug, Clone)]
pub struct SlotOutput {
    /// The worker whose data (or result) this slot carries.
    pub owner: Rank,
    /// Slot index in the rank-ordered worker list.
    pub slot: usize,
    /// Executor outputs of the sub-collective; `None` when the slot's
    /// owner was declared faulty and its sub never ran.
    pub outputs: Option<BTreeMap<Rank, Vec<f32>>>,
}

/// Assembles the final per-worker output buffers of a collective.
/// `survivors` are the workers that still receive
/// outputs (faulty workers are dropped); `elems` is the per-slot f32
/// element count; `inputs` are the caller's original buffers (a slot
/// owner's own contribution never rides the wire back to it). Slots
/// whose sub was dropped by fault exclusion are zero-filled in
/// concatenating rules. The slots are consumed: `Identity` and the
/// owner rules move their buffers into the result.
pub fn assemble(
    rule: AssembleRule,
    survivors: &[Rank],
    root: Option<Rank>,
    elems: usize,
    inputs: &BTreeMap<Rank, Vec<f32>>,
    slots: Vec<SlotOutput>,
) -> BTreeMap<Rank, Vec<f32>> {
    let mut out: BTreeMap<Rank, Vec<f32>> = BTreeMap::new();
    match rule {
        AssembleRule::Identity => {
            out.extend(slots.into_iter().filter_map(|s| s.outputs).flatten());
            out.retain(|r, _| survivors.contains(r));
        }
        AssembleRule::ConcatSlots => {
            let width = slots.iter().map(|s| s.slot + 1).max().unwrap_or(0);
            for w in survivors {
                let mut buf = vec![0.0f32; elems * width];
                for slot in &slots {
                    let src: Option<&Vec<f32>> = if *w == slot.owner {
                        inputs.get(w)
                    } else {
                        slot.outputs.as_ref().and_then(|m| m.get(w))
                    };
                    if let Some(src) = src {
                        buf[slot.slot * elems..(slot.slot + 1) * elems].copy_from_slice(src);
                    }
                }
                out.insert(*w, buf);
            }
        }
        AssembleRule::OwnerShard => {
            out.extend(owner_buffers(survivors, slots));
        }
        AssembleRule::ConcatAtRoot => {
            let root = root.expect("validated: root-directed assembly has a root");
            let width = slots
                .iter()
                .map(|s| s.slot + 1)
                .max()
                .unwrap_or(0)
                .max(root_slot(survivors, root) + 1);
            let mut buf = vec![0.0f32; elems * width];
            if let Some(own) = inputs.get(&root) {
                let j = root_slot(survivors, root);
                buf[j * elems..(j + 1) * elems].copy_from_slice(own);
            }
            for slot in &slots {
                if let Some(src) = slot.outputs.as_ref().and_then(|m| m.get(&root)) {
                    buf[slot.slot * elems..(slot.slot + 1) * elems].copy_from_slice(src);
                }
            }
            if survivors.contains(&root) {
                out.insert(root, buf);
            }
        }
        AssembleRule::OwnerSlice => {
            let root = root.expect("validated: root-directed assembly has a root");
            out.extend(owner_buffers(survivors, slots));
            if survivors.contains(&root) {
                if let Some(own) = inputs.get(&root) {
                    let j = root_slot(survivors, root);
                    out.insert(root, own[j * elems..(j + 1) * elems].to_vec());
                }
            }
        }
    }
    out
}

/// Each surviving slot owner's own buffer out of its slot's outputs.
fn owner_buffers(
    survivors: &[Rank],
    slots: Vec<SlotOutput>,
) -> impl Iterator<Item = (Rank, Vec<f32>)> + '_ {
    slots.into_iter().filter_map(|s| {
        let buf = s.outputs?.remove(&s.owner)?;
        survivors.contains(&s.owner).then_some((s.owner, buf))
    })
}

/// The root's slot index: its position in the rank-ordered worker
/// list. Survivor lists stay rank-sorted, so position in `survivors`
/// matches the expansion-time slot as long as no fault dropped an
/// earlier rank (pairwise specs are wait-all, so their slot layout
/// never shifts mid-collective).
fn root_slot(survivors: &[Rank], root: Rank) -> usize {
    survivors.iter().position(|r| *r == root).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(owner: usize, idx: usize, outs: &[(usize, Vec<f32>)]) -> SlotOutput {
        SlotOutput {
            owner: Rank(owner),
            slot: idx,
            outputs: Some(outs.iter().map(|(r, b)| (Rank(*r), b.clone())).collect()),
        }
    }

    #[test]
    fn concat_slots_prefers_own_input() {
        let survivors = vec![Rank(0), Rank(1)];
        let inputs: BTreeMap<Rank, Vec<f32>> =
            [(Rank(0), vec![1.0, 1.0]), (Rank(1), vec![2.0, 2.0])].into();
        let slots = vec![
            slot(0, 0, &[(1, vec![1.0, 1.0])]),
            slot(1, 1, &[(0, vec![2.0, 2.0])]),
        ];
        let out = assemble(
            AssembleRule::ConcatSlots,
            &survivors,
            None,
            2,
            &inputs,
            slots,
        );
        assert_eq!(out[&Rank(0)], vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(out[&Rank(1)], vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn concat_at_root_fills_the_roots_own_slot() {
        let survivors = vec![Rank(0), Rank(1), Rank(2)];
        let inputs: BTreeMap<Rank, Vec<f32>> = [(Rank(1), vec![5.0])].into();
        let slots = vec![slot(0, 0, &[(1, vec![3.0])]), slot(2, 2, &[(1, vec![7.0])])];
        let out = assemble(
            AssembleRule::ConcatAtRoot,
            &survivors,
            Some(Rank(1)),
            1,
            &inputs,
            slots,
        );
        assert_eq!(out.len(), 1, "only the root receives");
        assert_eq!(out[&Rank(1)], vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn owner_shard_drops_faulty_owners() {
        let survivors = vec![Rank(0)];
        let slots = vec![
            slot(0, 0, &[(0, vec![1.0])]),
            SlotOutput {
                owner: Rank(1),
                slot: 1,
                outputs: None,
            },
        ];
        let out = assemble(
            AssembleRule::OwnerShard,
            &survivors,
            None,
            1,
            &BTreeMap::new(),
            slots,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[&Rank(0)], vec![1.0]);
    }
}
