//! The phase-1 / phase-2 partial executor behind a `Partial` relay
//! decision (paper Sec. IV-C). Phase 1 runs the ready workers' share
//! from the trigger instant; stragglers still unready `T_fault` past
//! phase 1 are faults; phase 2 completes the surviving stragglers'
//! share. What a worker's share is depends on the stage's fanout:
//!
//! - single fanout (the adaptive AllReduce): phase 1 runs the strategy
//!   with relay sources muted, phase 2 broadcasts each late worker's
//!   missed fraction and combines it locally;
//! - fanned stages (the composites): sub-collectives owned by ready
//!   workers run in phase 1 (relay GPUs keep forwarding on the routes
//!   of others, and their buffers are consumed as chunks land), those
//!   owned by surviving stragglers in phase 2.

use std::collections::BTreeMap;
use std::sync::Arc;

use adapcc_simnet::cluster::Rank;
use adapcc_simnet::hardware::kernel_launch_overhead;
use adapcc_simnet::time::SimTime;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;

use crate::collective::assemble::SlotOutput;
use crate::collective::pipeline::{ExecOutcome, Planned};
use crate::collective::plan::StrategyKey;
use crate::collective::spec::Fanout;
use crate::error::AdapCCError;
use crate::executor::ExecutionRequest;
use crate::relay::restrict_to_active;
use crate::session::{AdapCC, MemoEntry};

impl<'c> AdapCC<'c> {
    /// Runs the single stage of `planned` as phase 1 among `active`
    /// from `start`, then phase 2 for the surviving stragglers. `eff`
    /// is the readiness the relay decision was taken on.
    pub(super) fn execute_partial(
        &mut self,
        planned: &Planned<'_>,
        start: SimTime,
        active: &[Rank],
        eff: &BTreeMap<Rank, SimTime>,
        workers: &[Rank],
        inputs: Option<&BTreeMap<Rank, Vec<f32>>>,
    ) -> Result<ExecOutcome, AdapCCError> {
        let stage = &planned.stages[0];
        let tensor = planned.tensor;
        let owned_by = |set: &[Rank]| -> Vec<usize> {
            (0..stage.subs.len())
                .filter(|j| stage.subs[*j].owner.is_some_and(|o| set.contains(&o)))
                .collect()
        };

        // Phase 1: the ready workers' share, sends clamped to the
        // trigger instant.
        let phase1_ready: BTreeMap<Rank, SimTime> =
            active.iter().map(|r| (*r, eff[r].max(start))).collect();
        let single = stage.fanout == Fanout::Single;
        let muted = single.then(|| restrict_to_active(&planned.strategies[0][0].strategy, active));
        let p1 = owned_by(active);
        let p1_requests = match &muted {
            Some(m) => {
                let req = ExecutionRequest::timing(m, tensor).with_ready(phase1_ready);
                vec![match inputs {
                    Some(inp) => req.with_inputs(
                        inp.iter()
                            .filter(|(r, _)| active.contains(r))
                            .map(|(r, b)| (*r, b.clone()))
                            .collect(),
                    ),
                    None => req,
                }]
            }
            None => planned.requests(0, p1.iter().copied(), &phase1_ready, inputs),
        };
        let phase1 = self.executor().try_execute(&p1_requests)?;
        let phase1_end = phase1.finish;

        // Fault detection. The late set is every worker outside phase 1
        // — relay-assigned or not, so relay-ineligible probation ranks'
        // data still arrives — minus the faults.
        let faults = self.coordinator.detect_faults(workers, eff, phase1_end);
        let late: Vec<Rank> = workers
            .iter()
            .copied()
            .filter(|r| !active.contains(r) && !faults.contains(r))
            .collect();
        let p2 = owned_by(&late);

        // Phase 2: the surviving stragglers' share.
        let mut finish = phase1_end;
        let mut p2_outputs: Vec<BTreeMap<Rank, Vec<f32>>> = Vec::new();
        if !late.is_empty() {
            if single {
                let broadcasts =
                    self.missed_fraction_broadcasts(tensor, start, phase1_end, &late, eff);
                let requests: Vec<ExecutionRequest<'_>> = broadcasts
                    .iter()
                    .map(|(s, r, bytes)| {
                        let t = eff.get(r).copied().unwrap_or(phase1_end);
                        s.request(*bytes)
                            .with_ready([(*r, t.max(phase1_end))].into())
                    })
                    .collect();
                let phase2 = self.executor().try_execute(&requests)?;
                // Local combine kernels, one per late tensor.
                let root = planned.strategies[0][0].strategy.subs[0]
                    .root
                    .expect("allreduce strategies are rooted");
                let (inst, _) = self.cluster.locate(root);
                let combine = kernel_launch_overhead()
                    + self
                        .cluster
                        .spec(inst)
                        .gpu
                        .reduce_bandwidth()
                        .time_for(tensor);
                finish = phase2.finish + combine.scale(late.len() as f64);
            } else {
                let p2_ready: BTreeMap<Rank, SimTime> = workers
                    .iter()
                    .map(|w| (*w, eff[w].max(phase1_end)))
                    .collect();
                let phase2 = self.executor().try_execute(&planned.requests(
                    0,
                    p2.iter().copied(),
                    &p2_ready,
                    inputs,
                ))?;
                finish = phase2.finish;
                p2_outputs = phase2.requests.into_iter().map(|r| r.outputs).collect();
            }
        }

        let slots = if single {
            // Final values: phase-1 partial sum + late tensors.
            let mut outputs = BTreeMap::new();
            if let Some(inp) = inputs {
                let mut total = phase1
                    .requests
                    .into_iter()
                    .next()
                    .and_then(|r| r.outputs.into_values().next())
                    .unwrap_or_else(|| vec![0.0; (tensor.as_u64() / 4) as usize]);
                for r in &late {
                    for (d, v) in total.iter_mut().zip(&inp[r]) {
                        *d += v;
                    }
                }
                for w in workers.iter().filter(|w| !faults.contains(w)) {
                    outputs.insert(*w, total.clone());
                }
            }
            vec![planned.slot(0, 0, Some(outputs), workers)]
        } else {
            let ran = p1
                .iter()
                .zip(phase1.requests.into_iter().map(|r| r.outputs));
            let mut slots: Vec<SlotOutput> = ran
                .chain(p2.iter().zip(p2_outputs))
                .map(|(&j, outputs)| planned.slot(0, j, Some(outputs), workers))
                .collect();
            for j in owned_by(&faults) {
                slots.push(planned.slot(0, j, None, workers));
            }
            slots
        };
        Ok(ExecOutcome {
            finish,
            slots,
            faults,
        })
    }

    /// The phase-2 broadcast of each late worker's tensor. A late
    /// worker whose tensor became ready *during* phase 1 joined the
    /// ongoing aggregation for the chunks still in flight (paper
    /// Sec. IV-C), so only its missed fraction rides the broadcast.
    fn missed_fraction_broadcasts(
        &mut self,
        tensor: ByteSize,
        start: SimTime,
        phase1_end: SimTime,
        late: &[Rank],
        ready: &BTreeMap<Rank, SimTime>,
    ) -> Vec<(Arc<MemoEntry>, Rank, ByteSize)> {
        let phase1_span = phase1_end.duration_since(start).as_secs().max(1e-9);
        late.iter()
            .map(|r| {
                let t = ready.get(r).copied().unwrap_or(phase1_end);
                let missed = if t >= phase1_end {
                    1.0
                } else {
                    // Fraction of chunks already aggregated when this
                    // worker's buffer filled.
                    (t.duration_since(start.min(t)).as_secs() / phase1_span).clamp(0.0, 1.0)
                };
                let bytes = ((tensor.as_f64() * missed) as u64 / 4).max(1) * 4;
                let key = StrategyKey {
                    primitive: Primitive::Broadcast,
                    tensor: tensor.as_u64(),
                    root: Some(*r),
                    scope: self.active_scope.clone(),
                };
                (self.memo_entry(&key), *r, ByteSize::from_bytes(bytes))
            })
            .collect()
    }
}
