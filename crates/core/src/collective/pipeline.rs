//! The staged pipeline every collective flows through:
//! **plan** (synthesis via the plan cache) → **relay** (ski-rental
//! decision) → **execute** (wait-all or phase-1/phase-2 partial) →
//! **assemble** (per-sub outputs → result buffers). The recovery loop
//! in [`crate::session`] wraps the whole pipeline, so stage DAGs get
//! the same retry / exclusion / reconstruction treatment as base
//! primitives, and every stage emits a telemetry span
//! (`collective.plan` / `collective.relay` / `collective.execute` /
//! `collective.assemble`) on the `collective` track.

use std::collections::BTreeMap;
use std::sync::Arc;

use adapcc_simnet::cluster::Rank;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;

use crate::collective::assemble::{assemble, SlotOutput};
use crate::collective::plan::{expand, StagePlan};
use crate::collective::report::{ready_span, IterationReport};
use crate::collective::spec::{CollectiveSpec, Fanout, RelayPolicy};
use crate::error::AdapCCError;
use crate::executor::ExecutionRequest;
use crate::relay::Decision;
use crate::session::{AdapCC, MemoEntry};

/// A spec lowered onto the current worker set with every stage
/// strategy synthesized (or served from the memo / plan cache).
pub(super) struct Planned<'s> {
    pub(super) spec: &'s CollectiveSpec,
    pub(super) root: Option<Rank>,
    pub(super) tensor: ByteSize,
    pub(super) stages: Vec<StagePlan>,
    /// Each stage's sub-plan strategies, shared with the session memo
    /// together with their compiled plans.
    pub(super) strategies: Vec<Vec<Arc<MemoEntry>>>,
}

/// What one execution produced: the completion instant, the per-slot
/// outputs the assemble stage turns into the result, and any workers
/// declared faulty.
pub(super) struct ExecOutcome {
    pub(super) finish: SimTime,
    pub(super) slots: Vec<SlotOutput>,
    pub(super) faults: Vec<Rank>,
}

impl Planned<'_> {
    /// Requests for sub-collectives `subs` of stage `i`, each gated by
    /// `ready` and fed its slice of `inputs` (borrowed where a sub
    /// reads the whole map).
    pub(super) fn requests<'p>(
        &'p self,
        i: usize,
        subs: impl IntoIterator<Item = usize>,
        ready: &BTreeMap<Rank, SimTime>,
        inputs: Option<&'p BTreeMap<Rank, Vec<f32>>>,
    ) -> Vec<ExecutionRequest<'p>> {
        let stage = &self.stages[i];
        subs.into_iter()
            .map(|j| {
                let sub = &stage.subs[j];
                let mut req = self.strategies[i][j]
                    .request(sub.tensor)
                    .with_ready(ready.clone());
                req.inputs = inputs.map(|inp| stage.sub_inputs(sub, inp, self.root));
                req
            })
            .collect()
    }

    /// Sub-collective `j` of stage `i`'s outputs, tagged with its slot.
    pub(super) fn slot(
        &self,
        i: usize,
        j: usize,
        outputs: Option<BTreeMap<Rank, Vec<f32>>>,
        workers: &[Rank],
    ) -> SlotOutput {
        let sub = &self.stages[i].subs[j];
        SlotOutput {
            owner: sub.owner.or(sub.root).unwrap_or(workers[0]),
            slot: sub.slot,
            outputs,
        }
    }
}

impl<'c> AdapCC<'c> {
    /// One attempt of `spec` through the staged pipeline. The recovery
    /// loop calls this repeatedly; errors (faults, invalid requests)
    /// surface untouched.
    pub(crate) fn run_collective(
        &mut self,
        spec: &CollectiveSpec,
        root: Option<Rank>,
        tensor: ByteSize,
        ready: &BTreeMap<Rank, SimTime>,
        inputs: Option<&BTreeMap<Rank, Vec<f32>>>,
    ) -> Result<IterationReport, AdapCCError> {
        if !self.communicator.is_set_up() {
            return Err(AdapCCError::InvalidRequest(
                "the communicator is not set up: call setup() before any collective".to_string(),
            ));
        }
        if let Some(r) = root {
            if !self.workers.contains(&r) {
                return Err(AdapCCError::InvalidRequest(format!(
                    "root {r} is not part of the job (excluded or never admitted)"
                )));
            }
        }
        // Every caller buffer holds one whole tensor. Checked here
        // because a sub-collective sees only the buffers it reads, so
        // the executor's own length check never meets the rest.
        if let Some((rank, buf)) = inputs
            .into_iter()
            .flatten()
            .find(|(_, buf)| buf.len() as u64 * 4 != tensor.as_u64())
        {
            return Err(AdapCCError::InvalidRequest(format!(
                "input of {rank} holds {} f32s, but the tensor is {} bytes",
                buf.len(),
                tensor.as_u64()
            )));
        }
        self.iteration += 1;
        self.maybe_reprofile();
        // The workers this collective spans: the active process group's
        // members (intersected with the live worker set), or the whole
        // job when unscoped.
        let workers = self.scope_workers();
        if workers.is_empty() {
            return Err(AdapCCError::InvalidRequest(
                "the collective's process group has no surviving members".to_string(),
            ));
        }
        // A worker admitted between the caller building its input map
        // and this attempt (elastic rejoin runs ahead of the recovery
        // loop) contributes a zero tensor until the trainer reshards —
        // indexing a missing rank deep in the executor would panic.
        let filled: Option<BTreeMap<Rank, Vec<f32>>> = inputs.and_then(|m| {
            if workers.iter().all(|r| m.contains_key(r)) {
                return None;
            }
            let elems = (tensor.as_u64() / 4) as usize;
            let mut m2 = m.clone();
            for r in &workers {
                m2.entry(*r).or_insert_with(|| vec![0.0; elems]);
            }
            Some(m2)
        });
        let inputs = match &filled {
            Some(m) => Some(m),
            None => inputs,
        };
        let tel = self.pipeline_telemetry();

        // Plan: lower the spec, synthesize every stage strategy.
        let planned = self.plan_collective(spec, root, tensor, &tel)?;

        // Relay: consult (or bypass) the ski-rental coordinator.
        let (decision, first, eff) = self.decide_relay(&planned, ready, &workers);
        let (Decision::WaitAll { start } | Decision::Partial { start, .. }) = decision;
        tel.span(
            "collective.relay",
            "collective",
            first.min(start).as_secs(),
            start.as_secs(),
        );

        // Execute: every stage waits for all workers, or the single
        // stage runs phase 1 among the ready workers and phase 2 for
        // the stragglers.
        let outcome = match &decision {
            Decision::WaitAll { .. } => {
                self.execute_wait_all(&planned, start, ready, &workers, inputs)?
            }
            Decision::Partial { ready: active, .. } => {
                self.execute_partial(&planned, start, active, &eff, &workers, inputs)?
            }
        };
        tel.span(
            "collective.execute",
            "collective",
            start.min(outcome.finish).as_secs(),
            outcome.finish.as_secs(),
        );
        // Group-scoped attempts additionally land on a per-group lane
        // (and counter stream) so concurrent groups stay tellable apart
        // on the stitched timeline. World-scoped runs emit nothing here,
        // keeping historical traces byte-identical.
        if let Some(g) = &self.active_scope {
            let label = g.label();
            tel.group_span(
                &label,
                "collective.execute",
                start.min(outcome.finish).as_secs(),
                outcome.finish.as_secs(),
            );
            tel.add_group_counter(&label, "executions", 1.0);
        }

        // Assemble: per-slot outputs → the collective's result buffers.
        let outputs = match inputs {
            Some(inp) => {
                let survivors: Vec<Rank> = workers
                    .iter()
                    .copied()
                    .filter(|w| !outcome.faults.contains(w))
                    .collect();
                let elems = planned
                    .stages
                    .last()
                    .and_then(|s| s.subs.first())
                    .map(|s| (s.tensor.as_u64() / 4) as usize)
                    .unwrap_or(0);
                assemble(
                    planned.spec.assemble,
                    &survivors,
                    planned.root,
                    elems,
                    inp,
                    outcome.slots,
                )
            }
            None => BTreeMap::new(),
        };
        tel.span(
            "collective.assemble",
            "collective",
            outcome.finish.as_secs(),
            outcome.finish.as_secs(),
        );

        Ok(IterationReport {
            finish: outcome.finish,
            comm_time: outcome.finish.duration_since(first),
            wait_time: start.duration_since(first.min(start)),
            decision,
            faults: outcome.faults,
            outputs,
        })
    }

    /// Lowers the spec and synthesizes every stage strategy through
    /// the session memo / plan cache. Stage `k > 0` single-fanout
    /// sub-plans with no explicit root inherit the previous stage's
    /// strategy root (Reduce → reverse Broadcast chaining). Under an
    /// active process group, whole-scope sub-plans adopt the group as
    /// their scope — so their strategy keys, fingerprints and synthesis
    /// participants are all group-local — while pairwise sub-plans keep
    /// their two-member pair scopes (a pair's strategy depends only on
    /// the pair, so it is legitimately shared across enclosing groups).
    fn plan_collective<'s>(
        &mut self,
        spec: &'s CollectiveSpec,
        root: Option<Rank>,
        tensor: ByteSize,
        tel: &adapcc_telemetry::Telemetry,
    ) -> Result<Planned<'s>, AdapCCError> {
        let workers = self.scope_workers();
        let mut stages = expand(spec, root, tensor, &workers)?;
        if let Some(g) = self.active_scope.clone() {
            for stage in &mut stages {
                for sub in &mut stage.subs {
                    if sub.scope.is_none() {
                        sub.scope = Some(g.clone());
                    }
                }
            }
        }
        let mut strategies: Vec<Vec<Arc<MemoEntry>>> = Vec::with_capacity(stages.len());
        let mut memo_miss = false;
        for i in 0..stages.len() {
            if i > 0 && stages[i].fanout == Fanout::Single && stages[i].subs[0].root.is_none() {
                stages[i].subs[0].root = strategies[i - 1][0].strategy.subs[0].root;
            }
            let primitive = stages[i].primitive;
            let mut row = Vec::with_capacity(stages[i].subs.len());
            for sub in &stages[i].subs {
                let key = sub.key(primitive);
                memo_miss |= !self.strategies.contains_key(&key);
                row.push(self.memo_entry(&key));
            }
            strategies.push(row);
        }
        // The plan span charges the modeled solver latency when any
        // strategy was freshly synthesized this iteration — the memo,
        // not the content-addressed plan cache, decides the width, so
        // same-seed runs stay byte-identical regardless of cache tier.
        let solve = if memo_miss {
            crate::reconstruct::modeled_solve_cost(workers.len()).as_secs()
        } else {
            0.0
        };
        tel.span("collective.plan", "collective", 0.0, solve);
        Ok(Planned {
            spec,
            root,
            tensor,
            stages,
            strategies,
        })
    }

    /// The relay stage. Returns the decision, the first ready instant
    /// (the report's clock origin) and the effective readiness map the
    /// composite partial path works from.
    fn decide_relay(
        &mut self,
        planned: &Planned<'_>,
        ready: &BTreeMap<Rank, SimTime>,
        workers: &[Rank],
    ) -> (Decision, SimTime, BTreeMap<Rank, SimTime>) {
        match planned.spec.relay {
            RelayPolicy::WaitAll => {
                let (first, last) = ready_span(ready, workers);
                (Decision::WaitAll { start: last }, first, ready.clone())
            }
            RelayPolicy::Adaptive {
                missing_is_fault: true,
            } => {
                // The adaptive AllReduce contract: absent workers are
                // fault candidates, the raw map goes to the
                // coordinator, and the buy estimate carries a measured
                // phase-2 broadcast unit.
                let strategy = &planned.strategies[0][0].strategy;
                let droot = strategy.subs[0]
                    .root
                    .expect("allreduce strategies are rooted");
                let est = self.buy_estimate(strategy, planned.tensor);
                let decision = self.coordinator.decide(workers, droot, ready, &est);
                let first = ready.values().copied().min().unwrap_or(SimTime::ZERO);
                (decision, first, ready.clone())
            }
            RelayPolicy::Adaptive {
                missing_is_fault: false,
            } => {
                // Composite contract: callers historically pass
                // partial or empty maps, so absent workers count as
                // ready at time zero rather than as faults.
                let eff: BTreeMap<Rank, SimTime> = workers
                    .iter()
                    .map(|w| (*w, ready.get(w).copied().unwrap_or(SimTime::ZERO)))
                    .collect();
                let stage = &planned.stages[0];
                let droot = match stage.fanout {
                    Fanout::Single => planned.strategies[0][0].strategy.subs[0]
                        .root
                        .expect("rooted strategy"),
                    _ => {
                        // The earliest-ready worker anchors the
                        // decision: its sub-collective certainly runs
                        // in phase 1.
                        let mut droot = workers[0];
                        let mut best = eff[&droot];
                        for w in workers {
                            if eff[w] < best {
                                best = eff[w];
                                droot = *w;
                            }
                        }
                        droot
                    }
                };
                let est = self.modeled_buy_estimate(
                    planned.spec.estimate_as,
                    &planned.strategies[0][0].strategy,
                    stage.subs[0].tensor,
                );
                let decision = self.coordinator.decide(workers, droot, &eff, &est);
                let first = eff.values().copied().min().unwrap_or(SimTime::ZERO);
                (decision, first, eff)
            }
        }
    }

    /// The wait-all executor. Each stage's sub-collectives run as one
    /// batch from the caller's readiness; stage `k + 1` starts when
    /// stage `k` drains and consumes its merged outputs. A
    /// single-fanout stage of a timing-only run on a healthy fabric
    /// reuses the cached zero-skew execution time instead: the
    /// collective itself is deterministic and the slowest worker (or
    /// the decision instant) gates its start. With a fault schedule
    /// armed the memo would mask faults, so every stage goes through
    /// the executor.
    fn execute_wait_all(
        &mut self,
        planned: &Planned<'_>,
        start: SimTime,
        ready: &BTreeMap<Rank, SimTime>,
        workers: &[Rank],
        inputs: Option<&BTreeMap<Rank, Vec<f32>>>,
    ) -> Result<ExecOutcome, AdapCCError> {
        let memo = inputs.is_none() && self.fault_schedule.is_none();
        let mut stage_ready: Option<BTreeMap<Rank, SimTime>> = None;
        let mut finish = ready_span(ready, workers).1;
        let mut slots: Vec<SlotOutput> = Vec::new();
        for (i, stage) in planned.stages.iter().enumerate() {
            if stage.subs.is_empty() {
                // A pairwise stage over a single worker has nothing to
                // move; assembly serves the root from its own input.
                continue;
            }
            if memo && stage.fanout == Fanout::Single {
                let key = stage.subs[0].key(stage.primitive);
                let t_exec = self.cached_exec_secs(&key, &planned.strategies[i][0]);
                let (_, last) = ready_span(stage_ready.as_ref().unwrap_or(ready), workers);
                finish = last.max(start) + SimDuration::from_secs(t_exec);
                slots = vec![planned.slot(i, 0, Some(BTreeMap::new()), workers)];
            } else {
                // The previous stage's outputs, merged, feed this one;
                // stage 0 reads the caller's buffers in place.
                let carried: Option<BTreeMap<Rank, Vec<f32>>> =
                    (!slots.is_empty() && inputs.is_some()).then(|| {
                        slots
                            .drain(..)
                            .filter_map(|s| s.outputs)
                            .flatten()
                            .collect()
                    });
                let requests = planned.requests(
                    i,
                    0..stage.subs.len(),
                    stage_ready.as_ref().unwrap_or(ready),
                    carried.as_ref().or(inputs),
                );
                let batch = self.executor().try_execute(&requests)?;
                finish = batch.finish;
                slots = (0..stage.subs.len())
                    .zip(batch.requests)
                    .map(|(j, r)| planned.slot(i, j, Some(r.outputs), workers))
                    .collect();
            }
            stage_ready = Some(workers.iter().map(|w| (*w, finish)).collect());
        }
        Ok(ExecOutcome {
            finish,
            slots,
            faults: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::session::InitOptions;
    use adapcc_simnet::cluster::{Cluster, InstanceId};
    use adapcc_synth::primitive::Primitive;
    use adapcc_synth::solver::SynthConfig;
    use adapcc_telemetry::Telemetry;

    type Tensors = BTreeMap<Rank, Vec<f32>>;

    fn quick_options() -> InitOptions {
        InitOptions {
            synth: SynthConfig {
                anneal_iters: 24,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn inputs_for(workers: &[Rank], elems: usize) -> Tensors {
        workers
            .iter()
            .map(|r| {
                let buf = (0..elems)
                    .map(|i| ((r.0 * 31 + i * 7) % 97) as f32 / 9.0)
                    .collect();
                (*r, buf)
            })
            .collect()
    }

    /// Every public entry point: its name, its spec and its root.
    fn entry_points(root: Rank) -> Vec<(&'static str, CollectiveSpec, Option<Rank>)> {
        vec![
            ("allreduce", CollectiveSpec::allreduce(), None),
            (
                "allreduce_adaptive",
                CollectiveSpec::allreduce_adaptive(),
                None,
            ),
            ("reduce", CollectiveSpec::reduce(), None),
            ("broadcast", CollectiveSpec::broadcast(), Some(root)),
            ("alltoall", CollectiveSpec::alltoall(), None),
            ("allgather", CollectiveSpec::allgather(), None),
            ("reduce_scatter", CollectiveSpec::reduce_scatter(), None),
            ("gather", CollectiveSpec::gather(), Some(root)),
            ("scatter", CollectiveSpec::scatter(), Some(root)),
        ]
    }

    /// Calls the entry point `name` through the public API.
    fn call(
        cc: &mut AdapCC<'_>,
        name: &str,
        root: Option<Rank>,
        tensor: ByteSize,
        ready: &BTreeMap<Rank, SimTime>,
        inputs: &Tensors,
    ) -> IterationReport {
        let inputs = Some(inputs.clone());
        let root = || root.expect("rooted entry point");
        match name {
            "allreduce" => cc.allreduce(tensor, ready, inputs),
            "allreduce_adaptive" => cc.allreduce_adaptive(tensor, ready, inputs),
            "reduce" => cc.reduce(tensor, ready, inputs),
            "broadcast" => cc.broadcast(root(), tensor, ready, inputs),
            "alltoall" => cc.alltoall(tensor, ready, inputs),
            "allgather" => cc.allgather(tensor, ready, inputs),
            "reduce_scatter" => cc.reduce_scatter(tensor, ready, inputs),
            "gather" => cc.gather(root(), tensor, ready, inputs),
            "scatter" => cc.scatter(root(), tensor, ready, inputs),
            other => unreachable!("no entry point {other}"),
        }
        .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// The spec run by a fresh executor, which validates and lowers
    /// every strategy anew: finish, bytes on the wire and the
    /// assembled outputs.
    fn fresh(
        cc: &mut AdapCC<'_>,
        spec: &CollectiveSpec,
        root: Option<Rank>,
        tensor: ByteSize,
        ready: &BTreeMap<Rank, SimTime>,
        inputs: &Tensors,
    ) -> (SimTime, u64, Tensors) {
        let planned = cc
            .plan_collective(spec, root, tensor, &Telemetry::disabled())
            .unwrap();
        assert_eq!(planned.stages.len(), 1, "{}: one stage", spec.name);
        let stage = &planned.stages[0];
        let mut requests = planned.requests(0, 0..stage.subs.len(), ready, Some(inputs));
        for r in &mut requests {
            r.plan = None;
        }
        let batch = Executor::new(cc.cluster, &cc.topo)
            .with_capacity_factors(&cc.fabric_factors)
            .try_execute(&requests)
            .unwrap();
        let workers = cc.workers().to_vec();
        let slots = batch
            .requests
            .into_iter()
            .enumerate()
            .map(|(j, r)| planned.slot(0, j, Some(r.outputs), &workers))
            .collect();
        let elems = (stage.subs[0].tensor.as_u64() / 4) as usize;
        let outputs = assemble(spec.assemble, &workers, root, elems, inputs, slots);
        (batch.finish, batch.bytes_on_wire, outputs)
    }

    /// Bit-for-bit equality of two output maps.
    fn same_bits(a: &Tensors, b: &Tensors) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|((ra, xa), (rb, xb))| {
                ra == rb
                    && xa.len() == xb.len()
                    && xa.iter().zip(xb).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    #[test]
    fn compiled_plans_match_fresh_lowering_for_every_entry_point() {
        for cluster in [Cluster::paper_testbed(), Cluster::homogeneous_a100(16)] {
            let telemetry = Telemetry::enabled();
            let mut cc = AdapCC::init(
                &cluster,
                InitOptions {
                    telemetry: telemetry.clone(),
                    ..quick_options()
                },
            );
            cc.setup();
            let workers = cc.workers().to_vec();
            let n = workers.len();
            // Divisible by every worker count: shards and alltoall
            // messages align.
            let elems = 2 * 64 * 24;
            let tensor = ByteSize::from_bytes(elems as u64 * 4);
            let inputs = inputs_for(&workers, elems);
            // Everyone ready together: the adaptive entry point waits
            // for all.
            let ready = workers.iter().map(|w| (*w, SimTime::ZERO)).collect();
            for (name, spec, root) in entry_points(workers[n / 2]) {
                let want = fresh(&mut cc, &spec, root, tensor, &ready, &inputs);
                for attempt in ["compiles", "reuses"] {
                    let before = telemetry.counter("exec.bytes_on_wire");
                    let report = call(&mut cc, name, root, tensor, &ready, &inputs);
                    let bytes = telemetry.counter("exec.bytes_on_wire") - before;
                    let at = format!("{name} on {n} GPUs, the call that {attempt} its plans");
                    assert!(
                        matches!(report.decision, Decision::WaitAll { .. }),
                        "{at}: waits for all"
                    );
                    assert_eq!(
                        report.finish.as_secs().to_bits(),
                        want.0.as_secs().to_bits(),
                        "{at}"
                    );
                    assert_eq!(bytes, want.1 as f64, "{at}");
                    assert!(same_bits(&report.outputs, &want.2), "{at}: outputs differ");
                }
            }
        }
    }

    /// Every memo entry whose plan has been compiled.
    fn compiled(cc: &AdapCC<'_>) -> Vec<Arc<MemoEntry>> {
        cc.strategies
            .values()
            .filter(|e| e.plan.get().is_some())
            .cloned()
            .collect()
    }

    #[test]
    fn membership_profile_and_topology_changes_retire_every_compiled_plan() {
        let c = Cluster::homogeneous_a100(4);
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        // Three of four servers, so the scale-out joins a new instance.
        cc.set_workers((0..12).map(Rank).collect());
        let tensor = ByteSize::from_kib(64);
        let mut retired: Vec<Arc<MemoEntry>> = Vec::new();
        let mut run = |cc: &mut AdapCC<'_>, step: &str| {
            let inputs = inputs_for(cc.workers(), 64 * 1024 / 4);
            cc.allreduce(tensor, &BTreeMap::new(), Some(inputs))
                .unwrap_or_else(|e| panic!("{step}: {e}"));
            let now = compiled(cc);
            assert!(!now.is_empty(), "{step}: the call compiled its plan");
            for e in &now {
                assert!(
                    !retired.iter().any(|old| Arc::ptr_eq(old, e)),
                    "{step}: a plan compiled before it ran"
                );
            }
            retired.extend(now);
        };
        run(&mut cc, "start");
        cc.set_workers((0..8).map(Rank).collect());
        run(&mut cc, "set_workers");
        cc.set_fabric_factors(vec![(c.nic_egress_link(InstanceId(0)), 0.5)]);
        assert!(cc.reprofile().changed, "the halved NIC re-synthesizes");
        run(&mut cc, "reprofile");
        cc.exclude_workers(&[Rank(7)]);
        run(&mut cc, "exclusion");
        let joined = cc
            .add_workers(&(12..16).map(Rank).collect::<Vec<_>>())
            .expect("ranks of the fourth server join");
        assert!(joined.detection.as_secs() > 0.0, "the scale-out re-detects");
        run(&mut cc, "scale-out");
    }

    #[test]
    fn raw_batches_still_validate_their_strategies() {
        let c = Cluster::homogeneous_a100(2);
        let mut cc = AdapCC::init(&c, quick_options());
        cc.setup();
        let tensor = ByteSize::from_kib(64);
        cc.allreduce(tensor, &BTreeMap::new(), None).unwrap();
        let mut broken = cc.strategy_for(Primitive::AllReduce, tensor).clone();
        broken.subs[0].fraction += 0.5;
        let err = cc
            .run_batch(&[ExecutionRequest::timing(&broken, tensor)])
            .expect_err("fractions no longer sum to one");
        assert!(
            matches!(&err, AdapCCError::InvalidRequest(msg) if msg.contains("validate")),
            "{err}"
        );
        let valid = cc.strategy_for(Primitive::AllReduce, tensor).clone();
        assert!(cc
            .run_batch(&[ExecutionRequest::timing(&valid, tensor)])
            .is_ok());
    }

    #[test]
    fn plans_share_the_memos_strategies() {
        // Two plans of one collective lend the memo's strategies: every
        // stage strategy is one allocation, not a copy per call.
        let c = Cluster::homogeneous_a100(2);
        let mut cc = AdapCC::init(&c, InitOptions::default());
        cc.setup();
        let spec = CollectiveSpec::allgather();
        let tensor = ByteSize::from_kib(16);
        let tel = Telemetry::disabled();
        let a = cc.plan_collective(&spec, None, tensor, &tel).unwrap();
        let b = cc.plan_collective(&spec, None, tensor, &tel).unwrap();
        assert!(!a.strategies[0].is_empty());
        for (x, y) in a
            .strategies
            .iter()
            .flatten()
            .zip(b.strategies.iter().flatten())
        {
            assert!(Arc::ptr_eq(x, y), "a plan copied a memo strategy");
        }
    }
}
