//! The strategy synthesizer (paper Sec. IV-D).
//!
//! The paper formulates routing, chunk sizing and aggregation control as
//! a mixed-integer program and hands it to Gurobi. Gurobi is not
//! available here, and the MIP is NP-hard anyway, so — as documented in
//! DESIGN.md — we optimize the *same objective* (the [`CostModel`]
//! implementing eqs. 1–6) with a structured search:
//!
//! 1. **Candidate generation**: hierarchical reduce trees (per-instance
//!    leaders fed by local stars, optionally through relay hubs; star /
//!    chain / binary inter-instance shapes), with leaders rotated across
//!    the `M` sub-collectives so parallel sub-collectives use disjoint
//!    NVLinks and spread NIC load.
//! 2. **Chunk-size sweep** over a geometric grid (the latency/pipelining
//!    trade-off of eq. 5).
//! 3. **Fraction balancing**: partition sizes `S_m` reweighted inversely
//!    to each sub-collective's predicted completion.
//! 4. **Simulated annealing** over tree mutations (re-parenting
//!    instances, swapping leaders, toggling relay hubs, chunk steps),
//!    accepting strictly by the cost model, with a seeded RNG for
//!    reproducibility.

use std::collections::BTreeMap;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use adapcc_profile::profiler::LinkProfile;
use adapcc_simnet::cluster::{InstanceId, Rank};
use adapcc_simnet::rng::seeded_rng;
use adapcc_simnet::units::ByteSize;
use adapcc_topo::logical::{EdgeKind, LogicalNode, LogicalTopology};

use crate::cost::{BackgroundLoad, CostModel, CostState};
use crate::hierarchy::Hierarchical;
use crate::primitive::Primitive;
use crate::strategy::{validate_sub, Flow, Strategy, SubCollective};

/// What to synthesize.
#[derive(Debug, Clone)]
pub struct SynthRequest {
    /// The primitive.
    pub primitive: Primitive,
    /// Per-rank tensor size.
    pub tensor: ByteSize,
    /// Number of parallel sub-collectives (`M`, paper default 4).
    pub parallelism: usize,
    /// Workers contributing data.
    pub participants: Vec<Rank>,
    /// Non-ready workers available as forwarding/aggregating relays.
    pub relays: Vec<Rank>,
    /// Preferred root (rooted primitives); chosen automatically if
    /// `None`.
    pub root: Option<Rank>,
    /// RNG seed for the annealer.
    pub seed: u64,
}

impl SynthRequest {
    /// A request with no relays and an automatic root.
    pub fn new(
        primitive: Primitive,
        tensor: ByteSize,
        parallelism: usize,
        participants: Vec<Rank>,
    ) -> Self {
        SynthRequest {
            primitive,
            tensor,
            parallelism,
            participants,
            relays: Vec::new(),
            root: None,
            seed: 0,
        }
    }
}

/// Search effort knobs.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Annealing iterations.
    pub anneal_iters: usize,
    /// Initial acceptance temperature relative to the initial cost.
    pub initial_temp: f64,
    /// Chunk-size grid swept for every sub-collective.
    pub chunk_grid: Vec<ByteSize>,
    /// Fraction-balancing passes.
    pub balance_passes: usize,
    /// Independent annealing chains the iteration budget is split
    /// across. Part of the *search definition*: changing it changes the
    /// synthesized strategy (each chain explores from its own seed and
    /// the deterministic argmin picks the cheapest). The default of 1
    /// is bit-identical to the historical sequential annealer.
    pub anneal_chains: usize,
    /// Worker threads chains are scheduled onto, clamped to
    /// [`anneal_chains`](Self::anneal_chains). Pure *execution* knob:
    /// the synthesized strategy is bit-identical for any value — chain
    /// seeds, iteration splits and the cost argmin are all independent
    /// of how chains map to threads.
    pub solver_threads: usize,
    /// When to decompose into intra-/inter-server tiers instead of
    /// running the flat whole-fleet search (see [`crate::hierarchy`]).
    pub hierarchical: Hierarchical,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            anneal_iters: 240,
            initial_temp: 0.08,
            chunk_grid: vec![
                ByteSize::from_kib(256),
                ByteSize::from_kib(512),
                ByteSize::from_mib(1),
                ByteSize::from_mib(2),
                ByteSize::from_mib(4),
                ByteSize::from_mib(8),
            ],
            balance_passes: 3,
            anneal_chains: 1,
            solver_threads: 1,
            hierarchical: Hierarchical::Auto,
        }
    }
}

/// The synthesizer.
///
/// # Examples
///
/// ```
/// use adapcc_simnet::cluster::{Cluster, Rank};
/// use adapcc_simnet::units::ByteSize;
/// use adapcc_topo::detect::Detector;
/// use adapcc_profile::profiler::Profiler;
/// use adapcc_synth::primitive::Primitive;
/// use adapcc_synth::solver::{SynthRequest, Synthesizer};
///
/// let cluster = Cluster::homogeneous_a100(2);
/// let topo = Detector::new(&cluster, 1).run().logical_topology(&cluster);
/// let profile = Profiler::new(&cluster, &topo, 1).run().links;
/// let req = SynthRequest::new(
///     Primitive::Reduce,
///     ByteSize::from_mib(64),
///     4,
///     (0..8).map(Rank).collect(),
/// );
/// let strategy = Synthesizer::new(&topo, &profile).synthesize(&req);
/// assert_eq!(strategy.parallelism(), 4);
/// assert!(strategy.validate(&topo).is_ok());
/// ```
#[derive(Debug)]
pub struct Synthesizer<'a> {
    topo: &'a LogicalTopology,
    profile: &'a LinkProfile,
    config: SynthConfig,
    telemetry: adapcc_telemetry::Telemetry,
    background: Option<&'a BackgroundLoad>,
}

/// Instance of a rank, derived from the logical topology's host links
/// (the synthesizer never touches the physical cluster).
pub fn instance_of(topo: &LogicalTopology, rank: Rank) -> InstanceId {
    for e in topo.edges_from(LogicalNode::Gpu(rank)) {
        let edge = topo.edge(*e);
        if edge.kind == EdgeKind::HostLink {
            if let LogicalNode::Nic(i) = edge.to {
                return i;
            }
        }
    }
    panic!("rank {rank:?} has no host link in the logical topology");
}

/// The per-sub-collective tree blueprint the annealer mutates;
/// `realize` expands it to flows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TreeSpec {
    /// Leader GPU per participating instance.
    pub(crate) leader: BTreeMap<InstanceId, Rank>,
    /// Inter-instance tree: child instance -> parent instance.
    pub(crate) parent: BTreeMap<InstanceId, InstanceId>,
    /// Root GPU of this sub-collective. Plain Reduce pins one root for
    /// every sub; AllReduce spreads roots across instances so the
    /// aggregation load is not funnelled into a single NIC (the
    /// parallel-sub-collective benefit of Fig. 8).
    pub(crate) root: Rank,
    /// Root instance.
    pub(crate) root_inst: InstanceId,
    /// Members routed through a relay hub: member -> hub.
    pub(crate) via_hub: BTreeMap<Rank, Rank>,
    /// Chunk size flows of this sub are pipelined at.
    pub(crate) chunk: ByteSize,
    /// Share of the tensor carried by this sub.
    pub(crate) fraction: f64,
}

/// A full strategy blueprint: one [`TreeSpec`] per sub-collective.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// Blueprints, indexed like `Strategy::subs`.
    pub(crate) specs: Vec<TreeSpec>,
}

/// Salt deriving the seeds of annealing chains 1.. from the request
/// seed; chain 0 keeps the raw seed so a single chain replays the
/// historical sequential stream bit-for-bit.
const CHAIN_SEED_SALT: u64 = 0xC4A1_4E5D_5EED_0001;

/// Result of one annealing chain: its best cost, the improving plan and
/// strategy if it found one, and its evaluation tallies.
struct ChainOut {
    cost: f64,
    best: Option<(Plan, Strategy)>,
    full: u64,
    delta: u64,
}

/// What a mutation changed: one sub-collective's tree (re-realize and
/// delta-score just that sub) or the fraction split (re-partition
/// only — no flow changes).
#[derive(Debug, Clone, Copy)]
enum Mutated {
    Spec(usize),
    Fractions,
}

/// The fraction half of `Strategy::validate`, applied before a
/// fraction delta (fraction mutations leave every tree untouched, so
/// this is the only check that can newly fail).
fn fractions_valid(fracs: &[f64]) -> bool {
    let total: f64 = fracs.iter().sum();
    (total - 1.0).abs() <= 1e-6 && fracs.iter().all(|f| *f >= 0.0)
}

/// Serializable blueprint of one sub-collective's tree — the public
/// mirror of the solver's internal `TreeSpec`, exported so plan caches
/// can persist enough structure to warm-start a later search.
#[derive(Debug, Clone, PartialEq)]
pub struct SubSeed {
    /// Leader GPU per participating instance.
    pub leader: BTreeMap<InstanceId, Rank>,
    /// Inter-instance tree: child instance -> parent instance.
    pub parent: BTreeMap<InstanceId, InstanceId>,
    /// Root GPU of this sub-collective.
    pub root: Rank,
    /// Root instance.
    pub root_inst: InstanceId,
    /// Members routed through a relay hub: member -> hub.
    pub via_hub: BTreeMap<Rank, Rank>,
    /// Pipelining chunk size.
    pub chunk: ByteSize,
    /// Tensor fraction assigned to this sub-collective.
    pub fraction: f64,
}

/// Blueprint of a whole synthesized plan, returned alongside the
/// strategy by [`Synthesizer::synthesize_with_seed`] and accepted by
/// [`Synthesizer::synthesize_warm`].
///
/// Empty for analytic primitives (AllToAll) whose synthesis has no
/// annealed tree structure worth reusing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanSeed {
    /// One blueprint per sub-collective.
    pub subs: Vec<SubSeed>,
}

impl From<&TreeSpec> for SubSeed {
    fn from(spec: &TreeSpec) -> Self {
        SubSeed {
            leader: spec.leader.clone(),
            parent: spec.parent.clone(),
            root: spec.root,
            root_inst: spec.root_inst,
            via_hub: spec.via_hub.clone(),
            chunk: spec.chunk,
            fraction: spec.fraction,
        }
    }
}

fn spec_from_seed(seed: &SubSeed) -> TreeSpec {
    TreeSpec {
        leader: seed.leader.clone(),
        parent: seed.parent.clone(),
        root: seed.root,
        root_inst: seed.root_inst,
        via_hub: seed.via_hub.clone(),
        chunk: seed.chunk,
        fraction: seed.fraction,
    }
}

fn plan_seed(plan: &Plan) -> PlanSeed {
    PlanSeed {
        subs: plan.specs.iter().map(SubSeed::from).collect(),
    }
}

impl<'a> Synthesizer<'a> {
    /// A synthesizer with default search effort.
    pub fn new(topo: &'a LogicalTopology, profile: &'a LinkProfile) -> Self {
        Synthesizer {
            topo,
            profile,
            config: SynthConfig::default(),
            telemetry: adapcc_telemetry::Telemetry::disabled(),
            background: None,
        }
    }

    /// Overrides the search configuration.
    pub fn with_config(mut self, config: SynthConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a telemetry sink: every synthesis bumps `synth.*`
    /// counters (requests, search effort, chosen root). The timed
    /// `synthesize` span is emitted by callers that own the session
    /// timeline — synthesis itself runs on the control plane, not the
    /// simulated fabric.
    pub fn with_telemetry(mut self, telemetry: adapcc_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Pins a background load: every cost evaluation during synthesis
    /// scores the candidate against these already-scheduled streams in
    /// addition to its own, lifting the eq. 3 equal-share bandwidth
    /// model across co-scheduled process groups. The solve stays fully
    /// deterministic — the background is a fixed snapshot, not live
    /// state.
    pub fn with_background(mut self, background: &'a BackgroundLoad) -> Self {
        self.background = Some(background);
        self
    }

    /// The logical topology being synthesized over.
    pub(crate) fn topo(&self) -> &'a LogicalTopology {
        self.topo
    }

    /// The profiled link fits driving the cost model.
    pub(crate) fn profile(&self) -> &'a LinkProfile {
        self.profile
    }

    /// The active search configuration.
    pub(crate) fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// The telemetry sink.
    pub(crate) fn telemetry(&self) -> &adapcc_telemetry::Telemetry {
        &self.telemetry
    }

    /// The pinned background load, if co-scheduled.
    pub(crate) fn background(&self) -> Option<&'a BackgroundLoad> {
        self.background
    }

    /// The cost model every solve scores against, with the pinned
    /// background (if any) applied.
    pub(crate) fn cost_model(&self) -> CostModel<'a> {
        let model = CostModel::new(self.topo, self.profile);
        match self.background {
            Some(bg) => model.with_background(bg),
            None => model,
        }
    }

    /// Produces a validated strategy for the request.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty, contains duplicates, or if
    /// `parallelism` is zero.
    pub fn synthesize(&self, req: &SynthRequest) -> Strategy {
        self.synthesize_with_seed(req).0
    }

    /// Like [`synthesize`](Self::synthesize), but also returns the
    /// winning plan blueprint so callers (the plan cache) can persist
    /// it and later [`synthesize_warm`](Self::synthesize_warm) from it.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty, contains duplicates, or if
    /// `parallelism` is zero.
    pub fn synthesize_with_seed(&self, req: &SynthRequest) -> (Strategy, PlanSeed) {
        assert!(!req.participants.is_empty(), "no participants");
        assert!(req.parallelism > 0, "parallelism must be positive");
        self.telemetry.add_counter("synth.requests", 1.0);
        self.telemetry
            .set_counter("synth.participants", req.participants.len() as f64);
        self.telemetry
            .set_counter("synth.anneal_iters", self.config.anneal_iters as f64);
        let mut uniq = req.participants.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), req.participants.len(), "duplicate participants");

        match req.primitive {
            Primitive::AllToAll => (self.synthesize_alltoall(req), PlanSeed::default()),
            Primitive::Broadcast => {
                let (reduce, plan) = self.synthesize_reduce_plan(req);
                (
                    reduce.reversed(self.topo, Primitive::Broadcast),
                    plan_seed(&plan),
                )
            }
            Primitive::Reduce | Primitive::AllReduce => {
                let (mut s, plan) = self.synthesize_reduce_plan(req);
                s.primitive = req.primitive;
                (s, plan_seed(&plan))
            }
            Primitive::AllGather | Primitive::ReduceScatter => panic!(
                "{} is composed from per-root Broadcast/Reduce strategies by the \
                 Communicator (paper Sec. IV-D); synthesize those instead",
                req.primitive
            ),
        }
    }

    /// Warm-starts synthesis from a previously-cached [`PlanSeed`]:
    /// skips candidate generation and the long anneal, re-running only
    /// the analytic chunk-size sweep, fraction balancing and a short
    /// polish anneal (1/8 of the configured iterations).
    ///
    /// Returns `None` when the seed no longer matches the request —
    /// participants moved instances, a seeded leader or root left the
    /// participant set, a hub is no longer a relay, or the requested
    /// root changed — in which case callers fall back to a cold
    /// [`synthesize_with_seed`](Self::synthesize_with_seed).
    pub fn synthesize_warm(
        &self,
        req: &SynthRequest,
        seed: &PlanSeed,
    ) -> Option<(Strategy, PlanSeed)> {
        assert!(!req.participants.is_empty(), "no participants");
        assert!(req.parallelism > 0, "parallelism must be positive");
        self.telemetry.add_counter("synth.warm_requests", 1.0);
        match req.primitive {
            Primitive::AllToAll => Some((self.synthesize_alltoall(req), PlanSeed::default())),
            Primitive::Broadcast => {
                let (reduce, plan) = self.warm_reduce_plan(req, seed)?;
                Some((
                    reduce.reversed(self.topo, Primitive::Broadcast),
                    plan_seed(&plan),
                ))
            }
            Primitive::Reduce | Primitive::AllReduce => {
                let (mut s, plan) = self.warm_reduce_plan(req, seed)?;
                s.primitive = req.primitive;
                Some((s, plan_seed(&plan)))
            }
            Primitive::AllGather | Primitive::ReduceScatter => None,
        }
    }

    /// Synthesizes the Reduce strategy and its reverse Broadcast —
    /// the pair AllReduce pipelines (paper Sec. IV-D).
    pub fn synthesize_allreduce(&self, req: &SynthRequest) -> (Strategy, Strategy) {
        let (mut reduce, _) = self.synthesize_reduce_plan(req);
        reduce.primitive = Primitive::Reduce;
        let bcast = reduce.reversed(self.topo, Primitive::Broadcast);
        (reduce, bcast)
    }

    // ---- Reduce family ----

    /// Synthesizes the reduce-family strategy and its blueprint,
    /// dispatching to the two-tier decomposition for cluster-scale
    /// fleets (see [`crate::hierarchy`]) and the flat search otherwise.
    pub(crate) fn synthesize_reduce_plan(&self, req: &SynthRequest) -> (Strategy, Plan) {
        let by_inst = group_by_instance(self.topo, &req.participants);
        if self
            .config
            .hierarchical
            .enabled_for(req.participants.len(), by_inst.len())
        {
            if let Some(out) = crate::hierarchy::synthesize_hierarchical(self, req, &by_inst) {
                return out;
            }
            // Composition failed realization or validation: fall back
            // to the flat whole-fleet search.
        }
        let model = self.cost_model();
        let hubs = group_by_instance(self.topo, &req.relays);
        let insts: Vec<InstanceId> = by_inst.keys().copied().collect();

        // Root: requested, else a participant on the instance with the
        // fattest profiled ingress.
        let root = req.root.unwrap_or_else(|| {
            let best = insts
                .iter()
                .max_by(|a, b| {
                    self.ingress_score(**a)
                        .partial_cmp(&self.ingress_score(**b))
                        .unwrap()
                        .then(b.0.cmp(&a.0)) // deterministic tie-break: lower id
                })
                .copied()
                .expect("non-empty instance set");
            by_inst[&best][0]
        });
        let root_inst = instance_of(self.topo, root);
        self.telemetry.set_counter("synth.root_rank", root.0 as f64);
        self.telemetry.set_counter(
            "synth.root_ingress_gbps",
            self.ingress_score(root_inst) / 1e9,
        );

        // Initial plan per inter-tree shape x root family; keep the best.
        let allow_multi = req.primitive == Primitive::AllReduce && req.root.is_none();
        let mut best: Option<(f64, Plan, Strategy)> = None;
        let mut candidate_evals = 0u64;
        for shape in [TreeShape::Star, TreeShape::Binary, TreeShape::Chain] {
            for multi_root in [false, true] {
                if multi_root && !allow_multi {
                    continue;
                }
                let plan =
                    self.initial_plan(req, &by_inst, &hubs, root, root_inst, shape, multi_root);
                if let Some(strategy) = self.realize_plan(&plan, req, &by_inst, &hubs) {
                    if strategy.validate(self.topo).is_err() {
                        continue;
                    }
                    let cost = model.evaluate(&strategy, req.tensor).completion.as_secs();
                    candidate_evals += 1;
                    if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                        best = Some((cost, plan, strategy));
                    }
                }
            }
        }
        let (best_cost, plan, best_strategy) = best.expect("at least one candidate realizes");
        let (_, plan, best_strategy) = self.refine_plan(
            best_cost,
            plan,
            best_strategy,
            req,
            &by_inst,
            &hubs,
            &model,
            self.config.anneal_iters,
            req.seed ^ 0x5EED_CAFE,
            candidate_evals,
        );
        (best_strategy, plan)
    }

    /// Warm path of the reduce family: rebuild the plan from a seed
    /// blueprint, validate it against the current participant
    /// structure, then run only the cheap refinement (chunk sweep,
    /// fraction balancing, short polish anneal).
    fn warm_reduce_plan(&self, req: &SynthRequest, seed: &PlanSeed) -> Option<(Strategy, Plan)> {
        if seed.subs.len() != req.parallelism {
            return None;
        }
        let model = self.cost_model();
        let by_inst = group_by_instance(self.topo, &req.participants);
        let hubs = group_by_instance(self.topo, &req.relays);
        for sub in &seed.subs {
            if sub.leader.len() != by_inst.len() || sub.parent.len() != by_inst.len() {
                return None;
            }
            for (inst, members) in &by_inst {
                if !sub.leader.get(inst).is_some_and(|l| members.contains(l)) {
                    return None;
                }
                if !sub.parent.contains_key(inst) {
                    return None;
                }
            }
            if !req.participants.contains(&sub.root) {
                return None;
            }
            if req.root.is_some_and(|r| sub.root != r) {
                return None;
            }
            for hub in sub.via_hub.values() {
                let inst = instance_of(self.topo, *hub);
                if !hubs.get(&inst).is_some_and(|h| h.contains(hub)) {
                    return None;
                }
            }
            if !(sub.fraction.is_finite() && sub.fraction > 0.0) {
                return None;
            }
        }
        let mut plan = Plan {
            specs: seed.subs.iter().map(spec_from_seed).collect(),
        };
        // Disk-loaded seeds may carry drifted fractions; renormalize.
        let total: f64 = plan.specs.iter().map(|s| s.fraction).sum();
        for s in &mut plan.specs {
            s.fraction /= total;
        }
        let (best_cost, best_strategy) = self.eval_plan(&plan, req, &by_inst, &hubs, &model)?;
        let polish_iters = self.config.anneal_iters / 8;
        let (_, plan, best_strategy) = self.refine_plan(
            best_cost,
            plan,
            best_strategy,
            req,
            &by_inst,
            &hubs,
            &model,
            polish_iters,
            req.seed ^ 0x3A3A_F00D,
            1,
        );
        Some((best_strategy, plan))
    }

    /// Shared refinement pipeline: chunk sweep, fraction balancing and
    /// an anneal of `anneal_iters` mutations split across
    /// `anneal_chains` independent chains. The cold path runs the full
    /// configured anneal; the warm path a short polish. Every step is
    /// scored incrementally against a persistent [`CostState`] —
    /// `caller_full_evals` folds the caller's candidate evaluations
    /// into the emitted `synth.full_evals` counter.
    #[allow(clippy::too_many_arguments)] // refinement state travels as one bundle
    pub(crate) fn refine_plan(
        &self,
        mut best_cost: f64,
        mut plan: Plan,
        mut best_strategy: Strategy,
        req: &SynthRequest,
        by_inst: &BTreeMap<InstanceId, Vec<Rank>>,
        hubs: &BTreeMap<InstanceId, Vec<Rank>>,
        model: &CostModel<'_>,
        anneal_iters: usize,
        rng_seed: u64,
        caller_full_evals: u64,
    ) -> (f64, Plan, Strategy) {
        let insts: Vec<InstanceId> = by_inst.keys().copied().collect();
        let mut state = model.state(&best_strategy, req.tensor);
        debug_assert_eq!(
            state.completion_secs().to_bits(),
            best_cost.to_bits(),
            "state rebuild diverged from the caller's evaluation"
        );

        // Chunk sweep (uniform across subs): replace every sub's chunk
        // as one delta batch, keep the batch only if it improves.
        for &chunk in &self.config.chunk_grid {
            let mut cost = best_cost;
            for m in 0..plan.specs.len() {
                let mut sub = state.sub(m).clone();
                sub.chunk = chunk;
                cost = state.replace_sub(m, sub);
            }
            if cost < best_cost {
                state.commit();
                best_cost = cost;
                for s in &mut plan.specs {
                    s.chunk = chunk;
                }
            } else {
                state.rollback();
            }
        }

        // Fraction balancing: reweight inversely to the current per-sub
        // completions (state-cached — the state *is* the best plan
        // here) and keep the reweighting while it improves.
        for _ in 0..self.config.balance_passes {
            let est = state.estimate();
            let mut p = plan.clone();
            rebalance_fractions(&mut p, &est.per_sub);
            let fracs: Vec<f64> = p.specs.iter().map(|s| s.fraction).collect();
            if !fractions_valid(&fracs) {
                continue;
            }
            let cost = state.set_fractions(&fracs);
            if cost < best_cost {
                state.commit();
                best_cost = cost;
                plan = p;
            } else {
                state.rollback();
                break;
            }
        }
        best_strategy = state.strategy();
        let (pre_full, pre_delta) = state.take_eval_counts();

        // Simulated annealing, split over `anneal_chains` independent
        // chains. Chain 0 continues the historical sequential stream
        // (seed `rng_seed`, so `anneal_chains == 1` is bit-identical to
        // the old annealer); chains 1.. draw their seeds from a salted
        // ChaCha stream. Every chain starts from the refined plan and
        // owns a private `CostState`; the winner is the deterministic
        // argmin over (cost, chain index) — independent of how many
        // threads the chains ran on.
        let chains = self.config.anneal_chains.max(1);
        let t0 = best_cost * self.config.initial_temp;
        let chain_seeds: Vec<u64> = {
            let mut salt_rng = seeded_rng(rng_seed ^ CHAIN_SEED_SALT);
            std::iter::once(rng_seed)
                .chain((1..chains).map(|_| salt_rng.gen::<u64>()))
                .collect()
        };
        let chain_iters: Vec<usize> = (0..chains)
            .map(|c| anneal_iters / chains + usize::from(c < anneal_iters % chains))
            .collect();

        let run_chain = |state: &mut CostState<'_>, seed: u64, iters: usize| -> ChainOut {
            let mut rng = seeded_rng(seed);
            let mut cur = plan.clone();
            let mut cur_cost = best_cost;
            let mut chain_cost = best_cost;
            let mut chain_best: Option<(Plan, Strategy)> = None;
            for it in 0..iters {
                let temp = t0 * (1.0 - it as f64 / iters as f64).max(1e-3);
                let mut cand = cur.clone();
                let Some(mutated) = self.mutate(&mut cand, req, by_inst, hubs, &insts, &mut rng)
                else {
                    continue;
                };
                // Delta-score the single change. Untouched subs keep
                // their realization and validity, so validating just
                // the mutated one is equivalent to the historical
                // whole-strategy check.
                let cost = match mutated {
                    Mutated::Spec(m) => {
                        let Some(sub) = self.realize_sub(&cand.specs[m], req, by_inst) else {
                            continue;
                        };
                        if validate_sub(&sub, self.topo, m).is_err() {
                            continue;
                        }
                        state.replace_sub(m, sub)
                    }
                    Mutated::Fractions => {
                        let fracs: Vec<f64> = cand.specs.iter().map(|s| s.fraction).collect();
                        if !fractions_valid(&fracs) {
                            continue;
                        }
                        state.set_fractions(&fracs)
                    }
                };
                let accept = cost < cur_cost
                    || rng.gen::<f64>() < ((cur_cost - cost) / temp.max(1e-12)).exp();
                if accept {
                    state.commit();
                    cur_cost = cost;
                    cur = cand;
                    if cost < chain_cost {
                        chain_cost = cost;
                        chain_best = Some((cur.clone(), state.strategy()));
                    }
                } else {
                    state.rollback();
                }
            }
            let (full, delta) = state.take_eval_counts();
            ChainOut {
                cost: chain_cost,
                best: chain_best,
                full,
                delta,
            }
        };

        let mut outs: Vec<ChainOut> = if chains == 1 {
            // Sequential fast path: continue on the refinement state.
            vec![run_chain(&mut state, chain_seeds[0], chain_iters[0])]
        } else {
            // Each chain gets a fresh state (even single-threaded, so
            // the eval counters are invariant in the thread count) and
            // chains are dealt round-robin onto the workers.
            let threads = self.config.solver_threads.clamp(1, chains);
            let mut slots: Vec<Option<ChainOut>> = (0..chains).map(|_| None).collect();
            let run = &run_chain;
            let strategy = &best_strategy;
            let seeds = &chain_seeds;
            let iters = &chain_iters;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut outs = Vec::new();
                            let mut c = t;
                            while c < chains {
                                let mut st = model.state(strategy, req.tensor);
                                outs.push((c, run(&mut st, seeds[c], iters[c])));
                                c += threads;
                            }
                            outs
                        })
                    })
                    .collect();
                for h in handles {
                    for (c, out) in h.join().expect("annealing chain panicked") {
                        slots[c] = Some(out);
                    }
                }
            });
            slots
                .into_iter()
                .map(|o| o.expect("every chain ran"))
                .collect()
        };

        let full: u64 = caller_full_evals + pre_full + outs.iter().map(|o| o.full).sum::<u64>();
        let delta: u64 = pre_delta + outs.iter().map(|o| o.delta).sum::<u64>();
        self.telemetry.add_counter("synth.full_evals", full as f64);
        self.telemetry
            .add_counter("synth.delta_evals", delta as f64);
        self.telemetry.set_counter("synth.chains", chains as f64);

        let mut win = 0;
        for c in 1..outs.len() {
            if outs[c].cost < outs[win].cost {
                win = c;
            }
        }
        let winner = outs.swap_remove(win);
        if let Some((p, s)) = winner.best {
            best_cost = winner.cost;
            plan = p;
            best_strategy = s;
        }
        (best_cost, plan, best_strategy)
    }

    pub(crate) fn eval_plan(
        &self,
        plan: &Plan,
        req: &SynthRequest,
        by_inst: &BTreeMap<InstanceId, Vec<Rank>>,
        hubs: &BTreeMap<InstanceId, Vec<Rank>>,
        model: &CostModel<'_>,
    ) -> Option<(f64, Strategy)> {
        let strategy = self.realize_plan(plan, req, by_inst, hubs)?;
        strategy.validate(self.topo).ok()?;
        let cost = model.evaluate(&strategy, req.tensor).completion.as_secs();
        Some((cost, strategy))
    }

    /// Profiled ingress bandwidth of an instance's NIC (score for root
    /// placement). Prefers the fan-in aggregate measurement — pairwise
    /// edge fits are capped by the slower peer and cannot distinguish a
    /// fat NIC from its neighbours — and falls back to the fattest
    /// profiled edge into the NIC when no fan-in pass ran.
    fn ingress_score(&self, inst: InstanceId) -> f64 {
        if let Some(bw) = self.profile.nic_ingress(inst) {
            return bw.as_bytes_per_sec();
        }
        let nic = LogicalNode::Nic(inst);
        let mut best = 0.0_f64;
        for e in self.topo.edges_into(nic) {
            if self.topo.edge(*e).kind == EdgeKind::Network {
                if let Some(ab) = self.profile.get(*e) {
                    best = best.max(ab.bandwidth().as_bytes_per_sec());
                }
            }
        }
        best
    }

    #[allow(clippy::too_many_arguments)] // plan construction is one step
    fn initial_plan(
        &self,
        req: &SynthRequest,
        by_inst: &BTreeMap<InstanceId, Vec<Rank>>,
        hubs: &BTreeMap<InstanceId, Vec<Rank>>,
        root: Rank,
        root_inst: InstanceId,
        shape: TreeShape,
        multi_root: bool,
    ) -> Plan {
        let insts: Vec<InstanceId> = by_inst.keys().copied().collect();
        // Order non-root instances by descending NIC ingress for tree
        // layout decisions.
        let mut others: Vec<InstanceId> =
            insts.iter().copied().filter(|i| *i != root_inst).collect();
        others.sort_by(|a, b| {
            self.ingress_score(*b)
                .partial_cmp(&self.ingress_score(*a))
                .unwrap()
                .then(a.0.cmp(&b.0))
        });
        // AllReduce may spread sub-collective roots over the instances
        // with the fattest profiled ingress; plain Reduce keeps the
        // single semantic root.
        let mut root_order: Vec<InstanceId> = insts.clone();
        root_order.sort_by(|a, b| {
            self.ingress_score(*b)
                .partial_cmp(&self.ingress_score(*a))
                .unwrap()
                .then(a.0.cmp(&b.0))
        });
        let mut specs = Vec::with_capacity(req.parallelism);
        for m in 0..req.parallelism {
            let (sub_root_inst, sub_root) = if multi_root {
                let inst = root_order[m % root_order.len()];
                let members = &by_inst[&inst];
                (inst, members[m % members.len()])
            } else {
                (root_inst, root)
            };
            let sub_others: Vec<InstanceId> = insts
                .iter()
                .copied()
                .filter(|i| *i != sub_root_inst)
                .collect();
            let mut leader = BTreeMap::new();
            for (inst, members) in by_inst {
                if *inst == sub_root_inst {
                    leader.insert(*inst, sub_root);
                } else {
                    // Rotate leaders across sub-collectives to spread
                    // NVLink and PCIe load.
                    leader.insert(*inst, members[m % members.len()]);
                }
            }
            let mut parent = BTreeMap::new();
            parent.insert(sub_root_inst, sub_root_inst);
            match shape {
                TreeShape::Star => {
                    for i in &sub_others {
                        parent.insert(*i, sub_root_inst);
                    }
                }
                TreeShape::Binary => {
                    // Heap order over [root, others...].
                    let order: Vec<InstanceId> = std::iter::once(sub_root_inst)
                        .chain(sub_others.iter().copied())
                        .collect();
                    for (idx, inst) in order.iter().enumerate().skip(1) {
                        parent.insert(*inst, order[(idx - 1) / 2]);
                    }
                }
                TreeShape::Chain => {
                    let order: Vec<InstanceId> = std::iter::once(sub_root_inst)
                        .chain(sub_others.iter().copied())
                        .collect();
                    for w in order.windows(2) {
                        parent.insert(w[1], w[0]);
                    }
                }
            }
            // Relay hubs: route the back half of each instance's members
            // through a local relay on odd sub-collectives, exercising
            // extra NVLinks.
            let mut via_hub = BTreeMap::new();
            if m % 2 == 1 {
                for (inst, members) in by_inst {
                    if let Some(hub_list) = hubs.get(inst) {
                        if !hub_list.is_empty() && members.len() > 2 {
                            let hub = hub_list[m % hub_list.len()];
                            for r in members.iter().skip(members.len() / 2) {
                                if *r != leader[inst] {
                                    via_hub.insert(*r, hub);
                                }
                            }
                        }
                    }
                }
            }
            specs.push(TreeSpec {
                leader,
                parent,
                root: sub_root,
                root_inst: sub_root_inst,
                via_hub,
                chunk: ByteSize::from_mib(1),
                fraction: 1.0 / req.parallelism as f64,
            });
        }
        Plan { specs }
    }

    /// Expands a plan into a flow-level strategy. Returns `None` if a
    /// needed logical edge is missing (mutation produced nonsense).
    fn realize_plan(
        &self,
        plan: &Plan,
        req: &SynthRequest,
        by_inst: &BTreeMap<InstanceId, Vec<Rank>>,
        _hubs: &BTreeMap<InstanceId, Vec<Rank>>,
    ) -> Option<Strategy> {
        let mut subs = Vec::with_capacity(plan.specs.len());
        for spec in &plan.specs {
            subs.push(self.realize_sub(spec, req, by_inst)?);
        }
        Some(Strategy {
            // Evaluate under the requested primitive's pricing rules —
            // an AllReduce must be costed as reduce + reverse broadcast
            // in duplex, not as its reduce half alone.
            primitive: req.primitive,
            subs,
        })
    }

    /// Expands one tree blueprint into a flow-level sub-collective —
    /// the per-sub unit the annealer re-realizes after a mutation.
    /// Returns `None` if a needed logical edge is missing.
    fn realize_sub(
        &self,
        spec: &TreeSpec,
        req: &SynthRequest,
        by_inst: &BTreeMap<InstanceId, Vec<Rank>>,
    ) -> Option<SubCollective> {
        // Leader chain to the root for each instance: sequence of
        // (leader, instance) hops up the inter tree.
        let mut aggregate: BTreeMap<LogicalNode, bool> = BTreeMap::new();
        if req.primitive.aggregates() || matches!(req.primitive, Primitive::AllGather) {
            for (_, l) in spec.leader.iter() {
                aggregate.insert(LogicalNode::Gpu(*l), true);
            }
            for hub in spec.via_hub.values() {
                aggregate.insert(LogicalNode::Gpu(*hub), true);
            }
            aggregate.insert(LogicalNode::Gpu(spec.root), true);
        }
        let mut flows = Vec::new();
        for (inst, members) in by_inst {
            for r in members {
                if *r == spec.root {
                    continue;
                }
                let route = self.route_to_root(*r, *inst, spec, spec.root)?;
                flows.push(Flow {
                    src: LogicalNode::Gpu(*r),
                    dst: LogicalNode::Gpu(spec.root),
                    route,
                });
            }
        }
        Some(SubCollective {
            fraction: spec.fraction,
            chunk: spec.chunk,
            root: Some(spec.root),
            flows,
            aggregate,
        })
    }

    /// Edge chain carrying rank `r` (on `inst`) to the root: local hop
    /// to the hub and/or leader, then up the instance tree via NICs.
    fn route_to_root(
        &self,
        r: Rank,
        inst: InstanceId,
        spec: &TreeSpec,
        root: Rank,
    ) -> Option<Vec<adapcc_topo::logical::EdgeId>> {
        let g = LogicalNode::Gpu;
        let nic = LogicalNode::Nic;
        let mut route = Vec::new();
        let leader = spec.leader[&inst];
        let mut cursor = r;
        if let Some(hub) = spec.via_hub.get(&r) {
            if *hub != cursor && *hub != leader {
                route.push(self.topo.edge_between(g(cursor), g(*hub))?);
                cursor = *hub;
            }
        }
        if cursor != leader {
            route.push(self.topo.edge_between(g(cursor), g(leader))?);
            cursor = leader;
        }
        // Climb the inter-instance tree.
        let mut here_inst = inst;
        let mut guard = 0;
        while here_inst != spec.root_inst {
            let up = *spec.parent.get(&here_inst)?;
            if up == here_inst {
                return None;
            }
            let up_leader = if up == spec.root_inst {
                root
            } else {
                spec.leader[&up]
            };
            route.push(self.topo.edge_between(g(cursor), nic(here_inst))?);
            route.push(self.topo.edge_between(nic(here_inst), nic(up))?);
            route.push(self.topo.edge_between(nic(up), g(up_leader))?);
            cursor = up_leader;
            here_inst = up;
            guard += 1;
            if guard > spec.parent.len() + 1 {
                return None; // parent map has a cycle
            }
        }
        if cursor != root {
            route.push(self.topo.edge_between(g(cursor), g(root))?);
        }
        Some(route)
    }

    /// Applies one random structural mutation to `plan`, reporting what
    /// changed so the caller can delta-score exactly that. The RNG draw
    /// sequence is identical to the historical boolean version —
    /// `insts` is hoisted out of the hot loop and drawn against by
    /// index, never re-collected or re-filtered into fresh `Vec`s.
    fn mutate(
        &self,
        plan: &mut Plan,
        req: &SynthRequest,
        by_inst: &BTreeMap<InstanceId, Vec<Rank>>,
        hubs: &BTreeMap<InstanceId, Vec<Rank>>,
        insts: &[InstanceId],
        rng: &mut ChaCha8Rng,
    ) -> Option<Mutated> {
        let m = rng.gen_range(0..plan.specs.len());
        let op = rng.gen_range(0..6u8);
        if op == 5 {
            // Re-root one sub-collective (AllReduce only: plain Reduce
            // has a single semantic root).
            if req.primitive != Primitive::AllReduce || req.root.is_some() {
                return None;
            }
            let spec = &mut plan.specs[m];
            let inst = insts[rng.gen_range(0..insts.len())];
            let members = &by_inst[&inst];
            let new_root = members[rng.gen_range(0..members.len())];
            if new_root == spec.root {
                return None;
            }
            spec.root = new_root;
            spec.root_inst = inst;
            spec.leader.insert(inst, new_root);
            // Rebuild the parent map as a star from the new root; the
            // re-parent mutation refines it afterwards.
            spec.parent.clear();
            spec.parent.insert(inst, inst);
            for i in insts.iter().filter(|i| **i != inst) {
                spec.parent.insert(*i, inst);
            }
            spec.via_hub
                .retain(|r, hub| *r != new_root && *hub != new_root);
            return Some(Mutated::Spec(m));
        }
        if op == 4 {
            // Move fraction between two subs (operates on the whole plan).
            if plan.specs.len() < 2 {
                return None;
            }
            let a = rng.gen_range(0..plan.specs.len());
            let b = rng.gen_range(0..plan.specs.len());
            if a == b {
                return None;
            }
            let delta = (plan.specs[a].fraction * 0.25).min(0.1);
            if plan.specs[a].fraction - delta < 0.02 {
                return None;
            }
            plan.specs[a].fraction -= delta;
            plan.specs[b].fraction += delta;
            return Some(Mutated::Fractions);
        }
        let spec = &mut plan.specs[m];
        match op {
            0 => {
                // Re-parent a non-root instance. Count-then-nth keeps
                // the historical filtered-`Vec` selection order without
                // allocating.
                let candidates = insts.iter().filter(|i| **i != spec.root_inst).count();
                if candidates == 0 {
                    return None;
                }
                let pick = rng.gen_range(0..candidates);
                let child = *insts
                    .iter()
                    .filter(|i| **i != spec.root_inst)
                    .nth(pick)
                    .expect("pick < candidate count");
                let new_parent = insts[rng.gen_range(0..insts.len())];
                if new_parent == child {
                    return None;
                }
                spec.parent.insert(child, new_parent);
                Some(Mutated::Spec(m))
            }
            1 => {
                // Swap an instance's leader.
                let inst = insts[rng.gen_range(0..insts.len())];
                if inst == spec.root_inst {
                    return None;
                }
                let members = &by_inst[&inst];
                if members.len() < 2 {
                    return None;
                }
                let new_leader = members[rng.gen_range(0..members.len())];
                spec.leader.insert(inst, new_leader);
                // Drop hub routes that now collide with the leader.
                spec.via_hub
                    .retain(|r, hub| *r != new_leader && *hub != new_leader);
                Some(Mutated::Spec(m))
            }
            2 => {
                // Toggle a hub route for a random member.
                let inst = insts[rng.gen_range(0..insts.len())];
                let members = &by_inst[&inst];
                let hub_list = match hubs.get(&inst) {
                    Some(h) if !h.is_empty() => h,
                    _ => return None,
                };
                let r = members[rng.gen_range(0..members.len())];
                if r == spec.leader[&inst] {
                    return None;
                }
                if spec.via_hub.remove(&r).is_none() {
                    spec.via_hub
                        .insert(r, hub_list[rng.gen_range(0..hub_list.len())]);
                }
                Some(Mutated::Spec(m))
            }
            3 => {
                // Chunk step.
                let grid = &self.config.chunk_grid;
                let pos = grid.iter().position(|c| *c == spec.chunk).unwrap_or(2);
                let next = if rng.gen_bool(0.5) {
                    pos.saturating_sub(1)
                } else {
                    (pos + 1).min(grid.len() - 1)
                };
                spec.chunk = grid[next];
                Some(Mutated::Spec(m))
            }
            _ => unreachable!("op 4 is handled before the spec borrow"),
        }
    }

    // ---- AlltoAll ----

    fn synthesize_alltoall(&self, req: &SynthRequest) -> Strategy {
        let model = self.cost_model();
        let g = LogicalNode::Gpu;
        let nic = LogicalNode::Nic;
        let mut flows = Vec::new();
        for &a in &req.participants {
            for &b in &req.participants {
                if a == b {
                    continue;
                }
                let ia = instance_of(self.topo, a);
                let ib = instance_of(self.topo, b);
                let route = if ia == ib {
                    vec![self.topo.edge_between(g(a), g(b)).expect("intra edge")]
                } else {
                    vec![
                        self.topo.edge_between(g(a), nic(ia)).expect("host link"),
                        self.topo.edge_between(nic(ia), nic(ib)).expect("network"),
                        self.topo.edge_between(nic(ib), g(b)).expect("host link"),
                    ]
                };
                flows.push(Flow {
                    src: g(a),
                    dst: g(b),
                    route,
                });
            }
        }
        let make = |chunk: ByteSize, m: usize| Strategy {
            primitive: Primitive::AllToAll,
            subs: (0..m)
                .map(|_| SubCollective {
                    fraction: 1.0 / m as f64,
                    chunk,
                    root: None,
                    flows: flows.clone(),
                    aggregate: BTreeMap::new(),
                })
                .collect(),
        };
        // Chunk sweep; parallelism fixed by the request.
        let mut best = make(ByteSize::from_mib(1), req.parallelism);
        let mut best_cost = model.evaluate(&best, req.tensor).completion;
        for &chunk in &self.config.chunk_grid {
            let s = make(chunk, req.parallelism);
            let cost = model.evaluate(&s, req.tensor).completion;
            if cost < best_cost {
                best_cost = cost;
                best = s;
            }
        }
        self.telemetry.add_counter(
            "synth.full_evals",
            (1 + self.config.chunk_grid.len()) as f64,
        );
        best
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TreeShape {
    Star,
    Binary,
    Chain,
}

/// Groups ranks by their instance (instance order, rank order within).
pub fn group_by_instance(
    topo: &LogicalTopology,
    ranks: &[Rank],
) -> BTreeMap<InstanceId, Vec<Rank>> {
    let mut map: BTreeMap<InstanceId, Vec<Rank>> = BTreeMap::new();
    for &r in ranks {
        map.entry(instance_of(topo, r)).or_default().push(r);
    }
    for v in map.values_mut() {
        v.sort();
    }
    map
}

/// Reweights fractions inversely to predicted per-sub completion.
fn rebalance_fractions(plan: &mut Plan, per_sub: &[adapcc_simnet::time::SimDuration]) {
    let rates: Vec<f64> = plan
        .specs
        .iter()
        .zip(per_sub)
        .map(|(s, t)| {
            if t.as_secs() > 0.0 {
                s.fraction / t.as_secs()
            } else {
                s.fraction
            }
        })
        .collect();
    let total: f64 = rates.iter().sum();
    if total <= 0.0 {
        return;
    }
    for (s, r) in plan.specs.iter_mut().zip(&rates) {
        s.fraction = (r / total).clamp(0.02, 0.9);
    }
    // Renormalize after clamping.
    let sum: f64 = plan.specs.iter().map(|s| s.fraction).sum();
    for s in &mut plan.specs {
        s.fraction /= sum;
    }
}

/// Convenience map from participants to instances used by callers that
/// need per-instance views of a strategy. Keyed by `BTreeMap` so
/// iteration is instance-ordered — never hash-ordered — like every
/// other instance map in the solver.
pub fn participants_by_instance(
    topo: &LogicalTopology,
    strategy: &Strategy,
) -> BTreeMap<InstanceId, Vec<Rank>> {
    let mut map: BTreeMap<InstanceId, Vec<Rank>> = BTreeMap::new();
    for r in strategy.participants() {
        map.entry(instance_of(topo, r)).or_default().push(r);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_profile::profiler::Profiler;
    use adapcc_simnet::cluster::Cluster;
    use adapcc_topo::detect::Detector;

    fn setup(cluster: &Cluster) -> (LogicalTopology, LinkProfile) {
        let topo = Detector::new(cluster, 1).run().logical_topology(cluster);
        let profile = Profiler::new(cluster, &topo, 1).without_noise().run().links;
        (topo, profile)
    }

    fn all_ranks(c: &Cluster) -> Vec<Rank> {
        (0..c.gpu_count()).map(Rank).collect()
    }

    #[test]
    fn reduce_strategy_validates_on_testbed() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let req = SynthRequest::new(Primitive::Reduce, ByteSize::from_mib(256), 4, all_ranks(&c));
        let s = Synthesizer::new(&topo, &profile).synthesize(&req);
        assert_eq!(s.validate(&topo), Ok(()));
        assert_eq!(s.parallelism(), 4);
        // Every participant except the root has a flow in every sub.
        for sub in &s.subs {
            assert_eq!(sub.flows.len(), c.gpu_count() - 1);
        }
    }

    #[test]
    fn root_lands_on_fat_nic_instance() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let req = SynthRequest::new(Primitive::Reduce, ByteSize::from_mib(256), 4, all_ranks(&c));
        let s = Synthesizer::new(&topo, &profile).synthesize(&req);
        let root = s.subs[0].root.expect("rooted");
        // A100 instances are 0..=3 (ranks 0..16); V100 NICs are slower.
        assert!(root.0 < 16, "root {root:?} should sit on an A100 server");
    }

    #[test]
    fn respects_requested_root() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let mut req =
            SynthRequest::new(Primitive::Reduce, ByteSize::from_mib(64), 2, all_ranks(&c));
        req.root = Some(Rank(17));
        let s = Synthesizer::new(&topo, &profile).synthesize(&req);
        assert_eq!(s.subs[0].root, Some(Rank(17)));
    }

    #[test]
    fn broadcast_is_reverse_of_reduce() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let req = SynthRequest::new(
            Primitive::Broadcast,
            ByteSize::from_mib(64),
            2,
            all_ranks(&c),
        );
        let s = Synthesizer::new(&topo, &profile).synthesize(&req);
        assert_eq!(s.validate(&topo), Ok(()));
        // Flows originate at the root.
        for sub in &s.subs {
            let root = sub.root.expect("rooted");
            for f in &sub.flows {
                assert_eq!(f.src, LogicalNode::Gpu(root));
            }
            assert!(sub.aggregate.is_empty());
        }
    }

    #[test]
    fn alltoall_has_all_pairs() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let req = SynthRequest::new(
            Primitive::AllToAll,
            ByteSize::from_mib(64),
            4,
            all_ranks(&c),
        );
        let s = Synthesizer::new(&topo, &profile).synthesize(&req);
        assert_eq!(s.validate(&topo), Ok(()));
        assert_eq!(s.subs[0].flows.len(), 8 * 7);
    }

    #[test]
    fn relays_appear_as_forwarders_not_sources() {
        let c = Cluster::homogeneous_a100(2);
        let (topo, profile) = setup(&c);
        let participants: Vec<Rank> = (0..8).filter(|r| *r != 3).map(Rank).collect();
        let mut req = SynthRequest::new(
            Primitive::Reduce,
            ByteSize::from_mib(64),
            4,
            participants.clone(),
        );
        req.relays = vec![Rank(3)];
        let s = Synthesizer::new(&topo, &profile).synthesize(&req);
        assert_eq!(s.validate(&topo), Ok(()));
        for sub in &s.subs {
            for f in &sub.flows {
                assert_ne!(
                    f.src,
                    LogicalNode::Gpu(Rank(3)),
                    "relay must not contribute data"
                );
            }
        }
        // At least one sub routes through the relay hub.
        let uses_relay = s.subs.iter().any(|sub| {
            sub.flows
                .iter()
                .any(|f| f.nodes(&topo).contains(&LogicalNode::Gpu(Rank(3))))
        });
        assert!(uses_relay, "no sub-collective exploited the relay");
    }

    #[test]
    fn deterministic_by_seed() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let req = SynthRequest::new(Primitive::Reduce, ByteSize::from_mib(128), 4, all_ranks(&c));
        let a = Synthesizer::new(&topo, &profile).synthesize(&req);
        let b = Synthesizer::new(&topo, &profile).synthesize(&req);
        assert_eq!(a, b);
    }

    #[test]
    fn annealing_never_worsens_initial_candidates() {
        let c = Cluster::paper_testbed();
        let (topo, profile) = setup(&c);
        let model = CostModel::new(&topo, &profile);
        let tensor = ByteSize::from_mib(256);
        let req = SynthRequest::new(Primitive::Reduce, tensor, 4, all_ranks(&c));
        let quick = Synthesizer::new(&topo, &profile)
            .with_config(SynthConfig {
                anneal_iters: 0,
                ..Default::default()
            })
            .synthesize(&req);
        let full = Synthesizer::new(&topo, &profile).synthesize(&req);
        let cq = model.evaluate(&quick, tensor).completion;
        let cf = model.evaluate(&full, tensor).completion;
        assert!(cf <= cq, "annealed {cf} vs initial {cq}");
    }

    #[test]
    fn single_instance_collective() {
        let c = Cluster::homogeneous_a100(1);
        let (topo, profile) = setup(&c);
        let req = SynthRequest::new(Primitive::Reduce, ByteSize::from_mib(64), 2, all_ranks(&c));
        let s = Synthesizer::new(&topo, &profile).synthesize(&req);
        assert_eq!(s.validate(&topo), Ok(()));
        for sub in &s.subs {
            for f in &sub.flows {
                // Intra-instance routes never touch a NIC.
                for n in f.nodes(&topo) {
                    assert!(matches!(n, LogicalNode::Gpu(_)));
                }
            }
        }
    }

    #[test]
    fn instance_grouping() {
        let c = Cluster::paper_testbed();
        let (topo, _) = setup(&c);
        let groups = group_by_instance(&topo, &all_ranks(&c));
        assert_eq!(groups.len(), 6);
        assert_eq!(
            groups[&InstanceId(0)],
            vec![Rank(0), Rank(1), Rank(2), Rank(3)]
        );
        assert_eq!(groups[&InstanceId(5)].len(), 4);
    }

    /// Shared fixture for the proptests below, built once.
    fn cached_env() -> &'static (LogicalTopology, LinkProfile) {
        use std::sync::OnceLock;
        static ENV: OnceLock<(LogicalTopology, LinkProfile)> = OnceLock::new();
        ENV.get_or_init(|| {
            let c = Cluster::homogeneous_a100(2);
            setup(&c)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Delta-scored cost stays bitwise equal to a fresh full
        /// evaluation across random accept/reject mutation sequences —
        /// the incremental-evaluation contract, checked through the
        /// public scoring path so it holds in release builds where
        /// `assert_matches_full` is compiled out.
        #[test]
        fn delta_cost_matches_full_eval_over_mutation_sequences(
            seed in 0u64..1000,
            m in 1usize..4,
            steps in 10usize..40,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (topo, profile) = cached_env();
            let ranks: Vec<Rank> = (0..8).map(Rank).collect();
            let mut req =
                SynthRequest::new(Primitive::AllReduce, ByteSize::from_mib(32), m, ranks);
            req.seed = seed;
            let synth = Synthesizer::new(topo, profile);
            let (strategy, mut plan) = synth.synthesize_reduce_plan(&req);
            let model = CostModel::new(topo, profile);
            let by_inst = group_by_instance(topo, &req.participants);
            let hubs = group_by_instance(topo, &req.relays);
            let insts: Vec<InstanceId> = by_inst.keys().copied().collect();
            let mut state = model.state(&strategy, req.tensor);
            let mut rng = seeded_rng(seed ^ 0xD0_17A);
            for _ in 0..steps {
                let mut cand = plan.clone();
                let Some(mutated) =
                    synth.mutate(&mut cand, &req, &by_inst, &hubs, &insts, &mut rng)
                else {
                    continue;
                };
                let cost = match mutated {
                    Mutated::Spec(i) => {
                        let Some(sub) = synth.realize_sub(&cand.specs[i], &req, &by_inst)
                        else {
                            continue;
                        };
                        if validate_sub(&sub, topo, i).is_err() {
                            continue;
                        }
                        state.replace_sub(i, sub)
                    }
                    Mutated::Fractions => {
                        let fracs: Vec<f64> =
                            cand.specs.iter().map(|s| s.fraction).collect();
                        if !fractions_valid(&fracs) {
                            continue;
                        }
                        state.set_fractions(&fracs)
                    }
                };
                let keep = rng.gen::<bool>();
                if keep {
                    state.commit();
                    plan = cand;
                    prop_assert_eq!(cost.to_bits(), state.completion_secs().to_bits());
                } else {
                    state.rollback();
                }
                let full = model
                    .evaluate(&state.strategy(), req.tensor)
                    .completion
                    .as_secs();
                prop_assert_eq!(
                    state.completion_secs().to_bits(),
                    full.to_bits(),
                    "state diverged from full evaluation after a {} step",
                    if keep { "committed" } else { "rolled-back" }
                );
            }
        }
    }
}
