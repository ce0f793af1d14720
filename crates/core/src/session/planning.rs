//! Lazy strategy synthesis through the plan service, zero-skew
//! execution caching, ski-rental buy estimates, and raw executor access.

use std::sync::{Arc, OnceLock};

use adapcc_plancache::{fingerprint, Fingerprint, FingerprintInputs};
use adapcc_planserve::{synthesize, PlanService, PlanStats};
use adapcc_simnet::cluster::Rank;
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::solver::{SynthRequest, Synthesizer};
use adapcc_synth::strategy::Strategy;

use crate::collective::plan::StrategyKey;
use crate::error::AdapCCError;
use crate::executor::{BatchReport, ExecutionRequest, Executor};
use crate::relay::BuyEstimate;
use crate::session::{AdapCC, MemoEntry};

impl<'c> AdapCC<'c> {
    /// The synthesized strategy for a primitive/tensor pair (cached).
    pub fn strategy_for(&mut self, primitive: Primitive, tensor: ByteSize) -> &Strategy {
        self.strategy_for_key(&StrategyKey {
            primitive,
            tensor: tensor.as_u64(),
            root: None,
            scope: None,
        })
    }

    /// The synthesized strategy for a rooted primitive (broadcast,
    /// reduce, gather, scatter). `root = None` falls back to the
    /// primitive's canonical rank-0 root. This is the entry point the
    /// plan service drives: many jobs resolving the same
    /// `(primitive, tensor, root)` against one shared
    /// [`PlanService`] pay for exactly one solve.
    pub fn strategy_for_root(
        &mut self,
        primitive: Primitive,
        tensor: ByteSize,
        root: Option<Rank>,
    ) -> &Strategy {
        self.strategy_for_key(&StrategyKey {
            primitive,
            tensor: tensor.as_u64(),
            root,
            scope: None,
        })
    }

    /// The synthesized strategy behind one canonical key (memoized per
    /// worker set; misses resolve through the plan service). Scoped keys
    /// register their group in the session registry, so exclusion can
    /// invalidate exactly the groups containing a dead rank — even for
    /// scopes built ad hoc (pairwise stages) rather than via
    /// [`AdapCC::group`].
    pub(crate) fn strategy_for_key(&mut self, key: &StrategyKey) -> &Strategy {
        self.memo_entry(key);
        &self.strategies[key].strategy
    }

    /// The memo entry behind [`strategy_for_key`](Self::strategy_for_key),
    /// lent out: every caller shares the memo's one allocation, and
    /// with it the plan the strategy's first execution compiles.
    pub(crate) fn memo_entry(&mut self, key: &StrategyKey) -> Arc<MemoEntry> {
        if let Some(g) = &key.scope {
            self.groups.insert(g.id(), g.clone());
        }
        if !self.strategies.contains_key(key) {
            let strategy = self.resolve_strategy(key);
            let entry = MemoEntry {
                strategy,
                plan: OnceLock::new(),
            };
            self.strategies.insert(key.clone(), Arc::new(entry));
        }
        Arc::clone(&self.strategies[key])
    }

    /// Satisfies one synthesis request through the plan service: exact
    /// fingerprint hits and coalesced in-flight solves skip the solver,
    /// shape siblings warm-start it, and cold keys solve once under
    /// single-flight admission. A plan this session did not solve is
    /// validated against the topology first (a hand-edited disk entry
    /// must not execute); one that fails is re-solved cold. Every
    /// outcome is billed once in [`AdapCC::plan_cache_stats`].
    fn resolve_strategy(&mut self, key: &StrategyKey) -> Strategy {
        let participants = key
            .scope
            .as_ref()
            .map(|g| g.members().to_vec())
            .unwrap_or_else(|| self.workers.clone());
        let mut req = SynthRequest::new(
            key.primitive,
            ByteSize::from_bytes(key.tensor),
            self.options.parallelism,
            participants,
        );
        req.root = key.root;
        req.seed = self.options.seed;
        let fp = self.plan_fingerprint(&req, self.concurrency_component(key.scope.as_ref()));
        let synth = Synthesizer::new(&self.topo, &self.profile)
            .with_config(self.options.synth.clone())
            .with_telemetry(self.options.telemetry.clone());
        let service = &self.plan_service;
        let resolved = service.resolve(fp, |seed| synthesize(&synth, &req, seed));
        let resolved = service.revalidate(
            fp,
            resolved,
            |plan| plan.strategy.validate(&self.topo).is_ok(),
            || synthesize(&synth, &req, None).0,
        );
        let n = self.workers.len();
        self.plan_stats.record(
            resolved.served,
            crate::reconstruct::modeled_solve_cost(n),
            crate::reconstruct::modeled_warm_solve_cost(n),
        );
        self.plan_stats
            .export_counters(&self.options.telemetry, service);
        service.export_counters(&self.options.telemetry);
        resolved.plan.strategy.clone()
    }

    /// The canonical cache key of a synthesis request under the current
    /// topology, worker set and profile. Exclusions shrink
    /// `participants`, so they flip the shape half and structurally
    /// invalidate every pre-exclusion plan; profile drift past the
    /// `resynth_threshold` quantization flips only the profile half,
    /// leaving the entry warm-startable. The key carries the *resolved*
    /// tier decision (would this request synthesize hierarchically?),
    /// so flipping `SynthConfig::hierarchical` — or crossing the auto
    /// threshold as workers join — never serves a plan solved under the
    /// other regime. `concurrency` is the group-scope concurrency-set
    /// component (`0` = solo): a strategy solved against one set of
    /// co-scheduled peers never serves a different regime, and a TP
    /// slice's plan can never serve a DP ring because the scoped
    /// participant sets already differ.
    fn plan_fingerprint(&self, req: &SynthRequest, concurrency: u64) -> Fingerprint {
        let instances =
            adapcc_synth::solver::group_by_instance(&self.topo, &req.participants).len();
        fingerprint(&FingerprintInputs {
            topo: &self.topo,
            profile: &self.profile,
            participants: &req.participants,
            relays: &req.relays,
            primitive: req.primitive,
            parallelism: req.parallelism,
            tensor: req.tensor,
            root: req.root,
            quantization: self.options.resynth_threshold,
            hierarchical: self
                .options
                .synth
                .hierarchical
                .enabled_for(req.participants.len(), instances),
            concurrency,
        })
    }

    /// The concurrency-set fingerprint component for a scope: the hash
    /// of all declared-concurrent group ids when `scope` belongs to a
    /// declared set of two or more groups, `0` (solo) otherwise —
    /// world-scoped and undeclared solves keep their historical
    /// fingerprints byte-identical.
    fn concurrency_component(&self, scope: Option<&adapcc_synth::group::ProcessGroup>) -> u64 {
        match scope {
            Some(g) if self.concurrent.len() > 1 && self.concurrent.contains(&g.id()) => {
                adapcc_synth::group::concurrency_hash(&self.concurrent)
            }
            _ => 0,
        }
    }

    /// How this session's synthesis requests were served (hits, misses,
    /// warm starts, modeled solver latency saved).
    pub fn plan_cache_stats(&self) -> PlanStats {
        self.plan_stats
    }

    /// The plan service this session resolves through (its own
    /// one-shard service unless one was given in
    /// [`InitOptions::plan_service`](crate::session::InitOptions::plan_service)).
    pub fn plan_service(&self) -> &Arc<PlanService> {
        &self.plan_service
    }

    /// An executor over the current fabric: live capacity factors
    /// always, fault schedule + stall deadlines when one is armed.
    pub(crate) fn executor(&self) -> Executor<'_> {
        let mut exec = self.fabric().with_telemetry(self.pipeline_telemetry());
        if let Some(schedule) = &self.fault_schedule {
            exec = exec
                .with_fault_schedule(schedule.clone(), self.session_clock)
                .with_deadline_multiplier(self.recovery.deadline_multiplier);
        }
        exec
    }

    /// A bare executor over the current fabric: the session's path
    /// table and live capacity factors, no telemetry or faults.
    fn fabric(&self) -> Executor<'_> {
        Executor::new(self.cluster, &self.topo)
            .with_edge_paths(&self.edge_paths)
            .with_capacity_factors(&self.fabric_factors)
    }

    /// The session telemetry offset past init (detection + profiling),
    /// the origin every pipeline-stage and executor span is stitched
    /// onto.
    pub(crate) fn pipeline_telemetry(&self) -> adapcc_telemetry::Telemetry {
        self.options
            .telemetry
            .at_offset(self.init_report.total().as_secs())
    }

    /// Executes a raw request batch on the session's fabric (capacity
    /// factors and any armed fault schedule included), without the
    /// recovery loop. Chaos harnesses and tests use it to observe raw
    /// classified faults. Each request's strategy is validated and
    /// lowered for this batch alone: raw strategies are not cached.
    pub fn run_batch(&self, requests: &[ExecutionRequest<'_>]) -> Result<BatchReport, AdapCCError> {
        self.executor().try_execute(requests)
    }

    /// Zero-skew execution time of a cached strategy (measured once).
    pub(crate) fn cached_exec_secs(&mut self, key: &StrategyKey, entry: &MemoEntry) -> f64 {
        if let Some(t) = self.exec_cache.get(key) {
            return *t;
        }
        let t = self
            .fabric()
            .execute(&[entry.request(ByteSize::from_bytes(key.tensor))])
            .finish
            .as_secs();
        self.exec_cache.insert(key.clone(), t);
        t
    }

    /// The ski-rental buy estimate for one strategy, with a *measured*
    /// phase-2 unit: one full-tensor broadcast is executed once on the
    /// current fabric and its wall time cached (estimation by
    /// measurement, like everything else in AdapCC).
    pub(crate) fn buy_estimate(&mut self, strategy: &Strategy, tensor: ByteSize) -> BuyEstimate {
        let key = (strategy.primitive, tensor.as_u64(), self.scope_id());
        if let Some(est) = self.estimates.get(&key) {
            return est.clone();
        }
        let scope_workers = self.scope_workers();
        let probe_root = scope_workers[scope_workers.len() / 2];
        let probe = self.memo_entry(&StrategyKey {
            primitive: Primitive::Broadcast,
            tensor: tensor.as_u64(),
            root: Some(probe_root),
            scope: self.active_scope.clone(),
        });
        let unit = self
            .fabric()
            .execute(&[probe.request(tensor)])
            .finish
            .as_secs();
        let est =
            BuyEstimate::new(&self.topo, &self.profile, strategy, tensor).with_phase2_unit(unit);
        self.estimates.insert(key, est.clone());
        est
    }

    /// A *modeled* buy estimate priced at `kind`'s traffic volume —
    /// the composite entry points use it, so consulting the
    /// coordinator never adds a probe broadcast (which would perturb
    /// plan-cache counters and the strategy memo).
    pub(crate) fn modeled_buy_estimate(
        &mut self,
        kind: Primitive,
        strategy: &Strategy,
        tensor: ByteSize,
    ) -> BuyEstimate {
        let key = (kind, tensor.as_u64(), self.scope_id());
        if let Some(est) = self.estimates.get(&key) {
            return est.clone();
        }
        let est =
            BuyEstimate::new(&self.topo, &self.profile, strategy, tensor).with_primitive(kind);
        self.estimates.insert(key, est.clone());
        est
    }

    /// The active scope's stable group id (`0` = world), used to keep
    /// per-group buy estimates from colliding across groups.
    pub(crate) fn scope_id(&self) -> u64 {
        self.active_scope.as_ref().map(|g| g.id()).unwrap_or(0)
    }

    /// Modeled solver latency for the re-synthesis work done since
    /// `before`: full cost if anything solved cold, the warm-start
    /// fraction if a stored seed warm-started every solve, zero if every
    /// request was an exact hit (or nothing was synthesized).
    pub(crate) fn modeled_solving_since(&self, before: PlanStats) -> SimDuration {
        let now = self.plan_stats;
        if now.misses > before.misses {
            crate::reconstruct::modeled_solve_cost(self.workers.len())
        } else if now.warm_starts > before.warm_starts {
            crate::reconstruct::modeled_warm_solve_cost(self.workers.len())
        } else {
            SimDuration::ZERO
        }
    }
}
