//! In-place graph reconstruction (reprofile → re-solve → re-set-up)
//! and elastic worker-set changes (scale-out, exclusion).

use std::sync::Mutex;

use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::Rank;
use adapcc_simnet::time::SimDuration;
use adapcc_topo::detect::Detector;

use crate::collective::plan::StrategyKey;
use crate::error::AdapCCError;
use crate::executor::EdgePaths;
use crate::reconstruct::ReconstructReport;
use crate::session::AdapCC;

impl<'c> AdapCC<'c> {
    /// Re-profiles the links under the given live capacity factors and,
    /// if the picture changed beyond the threshold, re-synthesizes all
    /// cached strategies and re-runs the context set-up — all without
    /// stopping the job (paper Sec. IV-B / Fig. 19(c)).
    pub fn reprofile(&mut self) -> ReconstructReport {
        let mut profiler =
            Profiler::new(self.cluster, &self.topo, self.options.seed ^ self.iteration);
        for (l, f) in self.effective_factors() {
            profiler.set_capacity_factor(l, f);
        }
        // Scheduled probe losses hit the next profiling pass (the
        // profiler's retransmission path absorbs them).
        for (l, c) in self.pending_probe_losses.drain(..) {
            profiler.inject_probe_loss(l, c);
        }
        let report = profiler.run();
        let delta = report.links.max_bandwidth_delta(&self.profile);
        let changed = delta > self.options.resynth_threshold;
        self.profile = report.links;
        let mut solving = SimDuration::ZERO;
        let mut setup = SimDuration::ZERO;
        if changed {
            let keys: Vec<StrategyKey> = self.strategies.keys().cloned().collect();
            self.strategies.clear();
            self.estimates.clear();
            self.exec_cache.clear();
            // Charge the modeled solver latency (like
            // `reconstruct_after_exclusion`) rather than local wall
            // time, so same-seed runs report identical reconstruction
            // costs. The plan service scales it: any cold solve bills the
            // full anneal, pure warm starts bill the polish fraction,
            // pure exact hits are free.
            let before = self.plan_stats;
            for key in keys {
                let _ = self.strategy_for_key(&key);
            }
            solving = self.modeled_solving_since(before);
            setup = self
                .communicator
                .setup(self.cluster, self.options.parallelism)
                .elapsed;
        }
        let out = ReconstructReport {
            profiling: report.elapsed,
            solving,
            setup,
            changed,
        };
        self.last_reconstruct = Some(out);
        out
    }

    /// In-place reconstruction after a permanent exclusion: re-profile
    /// the surviving fabric, re-synthesize every strategy the job was
    /// running (strategies rooted at — or scoped to — a dead worker
    /// are dropped), and re-run the transmission-context set-up.
    /// Unlike [`Self::reprofile`] this always re-synthesizes — the
    /// worker set changed, so every cached strategy is stale
    /// regardless of bandwidth deltas — and it charges the modeled
    /// solver latency rather than local wall time, keeping the
    /// simulated session clock deterministic.
    pub(crate) fn reconstruct_after_exclusion(
        &mut self,
        dead: &[Rank],
        keys: Vec<StrategyKey>,
    ) -> ReconstructReport {
        let mut profiler =
            Profiler::new(self.cluster, &self.topo, self.options.seed ^ self.iteration);
        for (l, f) in self.effective_factors() {
            profiler.set_capacity_factor(l, f);
        }
        for (l, c) in self.pending_probe_losses.drain(..) {
            profiler.inject_probe_loss(l, c);
        }
        let report = profiler.run();
        self.profile = report.links;
        let before = self.plan_stats;
        // Registry-driven group invalidation: collect the ids of every
        // registered group containing a dead rank (and drop those
        // groups), then skip dead-scoped keys by an O(1) id check
        // instead of re-walking each key's member list per dead worker.
        let dead_groups = self.invalidate_groups_for(dead);
        let mut resynthesized = false;
        for key in keys {
            if key.root.is_some_and(|r| dead.contains(&r))
                || key
                    .scope
                    .as_ref()
                    .is_some_and(|g| dead_groups.contains(&g.id()))
            {
                continue;
            }
            resynthesized = true;
            let _ = self.strategy_for_key(&key);
        }
        // Exclusion shrinks the participant set, so every fingerprint's
        // shape half changes and the loop above solves cold — unless
        // the fleet has returned to a previously-seen worker set, where
        // the cache legitimately discounts the bill. With no surviving
        // keys the session still re-plans its graph at full cost.
        let solving = if resynthesized {
            self.modeled_solving_since(before)
        } else {
            crate::reconstruct::modeled_solve_cost(self.workers.len())
        };
        let setup = self
            .communicator
            .setup(self.cluster, self.options.parallelism)
            .elapsed;
        let out = ReconstructReport {
            profiling: report.elapsed,
            solving,
            setup,
            changed: true,
        };
        self.last_reconstruct = Some(out);
        out
    }

    /// Elastic scale-out (paper Sec. IV-A: detectors re-trigger "when
    /// a new worker joins the job"): admits new ranks into the job,
    /// re-runs detection for instances that were not previously part
    /// of it, re-profiles, and re-synthesizes — all without stopping
    /// training. Returns the cost breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`AdapCCError::InvalidRequest`] when a rank is already
    /// part of the job, appears twice in `new`, or lies outside the
    /// cluster; the job is left untouched.
    pub fn add_workers(&mut self, new: &[Rank]) -> Result<ScaleReport, AdapCCError> {
        use std::collections::BTreeSet;
        let existing_instances: BTreeSet<usize> = self
            .workers
            .iter()
            .map(|r| self.cluster.locate(*r).0 .0)
            .collect();
        let mut seen = BTreeSet::new();
        for r in new {
            if self.workers.contains(r) {
                return Err(AdapCCError::InvalidRequest(format!(
                    "{r} is already part of the job"
                )));
            }
            if r.0 >= self.cluster.gpu_count() {
                return Err(AdapCCError::InvalidRequest(format!(
                    "{r} outside the cluster"
                )));
            }
            if !seen.insert(*r) {
                return Err(AdapCCError::InvalidRequest(format!(
                    "{r} requested twice in one scale-out"
                )));
            }
        }
        // Detection re-runs only for instances joining the job; it is
        // concurrent per instance, so the cost is one instance's probe
        // schedule (or zero when only known instances grew).
        let joins_new_instance = new
            .iter()
            .any(|r| !existing_instances.contains(&self.cluster.locate(*r).0 .0));
        let detection = if joins_new_instance {
            let mut detector = Detector::new(self.cluster, self.options.seed ^ 0xE1A5);
            let report = detector.run();
            self.detection = report.clone();
            self.topo = report.logical_topology(self.cluster);
            // Paths of the old topology's edges; the memo's plans go
            // with `set_workers` below.
            self.edge_paths = Mutex::new(EdgePaths::new(self.topo.edge_count()));
            report.elapsed
        } else {
            SimDuration::ZERO
        };
        let mut workers = self.workers.clone();
        workers.extend(new.iter().copied());
        workers.sort();
        self.set_workers(workers);
        let reconstruction = self.reprofile();
        Ok(ScaleReport {
            detection,
            reconstruction,
        })
    }

    /// Drops every registered process group containing a dead rank
    /// from the registry and returns their ids — the set of scopes
    /// whose cached strategies exclusion must invalidate. Groups with
    /// only survivors stay registered (their strategies re-synthesize
    /// over the same members).
    pub(crate) fn invalidate_groups_for(
        &mut self,
        dead: &[Rank],
    ) -> std::collections::BTreeSet<u64> {
        let dead_ids: std::collections::BTreeSet<u64> = self
            .groups
            .values()
            .filter(|g| g.intersects(dead))
            .map(|g| g.id())
            .collect();
        self.groups.retain(|id, _| !dead_ids.contains(id));
        self.concurrent.retain(|id| !dead_ids.contains(id));
        dead_ids
    }

    /// Removes faulty workers from the job and re-synthesizes over the
    /// survivors (the fault-recovery path; the data loader re-shards
    /// on the training side).
    pub fn exclude_workers(&mut self, faulty: &[Rank]) {
        let remaining: Vec<Rank> = self
            .workers
            .iter()
            .copied()
            .filter(|r| !faulty.contains(r))
            .collect();
        self.set_workers(remaining);
    }
}

/// Cost breakdown of one elastic scale-out event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleReport {
    /// Topology re-detection for newly joined instances (zero when only
    /// already-known instances grew).
    pub detection: SimDuration,
    /// The in-place profiling/re-synthesis that follows.
    pub reconstruction: ReconstructReport,
}

impl ScaleReport {
    /// Total time the job was blocked by the scale event.
    pub fn total(&self) -> SimDuration {
        self.detection + self.reconstruction.total()
    }
}
