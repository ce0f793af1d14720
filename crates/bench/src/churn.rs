//! Churn sweep: dense leave→rejoin schedules thrown at the elastic
//! membership lifecycle.
//!
//! Where the [`crate::chaos`] sweep asks "does recovery classify every
//! fault?", this sweep asks the harder robustness question: under
//! *sustained* churn — workers crashing and restarting, NICs failing
//! and recovering, flap bursts — does the session keep making
//! progress, and does membership settle on exactly the ranks the
//! schedule leaves alive?
//!
//! Each seed draws a [`FaultSchedule::random_churn`] (denser than
//! [`FaultSchedule::random`], biased toward leave→rejoin pairs),
//! injects it into a fresh [`AdapCC`] session, and drives AllReduces
//! across the fault window. Typed errors do **not** stop the loop —
//! a churn-hardened trainer retries the next step — they are counted
//! and the loop continues. After the horizon, a settle phase gives the
//! health monitor's probe rounds time to readmit restarted workers.
//!
//! Invariants, checked per seed:
//!
//! * never a hang, never a panic (the loop is iteration-bounded and
//!   every error is a classified [`adapcc::AdapCCError`]);
//! * membership converges to the schedule's final alive set
//!   (skipped when that set is too small to carry a collective);
//! * every rejoin bills less blocked time than the NCCL-style full
//!   restart it replaces ([`nccl_restart_cost`]);
//! * a final real-data AllReduce is numerically correct over the
//!   survivors.
//!
//! The workspace test `tests/churn.rs` sweeps 200 seeds in two
//! shards; `adapcc_sim churn` runs the same sweep from the command
//! line.

use std::collections::{BTreeMap, BTreeSet};

use adapcc::{nccl_restart_cost, AdapCC, InitOptions, RecoveryEvent};
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::faults::FaultSchedule;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::solver::SynthConfig;

use crate::record::Row;

/// Parameters of one churn sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Homogeneous A100 servers in the cluster (4 GPUs each).
    pub servers: usize,
    /// Per-rank tensor size of the clock-driving iterations.
    pub tensor: ByteSize,
    /// Churn-schedule horizon: events land within this (simulated)
    /// window, and the iteration loop runs until the session clock
    /// crosses it.
    pub horizon: SimDuration,
    /// Iteration-count safety valve for the clock-driving phase.
    pub max_iters: usize,
    /// Extra iterations past the horizon so the health monitor's
    /// probe rounds can readmit restarted workers (two passing probes
    /// plus probation under the default policy).
    pub settle_iters: usize,
    /// Synthesizer annealing iterations (kept low — churn stresses
    /// membership, not strategy quality).
    pub anneal_iters: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            servers: 2,
            tensor: ByteSize::from_mib(1),
            horizon: SimDuration::from_millis(2.0),
            max_iters: 64,
            settle_iters: 6,
            anneal_iters: 24,
        }
    }
}

/// What one seeded churn run concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOutcome {
    /// Membership matches the schedule's final alive set and the
    /// verification collective was numerically correct.
    Converged,
    /// The run ended in a typed, classified error — accepted when the
    /// schedule leaves too few survivors to carry the job.
    Classified(String),
    /// Membership settled on the wrong worker set — a violation.
    Diverged {
        /// Ranks the schedule leaves alive.
        expected: Vec<Rank>,
        /// Ranks the session actually converged to.
        actual: Vec<Rank>,
    },
    /// A rejoin blocked the job for at least as long as the full
    /// restart it is supposed to beat — a violation.
    RejoinOverBudget {
        /// Blocked time billed by the scale-out.
        cost: SimDuration,
        /// The NCCL-style restart bound it must undercut.
        bound: SimDuration,
    },
    /// A survivor's output was wrong — a violation.
    NumericMismatch {
        /// The rank whose output disagreed.
        rank: Rank,
        /// What it produced.
        got: f32,
        /// The sum it should have produced.
        want: f32,
    },
}

impl ChurnOutcome {
    /// True for the outcomes the sweep rejects.
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            ChurnOutcome::Diverged { .. }
                | ChurnOutcome::RejoinOverBudget { .. }
                | ChurnOutcome::NumericMismatch { .. }
        )
    }
}

/// One seeded churn run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// The schedule seed.
    pub seed: u64,
    /// Events in the drawn schedule.
    pub schedule_len: usize,
    /// Iterations driven (clock phase plus settle phase).
    pub iterations: usize,
    /// Typed errors absorbed without stopping the loop.
    pub errors: usize,
    /// Ranks readmitted through the rejoin path.
    pub rejoins: usize,
    /// Plan-cache exact hits inside the session (membership changes
    /// re-plan through the cache, so churn exercises it for real).
    pub plan_hits: u64,
    /// Plan-cache misses (cold solves) inside the session.
    pub plan_misses: u64,
    /// Plan-cache warm-started solves inside the session.
    pub plan_warm_starts: u64,
    /// What the run concluded.
    pub outcome: ChurnOutcome,
}

fn inputs_for(workers: &[Rank], elems: usize) -> BTreeMap<Rank, Vec<f32>> {
    workers
        .iter()
        .map(|r| {
            (
                *r,
                (0..elems).map(|i| ((r.0 * 13 + i) % 11) as f32).collect(),
            )
        })
        .collect()
}

/// Runs one seed: build a session, inject a dense churn schedule,
/// iterate AllReduces across the window (absorbing typed errors),
/// settle, then check convergence, rejoin cost, and numerics.
pub fn run_seed(cfg: &ChurnConfig, seed: u64) -> ChurnReport {
    let cluster = Cluster::homogeneous_a100(cfg.servers);
    let options = InitOptions {
        synth: SynthConfig {
            anneal_iters: cfg.anneal_iters,
            ..Default::default()
        },
        seed,
        ..Default::default()
    };
    let mut cc = AdapCC::init(&cluster, options);
    cc.setup();
    let schedule = FaultSchedule::random_churn(&cluster, seed, cfg.horizon);
    let schedule_len = schedule.len();
    let expected_gone: BTreeSet<Rank> = schedule
        .eventually_excluded_ranks(&cluster)
        .into_iter()
        .collect();
    cc.inject_faults(schedule);
    let horizon_end = SimTime::ZERO + cfg.horizon;

    // Phase 1: carry the clock across the churn window. Errors are
    // absorbed, not returned — sustained churn must never wedge the
    // training loop — but a run that only errors is cut short (the
    // fleet is terminally down and each further call re-classifies).
    let mut iterations = 0;
    let mut errors = 0;
    let mut consecutive = 0;
    while cc.session_clock() < horizon_end && iterations < cfg.max_iters && consecutive < 4 {
        match cc.allreduce(cfg.tensor, &BTreeMap::new(), None) {
            Ok(_) => consecutive = 0,
            Err(_) => {
                errors += 1;
                consecutive += 1;
            }
        }
        iterations += 1;
    }

    // Phase 2: settle past the horizon so probe rounds see every
    // scheduled recovery and restarted workers can rejoin.
    for _ in 0..cfg.settle_iters {
        if cc.allreduce(cfg.tensor, &BTreeMap::new(), None).is_err() {
            errors += 1;
        }
        iterations += 1;
    }

    let rejoins: usize = cc
        .recovery_log()
        .iter()
        .filter_map(|e| match e {
            RecoveryEvent::Rejoined { ranks, .. } => Some(ranks.len()),
            _ => None,
        })
        .sum();
    let cache = cc.plan_cache_stats();
    let report = |outcome| ChurnReport {
        seed,
        schedule_len,
        iterations,
        errors,
        rejoins,
        plan_hits: cache.hits,
        plan_misses: cache.misses,
        plan_warm_starts: cache.warm_starts,
        outcome,
    };

    // Invariant: every rejoin undercuts the NCCL-style full restart
    // it replaces.
    let bound = nccl_restart_cost(cfg.tensor, cluster.gpu_count()).total();
    for e in cc.recovery_log() {
        if let RecoveryEvent::Rejoined { scale, .. } = e {
            if scale.total() >= bound {
                return report(ChurnOutcome::RejoinOverBudget {
                    cost: scale.total(),
                    bound,
                });
            }
        }
    }

    // Phase 3: one real-data collective, then the convergence check.
    let verify = ByteSize::from_kib(64);
    let elems = (verify.as_u64() / 4) as usize;
    let inputs = inputs_for(cc.workers(), elems);
    match cc.allreduce(verify, &BTreeMap::new(), Some(inputs.clone())) {
        Err(e) => report(ChurnOutcome::Classified(e.to_string())),
        Ok(rep) => {
            let survivors = cc.workers().to_vec();
            for w in &survivors {
                let out = &rep.outputs[w];
                for i in [0usize, elems / 2, elems - 1] {
                    // A rank re-admitted *during* the verify call has
                    // no input buffer and contributes zeros.
                    let want: f32 = survivors
                        .iter()
                        .map(|r| inputs.get(r).map_or(0.0, |v| v[i]))
                        .sum();
                    if (out[i] - want).abs() > 1e-3 {
                        return report(ChurnOutcome::NumericMismatch {
                            rank: *w,
                            got: out[i],
                            want,
                        });
                    }
                }
            }
            let expected: BTreeSet<Rank> = (0..cluster.gpu_count())
                .map(Rank)
                .filter(|r| !expected_gone.contains(r))
                .collect();
            let actual: BTreeSet<Rank> = survivors.iter().copied().collect();
            // Below two survivors the session refuses to shrink, so
            // the final alive set is unreachable by design; the typed
            // error path above is the accepted ending there.
            if expected.len() >= 2 && actual != expected {
                return report(ChurnOutcome::Diverged {
                    expected: expected.into_iter().collect(),
                    actual: actual.into_iter().collect(),
                });
            }
            report(ChurnOutcome::Converged)
        }
    }
}

/// Aggregate of a churn sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSummary {
    /// Runs whose membership converged and verified.
    pub converged: usize,
    /// Runs that ended in a classified error.
    pub classified: usize,
    /// Ranks readmitted across the whole sweep.
    pub rejoins: usize,
    /// Typed errors absorbed across the whole sweep.
    pub errors: usize,
    /// Plan-cache exact hits summed over every session.
    pub plan_hits: u64,
    /// Plan-cache misses summed over every session.
    pub plan_misses: u64,
    /// Plan-cache warm starts summed over every session.
    pub plan_warm_starts: u64,
    /// Reports that violated an invariant (must be empty).
    pub violations: Vec<ChurnReport>,
    /// Total runs.
    pub total: usize,
}

impl ChurnSummary {
    /// The `BENCH_churn.json` row of a sweep of `seeds` seeds from
    /// `seed_base` under `cfg`, taking `wall_ms` of host time.
    /// `horizon_ms` is the window as the caller gave it: `cfg.horizon`
    /// does not round-trip every millisecond value. The sessions never
    /// force hierarchical synthesis; the `false` column keeps the schema
    /// uniform with the main and engine rows.
    pub fn row(
        &self,
        cfg: &ChurnConfig,
        seeds: u64,
        seed_base: u64,
        horizon_ms: f64,
        wall_ms: f64,
    ) -> Row {
        Row::new()
            .int("seeds", seeds)
            .int("seed_base", seed_base)
            .int("servers", cfg.servers)
            .int("size_kib", cfg.tensor.as_u64() / 1024)
            .float("horizon_ms", horizon_ms, 3)
            .int("settle_iters", cfg.settle_iters)
            .int("converged", self.converged)
            .int("classified", self.classified)
            .int("violations", self.violations.len())
            .int("rejoins", self.rejoins)
            .int("errors", self.errors)
            .plan_cache(self.plan_hits, self.plan_misses, self.plan_warm_starts)
            .bool("hierarchical", false)
            .float("wall_ms", wall_ms, 3)
    }
}

/// Sweeps `seeds` consecutive seeds starting at `base`, calling
/// `progress` after each run (for live CLI output; pass `|_| {}` to
/// stay quiet).
pub fn run_sweep<F: FnMut(&ChurnReport)>(
    cfg: &ChurnConfig,
    base: u64,
    seeds: u64,
    mut progress: F,
) -> ChurnSummary {
    let mut summary = ChurnSummary::default();
    for seed in base..base + seeds {
        let report = run_seed(cfg, seed);
        match &report.outcome {
            ChurnOutcome::Converged => summary.converged += 1,
            ChurnOutcome::Classified(_) => summary.classified += 1,
            _ => summary.violations.push(report.clone()),
        }
        summary.rejoins += report.rejoins;
        summary.errors += report.errors;
        summary.plan_hits += report.plan_hits;
        summary.plan_misses += report.plan_misses;
        summary.plan_warm_starts += report.plan_warm_starts;
        summary.total += 1;
        progress(&report);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_runs_without_wedging() {
        let cfg = ChurnConfig::default();
        let r = run_seed(&cfg, 3);
        assert!(!r.outcome.is_violation(), "{r:?}");
        // 2-5 primary faults, each with an 80% chance of a recovery.
        assert!(r.schedule_len >= 2 && r.schedule_len <= 10, "{r:?}");
    }

    #[test]
    fn sweep_aggregates() {
        let cfg = ChurnConfig::default();
        let s = run_sweep(&cfg, 0, 4, |_| {});
        assert_eq!(s.total, 4);
        assert_eq!(s.converged + s.classified + s.violations.len(), 4);
        assert!(s.violations.is_empty(), "{:?}", s.violations);
    }
}
