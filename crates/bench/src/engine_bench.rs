//! Synthetic engine-throughput benchmark ("storm"): floods the
//! fluid-flow simulator with contending cross-server transfers and
//! reports processed events per wall-clock second — the
//! `BENCH_engine.json` metric. The workload is pure engine stress (no
//! synthesis, no executor), so it isolates the event-queue,
//! flow-aggregation and allocator paths that the cluster-scale rewrite
//! targets.
//!
//! Two storm shapes: synchronized waves (`Wave`, the engine's batch
//! best case — one filling per wave) and staggered arrivals (`Churn`,
//! the allocator's worst case — every arrival and completion lands at
//! its own instant and pays its own refill). Both run under either
//! allocator (`AllocMode`), so the bench quantifies exactly what the
//! incremental frontier buys.

use std::time::Instant;

use adapcc::executor::INCREMENTAL_INSTANCE_THRESHOLD;
use adapcc_simnet::cluster::{Cluster, InstanceId};
use adapcc_simnet::engine::{NetSim, SimEvent};
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;

use crate::record::Row;

/// Workload shape for [`engine_storm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormMode {
    /// Synchronized waves: all `n` transfers of a wave arrive at one
    /// instant and the wave drains fully before the next.
    Wave,
    /// Staggered churn: arrivals are spread in time so completions and
    /// arrivals interleave — no two events share an instant, every one
    /// pays its own allocator refill.
    Churn,
}

impl StormMode {
    /// CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            StormMode::Wave => "wave",
            StormMode::Churn => "churn",
        }
    }
}

/// Allocator selection for [`engine_storm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// Fleet-wide progressive filling on every event (legacy engine).
    Exact,
    /// Dirty-frontier incremental allocator.
    Incremental,
    /// The executor's policy: incremental at or above
    /// [`INCREMENTAL_INSTANCE_THRESHOLD`] instances, exact below.
    Auto,
}

impl AllocMode {
    /// CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            AllocMode::Exact => "exact",
            AllocMode::Incremental => "incremental",
            AllocMode::Auto => "auto",
        }
    }

    /// Resolves `Auto` against a concrete fleet size.
    pub fn incremental_for(&self, instances: usize) -> bool {
        match self {
            AllocMode::Exact => false,
            AllocMode::Incremental => true,
            AllocMode::Auto => instances >= INCREMENTAL_INSTANCE_THRESHOLD,
        }
    }
}

/// One `adapcc-sim engine` storm: a homogeneous A100 fleet and the
/// [`engine_storm`] workload run on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormConfig {
    /// Homogeneous A100 servers (at least two: the storm is
    /// cross-server).
    pub servers: usize,
    /// Storm waves (each wave is one transfer per server, fully
    /// drained before the next).
    pub waves: usize,
    /// Workload shape: synchronized waves or staggered churn.
    pub storm: StormMode,
    /// Allocator selection: exact, incremental, or the executor's
    /// automatic scale gate.
    pub alloc: AllocMode,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            servers: 32,
            waves: 4,
            storm: StormMode::Wave,
            alloc: AllocMode::Auto,
        }
    }
}

/// Result of one [`engine_storm`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStormReport {
    /// Transfers submitted across all waves.
    pub transfers: u64,
    /// Internal engine events processed.
    pub events: u64,
    /// Simulated completion time in milliseconds.
    pub sim_ms: f64,
    /// Host wall-clock milliseconds for the whole storm (a property of
    /// the machine, never of the simulated timeline).
    pub wall_ms: f64,
    /// Filling passes the allocator ran.
    pub fillings: u64,
    /// Total flows touched by those fillings — the allocator's real
    /// work metric (`O(frontier)`, not `O(live)`, when incremental).
    pub frontier_flows: u64,
    /// Whether the incremental allocator was active.
    pub incremental: bool,
}

impl EngineStormReport {
    /// The headline throughput: engine events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ms / 1e3)
    }

    /// The allocator that ran: `incremental` or `exact`.
    pub fn alloc_name(&self) -> &'static str {
        if self.incremental {
            "incremental"
        } else {
            "exact"
        }
    }

    /// The `BENCH_engine.json` row of this storm, run as `cfg` on a
    /// fleet of `gpus` GPUs. The storm never synthesizes: its zero
    /// plan-cache columns and `false` `hierarchical` keep engine rows
    /// schema-uniform with the main and churn rows.
    pub fn row(&self, cfg: &StormConfig, gpus: usize) -> Row {
        Row::new()
            .str("servers", &format!("a100:{}", cfg.servers))
            .int("gpus", gpus)
            .int("waves", cfg.waves)
            .str("storm", cfg.storm.as_str())
            .str("alloc", self.alloc_name())
            .int("transfers", self.transfers)
            .int("events", self.events)
            .float("sim_ms", self.sim_ms, 6)
            .float("wall_ms", self.wall_ms, 3)
            .float("events_per_sec", self.events_per_sec(), 1)
            .int("fillings", self.fillings)
            .int("frontier_flows", self.frontier_flows)
            .plan_cache(0, 0, 0)
            .bool("hierarchical", false)
    }
}

/// Timer tokens in churn mode encode the pending submission index.
const CHURN_TIMER_BASE: u64 = 1 << 40;

/// Runs `waves` rounds of an all-instances shifting-ring pattern: in
/// round `w`, every instance sends one transfer to the instance
/// `1 + (w mod (n-1))` positions ahead. In [`StormMode::Wave`] the
/// whole round arrives at one instant and drains before the next —
/// all `n` NIC pairs contend at once and the engine's batch path
/// (one filling per wave) carries the arrivals. In
/// [`StormMode::Churn`] every transfer instead arrives on its own
/// staggered timer with a size jittered from 64 to 448 KiB, so
/// arrivals and completions interleave one event at a time — the
/// allocator refills on every single event.
///
/// # Panics
///
/// Panics if the cluster has fewer than two instances.
pub fn engine_storm(
    cluster: &Cluster,
    waves: usize,
    mode: StormMode,
    alloc: AllocMode,
) -> EngineStormReport {
    let n = cluster.instance_count();
    assert!(n >= 2, "the storm needs at least two instances");
    let incremental = alloc.incremental_for(n);
    let mut sim = NetSim::new(cluster).with_incremental_allocator(incremental);
    let mut token = 0u64;
    let start = Instant::now();
    match mode {
        StormMode::Wave => {
            for w in 0..waves {
                let stride = 1 + w % (n - 1);
                for i in 0..n {
                    let path = cluster.net_path(InstanceId(i), InstanceId((i + stride) % n));
                    sim.submit_transfer(&path, ByteSize::from_kib(256), token);
                    token += 1;
                }
                while sim.step().is_some() {}
            }
        }
        StormMode::Churn => {
            // Pre-schedule one arrival timer per transfer, staggered so
            // drains (tens of microseconds at these sizes) overlap the
            // next arrivals instead of synchronizing with them.
            let total = (waves * n) as u64;
            for idx in 0..total {
                sim.schedule_timer(
                    SimDuration::from_micros(1.0 + idx as f64 * 1.3),
                    CHURN_TIMER_BASE + idx,
                );
            }
            while let Some(ev) = sim.step() {
                if let SimEvent::Timer { token: t, .. } = ev {
                    let idx = (t - CHURN_TIMER_BASE) as usize;
                    let (w, i) = (idx / n, idx % n);
                    let stride = 1 + w % (n - 1);
                    let path = cluster.net_path(InstanceId(i), InstanceId((i + stride) % n));
                    // Deterministic size jitter: 64..448 KiB, so no two
                    // co-resident flows drain in lockstep.
                    let kib = 64 + (idx as u64).wrapping_mul(2654435761) % 384;
                    sim.submit_transfer(&path, ByteSize::from_kib(kib), token);
                    token += 1;
                }
            }
        }
    }
    EngineStormReport {
        transfers: token,
        events: sim.events_processed(),
        sim_ms: sim.now().as_millis(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        fillings: sim.fillings(),
        frontier_flows: sim.frontier_flows(),
        incremental,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_completes_every_transfer() {
        let cluster = Cluster::homogeneous_a100(4);
        let r = engine_storm(&cluster, 3, StormMode::Wave, AllocMode::Exact);
        assert_eq!(r.transfers, 12);
        assert!(r.events >= r.transfers, "every transfer costs events");
        assert!(r.sim_ms > 0.0);
        assert!(r.events_per_sec() > 0.0);
        assert!(r.fillings > 0);
        assert!(!r.incremental);
    }

    #[test]
    fn storm_scales_to_podded_fleets() {
        // 32 servers > FLAT_FABRIC_MAX: the pattern crosses pod
        // boundaries and must still drain completely.
        let cluster = Cluster::homogeneous_a100(32);
        let r = engine_storm(&cluster, 2, StormMode::Wave, AllocMode::Exact);
        assert_eq!(r.transfers, 64);
        assert!(r.events >= r.transfers);
    }

    #[test]
    fn churn_storm_completes_every_transfer_in_both_modes() {
        let cluster = Cluster::homogeneous_a100(6);
        for alloc in [AllocMode::Exact, AllocMode::Incremental] {
            let r = engine_storm(&cluster, 2, StormMode::Churn, alloc);
            assert_eq!(r.transfers, 12, "alloc={alloc:?}");
            assert!(r.events >= 2 * r.transfers, "timer + completion each");
            assert!(r.fillings > 0);
        }
    }

    #[test]
    fn incremental_storm_touches_fewer_flows() {
        // The point of the frontier: on the wave storm the incremental
        // allocator's total touched-flow count must be far below the
        // exact engine's (which refills every live flow per event).
        let cluster = Cluster::homogeneous_a100(16);
        let exact = engine_storm(&cluster, 2, StormMode::Wave, AllocMode::Exact);
        let inc = engine_storm(&cluster, 2, StormMode::Wave, AllocMode::Incremental);
        assert_eq!(exact.transfers, inc.transfers);
        assert!(
            inc.frontier_flows * 2 <= exact.frontier_flows,
            "incremental {} vs exact {}",
            inc.frontier_flows,
            exact.frontier_flows
        );
        assert!(inc.incremental);
    }

    #[test]
    fn auto_mode_follows_the_executor_threshold() {
        assert!(!AllocMode::Auto.incremental_for(INCREMENTAL_INSTANCE_THRESHOLD - 1));
        assert!(AllocMode::Auto.incremental_for(INCREMENTAL_INSTANCE_THRESHOLD));
        assert!(AllocMode::Incremental.incremental_for(2));
        assert!(!AllocMode::Exact.incremental_for(1 << 20));
    }
}
