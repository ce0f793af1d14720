//! Property-based verification of the allocator against two
//! references.
//!
//! The exactness contract (DESIGN.md §15): on any event sequence, the
//! frontier refill — which only re-fills the connected class
//! components reachable from links the event touched — must produce an
//! event stream (tokens, kinds, ordering, completion-time *bits*)
//! identical to re-filling every non-empty class from scratch after
//! every event (`with_paranoid_refill`). Debug builds additionally
//! cross-check the allocated rate bits after every single refill inside
//! the engine, so these runs verify rates, times, and order at once.
//!
//! The physics contract ties the engine to the reference model in
//! `common/oracle.rs`, a fleet-wide per-flow max-min simulator that
//! integrates every flow eagerly: the same transfers complete, the
//! same ones abort, and every instant agrees within f64 rounding,
//! with and without a random churn schedule armed.

mod common;

use proptest::prelude::*;

use adapcc_simnet::cluster::InstanceId;
use adapcc_simnet::engine::{FaultAction, NetSim};
use adapcc_simnet::faults::FaultSchedule;
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;

use common::{assert_tracks_oracle, run_ops, run_ops_under, shape, Mode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The exactness contract: frontier refills reproduce the
    /// from-scratch-after-every-event reference bit for bit — same
    /// events, same order, same completion-time bits.
    #[test]
    fn frontier_refill_is_bit_identical_to_full_refill(
        shape_idx in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..=255, 0usize..8, 0usize..8, 0u64..1_000_000), 1..48),
    ) {
        let c = shape(shape_idx);
        let frontier = run_ops(&c, &ops, Mode::Frontier);
        let paranoid = run_ops(&c, &ops, Mode::Paranoid);
        prop_assert_eq!(frontier, paranoid);
    }

    /// The physics contract: on the four fabrics, with a random churn
    /// schedule (crashes, restarts, NIC failures, flaps) armed or not,
    /// the engine and the per-flow reference model deliver the same
    /// completions and aborts at the same instants, to 1e-9 relative.
    #[test]
    fn engine_tracks_the_reference_oracle(
        shape_idx in 0usize..4,
        churn in 0u8..2,
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(
            (0u8..=255, 0usize..8, 0usize..8, 0u64..1_000_000), 1..48),
    ) {
        let c = shape(shape_idx);
        let schedule = if churn == 1 {
            FaultSchedule::random_churn(&c, seed, SimDuration::from_millis(10.0))
        } else {
            FaultSchedule::new()
        };
        let engine = run_ops_under(&c, &ops, Mode::Frontier, &schedule);
        let oracle = run_ops_under(&c, &ops, Mode::Oracle, &schedule);
        assert_tracks_oracle(&engine, &oracle);
    }

    /// Counter-backed gauges agree with the definitionally-correct
    /// full scans at quiescence.
    #[test]
    fn counters_survive_random_churn(
        shape_idx in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..=255, 0usize..8, 0usize..8, 0u64..1_000_000), 1..32),
    ) {
        let c = shape(shape_idx);
        let mut sim = NetSim::new(&c);
        let n = c.instance_count();
        let mut token = 0u64;
        for &(kind, a, b, val) in &ops {
            let (a, b) = (a % n, b % n);
            match kind % 3 {
                0 => {
                    if a != b {
                        let path = c.net_path(InstanceId(a), InstanceId(b));
                        sim.submit_transfer(
                            &path, ByteSize::from_kib(val % 2048), token);
                        token += 1;
                    }
                }
                1 => {
                    while sim.step().is_some() {}
                }
                _ => {
                    let l = c.nic_egress_link(InstanceId(a));
                    if val % 2 == 0 {
                        sim.apply_fault(FaultAction::LinkDown(l));
                    } else {
                        sim.apply_fault(FaultAction::LinkUp(l));
                    }
                }
            }
        }
        while sim.step().is_some() {}
        // At quiescence every remaining draining flow is stalled.
        prop_assert_eq!(sim.draining_flows(), sim.stalled_flows());
    }
}
