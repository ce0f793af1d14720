//! Property-based verification of the incremental (dirty-frontier)
//! allocator against its from-scratch reference.
//!
//! The contract under test (DESIGN.md §15): on any event sequence, the
//! frontier refill — which only re-fills the connected flow components
//! reachable from links the event touched — must produce an event
//! stream (tokens, kinds, ordering, completion-time *bits*) identical
//! to re-filling every live component from scratch after every event
//! (`with_paranoid_refill`). Debug builds additionally cross-check the
//! allocated rate bits after every single refill inside the engine, so
//! these runs verify rates, times, and order at once.
//!
//! A second property ties the incremental mode back to the exact
//! (fleet-wide) engine: same completion multiset, times within f64
//! rounding tolerance (the two modes differ in fold order by design).

mod common;

use proptest::prelude::*;

use adapcc_simnet::cluster::InstanceId;
use adapcc_simnet::engine::{FaultAction, NetSim};
use adapcc_simnet::units::ByteSize;

use common::{run_ops, shape, Mode};

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

    /// Tie-back to the exact engine: the incremental mode delivers the
    /// same completions/aborts per token, in a monotone stream, with
    /// times within f64-rounding distance of the fleet-wide filling.
    #[test]
    fn incremental_tracks_exact_engine_physics(
        shape_idx in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..=255, 0usize..8, 0usize..8, 0u64..1_000_000), 1..48),
    ) {
        let c = shape(shape_idx);
        let exact = run_ops(&c, &ops, Mode::Exact);
        let inc = run_ops(&c, &ops, Mode::Frontier);
        prop_assert_eq!(exact.len(), inc.len());
        let key = |evs: &[(u8, u64, u64)]| {
            let mut k: Vec<(u8, u64)> = evs.iter().map(|&(k, t, _)| (k, t)).collect();
            k.sort_unstable();
            k
        };
        prop_assert_eq!(key(&exact), key(&inc), "event multiset differs");
        let times = |evs: &[(u8, u64, u64)]| {
            evs.iter()
                .map(|&(k, t, bits)| ((k, t), f64::from_bits(bits)))
                .collect::<std::collections::HashMap<_, _>>()
        };
        let (te, ti) = (times(&exact), times(&inc));
        for (k, e) in &te {
            let i = ti[k];
            let tol = 1e-9_f64.max(e.abs() * 1e-9);
            prop_assert!((e - i).abs() <= tol,
                "event {k:?}: exact t={e} incremental t={i}");
        }
        prop_assert!(inc.windows(2).all(|w| {
            f64::from_bits(w[0].2) <= f64::from_bits(w[1].2)
        }), "incremental stream not monotone");
    }

    /// Counter-backed gauges agree with the definitionally-correct
    /// full scans at quiescence, in both modes.
    #[test]
    fn counters_survive_random_churn(
        shape_idx in 0usize..4,
        ops in proptest::collection::vec(
            (0u8..=255, 0usize..8, 0usize..8, 0u64..1_000_000), 1..32),
    ) {
        let c = shape(shape_idx);
        for mode in [Mode::Exact, Mode::Frontier] {
            let mut sim = NetSim::new(&c)
                .with_incremental_allocator(mode != Mode::Exact);
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
}
