//! The scripted-operation vocabulary shared by the engine's
//! integration suites: a random op script (submissions, timers,
//! partial stepping, the fault vocabulary) replayed against the engine
//! or its reference model, recorded as `(kind, token, at bits)`
//! triples, and the comparison that holds the engine to the model.

pub mod oracle;

use adapcc_simnet::cluster::{Cluster, InstanceId};
use adapcc_simnet::engine::{FaultAction, NetSim, SimEvent};
use adapcc_simnet::faults::FaultSchedule;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;

pub use oracle::assert_tracks as assert_tracks_oracle;
use oracle::{Oracle, Sim};

/// One scripted operation against the engine.
pub type Op = (u8, usize, usize, u64);

/// Which simulator replays a script.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The engine: dirty-frontier refills.
    Frontier,
    /// The engine, every non-empty class dirty at every refill.
    Paranoid,
    /// The fleet-wide per-flow reference model.
    Oracle,
}

/// The four fabrics the proptests draw from.
pub fn shape(idx: usize) -> Cluster {
    match idx % 4 {
        0 => Cluster::fat_tree(2, 1),
        1 => Cluster::fat_tree(3, 2),
        2 => Cluster::fat_tree(5, 1),
        _ => Cluster::homogeneous_a100(4),
    }
}

/// Appends one event as `(kind, token, at bits)`.
pub fn record(ev: &SimEvent, out: &mut Vec<(u8, u64, u64)>) {
    let kind = match ev {
        SimEvent::TransferDone { .. } => 0u8,
        SimEvent::TransferAborted { .. } => 1,
        SimEvent::Timer { .. } => 2,
    };
    out.push((kind, ev.token(), ev.at().as_secs().to_bits()));
}

/// Replays a random op script: submissions, timers, partial stepping
/// (so completions interleave with later arrivals), and the full fault
/// vocabulary, then drains to quiescence with all links restored.
pub fn run_ops(c: &Cluster, ops: &[Op], mode: Mode) -> Vec<(u8, u64, u64)> {
    run_ops_under(c, ops, mode, &FaultSchedule::new())
}

/// [`run_ops`] with `schedule` armed at time zero first.
pub fn run_ops_under(
    c: &Cluster,
    ops: &[Op],
    mode: Mode,
    schedule: &FaultSchedule,
) -> Vec<(u8, u64, u64)> {
    match mode {
        Mode::Oracle => replay(&mut Oracle::new(c), c, ops, schedule),
        _ => {
            let mut sim = NetSim::new(c).with_paranoid_refill(mode == Mode::Paranoid);
            replay(&mut sim, c, ops, schedule)
        }
    }
}

fn replay(
    sim: &mut impl Sim,
    c: &Cluster,
    ops: &[Op],
    schedule: &FaultSchedule,
) -> Vec<(u8, u64, u64)> {
    schedule.arm(sim, SimTime::ZERO);
    let n = c.instance_count();
    let mut out = Vec::new();
    let mut token = 0u64;
    for &(kind, a, b, val) in ops {
        let (a, b) = (a % n, b % n);
        match kind % 5 {
            0 => {
                if a != b {
                    let path = c.net_path(InstanceId(a), InstanceId(b));
                    sim.submit_transfer(&path, ByteSize::from_kib(val % 4096), token);
                    token += 1;
                }
            }
            1 => {
                sim.schedule_timer(
                    SimDuration::from_micros((val % 10_000) as f64),
                    1_000_000 + token,
                );
                token += 1;
            }
            2 => {
                for _ in 0..=(val % 3) {
                    match sim.step() {
                        Some(ev) => record(&ev, &mut out),
                        None => break,
                    }
                }
            }
            3 => {
                let l = c.nic_egress_link(InstanceId(a));
                match val % 4 {
                    0 => sim.apply_fault(FaultAction::LinkDown(l)),
                    1 => sim.apply_fault(FaultAction::LinkUp(l)),
                    2 => sim.apply_fault(FaultAction::SetCapacityFactor(
                        l,
                        0.25 + (val % 7) as f64 * 0.25,
                    )),
                    _ => sim.apply_fault(FaultAction::LinkFail(l)),
                }
            }
            _ => {
                let l = c.nic_ingress_link(InstanceId(b));
                let action = match val % 3 {
                    0 => FaultAction::LinkDown(l),
                    1 => FaultAction::LinkUp(l),
                    _ => FaultAction::LinkRecover(l),
                };
                sim.schedule_fault(SimDuration::from_micros((val % 5_000) as f64), action);
            }
        }
    }
    // Restore the fabric so stalled flows drain instead of hanging.
    for i in 0..n {
        for l in [
            c.nic_egress_link(InstanceId(i)),
            c.nic_ingress_link(InstanceId(i)),
        ] {
            sim.apply_fault(FaultAction::LinkRecover(l));
            sim.apply_fault(FaultAction::LinkUp(l));
        }
    }
    while let Some(ev) = sim.step() {
        record(&ev, &mut out);
    }
    out
}
