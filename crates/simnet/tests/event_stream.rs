//! Golden event streams.
//!
//! `allocator.rs` checks the frontier refill against the paranoid
//! refill, but both run the same filling kernel, so a change to the
//! kernel's arithmetic would pass it unseen; its reference model
//! bounds instants only to rounding. These goldens pin the arithmetic
//! bit for bit: each pins the number of events and an FNV-1a digest of
//! every event's kind, token and completion-time bits over 64 seeded op
//! scripts and one alltoall storm in which many transfers share each
//! path.

mod common;

use adapcc_simnet::cluster::{Cluster, ClusterBuilder, InstanceId};
use adapcc_simnet::engine::{FaultAction, NetSim};
use adapcc_simnet::hardware::InstanceSpec;
use adapcc_simnet::time::SimDuration;
use adapcc_simnet::units::ByteSize;

use common::oracle::{Oracle, Sim};
use common::{assert_tracks_oracle, record, run_ops, shape, Mode, Op};

/// Event count and FNV-1a digest of `(kind, token, at bits)` triples.
fn digest(events: &[(u8, u64, u64)]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(kind, token, at) in events {
        let bytes = [kind]
            .into_iter()
            .chain(token.to_le_bytes())
            .chain(at.to_le_bytes());
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (events.len(), h)
}

/// SplitMix64: a self-contained script generator, so the goldens do
/// not depend on any RNG crate's stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn script(seed: u64) -> Vec<Op> {
    let mut s = seed;
    let len = 48 + splitmix(&mut s) % 96;
    (0..len)
        .map(|_| {
            (
                splitmix(&mut s) as u8,
                (splitmix(&mut s) % 8) as usize,
                (splitmix(&mut s) % 8) as usize,
                splitmix(&mut s) % 1_000_000,
            )
        })
        .collect()
}

/// The paper testbed with its V100 servers on TCP: flows into or out
/// of a V100 carry a per-flow cap, A100-to-A100 flows do not.
fn tcp_testbed() -> Cluster {
    let mut b = ClusterBuilder::new();
    b.add_instances(InstanceSpec::a100_server(), 4);
    b.add_instances(InstanceSpec::v100_server().with_tcp(), 2);
    b.build()
}

fn cluster_for(seed: u64) -> Cluster {
    match seed % 6 {
        4 => Cluster::paper_testbed(),
        5 => tcp_testbed(),
        k => shape(k as usize),
    }
}

/// `(count, digest)` for the scripts seeded `0..64`.
const SCRIPT_GOLDENS: [(usize, u64); 64] = [
    (35, 0x46614aa9e3596dd8),
    (33, 0xcc75ee8b4337a2ce),
    (39, 0x5dc33be8f1ace61f),
    (31, 0x9e014de5380269dc),
    (24, 0x90846e653454e4de),
    (25, 0x196e4a784b945798),
    (32, 0xc22598d0c10f737d),
    (36, 0x225d24780a7dbd82),
    (26, 0x829128040a59a0c4),
    (17, 0x99ea2aa70501d0c4),
    (23, 0xcf4e4ef26aa20b33),
    (47, 0x6b29cb2ad93054c1),
    (12, 0x0489991abdd687a6),
    (33, 0xd73e6054fe7162cf),
    (38, 0x90ee1f5afe97b25f),
    (15, 0xe484b94b6ed4089d),
    (46, 0xf23555e5f0a8391e),
    (15, 0x0cad4253f98b0b24),
    (40, 0xbd0bbb0e1a0c152d),
    (25, 0xe1f61b33bbaa07bd),
    (23, 0xb3cce76fee4b8712),
    (20, 0x01bb6e405bc1976a),
    (38, 0xbf6d89ae48df1abf),
    (20, 0xf2a18d7384155f3b),
    (22, 0x20ac535de2b52671),
    (17, 0x063beb527c9b69c9),
    (27, 0x02b6bbd89e6ae2a1),
    (26, 0x2748e70c54498263),
    (40, 0x5831123c8e3e7e0e),
    (37, 0x83d83442f0044f58),
    (12, 0xcbc286deded0480b),
    (37, 0xaa326511962ad3c6),
    (21, 0x95bb26c524aebeb4),
    (32, 0xaeb54d2dc600d935),
    (50, 0x4434887300c68d47),
    (28, 0x786d5e06028bb8b0),
    (29, 0x51e087b398a9f816),
    (48, 0x1b7e9dea6e7c78b9),
    (39, 0xb85c5214950354c4),
    (29, 0xbf174a6510f9317b),
    (45, 0xf715e91871a63c9b),
    (25, 0x4cd574de28a92cdb),
    (44, 0xe30a67a56de60e5a),
    (31, 0x1f661c09ec11f498),
    (39, 0x407fdc3ee1230ec8),
    (29, 0xf3766f76c8199235),
    (31, 0xd50e684952221870),
    (51, 0x02e05f6602ed7cc8),
    (28, 0xc2fed66317c23a50),
    (16, 0x1e953b788684fa79),
    (44, 0x5111597513ea0d85),
    (33, 0x9886a43b9abe529e),
    (48, 0x910b249ed5cc3d40),
    (21, 0xe31cb254879cf458),
    (25, 0xf8f8f46040d38ca4),
    (40, 0x574032221855f639),
    (47, 0x01e10f5321878069),
    (33, 0x351ef6eced83133e),
    (42, 0x3266bf3ac8850e49),
    (44, 0x34ea858a16759d3e),
    (23, 0xbea7527e00f80812),
    (22, 0xa5caf82fa9dd2461),
    (29, 0x5dbfa5378b86bc4b),
    (43, 0x957d98a9f792fbc4),
];

#[test]
fn seeded_scripts_match_goldens() {
    for (seed, &want) in SCRIPT_GOLDENS.iter().enumerate() {
        let c = cluster_for(seed as u64);
        let ops = script(seed as u64);
        assert_eq!(
            digest(&run_ops(&c, &ops, Mode::Frontier)),
            want,
            "seed {seed}"
        );
    }
}

/// An alltoall-style storm on `fat_tree(4, 4)`: every GPU sends a chunk
/// to every GPU of every other server, so each server pair's path
/// carries 16 transfers per wave (runs of four identical ones share a
/// mark, the runs differ in size), beside a ring of NVLink transfers
/// per server. The waves overlap, one NIC is degraded and one is taken
/// down and back up mid-storm.
fn storm(mode: Mode) -> Vec<(u8, u64, u64)> {
    let c = Cluster::fat_tree(4, 4);
    match mode {
        Mode::Oracle => storm_on(&c, &mut Oracle::new(&c)),
        _ => storm_on(
            &c,
            &mut NetSim::new(&c).with_paranoid_refill(mode == Mode::Paranoid),
        ),
    }
}

fn storm_on(c: &Cluster, sim: &mut impl Sim) -> Vec<(u8, u64, u64)> {
    let (n, g) = (c.instance_count(), 4);
    let mut out = Vec::new();
    let mut token = 0u64;
    for wave in 0..6u64 {
        for src in 0..n {
            for dst in (0..n).filter(|&d| d != src) {
                let path = c.net_path(InstanceId(src), InstanceId(dst));
                for gpu in 0..g as u64 {
                    for _ in 0..g {
                        let kib = 64 + 32 * ((wave + src as u64 + gpu) % 3);
                        sim.submit_transfer(&path, ByteSize::from_kib(kib), token);
                        token += 1;
                    }
                }
            }
            for a in 0..g {
                let from = c.rank_of(InstanceId(src), a);
                let to = c.rank_of(InstanceId(src), (a + 1) % g);
                let path = c.intra_path(from, to);
                sim.submit_transfer(&path, ByteSize::from_kib(256 + 64 * a as u64), token);
                token += 1;
            }
        }
        match wave {
            2 => sim.apply_fault(FaultAction::SetCapacityFactor(
                c.nic_egress_link(InstanceId(1)),
                0.5,
            )),
            3 => {
                let l = c.nic_ingress_link(InstanceId(2));
                sim.apply_fault(FaultAction::LinkDown(l));
                sim.schedule_fault(SimDuration::from_micros(50.0), FaultAction::LinkUp(l));
            }
            _ => {}
        }
        for _ in 0..n * (n - 1) * g * g / 2 {
            match sim.step() {
                Some(ev) => record(&ev, &mut out),
                None => break,
            }
        }
    }
    while let Some(ev) = sim.step() {
        record(&ev, &mut out);
    }
    out
}

#[test]
fn alltoall_storm_matches_goldens() {
    let frontier = storm(Mode::Frontier);
    assert_eq!(digest(&frontier), STORM_GOLDEN);
    assert_eq!(storm(Mode::Paranoid), frontier, "paranoid");
    assert_tracks_oracle(&frontier, &storm(Mode::Oracle));
}

/// `(count, digest)` of the alltoall storm.
const STORM_GOLDEN: (usize, u64) = (1248, 0x734098933f974115);
