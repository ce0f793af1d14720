//! Cluster-scale regression suite pinning the hierarchical synthesis
//! path (see `crates/synth/src/hierarchy.rs`):
//!
//! - at small scale, where the flat annealer is tractable, the
//!   hierarchical decomposition must land within a bounded cost ratio
//!   of the flat search;
//! - at 512 GPUs the composed strategy must conserve flows and compute
//!   the exact allreduce sum (the fleet is far past the
//!   incremental-allocator threshold, so this also exercises the
//!   engine's dirty-frontier refill);
//! - the synthesized strategy must be bit-identical however many
//!   worker threads the solver's chains are scheduled onto.

use std::collections::BTreeMap;

use adapcc::executor::{ExecutionRequest, Executor};
use adapcc_profile::profiler::Profiler;
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::solver::{SynthConfig, SynthRequest, Synthesizer};
use adapcc_synth::{Hierarchical, Primitive};
use adapcc_topo::detect::Detector;

fn ctx(
    cluster: &Cluster,
) -> (
    adapcc_topo::logical::LogicalTopology,
    adapcc_profile::profiler::LinkProfile,
) {
    let topo = Detector::new(cluster, 1).run().logical_topology(cluster);
    let profile = Profiler::new(cluster, &topo, 1).run().links;
    (topo, profile)
}

/// Hierarchical synthesis trades search breadth for scale; at 8 and 32
/// GPUs — where the flat annealer still explores the full space — the
/// executed time of the composed strategy must stay within 2x of flat
/// (and cannot be mysteriously faster than half of it: both walk the
/// same physical cluster).
#[test]
fn hierarchical_matches_flat_cost_at_small_scale() {
    for servers in [2usize, 8] {
        let cluster = Cluster::homogeneous_a100(servers);
        let (topo, profile) = ctx(&cluster);
        let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
        let tensor = ByteSize::from_mib(16);
        let exec = Executor::new(&cluster, &topo);
        let time_with = |mode: Hierarchical| {
            let config = SynthConfig {
                anneal_iters: 48,
                hierarchical: mode,
                ..Default::default()
            };
            let req = SynthRequest::new(Primitive::AllReduce, tensor, 4, ranks.clone());
            let strategy = Synthesizer::new(&topo, &profile)
                .with_config(config)
                .synthesize(&req);
            assert!(strategy.validate(&topo).is_ok(), "{mode:?} invalid");
            exec.execute(&[ExecutionRequest::timing(&strategy, tensor)])
                .finish
                .as_secs()
        };
        let flat = time_with(Hierarchical::Off);
        let hier = time_with(Hierarchical::On);
        let ratio = hier / flat;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{servers} servers: hier {hier}s vs flat {flat}s (ratio {ratio:.3})"
        );
    }
}

/// 512-GPU allreduce through the full hierarchical path: the composed
/// strategy passes the flow-conservation validator, and the data plane
/// delivers every rank's contribution exactly once — each output
/// element is the sum over all 512 inputs, nothing dropped, nothing
/// double-counted.
#[test]
fn allreduce_512_gpus_conserves_flows_and_sums_exactly() {
    let cluster = Cluster::homogeneous_a100(128);
    assert_eq!(cluster.gpu_count(), 512);
    let (topo, profile) = ctx(&cluster);
    let ranks: Vec<Rank> = (0..512).map(Rank).collect();
    assert!(Hierarchical::Auto.enabled_for(512, 128));
    let elems = 256usize;
    let tensor = ByteSize::from_bytes((elems * 4) as u64);
    let config = SynthConfig {
        anneal_iters: 0, // composition only; polish is covered at small scale
        ..Default::default()
    };
    let req = SynthRequest::new(Primitive::AllReduce, tensor, 2, ranks.clone());
    let strategy = Synthesizer::new(&topo, &profile)
        .with_config(config)
        .synthesize(&req);
    strategy
        .validate(&topo)
        .expect("512-GPU strategy conserves flows");

    // Rank r contributes (r % 11 + i % 5) at element i; the closed-form
    // total makes the digest check O(1) per element.
    let inputs: BTreeMap<Rank, Vec<f32>> = ranks
        .iter()
        .map(|r| (*r, (0..elems).map(|i| (r.0 % 11 + i % 5) as f32).collect()))
        .collect();
    let exec = Executor::new(&cluster, &topo);
    let report =
        exec.execute(&[ExecutionRequest::timing(&strategy, tensor).with_inputs(inputs.clone())]);
    let outputs = &report.requests[0].outputs;
    assert_eq!(outputs.len(), 512);
    let mod11_total: f32 = (0..512).map(|r| (r % 11) as f32).sum();
    for r in [Rank(0), Rank(17), Rank(255), Rank(511)] {
        let out = &outputs[&r];
        assert_eq!(out.len(), elems);
        for i in [0usize, elems / 2, elems - 1] {
            let expect = mod11_total + 512.0 * (i % 5) as f32;
            assert!(
                (out[i] - expect).abs() < 1e-1,
                "rank {:?} elem {}: {} != {}",
                r,
                i,
                out[i],
                expect
            );
        }
    }
}

/// `solver_threads` is a pure execution knob: scheduling the annealing
/// chains onto 1 or 4 workers must synthesize bit-identical strategies,
/// flat and hierarchical alike.
#[test]
fn solver_thread_count_never_changes_the_strategy() {
    let cluster = Cluster::homogeneous_a100(16); // 64 GPUs: Auto decomposes
    let (topo, profile) = ctx(&cluster);
    let ranks: Vec<Rank> = (0..cluster.gpu_count()).map(Rank).collect();
    for mode in [Hierarchical::Off, Hierarchical::On] {
        let strategy_with = |threads: usize| {
            let config = SynthConfig {
                anneal_iters: 48,
                anneal_chains: 4,
                solver_threads: threads,
                hierarchical: mode,
                ..Default::default()
            };
            let req = SynthRequest::new(
                Primitive::AllReduce,
                ByteSize::from_mib(16),
                2,
                ranks.clone(),
            );
            Synthesizer::new(&topo, &profile)
                .with_config(config)
                .synthesize(&req)
        };
        assert_eq!(
            strategy_with(1),
            strategy_with(4),
            "{mode:?}: solver_threads leaked into the search"
        );
    }
}
