//! The model-accuracy experiment (paper Fig. 19(b)).
//!
//! The paper trains VGG16 on a down-scaled ImageNet and shows that
//! AdapCC's two-phase relay aggregation converges identically to a
//! normal collective, that a different aggregation *order* (the graph
//! dumped from NCCL) is equally harmless, and that simply discarding
//! straggler gradients ("Relay Async") hurts convergence.
//!
//! Those claims are *algorithmic*, so we demonstrate them honestly: a
//! real MLP classifier is trained data-parallel on a synthetic
//! 10-class problem, with each iteration's gradients flowing through
//! the **actual collective implementations** — the synthesized AdapCC
//! strategy, the two-phase adaptive path with a genuine straggler, or
//! the NCCL-like graph — so floating-point summation orders are
//! whatever the communication graphs produce, not a hand-written
//! stand-in.

use std::collections::BTreeMap;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use adapcc::{AdapCC, InitOptions, RelayConfig};
use adapcc_baselines::nccl::nccl_strategy;
use adapcc_simnet::cluster::{Cluster, Rank};
use adapcc_simnet::rng::seeded_rng;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;
use adapcc_synth::primitive::Primitive;
use adapcc_synth::solver::SynthConfig;

/// How gradients are aggregated each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationMode {
    /// Full collective over every worker (the NCCL reference curve).
    FullSync,
    /// AdapCC's two-phase relay protocol with a real straggler each
    /// iteration — numerically a full collective.
    RelaySync,
    /// Straggler gradients are discarded (the paper's "Relay Async"
    /// strawman).
    RelayAsync,
    /// Full collective through the NCCL-like graph: a different
    /// summation order ("AdapCC-nccl graph").
    NcclGraphOrder,
}

impl AggregationMode {
    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            AggregationMode::FullSync => "NCCL",
            AggregationMode::RelaySync => "AdapCC",
            AggregationMode::RelayAsync => "Relay Async",
            AggregationMode::NcclGraphOrder => "AdapCC-nccl graph",
        }
    }
}

/// A small two-layer MLP classifier (32 -> 64 -> 10) with flattened
/// parameter access for collective-based gradient exchange.
#[derive(Debug, Clone)]
pub struct Mlp {
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
}

/// Input dimension.
pub const IN: usize = 32;
/// Hidden width.
pub const HIDDEN: usize = 64;
/// Classes.
pub const CLASSES: usize = 10;

impl Mlp {
    /// Xavier-ish random initialization.
    pub fn new(rng: &mut ChaCha8Rng) -> Self {
        let mut draw = |n: usize, scale: f32| -> Vec<f32> {
            (0..n)
                .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * scale)
                .collect()
        };
        Mlp {
            w1: draw(IN * HIDDEN, (1.0 / IN as f32).sqrt()),
            b1: vec![0.0; HIDDEN],
            w2: draw(HIDDEN * CLASSES, (1.0 / HIDDEN as f32).sqrt()),
            b2: vec![0.0; CLASSES],
        }
    }

    /// Total parameter count.
    pub fn param_count() -> usize {
        IN * HIDDEN + HIDDEN + HIDDEN * CLASSES + CLASSES
    }

    /// Forward pass; returns (hidden activations, logits).
    #[allow(clippy::needless_range_loop)] // index math mirrors W[i*H+j]
    fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut h = vec![0.0f32; HIDDEN];
        for j in 0..HIDDEN {
            let mut acc = self.b1[j];
            for i in 0..IN {
                acc += self.w1[i * HIDDEN + j] * x[i];
            }
            h[j] = acc.max(0.0);
        }
        let mut z = vec![0.0f32; CLASSES];
        for k in 0..CLASSES {
            let mut acc = self.b2[k];
            for j in 0..HIDDEN {
                acc += self.w2[j * CLASSES + k] * h[j];
            }
            z[k] = acc;
        }
        (h, z)
    }

    /// Predicted class.
    pub fn predict(&self, x: &[f32]) -> usize {
        let (_, z) = self.forward(x);
        argmax(&z)
    }

    /// Cross-entropy gradient of one mini-batch, flattened; returns
    /// (gradient, mean loss).
    #[allow(clippy::needless_range_loop)] // index math mirrors W[i*H+j]
    pub fn gradient(&self, xs: &[Vec<f32>], ys: &[usize]) -> (Vec<f32>, f32) {
        let mut grad = vec![0.0f32; Self::param_count()];
        let mut loss = 0.0f32;
        let n = xs.len().max(1) as f32;
        let (gw1, rest) = grad.split_at_mut(IN * HIDDEN);
        let (gb1, rest) = rest.split_at_mut(HIDDEN);
        let (gw2, gb2) = rest.split_at_mut(HIDDEN * CLASSES);
        for (x, &y) in xs.iter().zip(ys) {
            let (h, z) = self.forward(x);
            let p = softmax(&z);
            loss -= p[y].max(1e-9).ln();
            // dL/dz.
            let mut dz = p;
            dz[y] -= 1.0;
            for k in 0..CLASSES {
                gb2[k] += dz[k] / n;
                for j in 0..HIDDEN {
                    gw2[j * CLASSES + k] += dz[k] * h[j] / n;
                }
            }
            // Back through ReLU.
            for j in 0..HIDDEN {
                if h[j] <= 0.0 {
                    continue;
                }
                let mut dh = 0.0f32;
                for k in 0..CLASSES {
                    dh += dz[k] * self.w2[j * CLASSES + k];
                }
                gb1[j] += dh / n;
                for i in 0..IN {
                    gw1[i * HIDDEN + j] += dh * x[i] / n;
                }
            }
        }
        (grad, loss / n)
    }

    /// SGD step with a flattened gradient.
    pub fn apply(&mut self, grad: &[f32], lr: f32) {
        assert_eq!(grad.len(), Self::param_count(), "gradient shape");
        let mut it = grad.iter();
        for w in self
            .w1
            .iter_mut()
            .chain(&mut self.b1)
            .chain(&mut self.w2)
            .chain(&mut self.b2)
        {
            *w -= lr * it.next().expect("length checked");
        }
    }
}

fn softmax(z: &[f32]) -> Vec<f32> {
    let m = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = z.iter().map(|v| (v - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

fn argmax(z: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in z.iter().enumerate() {
        if *v > z[best] {
            best = i;
        }
    }
    best
}

/// A synthetic 10-class Gaussian-cluster dataset (the experiment's
/// "down-scaled ImageNet").
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Training samples.
    pub train: Vec<(Vec<f32>, usize)>,
    /// Held-out samples.
    pub test: Vec<(Vec<f32>, usize)>,
}

impl Dataset {
    /// Generates `train_n` training and `test_n` test samples.
    pub fn synthesize(seed: u64, train_n: usize, test_n: usize) -> Self {
        let mut rng = seeded_rng(seed ^ 0xDA7A);
        let centers: Vec<Vec<f32>> = (0..CLASSES)
            .map(|_| (0..IN).map(|_| (rng.gen::<f32>() - 0.5) * 2.2).collect())
            .collect();
        let mut draw = |n: usize| -> Vec<(Vec<f32>, usize)> {
            (0..n)
                .map(|_| {
                    let y = rng.gen_range(0..CLASSES);
                    let x = centers[y]
                        .iter()
                        .map(|c| c + (rng.gen::<f32>() - 0.5) * 4.5)
                        .collect();
                    (x, y)
                })
                .collect()
        };
        Dataset {
            train: draw(train_n),
            test: draw(test_n),
        }
    }

    /// Top-1 accuracy of a model on the held-out set.
    pub fn accuracy(&self, model: &Mlp) -> f64 {
        let hits = self
            .test
            .iter()
            .filter(|(x, y)| model.predict(x) == *y)
            .count();
        hits as f64 / self.test.len().max(1) as f64
    }
}

/// One accuracy curve: top-1 per epoch.
#[derive(Debug, Clone)]
pub struct AccuracyCurve {
    /// The aggregation mode that produced the curve.
    pub mode: AggregationMode,
    /// Held-out top-1 accuracy after each epoch.
    pub per_epoch: Vec<f64>,
}

/// Trains the MLP data-parallel under one aggregation mode and records
/// the accuracy curve. Every synchronous mode routes real gradients
/// through real collective executions on the cluster.
pub fn run_accuracy_experiment(
    cluster: &Cluster,
    mode: AggregationMode,
    epochs: usize,
    seed: u64,
) -> AccuracyCurve {
    let data = Dataset::synthesize(seed, 6000, 1500);
    let mut rng = seeded_rng(seed ^ 0xACC);
    let mut model = Mlp::new(&mut rng);
    let n_workers = cluster.gpu_count();
    let workers: Vec<Rank> = (0..n_workers).map(Rank).collect();
    let per_worker_batch = 32usize;
    let lr = 0.05f32;
    let tensor = ByteSize::from_bytes((Mlp::param_count() * 4) as u64);

    // One session reused across iterations; a generous fault horizon
    // keeps deliberate stragglers in the job.
    let mut cc = AdapCC::init(
        cluster,
        InitOptions {
            seed,
            relay: RelayConfig {
                fault_floor: SimDuration::from_millis(2000.0),
                ..Default::default()
            },
            synth: SynthConfig {
                anneal_iters: 16,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    cc.setup();
    let nccl = nccl_strategy(cc.topology(), Primitive::AllReduce, &workers);

    // Non-IID sharding: the training set is sorted by label and split
    // into contiguous per-worker shards, so each worker's gradients
    // carry distinct class information — which is exactly why
    // discarding a straggler's gradients (Relay Async) costs accuracy.
    let mut sorted = data.train.clone();
    sorted.sort_by_key(|(_, y)| *y);
    let shard_len = sorted.len() / n_workers;
    let shards: Vec<&[(Vec<f32>, usize)]> = (0..n_workers)
        .map(|w| &sorted[w * shard_len..(w + 1) * shard_len])
        .collect();
    // The straggler is sticky (a systematically slow worker), with
    // occasional excursions — mirroring real interference patterns.
    let sticky = Rank(rng.gen_range(0..n_workers));

    let iters_per_epoch = (shard_len / per_worker_batch).max(1);
    let mut per_epoch = Vec::with_capacity(epochs);
    let mut cursor = 0usize;
    for _epoch in 0..epochs {
        for _ in 0..iters_per_epoch {
            // Each worker samples its own shard.
            let mut grads: BTreeMap<Rank, Vec<f32>> = BTreeMap::new();
            for w in &workers {
                let shard = shards[w.0];
                let mut xs = Vec::with_capacity(per_worker_batch);
                let mut ys = Vec::with_capacity(per_worker_batch);
                for k in 0..per_worker_batch {
                    let (x, y) = &shard[(cursor + k * 17) % shard.len()];
                    xs.push(x.clone());
                    ys.push(*y);
                }
                let (g, _) = model.gradient(&xs, &ys);
                grads.insert(*w, g);
            }
            cursor += per_worker_batch;
            let straggler = if rng.gen_bool(0.8) {
                sticky
            } else {
                Rank(rng.gen_range(0..n_workers))
            };
            let mut ready: BTreeMap<Rank, SimTime> =
                workers.iter().map(|r| (*r, SimTime::ZERO)).collect();
            ready.insert(straggler, SimTime::from_secs(0.06));

            let summed: Vec<f32> = match mode {
                AggregationMode::FullSync => {
                    let rep = cc
                        .allreduce(tensor, &ready, Some(grads.clone()))
                        .expect("healthy fabric");
                    rep.outputs.values().next().expect("outputs").clone()
                }
                AggregationMode::RelaySync => {
                    let rep = cc
                        .allreduce_adaptive(tensor, &ready, Some(grads.clone()))
                        .expect("healthy fabric");
                    assert!(rep.faults.is_empty(), "straggler must not be faulted");
                    rep.outputs.values().next().expect("outputs").clone()
                }
                AggregationMode::NcclGraphOrder => {
                    let exec = adapcc::executor::Executor::new(cluster, cc.topology());
                    let req = adapcc::executor::ExecutionRequest::timing(&nccl, tensor)
                        .with_borrowed_inputs(&grads);
                    let batch = exec.execute(&[req]);
                    batch.requests[0]
                        .outputs
                        .values()
                        .next()
                        .expect("outputs")
                        .clone()
                }
                AggregationMode::RelayAsync => {
                    // Straggler gradients are simply discarded.
                    let mut acc = vec![0.0f32; Mlp::param_count()];
                    for (r, g) in &grads {
                        if *r == straggler {
                            continue;
                        }
                        for (a, v) in acc.iter_mut().zip(g) {
                            *a += v;
                        }
                    }
                    acc
                }
            };
            let denom = match mode {
                AggregationMode::RelayAsync => (n_workers - 1) as f32,
                _ => n_workers as f32,
            };
            let mean: Vec<f32> = summed.iter().map(|v| v / denom).collect();
            model.apply(&mean, lr);
        }
        per_epoch.push(data.accuracy(&model));
    }
    AccuracyCurve { mode, per_epoch }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_learns_the_synthetic_task() {
        let data = Dataset::synthesize(3, 2000, 500);
        let mut rng = seeded_rng(4);
        let mut model = Mlp::new(&mut rng);
        let initial = data.accuracy(&model);
        for _ in 0..120 {
            let batch: Vec<_> = (0..64)
                .map(|i| data.train[(i * 31) % data.train.len()].clone())
                .collect();
            let xs: Vec<Vec<f32>> = batch.iter().map(|(x, _)| x.clone()).collect();
            let ys: Vec<usize> = batch.iter().map(|(_, y)| *y).collect();
            let (g, _) = model.gradient(&xs, &ys);
            model.apply(&g, 0.1);
        }
        let trained = data.accuracy(&model);
        assert!(
            trained > initial + 0.2,
            "initial {initial}, trained {trained}"
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = seeded_rng(5);
        let model = Mlp::new(&mut rng);
        let x: Vec<f32> = (0..IN).map(|i| (i as f32 / IN as f32) - 0.5).collect();
        let y = 3usize;
        let (grad, _) = model.gradient(std::slice::from_ref(&x), &[y]);
        // Check a few coordinates of w1 numerically.
        for &idx in &[0usize, 77, IN * HIDDEN - 1] {
            let eps = 1e-3f32;
            let mut plus = model.clone();
            plus.w1[idx] += eps;
            let mut minus = model.clone();
            minus.w1[idx] -= eps;
            let lp = loss_of(&plus, &x, y);
            let lm = loss_of(&minus, &x, y);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[idx] - numeric).abs() < 2e-2,
                "idx {idx}: analytic {} numeric {numeric}",
                grad[idx]
            );
        }
    }

    fn loss_of(m: &Mlp, x: &[f32], y: usize) -> f32 {
        let (_, z) = m.forward(x);
        -softmax(&z)[y].max(1e-9).ln()
    }

    #[test]
    fn sync_modes_converge_async_lags() {
        let c = Cluster::homogeneous_a100(1);
        let epochs = 4;
        let sync = run_accuracy_experiment(&c, AggregationMode::FullSync, epochs, 7);
        let relay = run_accuracy_experiment(&c, AggregationMode::RelaySync, epochs, 7);
        let nccl = run_accuracy_experiment(&c, AggregationMode::NcclGraphOrder, epochs, 7);
        let last = |c: &AccuracyCurve| *c.per_epoch.last().unwrap();
        // The three synchronous variants land together (float-order
        // differences only).
        assert!(
            (last(&sync) - last(&relay)).abs() < 0.05,
            "sync {sync:?} relay {relay:?}"
        );
        assert!((last(&sync) - last(&nccl)).abs() < 0.05);
        assert!(
            last(&sync) > 0.4,
            "model must actually learn: {}",
            last(&sync)
        );
    }

    #[test]
    fn dataset_is_seed_deterministic() {
        let a = Dataset::synthesize(11, 100, 50);
        let b = Dataset::synthesize(11, 100, 50);
        assert_eq!(a.train[0].0, b.train[0].0);
        assert_eq!(a.test.len(), 50);
    }
}
