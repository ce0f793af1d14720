//! Shared pieces of every workload: the seeded input generator, the
//! closed-loop driver, the run outcome and its statistics.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so inputs depend only on the
/// `--seed` argument and never on the library's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for one seed and stream. Both are mixed before they
    /// seed the state: a linear combination would make some streams
    /// shifted copies of each other, correlating clients or ops.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(GOLDEN))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Integer-valued f32 input of `elems` elements for one rank: values in
/// `-8..=8`, so any sum over at most 2^20 ranks is exact in f32.
pub fn int_input(seed: u64, op: u64, rank: usize, elems: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed ^ op.rotate_left(17), rank as u64 + 1);
    (0..elems)
        .map(|_| ((rng.next_u64() % 17) as i32 - 8) as f32)
        .collect()
}

/// Linear-interpolated percentile of unsorted samples (`q` in 0..=100).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (q / 100.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The library's own seed (`InitOptions::seed`: probing noise, annealer,
/// RPC jitter). It is part of the program's fixed configuration, so the
/// same plans serve every run; `--seed` generates the workload inputs.
pub const SESSION_SEED: u64 = 7;

/// Run-size knobs. `tiny` shrinks fleets and tensors for smoke tests;
/// benchmark runs always use the full sizes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Wall seconds the measured loop runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Smoke-test sizes.
    pub tiny: bool,
}

/// An untraced run alternates ops and set-ups in rounds of about
/// `ROUND_S` seconds of ops each, so both are sampled across the whole
/// run. After each round, set-ups repeat until the set-up time so far
/// reaches the rounds' share of `SETUP_SHARE × seconds`, at most
/// `MAX_SETUPS_PER_ROUND` of them: a slow set-up (about 0.7 s on
/// `pod-allreduce`) gets a sample every few rounds, a fast one (about
/// 13 ms on `plan-serve`) about two dozen per round.
///
/// The rounds exist because a shared machine's speed swings: on a
/// 2-core Intel Xeon VM, a fixed CPU loop ran up to 2× slower in
/// phases lasting seconds to minutes, with the process on its
/// CPU 99 % of the time (contention for the physical core, not
/// descheduling). A change to the program moves every round; the
/// machine moves some. So the wall-time metrics are read from the
/// least-disturbed round ([`Outcome::best_round`]).
const ROUND_S: f64 = 1.0;
/// Share of an untraced run's seconds given to repeated set-ups.
const SETUP_SHARE: f64 = 0.25;
/// Cap on set-ups after one round.
const MAX_SETUPS_PER_ROUND: usize = 64;

/// Drives one run: `ops(slice, last)` runs the closed loop for `slice`
/// seconds (`last` marks the final slice, which must also finish any
/// fixed op prefix), and `setup()` repeats the workload's set-up once,
/// dropping what it built. Returns the set-up samples taken after each
/// round (none in the traced run, whose loop runs `seconds` in one
/// slice).
pub fn segmented(
    seconds: f64,
    trace: bool,
    mut ops: impl FnMut(f64, bool),
    mut setup: impl FnMut(),
) -> Vec<Vec<f64>> {
    let mut setup_s = Vec::new();
    if trace {
        ops(seconds, true);
        return setup_s;
    }
    let op_s = seconds * (1.0 - SETUP_SHARE);
    let rounds = ((op_s / ROUND_S).floor() as usize).max(1);
    let budget = seconds * SETUP_SHARE;
    let mut spent = 0.0;
    for r in 0..rounds {
        ops(op_s / rounds as f64, r + 1 == rounds);
        let target = budget * (r + 1) as f64 / rounds as f64;
        let mut samples = Vec::new();
        while spent < target && samples.len() < MAX_SETUPS_PER_ROUND {
            let s0 = Instant::now();
            setup();
            let s = s0.elapsed().as_secs_f64();
            spent += s;
            samples.push(s);
        }
        setup_s.push(samples);
    }
    setup_s
}

/// Runs a closed loop: `op(i)` is called back to back, `i` continuing
/// from `*next`, until `seconds` have passed and, when `min_ops` is
/// given, at least that many ops completed in total.
pub fn closed_loop(seconds: f64, min_ops: usize, next: &mut usize, mut op: impl FnMut(usize)) {
    let t0 = Instant::now();
    while *next < min_ops || t0.elapsed().as_secs_f64() < seconds {
        op(*next);
        *next += 1;
    }
}

/// Ops per second of time spent inside the op calls (`op_ms`), so the
/// benchmark's own input generation and checks between ops do not
/// count against the program.
pub fn busy_rate(op_ms: &[f64]) -> f64 {
    op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3).max(1e-9)
}

/// Per-op correctness tally.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned `Err`, produced a wrong output or declared a
    /// fault against a live worker.
    pub failed: u64,
    /// The first few violation messages.
    pub violations: Vec<String>,
}

impl Tally {
    /// Records one op's verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.failed += 1;
            if self.violations.len() < 8 {
                self.violations.push(msg);
            }
        }
    }

    /// Folds another tally in (client threads tally apart).
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for v in other.violations {
            if self.violations.len() < 8 {
                self.violations.push(v);
            }
        }
    }
}

/// One round of an untraced loop ([`segmented`]).
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Ops completed per second spent in op calls, summed over client
    /// threads.
    pub ops_per_s: f64,
    /// Median op latency (ms).
    pub op_ms_p50: f64,
}

impl Round {
    /// The round of a single client whose ops took `op_ms`.
    pub fn of(op_ms: &[f64]) -> Self {
        Round {
            ops_per_s: busy_rate(op_ms),
            op_ms_p50: median(op_ms),
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition, grouped: the first set-up,
    /// then those after each round.
    pub setup_s: Vec<Vec<f64>>,
    /// Wall milliseconds of every op in the measured loop (of a sample
    /// of them on `plan-serve`).
    pub op_ms: Vec<f64>,
    /// The untraced loop's rounds.
    pub rounds: Vec<Round>,
    /// Ops per second spent in op calls over the whole untraced loop:
    /// the baseline of the traced run's overhead.
    pub mean_ops_per_s: f64,
    /// Mean simulated communication time per op over the fixed,
    /// seed-determined prefix of ops (ms).
    pub sim_comm_ms: f64,
    /// Mean modeled cost of the plans the ops used (ms).
    pub plan_cost_ms: f64,
    /// Correctness verdicts.
    pub tally: Tally,
    /// Per-layer metrics (traced run only), by name.
    pub layers: BTreeMap<String, f64>,
    /// The traced run's spans, one JSON object per line.
    pub spans_jsonl: String,
}

impl Outcome {
    /// Records one per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// The wall-time metrics of the least-disturbed round: the highest
    /// round rate, the lowest round median latency and the lowest
    /// median of one round's set-ups, as `(ops_per_s, op_ms.p50,
    /// setup_s)`. See [`segmented`] for why.
    pub fn best_round(&self) -> (f64, f64, f64) {
        let rate = self.rounds.iter().map(|r| r.ops_per_s).fold(0.0, f64::max);
        let p50 = self
            .rounds
            .iter()
            .map(|r| r.op_ms_p50)
            .fold(f64::INFINITY, f64::min);
        let setup = self
            .setup_s
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| median(g))
            .fold(f64::INFINITY, f64::min);
        (rate, p50, setup)
    }
}

/// Ratio `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean of samples, 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
    }

    #[test]
    fn best_round_takes_the_least_disturbed_round() {
        let out = Outcome {
            setup_s: vec![vec![3.0], vec![], vec![2.0, 9.0, 1.0], vec![1.5, 2.5]],
            rounds: vec![Round::of(&[2.0, 4.0]), Round::of(&[1.0, 1.0, 4.0])],
            ..Outcome::default()
        };
        let (rate, p50, setup) = out.best_round();
        assert_eq!(rate, 3.0 / 0.006);
        assert_eq!(p50, 1.0);
        assert_eq!(setup, 2.0);
    }

    #[test]
    fn rounds_spread_set_ups_over_the_run() {
        let (mut slices, mut setups) = (Vec::new(), 0);
        let groups = segmented(
            8.0,
            false,
            |s, last| slices.push((s, last)),
            || {
                setups += 1;
                std::thread::sleep(std::time::Duration::from_millis(300));
            },
        );
        // 6 s of ops in rounds of `ROUND_S`.
        let rounds = (6.0 / ROUND_S).floor() as usize;
        assert_eq!(slices.len(), rounds);
        assert!(slices
            .iter()
            .all(|(s, _)| (s - 6.0 / rounds as f64).abs() < 1e-12));
        assert!(slices[rounds - 1].1 && !slices[rounds - 2].1);
        assert_eq!(groups.len(), rounds);
        // 2 s of set-up budget in 0.3 s set-ups, spread out.
        assert!((6..=8).contains(&setups), "{setups} set-ups");
        assert!(groups.iter().filter(|g| !g.is_empty()).count() >= 4);
    }

    #[test]
    fn neighbouring_streams_do_not_overlap() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        for seed in 0..16 {
            let a = draw(seed, 0x5E_0000);
            let b = draw(seed, 0x5E_0001);
            assert!(a.iter().all(|x| !b.contains(x)), "seed {seed}");
        }
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(int_input(1, 2, 3, 64), int_input(1, 2, 3, 64));
        assert_ne!(int_input(1, 2, 3, 64), int_input(2, 2, 3, 64));
        assert!(int_input(5, 0, 0, 1000)
            .iter()
            .all(|x| x.fract() == 0.0 && x.abs() <= 8.0));
    }
}
