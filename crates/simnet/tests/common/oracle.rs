//! A reference model of the engine's physics: a fleet-wide, per-flow
//! max-min simulator with none of the engine's machinery. It keeps
//! every flow's residual bytes and integrates all of them eagerly at
//! every event, re-runs one progressive filling over every draining
//! flow after every event, and finds the next completion by scanning
//! every flow. No path classes, no marks, no drain queue, no frontier.
//!
//! It shares the engine's contract, not its code: α latency before a
//! flow drains, eq.-3 max-min sharing with per-flow caps, stalls behind
//! down links, aborts on failed links (draining victims now, in
//! submission order; latency-phase victims when their latency
//! elapses), capacity factors, the same saturation epsilons, and
//! queued events ahead of completions at one instant. Its instants
//! agree with the engine's to f64 rounding.

use std::collections::BTreeMap;

use adapcc_simnet::cluster::{Cluster, LinkId, Path};
use adapcc_simnet::engine::{FaultAction, NetSim, SimEvent, Token};
use adapcc_simnet::faults::FaultTarget;
use adapcc_simnet::time::{SimDuration, SimTime};
use adapcc_simnet::units::ByteSize;

/// Residual bytes below which a flow counts as finished (the engine's
/// threshold).
const EPS_BYTES: f64 = 1e-3;

/// The simulator surface the engine suites drive: the engine and the
/// reference model both implement it.
pub trait Sim: FaultTarget {
    fn submit_transfer(&mut self, path: &Path, size: ByteSize, token: Token);
    fn schedule_timer(&mut self, after: SimDuration, token: Token);
    fn step(&mut self) -> Option<SimEvent>;
}

impl Sim for NetSim<'_> {
    fn submit_transfer(&mut self, path: &Path, size: ByteSize, token: Token) {
        NetSim::submit_transfer(self, path, size, token);
    }

    fn schedule_timer(&mut self, after: SimDuration, token: Token) {
        NetSim::schedule_timer(self, after, token);
    }

    fn step(&mut self) -> Option<SimEvent> {
        NetSim::step(self)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Latency,
    Draining,
    Done,
    Aborted,
}

struct Flow {
    token: Token,
    links: Vec<LinkId>,
    cap: f64,
    left: f64,
    rate: f64,
    state: State,
}

enum Event {
    Activate(usize),
    Timer(Token),
    Aborted(Token),
    Fault(FaultAction),
}

/// The reference simulator for one [`Cluster`].
pub struct Oracle<'c> {
    cluster: &'c Cluster,
    now: SimTime,
    seq: u64,
    queue: BTreeMap<(SimTime, u64), Event>,
    flows: Vec<Flow>,
    factor: Vec<f64>,
    up: Vec<bool>,
    failed: Vec<bool>,
}

impl<'c> Oracle<'c> {
    pub fn new(cluster: &'c Cluster) -> Self {
        let n = cluster.links().len();
        Oracle {
            cluster,
            now: SimTime::ZERO,
            seq: 0,
            queue: BTreeMap::new(),
            flows: Vec::new(),
            factor: vec![1.0; n],
            up: vec![true; n],
            failed: vec![false; n],
        }
    }

    fn push(&mut self, at: SimTime, event: Event) {
        self.seq += 1;
        self.queue.insert((at, self.seq), event);
    }

    fn stalled(&self, f: &Flow) -> bool {
        f.links.iter().any(|l| !self.up[l.0])
    }

    /// Integrates every draining flow up to `t`.
    fn advance(&mut self, t: SimTime) {
        let dt = t.duration_since(self.now).as_secs();
        for f in &mut self.flows {
            if f.state == State::Draining && f.rate > 0.0 && dt > 0.0 {
                f.left = (f.left - f.rate * dt).max(0.0);
            }
        }
        self.now = t;
    }

    /// One fleet-wide per-flow progressive filling: every draining,
    /// unstalled flow rises by the common delta until a link it
    /// crosses saturates or it reaches its cap.
    fn fill(&mut self) {
        let live: Vec<usize> = (0..self.flows.len())
            .filter(|&i| self.flows[i].state == State::Draining)
            .collect();
        let mut unfrozen = Vec::new();
        for &i in &live {
            self.flows[i].rate = 0.0;
            if !self.stalled(&self.flows[i]) {
                unfrozen.push(i);
            }
        }
        let mut residual: BTreeMap<usize, f64> = BTreeMap::new();
        for &i in &unfrozen {
            for l in &self.flows[i].links {
                let cap = self.cluster.links()[l.0].capacity.as_bytes_per_sec() * self.factor[l.0];
                residual.insert(l.0, cap);
            }
        }
        let sat: BTreeMap<usize, f64> = residual
            .iter()
            .map(|(&l, &cap)| (l, (cap * 1e-9).max(1e-6)))
            .collect();
        while !unfrozen.is_empty() {
            let mut count: BTreeMap<usize, usize> = BTreeMap::new();
            for &i in &unfrozen {
                for l in &self.flows[i].links {
                    *count.entry(l.0).or_default() += 1;
                }
            }
            let mut delta = f64::INFINITY;
            for (l, &n) in &count {
                delta = delta.min(residual[l] / n as f64);
            }
            for &i in &unfrozen {
                delta = delta.min(self.flows[i].cap - self.flows[i].rate);
            }
            if !delta.is_finite() || delta < 0.0 {
                break;
            }
            for &i in &unfrozen {
                self.flows[i].rate += delta;
            }
            for (l, &n) in &count {
                *residual.get_mut(l).unwrap() -= delta * n as f64;
            }
            let before = unfrozen.len();
            unfrozen.retain(|&i| {
                let f = &self.flows[i];
                let at_cap = f.rate >= f.cap - (f.cap * 1e-9).max(1e-6);
                let on_sat = f.links.iter().any(|l| residual[&l.0] <= sat[&l.0]);
                !(at_cap || on_sat)
            });
            if unfrozen.len() == before {
                unfrozen.clear();
            }
        }
    }

    /// The earliest flow completion `(instant, flow)`: a draining flow
    /// drains at `now + left / rate`, and one already within
    /// `EPS_BYTES` of done drains now, stalled or not. Ties go to the
    /// earlier submission.
    fn next_completion(&self) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, f) in self.flows.iter().enumerate() {
            if f.state != State::Draining {
                continue;
            }
            let at = if f.left <= EPS_BYTES {
                self.now
            } else if f.rate > 0.0 {
                self.now + SimDuration::from_secs(f.left / f.rate)
            } else {
                continue;
            };
            if best.is_none_or(|(t, _)| at < t) {
                best = Some((at, i));
            }
        }
        best
    }

    fn set_up(&mut self, l: LinkId, up: bool) {
        if !self.failed[l.0] {
            self.up[l.0] = up;
        }
    }

    fn fail(&mut self, l: LinkId) {
        if self.failed[l.0] {
            return;
        }
        self.failed[l.0] = true;
        self.up[l.0] = false;
        for i in 0..self.flows.len() {
            if !self.flows[i].links.contains(&l) {
                continue;
            }
            match self.flows[i].state {
                State::Latency => self.flows[i].state = State::Aborted,
                State::Draining => {
                    self.flows[i].state = State::Aborted;
                    let token = self.flows[i].token;
                    self.push(self.now, Event::Aborted(token));
                }
                State::Done | State::Aborted => {}
            }
        }
    }
}

impl FaultTarget for Oracle<'_> {
    fn cluster(&self) -> &Cluster {
        self.cluster
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::LinkDown(l) => self.set_up(l, false),
            FaultAction::LinkUp(l) => self.set_up(l, true),
            FaultAction::LinkFail(l) => self.fail(l),
            FaultAction::LinkRecover(l) => {
                if self.failed[l.0] {
                    self.failed[l.0] = false;
                    self.up[l.0] = true;
                }
            }
            FaultAction::SetCapacityFactor(l, f) => self.factor[l.0] = f,
        }
        self.fill();
    }

    fn schedule_fault(&mut self, after: SimDuration, action: FaultAction) {
        self.push(self.now + after, Event::Fault(action));
    }
}

impl Sim for Oracle<'_> {
    fn submit_transfer(&mut self, path: &Path, size: ByteSize, token: Token) {
        let dead = path.links.iter().any(|l| self.failed[l.0]);
        let cap = path
            .links
            .iter()
            .filter_map(|l| self.cluster.link(*l).per_flow_cap)
            .map(|b| b.as_bytes_per_sec())
            .fold(f64::INFINITY, f64::min);
        self.flows.push(Flow {
            token,
            links: path.links.clone(),
            cap,
            left: size.as_f64(),
            rate: 0.0,
            state: if dead { State::Aborted } else { State::Latency },
        });
        let at = self.now + self.cluster.path_alpha(path);
        self.push(at, Event::Activate(self.flows.len() - 1));
    }

    fn schedule_timer(&mut self, after: SimDuration, token: Token) {
        self.push(self.now + after, Event::Timer(token));
    }

    fn step(&mut self) -> Option<SimEvent> {
        loop {
            let queued = self.queue.keys().next().map(|&(t, _)| t);
            if let Some((at, i)) = self.next_completion() {
                if queued.is_none_or(|q| at < q) {
                    self.advance(at);
                    self.flows[i].state = State::Done;
                    self.fill();
                    let token = self.flows[i].token;
                    return Some(SimEvent::TransferDone { token, at });
                }
            }
            let ((at, _), event) = self.queue.pop_first()?;
            self.advance(at);
            match event {
                Event::Timer(token) => return Some(SimEvent::Timer { token, at }),
                Event::Aborted(token) => return Some(SimEvent::TransferAborted { token, at }),
                Event::Fault(action) => self.apply_fault(action),
                Event::Activate(i) => {
                    let f = &mut self.flows[i];
                    let token = f.token;
                    match f.state {
                        State::Aborted => return Some(SimEvent::TransferAborted { token, at }),
                        _ if f.left <= EPS_BYTES => {
                            f.state = State::Done;
                            return Some(SimEvent::TransferDone { token, at });
                        }
                        _ => {
                            f.state = State::Draining;
                            self.fill();
                        }
                    }
                }
            }
        }
    }
}

/// Holds an engine stream to the reference model's: the same
/// transfers complete and the same ones abort, timers fire alike, each
/// token's instant agrees within 1e-9 relative, and the engine's stream
/// is monotone in time.
pub fn assert_tracks(engine: &[(u8, u64, u64)], oracle: &[(u8, u64, u64)]) {
    let times = |evs: &[(u8, u64, u64)]| {
        evs.iter()
            .map(|&(k, t, bits)| ((k, t), f64::from_bits(bits)))
            .collect::<BTreeMap<_, _>>()
    };
    let (te, to) = (times(engine), times(oracle));
    assert_eq!(engine.len(), te.len(), "engine reported a token twice");
    assert_eq!(oracle.len(), to.len(), "oracle reported a token twice");
    assert_eq!(
        te.keys().collect::<Vec<_>>(),
        to.keys().collect::<Vec<_>>(),
        "engine and oracle disagree on which events happened"
    );
    for (k, o) in &to {
        let e = te[k];
        assert!(
            (e - o).abs() <= 1e-9 * o.abs(),
            "event {k:?}: engine t={e} oracle t={o}"
        );
    }
    assert!(
        engine
            .windows(2)
            .all(|w| f64::from_bits(w[0].2) <= f64::from_bits(w[1].2)),
        "engine stream not monotone"
    );
}
