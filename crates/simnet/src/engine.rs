//! The discrete-event transport engine.
//!
//! Transfers are *fluid flows*: a flow occupies every link of its
//! [`Path`] simultaneously and receives a rate from progressive-filling
//! (max-min) allocation, recomputed whenever the set of active flows or
//! a link capacity changes. With single-link flows this degenerates to
//! the paper's equal-share model (eq. 3): each of the `k` flows on a
//! link gets `capacity / k`.
//!
//! The engine is timing-only: payloads are *sizes*, not data. Callers
//! (the AdapCC executor) attach a `token` to each transfer and perform
//! the actual buffer movement when the completion event fires, which is
//! how real `f32` tensors flow through the simulation with exact
//! reduction semantics.
//!
//! Determinism: one event heap ordered by `(time, seq)` and one drain
//! queue ordered by `(time, mark, submission)` make every run
//! bit-reproducible.
//!
//! # One allocator: per-class progress
//!
//! * **Path classes** — every distinct link list is interned once into
//!   an append-only class table (FNV-1a keyed) holding its arena slice
//!   and per-flow cap. Members of a class cross the same links under
//!   the same cap, so max-min gives them one rate: the class, not the
//!   flow, is the unit of allocation, of progress and of scheduling.
//! * **Progress** — a class integrates one `served` byte counter per
//!   member, lazily: it advances only when the class's rate changes or
//!   its membership does. A member joining at `served = s` with `b`
//!   bytes carries the *mark* `s + b` and drains when `served` reaches
//!   it, so the class keeps its draining members in a heap ordered by
//!   `(mark, submission)` and only the head has a drain instant. An
//!   emptied class re-bases `served` to 0.
//! * **Drain queue** — an indexed heap holding at most one entry per
//!   class: the instant its head drains. A class whose rate bits moved
//!   re-keys its single entry in place, so no stale completion events
//!   pile up, whatever the number of members.
//! * **Dirty frontier** — links touched by an event join a dirty set;
//!   the refill walks the connected components of classes reachable
//!   from it through a per-link index of non-empty classes and re-runs
//!   the progressive-filling kernel inside each one. Every other
//!   class's rate and drain entry stays bitwise untouched. Same-instant
//!   arrivals and completions defer their refill to the last of the
//!   burst, so a synchronized wave pays one filling.
//! * **Faults** — stalls, aborts and capacity factors act per class:
//!   a class over a down link is stalled at rate zero, and a failed
//!   link aborts every member of every class crossing it.
//!
//! `with_paranoid_refill` refills every non-empty class from scratch
//! after each event; its event stream is bit-identical to the frontier
//! refill's, and debug builds cross-check every refill against it.
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use adapcc_telemetry::Telemetry;

use crate::cluster::{Cluster, LinkId, Path};
use crate::time::{SimDuration, SimTime};
use crate::units::ByteSize;

/// Residual bytes below which a flow counts as finished (absorbs f64
/// rounding from rate recomputations).
const EPS_BYTES: f64 = 1e-3;

/// Opaque caller-side identifier carried by transfers and timers.
pub type Token = u64;

/// A user-visible simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A transfer submitted with [`NetSim::submit_transfer`] finished.
    TransferDone {
        /// The caller's token.
        token: Token,
        /// Completion instant.
        at: SimTime,
    },
    /// A transfer was aborted because a link on its path permanently
    /// failed (see [`NetSim::fail_link`]). No bytes are delivered.
    TransferAborted {
        /// The caller's token.
        token: Token,
        /// Abort instant.
        at: SimTime,
    },
    /// A timer scheduled with [`NetSim::schedule_timer`] fired.
    Timer {
        /// The caller's token.
        token: Token,
        /// Firing instant.
        at: SimTime,
    },
}

impl SimEvent {
    /// The instant the event occurred.
    pub fn at(&self) -> SimTime {
        match *self {
            SimEvent::TransferDone { at, .. }
            | SimEvent::TransferAborted { at, .. }
            | SimEvent::Timer { at, .. } => at,
        }
    }

    /// The caller token of the event.
    pub fn token(&self) -> Token {
        match *self {
            SimEvent::TransferDone { token, .. }
            | SimEvent::TransferAborted { token, .. }
            | SimEvent::Timer { token, .. } => token,
        }
    }
}

/// A fault applied to the fabric, either immediately or scheduled on
/// the simulation timeline with [`NetSim::schedule_fault`].
///
/// Faults are *silent*: applying one produces no user-visible event of
/// its own (real networks do not announce their failures). Their
/// consequences surface as stalled flows, [`SimEvent::TransferAborted`]
/// events, or changed completion times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take a link down (transient): flows crossing it stall at rate
    /// zero until the link comes back up.
    LinkDown(LinkId),
    /// Bring a transiently-down link back up; stalled flows resume.
    /// No effect on permanently failed links.
    LinkUp(LinkId),
    /// Permanently fail a link: every unfinished flow crossing it is
    /// aborted and future submissions over it abort after their latency.
    LinkFail(LinkId),
    /// Repair a failed link (hardware replaced / worker restarted):
    /// clears the failure and brings the link back up. Flows aborted
    /// by the failure stay aborted; new submissions succeed.
    LinkRecover(LinkId),
    /// Scale a link's capacity (degradation / recovery). The factor
    /// must be positive and finite.
    SetCapacityFactor(LinkId, f64),
}

#[derive(Debug, Clone)]
enum Internal {
    /// A flow's α latency elapsed: it joins its class's draining set.
    LatencyDone(u32),
    /// User timer.
    Timer(Token),
    /// A draining flow was aborted by a permanent link failure.
    Aborted(Token),
    /// A scheduled fault fires.
    Fault(FaultAction),
}

/// One entry of the event heap, ordered so that the earliest
/// `(at, seq)` pops first.
#[derive(Debug)]
struct Queued {
    at: SimTime,
    seq: u64,
    event: Internal,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The α latency is elapsing.
    Latency,
    /// A member of its class's draining set.
    Draining,
    Done,
    /// Killed by a permanent link failure; its pending event reports
    /// the abort.
    Aborted,
}

#[derive(Debug, Clone)]
struct Flow {
    token: Token,
    /// The flow's path class (its link list and per-flow cap).
    class: u32,
    bytes: f64,
    phase: Phase,
}

/// Per-link state: availability, capacity factor, and the stamps the
/// frontier walk and the filling kernel use to deduplicate links.
#[derive(Debug, Clone)]
struct LinkState {
    factor: f64,
    /// Transient availability: a down link stalls its flows.
    up: bool,
    /// Permanent failure: the link never comes back and aborts flows.
    failed: bool,
    /// Dirty epoch: the link is in the current frontier.
    dirty: u64,
    /// Frontier-walk stamp: the link was reached in the current refill.
    visit: u64,
    /// Filling stamp: the link is in the current filling's hot set...
    hot: u64,
    /// ...at this position.
    pos: u32,
}

/// A path class: one interned link list and the draining flows over
/// it. Every member shares the class's rate, so the class integrates
/// their progress once and orders them by the byte count at which
/// each one drains.
#[derive(Debug, Clone)]
struct PathClass {
    /// Slice of the shared link arena holding the class's links.
    links_start: u32,
    links_len: u32,
    /// Start of the class's link-index back-pointers in `slot_pos`,
    /// one per link.
    slots: u32,
    /// Per-flow ceiling from the most restrictive traversed link.
    cap: f64,
    /// Filling stamp: the class takes part in the current filling.
    stamp: u64,
    /// Members in the current filling.
    weight: usize,
    /// The kernel's accumulator: the rate the current filling gives
    /// every member.
    fill: f64,
    /// The allocated per-member rate in bytes/sec (0 while stalled).
    rate: f64,
    /// Bytes every member has been served since the class was last
    /// empty, integrated up to `served_at`.
    served: f64,
    served_at: SimTime,
    /// Draining members as `(mark bits, flow)`: member `f` drains when
    /// `served` reaches its mark. Marks are non-negative, so their bit
    /// patterns order like the values.
    members: BinaryHeap<Reverse<(u64, u32)>>,
    /// Occurrences of down links on the class's path while it has
    /// members (>0: every member is stalled at rate zero).
    down: u32,
    /// Position in the drain queue (`NONE` when absent) and the instant
    /// the head member drains.
    drain_pos: u32,
    drain_at: SimTime,
}

/// Sentinel for a class absent from the drain queue.
const NONE: u32 = u32::MAX;

/// FNV-1a, 64-bit: the class table's hash. Interning runs on every
/// submission, so the table avoids the default SipHash's heavier
/// per-key cost on its short keys.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The transport simulator for one [`Cluster`].
///
/// # Examples
///
/// ```
/// use adapcc_simnet::cluster::{Cluster, InstanceId};
/// use adapcc_simnet::engine::{NetSim, SimEvent};
/// use adapcc_simnet::units::ByteSize;
///
/// let cluster = Cluster::homogeneous_a100(2);
/// let mut sim = NetSim::new(&cluster);
/// let path = cluster.net_path(InstanceId(0), InstanceId(1));
/// sim.submit_transfer(&path, ByteSize::from_mib(100), 7);
/// let ev = sim.step().expect("one event");
/// assert!(matches!(ev, SimEvent::TransferDone { token: 7, .. }));
/// ```
#[derive(Debug)]
pub struct NetSim<'c> {
    cluster: &'c Cluster,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Queued>,
    flows: Vec<Flow>,
    /// Append-only path-class table; classes are never removed.
    classes: Vec<PathClass>,
    /// Link list -> its class.
    class_index: HashMap<Box<[LinkId]>, u32, BuildHasherDefault<Fnv>>,
    /// Shared arena backing every class's link list.
    class_links: Vec<LinkId>,
    /// Drain queue: a binary min-heap of classes keyed by
    /// `(drain_at, head mark, head flow)`, at most one entry per class.
    drain: Vec<u32>,
    links: Vec<LinkState>,
    /// Per-link index of non-empty classes: `(class, slot)` for every
    /// class with members whose path crosses the link. `slot` names
    /// the occurrence inside the class's link slice so swap-removal
    /// can fix back-pointers in O(1).
    link_classes: Vec<Vec<(u32, u32)>>,
    /// Per class and per link of its path (from `PathClass::slots`):
    /// the position of its entry inside that link's `link_classes`.
    slot_pos: Vec<u32>,
    /// Counter-backed `draining_flows()`.
    draining: usize,
    /// Counter-backed `stalled_flows()`.
    stalled: usize,
    /// Test hook: every refill treats all non-empty classes as dirty,
    /// so the event stream doubles as a from-scratch filling reference.
    paranoid: bool,
    /// Inside the debug cross-check: suppress counters and turn rate
    /// divergence into a panic.
    checking: bool,
    /// Filling passes executed (one per refilled component).
    fillings: u64,
    /// Total flows in those fillings (the frontier size).
    frontier_flows: u64,
    /// Links dirtied since the last refill, deduplicated by epoch; a
    /// refill appends each component's walk after them.
    dirty_links: Vec<usize>,
    dirty_epoch: u64,
    /// Classes taking part in the current filling, in first-seen order.
    filled: Vec<u32>,
    /// Total internal events processed (engine throughput metric).
    events: u64,
    // Reusable filling scratch: no steady-state allocation.
    scratch_hot: Vec<usize>,
    scratch_residual: Vec<f64>,
    /// Saturation threshold of each hot link, parallel to the residuals.
    scratch_sat: Vec<f64>,
    scratch_counts: Vec<usize>,
    scratch_unfrozen: Vec<u32>,
    /// Generation counter behind the class and link stamps.
    stamp: u64,
    telemetry: Telemetry,
}

impl<'c> NetSim<'c> {
    /// Creates an idle simulator at time zero over the given cluster.
    pub fn new(cluster: &'c Cluster) -> Self {
        let n = cluster.links().len();
        NetSim {
            cluster,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            flows: Vec::new(),
            classes: Vec::new(),
            class_index: HashMap::default(),
            class_links: Vec::new(),
            drain: Vec::new(),
            links: vec![
                LinkState {
                    factor: 1.0,
                    up: true,
                    failed: false,
                    dirty: 0,
                    visit: 0,
                    hot: 0,
                    pos: 0,
                };
                n
            ],
            link_classes: vec![Vec::new(); n],
            slot_pos: Vec::new(),
            draining: 0,
            stalled: 0,
            paranoid: false,
            checking: false,
            fillings: 0,
            frontier_flows: 0,
            dirty_links: Vec::new(),
            dirty_epoch: 1,
            filled: Vec::new(),
            events: 0,
            scratch_hot: Vec::new(),
            scratch_residual: Vec::new(),
            scratch_sat: Vec::new(),
            scratch_counts: Vec::new(),
            scratch_unfrozen: Vec::new(),
            stamp: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink: subsequent submissions bump the
    /// `simnet.transfers` / `simnet.bytes_submitted` counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Test/verification hook: every refill marks *all* non-empty
    /// classes dirty, degenerating to a from-scratch per-component
    /// filling after every event. A correct frontier produces a
    /// bit-identical event stream with this on or off — that is the
    /// allocator's exactness contract (see the proptests).
    pub fn with_paranoid_refill(mut self, on: bool) -> Self {
        self.paranoid = on;
        self
    }

    /// Filling passes executed so far (one per refilled component).
    pub fn fillings(&self) -> u64 {
        self.fillings
    }

    /// Total flows in those filling passes so far — the work metric
    /// the dirty frontier minimizes.
    pub fn frontier_flows(&self) -> u64 {
        self.frontier_flows
    }

    /// The cluster this simulator runs over.
    pub fn cluster(&self) -> &'c Cluster {
        self.cluster
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total internal events processed so far — the engine-throughput
    /// numerator for `events/sec` benchmarks.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Arena range of a class's links.
    fn links_range(&self, c: usize) -> Range<usize> {
        let pc = &self.classes[c];
        pc.links_start as usize..(pc.links_start + pc.links_len) as usize
    }

    /// Interns a link list into the class table; allocates only when
    /// the class is new.
    fn intern_class(&mut self, links: &[LinkId]) -> u32 {
        if let Some(&c) = self.class_index.get(links) {
            return c;
        }
        let id = self.classes.len() as u32;
        self.class_index.insert(links.into(), id);
        self.classes.push(PathClass {
            links_start: self.class_links.len() as u32,
            links_len: links.len() as u32,
            slots: self.slot_pos.len() as u32,
            cap: links
                .iter()
                .filter_map(|l| self.cluster.link(*l).per_flow_cap)
                .map(|b| b.as_bytes_per_sec())
                .fold(f64::INFINITY, f64::min),
            stamp: 0,
            weight: 0,
            fill: 0.0,
            rate: 0.0,
            served: 0.0,
            served_at: SimTime::ZERO,
            members: BinaryHeap::new(),
            down: 0,
            drain_pos: NONE,
            drain_at: SimTime::ZERO,
        });
        self.class_links.extend_from_slice(links);
        self.slot_pos.resize(self.slot_pos.len() + links.len(), 0);
        id
    }

    /// Submits a transfer of `size` bytes along `path`; a
    /// [`SimEvent::TransferDone`] with `token` fires on completion.
    ///
    /// The path's total α (link alphas + extra) elapses first; the flow
    /// then drains at its max-min allocated rate.
    pub fn submit_transfer(&mut self, path: &Path, size: ByteSize, token: Token) {
        // A path over an already-failed link aborts after its latency
        // elapses (the sender learns of the failure one round-trip in).
        let dead = path.links.iter().any(|l| self.links[l.0].failed);
        self.telemetry.add_counter("simnet.transfers", 1.0);
        self.telemetry
            .add_counter("simnet.bytes_submitted", size.as_f64());
        let alpha = self.cluster.path_alpha(path);
        let class = self.intern_class(&path.links);
        let id = self.flows.len() as u32;
        self.flows.push(Flow {
            token,
            class,
            bytes: size.as_f64(),
            phase: if dead { Phase::Aborted } else { Phase::Latency },
        });
        self.push(self.now + alpha, Internal::LatencyDone(id));
    }

    /// Submits a wave of transfers at the current instant.
    ///
    /// Equivalent to calling [`submit_transfer`](Self::submit_transfer)
    /// for each element; spelled out because same-instant submissions
    /// are the engine's batch path — their activations land
    /// back-to-back on the queue, the per-activation refill is deferred
    /// to the last one, and the whole wave pays a single frontier
    /// refill instead of one per transfer.
    pub fn submit_wave(&mut self, wave: &[(Path, ByteSize, Token)]) {
        for (path, size, token) in wave {
            self.submit_transfer(path, *size, *token);
        }
    }

    /// Schedules a timer firing `after` from now with `token`.
    pub fn schedule_timer(&mut self, after: SimDuration, token: Token) {
        self.push(self.now + after, Internal::Timer(token));
    }

    /// Scales a link's capacity by `factor` (trace-driven variability).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn set_capacity_factor(&mut self, link: LinkId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "capacity factor must be positive: {factor}"
        );
        self.links[link.0].factor = factor;
        self.mark_link_dirty(link.0);
        self.refill();
    }

    /// Current capacity factor of a link.
    pub fn capacity_factor(&self, link: LinkId) -> f64 {
        self.links[link.0].factor
    }

    /// Takes a link down (`up = false`) or brings it back up.
    ///
    /// While down, flows crossing the link stall at rate zero — they
    /// are not aborted and resume draining when the link returns. A
    /// permanently failed link ignores attempts to bring it up.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        let st = &self.links[link.0];
        if st.failed || st.up == up {
            return;
        }
        self.links[link.0].up = up;
        self.note_link_transition(link.0, up);
        self.mark_link_dirty(link.0);
        self.refill();
    }

    /// Permanently fails a link: every unfinished flow crossing it is
    /// aborted (a [`SimEvent::TransferAborted`] fires per flow) and any
    /// later submission over it aborts after its path latency. Failed
    /// links never come back up.
    pub fn fail_link(&mut self, link: LinkId) {
        if self.links[link.0].failed {
            return;
        }
        let was_up = self.links[link.0].up;
        self.links[link.0].failed = true;
        self.links[link.0].up = false;
        if was_up {
            self.note_link_transition(link.0, false);
        }
        // Every member of a class crossing the link is a victim.
        // Latency-phase victims report the abort when their latency
        // elapses; draining ones report it now, in submission order.
        let crossing: Vec<bool> = (0..self.classes.len())
            .map(|c| self.class_links[self.links_range(c)].contains(&link))
            .collect();
        for f in 0..self.flows.len() {
            let flow = &mut self.flows[f];
            if !crossing[flow.class as usize] {
                continue;
            }
            match flow.phase {
                Phase::Latency => flow.phase = Phase::Aborted,
                Phase::Draining => {
                    flow.phase = Phase::Aborted;
                    let token = flow.token;
                    self.push(self.now, Internal::Aborted(token));
                }
                Phase::Done | Phase::Aborted => {}
            }
        }
        for (c, _) in crossing.iter().enumerate().filter(|(_, &x)| x) {
            let n = self.classes[c].members.len();
            if n == 0 {
                continue;
            }
            // The link is down, so the class was counted as stalled.
            self.draining -= n;
            self.stalled -= n;
            self.classes[c].members.clear();
            self.empty_class(c);
            self.mark_class_dirty(c);
        }
        self.mark_link_dirty(link.0);
        self.refill();
    }

    /// Repairs a permanently failed link: the failure flag clears and
    /// the link comes back up, so later submissions drain normally.
    /// Flows already aborted by the failure stay aborted — recovery is
    /// not retroactive. No effect on a link that never failed.
    pub fn recover_link(&mut self, link: LinkId) {
        if !self.links[link.0].failed {
            return;
        }
        self.links[link.0].failed = false;
        self.links[link.0].up = true;
        self.note_link_transition(link.0, true);
        self.mark_link_dirty(link.0);
        self.refill();
    }

    /// True if the link is currently up (neither down nor failed).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link.0].up
    }

    /// True if the link has permanently failed.
    pub fn link_is_failed(&self, link: LinkId) -> bool {
        self.links[link.0].failed
    }

    /// Schedules a fault to fire `after` from now, inside the
    /// simulation timeline. The fault itself is silent; see
    /// [`FaultAction`].
    pub fn schedule_fault(&mut self, after: SimDuration, action: FaultAction) {
        self.push(self.now + after, Internal::Fault(action));
    }

    /// Applies a fault action immediately.
    pub fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::LinkDown(l) => self.set_link_up(l, false),
            FaultAction::LinkUp(l) => self.set_link_up(l, true),
            FaultAction::LinkFail(l) => self.fail_link(l),
            FaultAction::LinkRecover(l) => self.recover_link(l),
            FaultAction::SetCapacityFactor(l, f) => self.set_capacity_factor(l, f),
        }
    }

    /// Number of flows currently in the fluid phase (draining).
    /// Counter-backed: O(1).
    pub fn draining_flows(&self) -> usize {
        self.draining
    }

    /// Number of draining flows currently stalled behind a down link.
    /// Counter-backed: O(1).
    pub fn stalled_flows(&self) -> usize {
        self.stalled
    }

    /// Advances the simulation to the next user-visible event and
    /// returns it, or `None` when nothing is pending.
    ///
    /// At one instant, timers, activations and faults come before
    /// drains.
    pub fn step(&mut self) -> Option<SimEvent> {
        loop {
            let drain_first = match (self.drain.first(), self.queue.peek()) {
                (Some(&c), Some(q)) => self.classes[c as usize].drain_at < q.at,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if drain_first {
                let c = self.drain[0] as usize;
                self.events += 1;
                debug_assert!(self.classes[c].drain_at >= self.now, "drain went backwards");
                self.now = self.classes[c].drain_at;
                return Some(self.complete_head(c));
            }
            let Queued { at, event, .. } = self.queue.pop()?;
            self.events += 1;
            debug_assert!(at >= self.now, "event time went backwards");
            self.now = at;
            match event {
                Internal::Timer(token) => return Some(SimEvent::Timer { token, at }),
                Internal::Aborted(token) => {
                    return Some(SimEvent::TransferAborted { token, at });
                }
                Internal::Fault(action) => self.apply_fault(action),
                Internal::LatencyDone(f) => {
                    if let Some(ev) = self.activate(f as usize) {
                        return Some(ev);
                    }
                }
            }
        }
    }

    /// Runs to quiescence, collecting every event.
    pub fn drain(&mut self) -> Vec<SimEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.step() {
            out.push(ev);
        }
        out
    }

    fn push(&mut self, at: SimTime, event: Internal) {
        self.seq += 1;
        self.queue.push(Queued {
            at,
            seq: self.seq,
            event,
        });
    }

    /// A flow's latency elapsed: it joins its class's draining set
    /// (an aborted or empty flow reports right away instead).
    fn activate(&mut self, f: usize) -> Option<SimEvent> {
        let (token, at) = (self.flows[f].token, self.now);
        if self.flows[f].phase == Phase::Aborted {
            return Some(SimEvent::TransferAborted { token, at });
        }
        if self.flows[f].bytes <= EPS_BYTES {
            // Zero-byte transfer: completes right after latency.
            self.flows[f].phase = Phase::Done;
            return Some(SimEvent::TransferDone { token, at });
        }
        self.flows[f].phase = Phase::Draining;
        let c = self.flows[f].class as usize;
        if self.classes[c].members.is_empty() {
            // First member: progress starts now from the re-based
            // counter; learn the down links and join the link index.
            let down = self.class_links[self.links_range(c)]
                .iter()
                .filter(|l| !self.links[l.0].up)
                .count() as u32;
            let pc = &mut self.classes[c];
            pc.served_at = at;
            pc.down = down;
            self.index_class(c);
        } else {
            self.sync(c);
        }
        let pc = &mut self.classes[c];
        let mark = pc.served + self.flows[f].bytes;
        pc.members.push(Reverse((mark.to_bits(), f as u32)));
        self.draining += 1;
        if pc.down > 0 {
            self.stalled += 1;
        } else {
            self.mark_class_dirty(c);
        }
        self.schedule(c);
        self.refill_unless_burst();
        None
    }

    /// The head member of class `c` drained at `now`.
    fn complete_head(&mut self, c: usize) -> SimEvent {
        self.sync(c);
        let Reverse((_, f)) = self.classes[c]
            .members
            .pop()
            .expect("a scheduled class has members");
        let flow = &mut self.flows[f as usize];
        flow.phase = Phase::Done;
        let token = flow.token;
        self.draining -= 1;
        if self.classes[c].down > 0 {
            // A drained flow completes even while stalled.
            self.stalled -= 1;
        }
        if self.classes[c].members.is_empty() {
            self.empty_class(c);
        } else {
            self.schedule(c);
        }
        self.mark_class_dirty(c);
        self.refill_unless_burst();
        SimEvent::TransferDone {
            token,
            at: self.now,
        }
    }

    /// Refills now, unless the next event happens at this same instant
    /// and refills itself: a drain, or an activation that joins the
    /// fluid phase. Rates recomputed now would be overwritten before
    /// any time passes or any caller code reads them, so a burst of
    /// same-instant arrivals and completions pays one refill (the dirty
    /// frontier keeps accumulating until then).
    fn refill_unless_burst(&mut self) {
        let burst = match self.queue.peek() {
            Some(q) if q.at == self.now => match q.event {
                Internal::LatencyDone(f) => {
                    let f = &self.flows[f as usize];
                    f.phase == Phase::Latency && f.bytes > EPS_BYTES
                }
                _ => false,
            },
            _ => self
                .drain
                .first()
                .is_some_and(|&c| self.classes[c as usize].drain_at == self.now),
        };
        if !burst {
            self.refill();
        }
    }

    // ---- per-class progress and the drain queue ----

    /// Integrates class `c`'s `served` counter up to `now` at its
    /// current rate.
    fn sync(&mut self, c: usize) {
        let now = self.now;
        let pc = &mut self.classes[c];
        let dt = now.duration_since(pc.served_at).as_secs();
        if dt > 0.0 && pc.rate > 0.0 {
            pc.served += pc.rate * dt;
        }
        pc.served_at = now;
    }

    /// Re-keys class `c`'s drain entry from its head member: the
    /// instant `served` reaches the head's mark at the current rate. A
    /// head within `EPS_BYTES` of its mark drains now, so members with
    /// equal marks drain at one instant whatever the rounding of
    /// `served`; a class at rate zero drains only such a head.
    fn schedule(&mut self, c: usize) {
        self.sync(c);
        let now = self.now;
        let pc = &self.classes[c];
        let at = pc.members.peek().and_then(|&Reverse((mark, _))| {
            let left = f64::from_bits(mark) - pc.served;
            if left <= EPS_BYTES {
                Some(now)
            } else {
                (pc.rate > 0.0).then(|| now + SimDuration::from_secs(left / pc.rate))
            }
        });
        match at {
            Some(at) => {
                self.classes[c].drain_at = at;
                let pos = match self.classes[c].drain_pos {
                    NONE => {
                        self.drain.push(c as u32);
                        self.drain.len() - 1
                    }
                    pos => pos as usize,
                };
                self.classes[c].drain_pos = pos as u32;
                self.drain_fix(pos);
            }
            None => self.drain_remove(c),
        }
    }

    /// Class `c` lost its last member: it leaves the link index and the
    /// drain queue and re-bases its progress, so marks restart from 0
    /// (the next filling then sees its rate move from 0 and schedules
    /// it afresh).
    fn empty_class(&mut self, c: usize) {
        self.unindex_class(c);
        self.drain_remove(c);
        let pc = &mut self.classes[c];
        pc.served = 0.0;
        pc.rate = 0.0;
    }

    /// Drain-queue order: instant, then the head's mark, then its
    /// submission.
    fn drain_key(&self, c: u32) -> (SimTime, u64, u32) {
        let pc = &self.classes[c as usize];
        let Reverse((mark, f)) = *pc.members.peek().expect("queued classes have members");
        (pc.drain_at, mark, f)
    }

    fn drain_swap(&mut self, a: usize, b: usize) {
        self.drain.swap(a, b);
        self.classes[self.drain[a] as usize].drain_pos = a as u32;
        self.classes[self.drain[b] as usize].drain_pos = b as u32;
    }

    /// Restores the heap order around position `pos` after its key
    /// moved either way.
    fn drain_fix(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.drain_key(self.drain[pos]) >= self.drain_key(self.drain[parent]) {
                break;
            }
            self.drain_swap(pos, parent);
            pos = parent;
        }
        loop {
            let mut least = pos;
            for child in [2 * pos + 1, 2 * pos + 2] {
                if child < self.drain.len()
                    && self.drain_key(self.drain[child]) < self.drain_key(self.drain[least])
                {
                    least = child;
                }
            }
            if least == pos {
                break;
            }
            self.drain_swap(pos, least);
            pos = least;
        }
    }

    /// Takes class `c` out of the drain queue, if queued.
    fn drain_remove(&mut self, c: usize) {
        let pos = self.classes[c].drain_pos;
        if pos == NONE {
            return;
        }
        self.classes[c].drain_pos = NONE;
        let last = self.drain.pop().expect("queued class present");
        if (pos as usize) < self.drain.len() {
            self.drain[pos as usize] = last;
            self.classes[last as usize].drain_pos = pos;
            self.drain_fix(pos as usize);
        }
    }

    // ---- per-link class index ----

    fn index_class(&mut self, c: usize) {
        let slots = self.classes[c].slots as usize;
        for (j, k) in self.links_range(c).enumerate() {
            let li = self.class_links[k].0;
            self.slot_pos[slots + j] = self.link_classes[li].len() as u32;
            self.link_classes[li].push((c as u32, j as u32));
        }
    }

    fn unindex_class(&mut self, c: usize) {
        let slots = self.classes[c].slots as usize;
        for (j, k) in self.links_range(c).enumerate() {
            let li = self.class_links[k].0;
            let pos = self.slot_pos[slots + j] as usize;
            let last = self.link_classes[li].pop().expect("index entry present");
            if pos < self.link_classes[li].len() {
                // Swap-remove: fix the moved entry's back-pointer.
                self.link_classes[li][pos] = last;
                let (mc, ms) = last;
                let mslots = self.classes[mc as usize].slots as usize;
                self.slot_pos[mslots + ms as usize] = pos as u32;
            }
        }
    }

    /// Updates the down-link counts of the classes crossing `li` after
    /// its transient availability flipped to `up`. A class that stalls
    /// settles its progress and gives its rate back; one that resumes
    /// joins the dirty frontier, and the refill assigns its rate.
    fn note_link_transition(&mut self, li: usize, up: bool) {
        for i in 0..self.link_classes[li].len() {
            let c = self.link_classes[li][i].0 as usize;
            let n = self.classes[c].members.len();
            if up {
                self.classes[c].down -= 1;
                if self.classes[c].down == 0 {
                    self.stalled -= n;
                    self.mark_class_dirty(c);
                }
            } else {
                self.classes[c].down += 1;
                if self.classes[c].down == 1 {
                    self.stalled += n;
                    self.sync(c);
                    self.classes[c].rate = 0.0;
                    // An already-drained head completes even while
                    // stalled.
                    self.schedule(c);
                    // Its departure frees share for its neighbours.
                    self.mark_class_dirty(c);
                }
            }
        }
    }

    // ---- dirty frontier and the filling kernel ----

    fn mark_link_dirty(&mut self, li: usize) {
        if self.links[li].dirty != self.dirty_epoch {
            self.links[li].dirty = self.dirty_epoch;
            self.dirty_links.push(li);
        }
    }

    fn mark_class_dirty(&mut self, c: usize) {
        for k in self.links_range(c) {
            let li = self.class_links[k].0;
            self.mark_link_dirty(li);
        }
    }

    fn mark_all_dirty(&mut self) {
        for c in 0..self.classes.len() {
            if !self.classes[c].members.is_empty() {
                self.mark_class_dirty(c);
            }
        }
    }

    /// Refills every class component reachable from the accumulated
    /// dirty links. In debug builds, cross-checks the result against a
    /// from-scratch refill of every non-empty class (the paranoid
    /// reference): any rate-bit divergence panics.
    fn refill(&mut self) {
        if self.paranoid {
            self.mark_all_dirty();
        }
        self.refill_dirty();
        #[cfg(debug_assertions)]
        {
            if !self.paranoid && !self.checking {
                self.checking = true;
                self.mark_all_dirty();
                self.refill_dirty();
                self.checking = false;
                let count = |stalled: bool| {
                    self.classes
                        .iter()
                        .filter(|pc| !stalled || pc.down > 0)
                        .map(|pc| pc.members.len())
                        .sum::<usize>()
                };
                debug_assert_eq!(self.draining, count(false), "draining counter out of sync");
                debug_assert_eq!(self.stalled, count(true), "stalled counter out of sync");
            }
        }
    }

    /// Walks the dirty frontier: discovers each touched connected
    /// component over the link<->class graph (stalled classes excluded
    /// — they hold no rate) and refills it.
    fn refill_dirty(&mut self) {
        if self.dirty_links.is_empty() {
            return;
        }
        self.stamp += 1;
        let vstamp = self.stamp;
        let mut walk = std::mem::take(&mut self.dirty_links);
        let seeds = walk.len();
        for s in 0..seeds {
            let seed = walk[s];
            if self.links[seed].visit == vstamp {
                continue; // already swept into an earlier component
            }
            self.links[seed].visit = vstamp;
            walk.truncate(seeds);
            walk.push(seed);
            self.stamp += 1;
            self.filled.clear();
            let mut flows = 0;
            let mut qi = seeds;
            while qi < walk.len() {
                let l = walk[qi];
                qi += 1;
                for i in 0..self.link_classes[l].len() {
                    let c = self.link_classes[l][i].0 as usize;
                    let pc = &mut self.classes[c];
                    if pc.stamp == self.stamp || pc.down > 0 {
                        continue;
                    }
                    pc.stamp = self.stamp;
                    pc.weight = pc.members.len();
                    flows += pc.weight;
                    self.filled.push(c as u32);
                    for k in self.links_range(c) {
                        let li = self.class_links[k].0;
                        if self.links[li].visit != vstamp {
                            self.links[li].visit = vstamp;
                            walk.push(li);
                        }
                    }
                }
            }
            if flows > 0 {
                self.fill_component(flows);
            }
        }
        walk.clear();
        self.dirty_links = walk;
        self.dirty_epoch += 1;
    }

    /// Refills one connected component (`self.filled`) with the class
    /// kernel, then re-keys the drain entry of every class whose rate
    /// bits moved. Classes outside the component are untouched by
    /// construction, which is what makes the frontier refill
    /// bit-identical to a from-scratch per-component recompute.
    fn fill_component(&mut self, flows: usize) {
        self.fill_classes(flows);
        let filled = std::mem::take(&mut self.filled);
        for &c in &filled {
            let c = c as usize;
            let (old, new) = (self.classes[c].rate, self.classes[c].fill);
            if new.to_bits() == old.to_bits() {
                continue;
            }
            assert!(
                !self.checking,
                "frontier refill diverged from full recompute: \
                 class {c} rate {new:e} (expected {old:e})"
            );
            self.sync(c);
            self.classes[c].rate = new;
            self.schedule(c);
        }
        self.filled = filled;
    }

    /// The progressive-filling (max-min) kernel. It fills the enlisted
    /// classes, not their flows: members of a class cross the same
    /// links under the same cap, so they would take the same delta in
    /// every round and freeze in the same round. A class enters each
    /// link's count with its member count, which is the same integer
    /// the flows would add one by one, and every `min` fold below is
    /// order-insensitive, so each member's rate is bit-identical to a
    /// per-flow filling. `flows` is the number of member flows (the
    /// `fillings`/`frontier_flows` work counters count flows).
    fn fill_classes(&mut self, flows: usize) {
        if !self.checking {
            self.fillings += 1;
            self.frontier_flows += flows as u64;
            self.telemetry.add_counter("engine.fillings", 1.0);
            self.telemetry
                .add_counter("engine.frontier_flows", flows as f64);
        }
        let stamp = self.stamp;
        // Only links carrying enlisted classes matter. First-seen order
        // with stamp dedup, no sort: the arithmetic below is per-link
        // independent and its `min` folds are order-insensitive, so the
        // hot-set order never shows in the rates. residual[k] and sat[k]
        // track hot[k].
        let mut hot = std::mem::take(&mut self.scratch_hot);
        let mut residual = std::mem::take(&mut self.scratch_residual);
        let mut sat = std::mem::take(&mut self.scratch_sat);
        hot.clear();
        residual.clear();
        sat.clear();
        for &c in &self.filled {
            let pc = &mut self.classes[c as usize];
            pc.fill = 0.0;
            let start = pc.links_start as usize;
            for l in &self.class_links[start..start + pc.links_len as usize] {
                let li = l.0;
                let link = &mut self.links[li];
                if link.hot != stamp {
                    link.hot = stamp;
                    link.pos = hot.len() as u32;
                    hot.push(li);
                    let cap = self.cluster.links()[li].capacity.as_bytes_per_sec() * link.factor;
                    residual.push(cap);
                    // Saturation is relative to the link's effective
                    // capacity: the dust `residual -= delta * n` leaves
                    // on a saturated link scales with it (~1e-5 B/s on
                    // a 100 GB/s pod uplink), so an absolute threshold
                    // either misses it, leaving the round with nothing
                    // to freeze and the stall guard deflating every
                    // still-rising class to the bottleneck share, or
                    // misfires on slow links. The floor keeps
                    // zero-capacity links saturated.
                    sat.push((cap * 1e-9).max(1e-6));
                }
            }
        }
        let mut unfrozen = std::mem::take(&mut self.scratch_unfrozen);
        unfrozen.clear();
        unfrozen.extend_from_slice(&self.filled);
        let mut counts = std::mem::take(&mut self.scratch_counts);
        let (classes, arena, state) = (&mut self.classes, &self.class_links, &self.links);
        let pos = |l: &LinkId| state[l.0].pos as usize;
        let links = |pc: &PathClass| {
            let start = pc.links_start as usize;
            &arena[start..start + pc.links_len as usize]
        };
        // Raise all unfrozen classes equally until a link saturates or
        // a class hits its cap; freeze and repeat.
        while !unfrozen.is_empty() {
            counts.clear();
            counts.resize(hot.len(), 0);
            for &c in &unfrozen {
                let pc = &classes[c as usize];
                for l in links(pc) {
                    counts[pos(l)] += pc.weight;
                }
            }
            let mut delta = f64::INFINITY;
            for (k, &n) in counts.iter().enumerate() {
                if n > 0 {
                    delta = delta.min(residual[k] / n as f64);
                }
            }
            for &c in &unfrozen {
                let pc = &classes[c as usize];
                delta = delta.min(pc.cap - pc.fill);
            }
            if !delta.is_finite() || delta < 0.0 {
                break;
            }
            for &c in &unfrozen {
                classes[c as usize].fill += delta;
            }
            for (k, &n) in counts.iter().enumerate() {
                residual[k] -= delta * n as f64;
            }
            // Freeze classes on a saturated link or at their cap; if
            // none froze, the numerical stall guard freezes them all.
            let before = unfrozen.len();
            unfrozen.retain(|&c| {
                let pc = &classes[c as usize];
                let at_cap = pc.fill >= pc.cap - (pc.cap * 1e-9).max(1e-6);
                let on_sat = links(pc).iter().map(pos).any(|k| residual[k] <= sat[k]);
                !(at_cap || on_sat)
            });
            if unfrozen.len() == before {
                unfrozen.clear();
            }
        }
        self.scratch_hot = hot;
        self.scratch_residual = residual;
        self.scratch_sat = sat;
        self.scratch_counts = counts;
        self.scratch_unfrozen = unfrozen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterBuilder, InstanceId, Rank};
    use crate::hardware::InstanceSpec;
    use crate::units::Bandwidth;

    fn two_a100() -> Cluster {
        Cluster::homogeneous_a100(2)
    }

    #[test]
    fn single_transfer_matches_alpha_beta() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.intra_path(Rank(0), Rank(1));
        let size = ByteSize::from_mib(100);
        sim.submit_transfer(&path, size, 1);
        let ev = sim.step().unwrap();
        let alpha = c.path_alpha(&path).as_secs();
        let bw = c.link(path.links[0]).capacity.as_bytes_per_sec();
        let expect = alpha + size.as_f64() / bw;
        assert!((ev.at().as_secs() - expect).abs() < 1e-9);
        assert!(sim.step().is_none());
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        // Both flows cross instance 0's egress port.
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(125); // at 12.5 GB/s: 10.49ms alone
        sim.submit_transfer(&path, size, 1);
        sim.submit_transfer(&path, size, 2);
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        let solo = size.as_f64() / Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let last = evs.last().unwrap().at().as_secs();
        // Equal sharing: both finish together at ~2x the solo time.
        assert!((last / (2.0 * solo) - 1.0).abs() < 0.01, "last={last}");
        let first = evs[0].at().as_secs();
        assert!((first - last).abs() < 1e-6);
    }

    #[test]
    fn early_finisher_releases_bandwidth() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::from_mib(50), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(150), 2);
        let evs = sim.drain();
        assert_eq!(evs[0].token(), 1);
        assert_eq!(evs[1].token(), 2);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        // Flow 1: 50 MiB at bw/2. Flow 2: 50 MiB at bw/2 then 100 MiB at bw.
        let t1 = ByteSize::from_mib(50).as_f64() / (bw / 2.0);
        let t2 = t1 + ByteSize::from_mib(100).as_f64() / bw;
        assert!((evs[0].at().as_secs() - t1).abs() / t1 < 0.01);
        assert!((evs[1].at().as_secs() - t2).abs() / t2 < 0.01);
    }

    #[test]
    fn per_flow_cap_limits_tcp_stream() {
        let mut b = ClusterBuilder::new();
        b.add_instances(InstanceSpec::a100_server().with_tcp(), 2);
        let c = b.build();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        sim.submit_transfer(&path, size, 1);
        let ev = sim.step().unwrap();
        let capped = size.as_f64() / Bandwidth::from_gbps(20.0).as_bytes_per_sec();
        let dur = ev.at().as_secs() - c.path_alpha(&path).as_secs();
        assert!(
            (dur - capped).abs() / capped < 0.01,
            "dur={dur} capped={capped}"
        );
    }

    #[test]
    fn concurrent_group_flows_share_one_timeline() {
        // Two process groups (one cross-server ring per local GPU
        // slot on a fat tree) run their transfers in the SAME engine
        // timeline: their flows meet on the shared server uplinks and
        // split them by eq. 3 equal share, exactly as two solo runs
        // at half bandwidth — no cross-group event loss or reordering.
        let c = Cluster::fat_tree(2, 2);
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        // Group A = slot-0 ranks, group B = slot-1 ranks; both cross
        // the same NIC pair in the same direction at t=0.
        sim.submit_transfer(&path, size, 0xA);
        sim.submit_transfer(&path, size, 0xB);
        let together = sim.drain();
        assert_eq!(together.len(), 2, "both groups' transfers complete");
        let tokens: Vec<Token> = together.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![0xA, 0xB]);
        // Solo timeline for one group on the same fabric.
        let mut solo = NetSim::new(&c);
        solo.submit_transfer(&path, size, 0xA);
        let alone = solo.drain()[0].at().as_secs();
        let alpha = c.path_alpha(&path).as_secs();
        let shared = together.last().unwrap().at().as_secs();
        // Contended serial time = alpha + 2x the solo drain time.
        let expect = alpha + 2.0 * (alone - alpha);
        assert!(
            (shared - expect).abs() / expect < 0.01,
            "shared={shared} expect={expect}"
        );
        // Flow conservation: staggering group B by a timer tick still
        // delivers every byte of both groups, in submission order per
        // group, on one monotone clock.
        let mut stag = NetSim::new(&c);
        stag.submit_transfer(&path, size, 0xA);
        stag.schedule_timer(SimDuration::from_millis(1.0), 0xF1);
        let mut events = Vec::new();
        while let Some(ev) = stag.step() {
            if matches!(ev, SimEvent::Timer { token: 0xF1, .. }) {
                stag.submit_transfer(&path, size, 0xB);
            }
            events.push(ev);
        }
        let done: Vec<Token> = events
            .iter()
            .filter(|e| matches!(e, SimEvent::TransferDone { .. }))
            .map(|e| e.token())
            .collect();
        assert_eq!(done, vec![0xA, 0xB]);
        assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn parallel_tcp_streams_aggregate_past_the_cap() {
        let mut b = ClusterBuilder::new();
        b.add_instances(InstanceSpec::a100_server().with_tcp(), 2);
        let c = b.build();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        for t in 0..4 {
            sim.submit_transfer(&path, size, t);
        }
        let evs = sim.drain();
        // Four 20 Gbps streams on a 100 Gbps port: all run at cap,
        // aggregate 80 Gbps; same finish as one stream alone.
        let capped = size.as_f64() / Bandwidth::from_gbps(20.0).as_bytes_per_sec();
        let last = evs.last().unwrap().at().as_secs() - c.path_alpha(&path).as_secs();
        assert!((last - capped).abs() / capped < 0.02, "last={last}");
    }

    #[test]
    fn capacity_factor_slows_flow() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.set_capacity_factor(eg, 0.5);
        let size = ByteSize::from_mib(100);
        sim.submit_transfer(&path, size, 1);
        let ev = sim.step().unwrap();
        let slowed = size.as_f64() / (Bandwidth::from_gbps(100.0).as_bytes_per_sec() * 0.5);
        let dur = ev.at().as_secs() - c.path_alpha(&path).as_secs();
        assert!((dur - slowed).abs() / slowed < 0.01);
    }

    #[test]
    fn mid_flight_capacity_change_is_integrated() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        sim.submit_transfer(&path, size, 1);
        // Halve the link when roughly half the bytes are through.
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let half = size.as_f64() / 2.0 / bw;
        sim.schedule_timer(
            SimDuration::from_secs(half + c.path_alpha(&path).as_secs()),
            99,
        );
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::Timer { token: 99, .. }));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.set_capacity_factor(eg, 0.5);
        let done = sim.step().unwrap();
        let expect = c.path_alpha(&path).as_secs() + half + (size.as_f64() / 2.0) / (bw * 0.5);
        assert!(
            (done.at().as_secs() - expect).abs() / expect < 0.01,
            "got {} want {expect}",
            done.at().as_secs()
        );
    }

    #[test]
    fn zero_byte_transfer_completes_after_latency() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::ZERO, 5);
        let ev = sim.step().unwrap();
        assert_eq!(ev.token(), 5);
        let alpha = c.path_alpha(&path).as_secs();
        assert!((ev.at().as_secs() - alpha).abs() < 1e-12);
    }

    #[test]
    fn timers_and_transfers_interleave_in_time_order() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        sim.schedule_timer(SimDuration::from_micros(1.0), 2);
        sim.schedule_timer(SimDuration::from_secs(10.0), 3);
        let evs = sim.drain();
        let tokens: Vec<u64> = evs.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![2, 1, 3]);
        let times: Vec<f64> = evs.iter().map(|e| e.at().as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn multi_hop_flow_bottlenecked_by_slowest_link() {
        // Cross-switch PCIe path: bottleneck is a Gen4 x16 hop (32 GB/s);
        // the inter-socket link is 35 GB/s so PCIe binds.
        let spec = InstanceSpec::a100_server().with_nvlink(crate::hardware::NvlinkTopology::None);
        let mut b = ClusterBuilder::new();
        b.add_instance(spec);
        let c = b.build();
        let mut sim = NetSim::new(&c);
        let path = c.intra_path(Rank(0), Rank(3));
        let size = ByteSize::from_mib(320);
        sim.submit_transfer(&path, size, 1);
        let ev = sim.step().unwrap();
        let dur = ev.at().as_secs() - c.path_alpha(&path).as_secs();
        let bottleneck = size.as_f64() / Bandwidth::from_gbytes_per_sec(32.0).as_bytes_per_sec();
        assert!((dur - bottleneck).abs() / bottleneck < 0.01);
    }

    #[test]
    fn link_down_stalls_then_resumes() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let alpha = c.path_alpha(&path).as_secs();
        let half = size.as_f64() / 2.0 / bw;
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, size, 1);
        // Down for 10 ms starting at the halfway point.
        let outage = 0.010;
        sim.schedule_fault(
            SimDuration::from_secs(alpha + half),
            FaultAction::LinkDown(eg),
        );
        sim.schedule_fault(
            SimDuration::from_secs(alpha + half + outage),
            FaultAction::LinkUp(eg),
        );
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 1, .. }));
        let expect = alpha + 2.0 * half + outage;
        assert!(
            (ev.at().as_secs() - expect).abs() / expect < 0.01,
            "got {} want {expect}",
            ev.at().as_secs()
        );
    }

    #[test]
    fn down_link_quiesces_without_completing() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
        sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkDown(eg));
        // The flow stalls forever: the sim quiesces with the flow live.
        assert!(sim.step().is_none());
        assert_eq!(sim.stalled_flows(), 1);
        assert!(!sim.link_is_up(eg));
        assert!(!sim.link_is_failed(eg));
        // Bringing the link back finishes the transfer.
        sim.set_link_up(eg, true);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 1, .. }));
    }

    #[test]
    fn fail_link_aborts_in_flight_flow() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        let fail_at = SimDuration::from_millis(2.0);
        sim.submit_transfer(&path, ByteSize::from_mib(100), 7);
        sim.schedule_fault(fail_at, FaultAction::LinkFail(eg));
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferAborted { token: 7, .. }));
        assert!((ev.at().as_secs() - fail_at.as_secs()).abs() < 1e-9);
        assert!(sim.link_is_failed(eg));
        assert!(sim.step().is_none());
        // Failed links never come back.
        sim.set_link_up(eg, true);
        assert!(!sim.link_is_up(eg));
    }

    #[test]
    fn recover_link_revives_future_submissions() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        sim.fail_link(eg);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferAborted { token: 1, .. }));
        // Repair: the failure clears and new traffic drains normally.
        sim.recover_link(eg);
        assert!(!sim.link_is_failed(eg));
        assert!(sim.link_is_up(eg));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 2);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 2, .. }));
        // The earlier abort is not retroactively undone.
        assert!(sim.step().is_none());
    }

    #[test]
    fn scheduled_recovery_lets_a_late_submission_finish() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let eg = c.nic_egress_link(InstanceId(0));
        sim.fail_link(eg);
        sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkRecover(eg));
        // Submitted while failed, but recovery fires before the flow's
        // latency elapses only if the engine re-checks at drain time —
        // it does not, so this one aborts...
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        let evs = sim.drain();
        assert!(matches!(evs[0], SimEvent::TransferAborted { token: 1, .. }));
        // ...while a post-recovery submission completes.
        assert!(!sim.link_is_failed(eg));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 2);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 2, .. }));
    }

    #[test]
    fn submission_over_failed_link_aborts_after_latency() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.fail_link(c.nic_egress_link(InstanceId(0)));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 3);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferAborted { token: 3, .. }));
        let alpha = c.path_alpha(&path).as_secs();
        assert!((ev.at().as_secs() - alpha).abs() < 1e-12);
    }

    #[test]
    fn fail_link_spares_disjoint_flows() {
        let c = Cluster::homogeneous_a100(3);
        let mut sim = NetSim::new(&c);
        let doomed = c.net_path(InstanceId(0), InstanceId(1));
        let spared = c.net_path(InstanceId(2), InstanceId(1));
        sim.submit_transfer(&doomed, ByteSize::from_mib(50), 1);
        sim.submit_transfer(&spared, ByteSize::from_mib(50), 2);
        sim.schedule_fault(
            SimDuration::from_millis(1.0),
            FaultAction::LinkFail(c.nic_egress_link(InstanceId(0))),
        );
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], SimEvent::TransferAborted { token: 1, .. }));
        assert!(matches!(evs[1], SimEvent::TransferDone { token: 2, .. }));
    }

    #[test]
    fn scheduled_degradation_matches_manual_factor_change() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let half = size.as_f64() / 2.0 / bw;
        let eg = c.nic_egress_link(InstanceId(0));
        sim.schedule_fault(
            SimDuration::from_secs(half + c.path_alpha(&path).as_secs()),
            FaultAction::SetCapacityFactor(eg, 0.5),
        );
        sim.submit_transfer(&path, size, 1);
        let done = sim.step().unwrap();
        let expect = c.path_alpha(&path).as_secs() + half + (size.as_f64() / 2.0) / (bw * 0.5);
        assert!(
            (done.at().as_secs() - expect).abs() / expect < 0.01,
            "got {} want {expect}",
            done.at().as_secs()
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let c = two_a100();
            let mut sim = NetSim::new(&c);
            let path = c.net_path(InstanceId(0), InstanceId(1));
            for t in 0..8 {
                sim.submit_transfer(&path, ByteSize::from_mib(10 + t), t);
            }
            sim.drain()
                .into_iter()
                .map(|e| (e.token(), e.at().as_secs().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn identical_submissions_share_one_class_and_drain_in_order() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        for t in 0..4 {
            sim.submit_transfer(&path, size, t);
        }
        // One class carries all four transfers...
        assert_eq!(sim.classes.len(), 1);
        let evs = sim.drain();
        // ...their marks are equal, so each gets its own event, in
        // submission order, at the instant four equal shares finish.
        assert_eq!(evs.len(), 4);
        let tokens: Vec<u64> = evs.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![0, 1, 2, 3]);
        assert!(evs.iter().all(|e| e.at() == evs[0].at()));
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let expect = c.path_alpha(&path).as_secs() + 4.0 * size.as_f64() / bw;
        let got = evs[0].at().as_secs();
        assert!(
            (got - expect).abs() / expect < 0.01,
            "got {got} want {expect}"
        );
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn each_link_list_interns_one_class() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let rev = c.net_path(InstanceId(1), InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(20), 2);
        sim.submit_transfer(&rev, ByteSize::from_mib(20), 3);
        sim.schedule_timer(SimDuration::from_secs(100.0), 9);
        sim.submit_transfer(&path, ByteSize::from_mib(20), 4);
        assert_eq!(sim.classes.len(), 2);
        assert_eq!(sim.flows.len(), 4);
        assert_eq!(sim.drain().len(), 5);
    }

    #[test]
    fn a_failed_link_aborts_every_member_in_submission_order() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(100), 2);
        sim.schedule_fault(SimDuration::from_millis(2.0), FaultAction::LinkFail(eg));
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], SimEvent::TransferAborted { token: 1, .. }));
        assert!(matches!(evs[1], SimEvent::TransferAborted { token: 2, .. }));
        assert_eq!(evs[0].at(), evs[1].at());
        assert_eq!(sim.draining_flows(), 0);
        assert!(sim.drain.is_empty());
    }

    #[test]
    fn zero_byte_transfers_emit_every_token() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        for t in 0..3 {
            sim.submit_transfer(&path, ByteSize::ZERO, t);
        }
        let evs = sim.drain();
        assert_eq!(evs.len(), 3);
        let alpha = c.path_alpha(&path).as_secs();
        for (t, e) in evs.iter().enumerate() {
            assert_eq!(e.token(), t as u64);
            assert!((e.at().as_secs() - alpha).abs() < 1e-12);
        }
    }

    /// Regression: progressive filling must freeze *only* the flows on
    /// a saturated constraint, even when `residual -= delta * n` leaves
    /// capacity-scaled floating-point dust behind. 11 flows sharing a
    /// 12.5 GB/s pod uplink produce a residual of ~1.9e-6 B/s at
    /// saturation — above the old absolute 1e-6 epsilon, so no flow
    /// froze and the stall guard froze the whole fleet mid-rise,
    /// deflating an unrelated NIC-bound flow to the bottleneck share
    /// (an 11x slowdown). The capacity-relative epsilon freezes the
    /// pod flows and lets the victim keep rising to its NIC rate.
    #[test]
    fn dusty_saturation_freezes_only_the_bottlenecked_flows() {
        let mut b = ClusterBuilder::new();
        b.add_instances(InstanceSpec::dgx_a100(), 4);
        // Pods of 2 at oversubscription 2: pod uplink = 2 NICs / 2 =
        // one NIC's 12.5 GB/s, shared by all cross-pod flows.
        b.with_pod_size(2).with_oversubscription(2.0);
        let c = b.build();
        let mut sim = NetSim::new(&c);
        let cross = c.net_path(InstanceId(0), InstanceId(2));
        // Distinct sizes: 11 flows with 11 marks contend on pod0's
        // uplink.
        for i in 0..11u64 {
            sim.submit_transfer(&cross, ByteSize::from_kib(512 + i), i);
        }
        // The victim shares no link with the cross-pod flows (its own
        // egress NIC and ingress NIC) and must drain at the full
        // 12.5 GB/s NIC rate, not the 1.14 GB/s pod share.
        let victim = c.net_path(InstanceId(1), InstanceId(0));
        sim.submit_transfer(&victim, ByteSize::from_mib(1), 99);
        let t = sim
            .drain()
            .into_iter()
            .find(|e| e.token() == 99)
            .expect("victim completes")
            .at()
            .as_secs();
        let solo = ByteSize::from_mib(1).as_f64() / 12.5e9;
        assert!(
            t < 3.0 * solo,
            "victim took {t}s vs ~{solo}s solo — deflated by the stall guard"
        );
    }

    #[test]
    fn stalled_flows_count_until_the_link_returns() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
        sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkDown(eg));
        assert!(sim.step().is_none());
        assert_eq!(sim.stalled_flows(), 1);
        assert_eq!(sim.draining_flows(), 1);
        assert!(sim.drain.is_empty(), "a stalled class has no drain instant");
        sim.set_link_up(eg, true);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 1, .. }));
        assert_eq!(sim.stalled_flows(), 0);
        assert_eq!(sim.draining_flows(), 0);
    }

    #[test]
    fn synchronized_wave_pays_one_filling() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        // Distinct sizes: four marks, one class, one port.
        let wave: Vec<(Path, ByteSize, Token)> = (0..4u64)
            .map(|t| (path.clone(), ByteSize::from_mib(10 * (t + 1)), t))
            .collect();
        sim.submit_wave(&wave);
        // Observe right after the activation burst, before completions.
        sim.schedule_timer(SimDuration::from_millis(1.0), 99);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::Timer { token: 99, .. }));
        assert_eq!(sim.fillings(), 1, "one filling for the whole wave");
        assert_eq!(sim.frontier_flows(), 4);
        assert_eq!(sim.draining_flows(), 4);
        assert_eq!(sim.drain().len(), 4);
    }

    #[test]
    fn same_instant_completions_pay_one_refill() {
        // Eight equal transfers in one class drain at one instant:
        // the last completion refills for the whole burst.
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        for t in 0..8 {
            sim.submit_transfer(&path, ByteSize::from_mib(4), t);
        }
        assert_eq!(sim.drain().len(), 8);
        // One filling for the arrivals; the emptied class leaves
        // nothing to fill at the end of the burst.
        assert_eq!(sim.fillings(), 1);
    }

    #[test]
    fn disjoint_components_refill_independently() {
        // Two flows on disjoint ports: each completion's frontier must
        // touch only its own component, so total frontier work stays
        // O(1) per event instead of O(live).
        let c = Cluster::fat_tree(4, 1);
        let mut sim = NetSim::new(&c);
        sim.submit_transfer(
            &c.net_path(InstanceId(0), InstanceId(2)),
            ByteSize::from_mib(64),
            1,
        );
        sim.submit_transfer(
            &c.net_path(InstanceId(3), InstanceId(1)),
            ByteSize::from_mib(32),
            2,
        );
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        // Activation wave: one fill per (single-flow) component; each
        // completion then refills nothing (component empties).
        assert!(
            sim.frontier_flows() <= 4,
            "frontier did not stay local: {}",
            sim.frontier_flows()
        );
    }

    #[test]
    fn drain_queue_holds_one_entry_per_class() {
        // Many members over two classes, with staggered sizes so the
        // heads change at every completion: the drain queue never
        // grows past the number of non-empty classes.
        let c = Cluster::homogeneous_a100(3);
        let mut sim = NetSim::new(&c);
        let p01 = c.net_path(InstanceId(0), InstanceId(1));
        let p21 = c.net_path(InstanceId(2), InstanceId(1));
        for t in 0..32u64 {
            let path = if t % 2 == 0 { &p01 } else { &p21 };
            sim.submit_transfer(path, ByteSize::from_kib(64 + 17 * t), t);
        }
        let mut done = 0;
        while let Some(ev) = sim.step() {
            assert!(matches!(ev, SimEvent::TransferDone { .. }));
            let live = sim.classes.iter().filter(|pc| !pc.members.is_empty());
            assert!(sim.drain.len() <= live.count());
            done += 1;
        }
        assert_eq!(done, 32);
    }

    #[test]
    fn an_emptied_class_rebases_its_progress() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        sim.submit_transfer(&path, ByteSize::from_mib(8), 1);
        let first = sim.step().unwrap().at();
        assert_eq!(sim.classes[0].served, 0.0, "re-based when emptied");
        // A second transfer of the same size starts from `served = 0`
        // and takes as long as the first.
        sim.submit_transfer(&path, ByteSize::from_mib(8), 2);
        let second = sim.step().unwrap().at();
        let (a, b) = (first.as_secs(), second.duration_since(first).as_secs());
        assert!((a - b).abs() <= 1e-12 * a, "{a} vs {b}");
    }

    #[test]
    fn paranoid_refill_matches_frontier_refill() {
        // The exactness contract: treating every live flow as dirty on
        // every event (a from-scratch filling) must reproduce the
        // frontier refill's event stream bit for bit.
        let c = Cluster::fat_tree(6, 1);
        let eg = c.nic_egress_link(InstanceId(0));
        let run = |paranoid: bool| {
            let mut sim = NetSim::new(&c).with_paranoid_refill(paranoid);
            for (i, t) in [(0usize, 1usize), (2, 3), (4, 5), (1, 2)]
                .iter()
                .enumerate()
            {
                sim.submit_transfer(
                    &c.net_path(InstanceId(t.0), InstanceId(t.1)),
                    ByteSize::from_mib(16 + 8 * i as u64),
                    i as Token,
                );
            }
            sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkDown(eg));
            sim.schedule_fault(SimDuration::from_millis(3.0), FaultAction::LinkUp(eg));
            sim.drain()
                .into_iter()
                .map(|e| (e.token(), e.at().as_secs().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn class_members_contend_with_their_full_weight() {
        // Three identical transfers plus one distinct transfer on the
        // same port: the distinct one must see a quarter share, not a
        // half share — a class weighs as many flows as it has members.
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(40);
        for t in 0..3 {
            sim.submit_transfer(&path, size, t);
        }
        sim.submit_transfer(&path, ByteSize::from_mib(10), 9);
        assert_eq!(sim.classes.len(), 1);
        assert_eq!(sim.draining_flows(), 0);
        let evs = sim.drain();
        assert_eq!(evs.len(), 4);
        // Token 9 finishes first: 10 MiB at a 1/4 share of 12.5 GB/s.
        assert_eq!(evs[0].token(), 9);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let t9 = c.path_alpha(&path).as_secs() + ByteSize::from_mib(10).as_f64() / (bw / 4.0);
        assert!(
            (evs[0].at().as_secs() - t9).abs() / t9 < 0.01,
            "got {} want {t9}",
            evs[0].at().as_secs()
        );
    }
}
