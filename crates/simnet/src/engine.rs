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
//! Determinism: a single-threaded binary heap ordered by `(time, seq)`
//! makes every run bit-reproducible.
//!
//! # Scaling
//!
//! The engine is sized for cluster-scale sweeps (512+ instances):
//!
//! * **Flow aggregation** — back-to-back submissions that are byte-for-
//!   byte identical (same links, same size, same instant, no events in
//!   between) merge into one flow carrying several caller tokens. The
//!   merged flow participates in rate allocation with its clone count
//!   as weight and emits one event per token in submission order, so
//!   the observable event stream — times, tokens, ordering — is
//!   bit-identical to the unmerged engine.
//! * **Path classes** — every distinct link list is interned once
//!   into a class table (FNV-1a keyed, append-only) holding its arena
//!   slice and per-flow cap; flows store a class id. Both allocators
//!   run one progressive-filling kernel over classes: a class enters
//!   the filling with the summed clones of its active flows and every
//!   member takes its class's rate. Members cross the same links under
//!   the same cap, so they would take the same deltas and freeze in
//!   the same round; integer counts and order-free `min` folds make
//!   the class filling bit-identical to a per-flow one, at a cost
//!   proportional to classes rather than flows.
//! * **Arena-backed state** — class link lists live in one shared
//!   `Vec`, event payload slots are recycled through a free list, and
//!   the filling scratch (hot/residual/unfrozen sets) is reused across
//!   fillings with generation stamps instead of per-call allocation,
//!   so steady-state stepping allocates nothing.
//! * **Incremental filling** — with
//!   [`with_incremental_allocator`](NetSim::with_incremental_allocator)
//!   the engine stops re-filling the whole fleet on every event.
//!   Links touched by an event join a *dirty frontier*; the refill
//!   walks only the connected components (flows sharing a link,
//!   transitively) reachable from that frontier and recomputes their
//!   rates with the same progressive-filling arithmetic, leaving every
//!   other component's rates — and therefore its scheduled completion
//!   times — bitwise untouched. Flow progress integrates lazily (each
//!   flow carries the instant its residual was last synced), live-set
//!   membership is an intrusive list with O(1) unlink, and per-link
//!   occupancy indices make fault targeting O(flows-on-link). A
//!   synchronized wave of N arrivals pays one frontier refill instead
//!   of N fleet refills. Debug builds cross-check every incremental
//!   refill against a from-scratch filling of all live flows.
use std::cmp::Reverse;
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
    /// A flow clone's α latency elapsed: it joins the fluid phase.
    LatencyDone(usize),
    /// Re-examine flows for completion; stale if version mismatch.
    /// Exact (non-incremental) mode only.
    Completion(u64),
    /// Incremental mode: a specific flow's scheduled drain instant.
    /// Stale if the flow's fill generation moved past the stamp.
    FlowDone(usize, u64),
    /// User timer.
    Timer(Token),
    /// A draining flow clone was aborted by a permanent link failure.
    Aborted(usize),
    /// A scheduled fault fires.
    Fault(FaultAction),
}

#[derive(Debug, Clone)]
struct Flow {
    token: Token,
    /// Tokens of identical same-instant submissions merged into this
    /// flow (aggregation). The flow's *weight* is `1 + extra.len()`.
    extra: Vec<Token>,
    /// The flow's path class (its link list and per-flow cap).
    class: u32,
    /// Start of this flow's occupancy back-pointers in `slot_pos`, one
    /// per link of its class.
    slots: u32,
    /// Per-clone residual bytes (clones are identical, so one value
    /// stands for all of them).
    remaining: f64,
    /// Current allocated per-clone rate in bytes/sec (0 while in the
    /// latency phase).
    rate: f64,
    draining: bool,
    done: bool,
    /// Set when a permanent link failure killed this flow; surfaces as
    /// [`SimEvent::TransferAborted`].
    aborted: bool,
    /// Clones whose latency elapsed and are draining; the flow's weight
    /// in rate allocation.
    active_clones: u32,
    /// Caller tokens already surfaced as events.
    emitted: u32,
    /// Intrusive live-list neighbours (`NONE` when absent); activation
    /// order is preserved, unlink is O(1).
    live_prev: u32,
    live_next: u32,
    /// Occurrences of transiently-down links on this flow's path
    /// (stall bookkeeping; >0 means the flow is stalled at rate zero).
    down_links: u32,
    /// Present in the per-link occupancy index.
    indexed: bool,
    /// Incremental mode: generation stamp of the flow's scheduled
    /// `FlowDone` event; events carrying an older stamp are stale.
    fill_gen: u64,
    /// Incremental mode: the instant `remaining` was last integrated
    /// to (rates are piecewise-constant between refills, so progress
    /// is `rate * (now - synced_at)` exactly).
    synced_at: SimTime,
}

/// Sentinel for absent intrusive-list neighbours.
const NONE: u32 = u32::MAX;

impl Flow {
    fn weight(&self) -> u32 {
        1 + self.extra.len() as u32
    }

    /// Surfaces the next un-emitted caller token, in submission order.
    fn take_token(&mut self) -> Token {
        let i = self.emitted as usize;
        self.emitted += 1;
        if self.emitted >= self.weight() {
            self.done = true;
        }
        if i == 0 {
            self.token
        } else {
            self.extra[i - 1]
        }
    }
}

#[derive(Debug, Clone, Default)]
struct LinkState {
    factor: f64,
    /// Transient availability: a down link stalls its flows.
    up: bool,
    /// Permanent failure: the link never comes back and aborts flows.
    failed: bool,
}

/// A path class: one interned link list. Every flow over the same
/// links shares its class, and with it the per-flow cap, the filling
/// deltas and therefore the allocated rate.
#[derive(Debug, Clone)]
struct PathClass {
    /// Slice of the shared link arena holding the class's links.
    links_start: u32,
    links_len: u32,
    /// Per-flow ceiling from the most restrictive traversed link.
    cap: f64,
    /// Filling stamp: the class takes part in the current filling.
    stamp: u64,
    /// Active clones over all member flows in the current filling.
    weight: usize,
    /// The rate the current filling gives every member flow.
    rate: f64,
}

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

/// The most recent submission, for aggregation of identical
/// back-to-back transfers.
#[derive(Debug, Clone, Copy)]
struct LastSubmit {
    flow: usize,
    /// Event sequence number right after the submission: any push in
    /// between (timer, fault, reallocation) advances it and kills the
    /// merge window.
    seq: u64,
    at: SimTime,
    alpha: SimDuration,
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
    queue: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    payloads: Vec<Option<Internal>>,
    /// Payload slots freed by popped events, recycled by `push`.
    free_pids: Vec<u64>,
    flows: Vec<Flow>,
    /// Append-only path-class table; classes are never removed.
    classes: Vec<PathClass>,
    /// Link list -> its class.
    class_index: HashMap<Box<[LinkId]>, u32, BuildHasherDefault<Fnv>>,
    /// Classes taking part in the current filling, in first-seen order.
    filled: Vec<u32>,
    /// Shared arena backing every class's link list.
    class_links: Vec<LinkId>,
    /// Head/tail of the intrusive live list (flows in the fluid
    /// phase), threaded through `Flow::live_prev`/`live_next` in
    /// activation order; membership changes are O(1).
    live_head: u32,
    live_tail: u32,
    live_len: usize,
    links: Vec<LinkState>,
    /// Per-link occupancy index: `(flow, slot)` for every flow whose
    /// path crosses the link, from submission until done/aborted.
    /// `slot` names the occurrence inside the flow's link slice so
    /// swap-removal can fix back-pointers in O(1).
    link_flows: Vec<Vec<(u32, u32)>>,
    /// Per flow and per link of its class (from `Flow::slots`): the
    /// position of that occupancy entry inside its link's `link_flows`
    /// vector.
    slot_pos: Vec<u32>,
    /// Counter-backed `draining_flows()` (clones of draining flows).
    draining_clones: usize,
    /// Counter-backed `stalled_flows()` (clones of draining flows
    /// crossing at least one down link).
    stalled_clones: usize,
    /// Frontier-based refills instead of fleet-wide fillings.
    incremental: bool,
    /// Test hook: every refill treats all live flows as dirty, so the
    /// event stream doubles as a from-scratch filling reference.
    paranoid: bool,
    /// Inside the debug cross-check: suppress counters and turn rate
    /// divergence into a panic.
    checking: bool,
    /// Number of filling passes executed (one per dirty component in
    /// incremental mode, one per `reallocate` in exact mode).
    fillings: u64,
    /// Total flows touched by filling passes (the frontier size).
    frontier_flows: u64,
    /// Links dirtied since the last refill, deduplicated by epoch.
    dirty_links: Vec<usize>,
    dirty_stamp: Vec<u64>,
    dirty_epoch: u64,
    /// BFS visit stamps for component discovery.
    visit_link_stamp: Vec<u64>,
    visit_flow_stamp: Vec<u64>,
    comp_links: Vec<usize>,
    comp_flows: Vec<usize>,
    completion_version: u64,
    last_advance: SimTime,
    last_submit: Option<LastSubmit>,
    /// Total internal events processed (engine throughput metric).
    events: u64,
    // Reusable filling scratch: no steady-state allocation.
    scratch_hot: Vec<usize>,
    scratch_residual: Vec<f64>,
    /// Saturation threshold of each hot link, parallel to the residuals.
    scratch_sat: Vec<f64>,
    scratch_counts: Vec<usize>,
    scratch_unfrozen: Vec<u32>,
    /// Generation stamps deduplicating the hot link set without a sort.
    hot_stamp: Vec<u64>,
    stamp: u64,
    /// Dense link-id -> hot-set position map; only positions of links
    /// in the current hot set are ever read.
    link_pos: Vec<u32>,
    telemetry: Telemetry,
}

impl<'c> NetSim<'c> {
    /// Creates an idle simulator at time zero over the given cluster.
    pub fn new(cluster: &'c Cluster) -> Self {
        NetSim {
            cluster,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            free_pids: Vec::new(),
            flows: Vec::new(),
            classes: Vec::new(),
            class_index: HashMap::default(),
            filled: Vec::new(),
            class_links: Vec::new(),
            live_head: NONE,
            live_tail: NONE,
            live_len: 0,
            link_flows: vec![Vec::new(); cluster.links().len()],
            slot_pos: Vec::new(),
            draining_clones: 0,
            stalled_clones: 0,
            incremental: false,
            paranoid: false,
            checking: false,
            fillings: 0,
            frontier_flows: 0,
            dirty_links: Vec::new(),
            dirty_stamp: vec![0; cluster.links().len()],
            dirty_epoch: 1,
            visit_link_stamp: vec![0; cluster.links().len()],
            visit_flow_stamp: Vec::new(),
            comp_links: Vec::new(),
            comp_flows: Vec::new(),
            links: vec![
                LinkState {
                    factor: 1.0,
                    up: true,
                    failed: false,
                };
                cluster.links().len()
            ],
            completion_version: 0,
            last_advance: SimTime::ZERO,
            last_submit: None,
            events: 0,
            scratch_hot: Vec::new(),
            scratch_residual: Vec::new(),
            scratch_sat: Vec::new(),
            scratch_counts: Vec::new(),
            scratch_unfrozen: Vec::new(),
            hot_stamp: vec![0; cluster.links().len()],
            stamp: 0,
            link_pos: vec![0; cluster.links().len()],
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink: subsequent submissions bump the
    /// `simnet.transfers` / `simnet.bytes_submitted` counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Enables (or disables) the incremental, locality-aware allocator.
    ///
    /// Instead of re-running the fleet-wide progressive filling on
    /// every arrival/completion/fault, the engine accumulates the
    /// links touched by each event into a *dirty frontier* and refills
    /// only the connected flow components reachable from it — the same
    /// filling arithmetic, scoped to the flows whose share can
    /// actually change. Per-event cost becomes proportional to the
    /// touched component, so disjoint traffic (the common cluster
    /// pattern) completes in O(1) per event instead of O(live).
    ///
    /// Completion *times* for a given scenario are deterministic but
    /// not bit-identical to the exact engine: the exact mode couples
    /// disjoint components through a global filling-delta sequence and
    /// integrates progress eagerly at every event, while incremental
    /// mode fills per component and integrates lazily. Differences are
    /// f64-rounding-scale. Golden-traced small fleets therefore keep
    /// the exact engine; the executor switches incremental on at
    /// cluster scale.
    ///
    /// Must be selected before the first submission.
    pub fn with_incremental_allocator(mut self, on: bool) -> Self {
        assert!(
            self.flows.is_empty(),
            "allocator mode must be chosen before the first submission"
        );
        self.incremental = on;
        self
    }

    /// Test/verification hook: every incremental refill marks *all*
    /// live flows dirty, degenerating to a from-scratch per-component
    /// filling after every event. A correct frontier produces a
    /// bit-identical event stream with this on or off — that is the
    /// incremental allocator's exactness contract (see the proptests).
    pub fn with_paranoid_refill(mut self, on: bool) -> Self {
        self.paranoid = on;
        self
    }

    /// Whether the incremental allocator is active.
    pub fn incremental_allocator(&self) -> bool {
        self.incremental
    }

    /// Filling passes executed so far (per dirty component in
    /// incremental mode, per `reallocate` in exact mode).
    pub fn fillings(&self) -> u64 {
        self.fillings
    }

    /// Total flows touched by filling passes so far — the work metric
    /// the incremental allocator minimizes.
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

    /// Arena range of a flow's links (its class's link list).
    fn links_range(&self, id: usize) -> Range<usize> {
        let c = &self.classes[self.flows[id].class as usize];
        c.links_start as usize..(c.links_start + c.links_len) as usize
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
            cap: links
                .iter()
                .filter_map(|l| self.cluster.link(*l).per_flow_cap)
                .map(|b| b.as_bytes_per_sec())
                .fold(f64::INFINITY, f64::min),
            stamp: 0,
            weight: 0,
            rate: 0.0,
        });
        self.class_links.extend_from_slice(links);
        id
    }

    /// Submits a transfer of `size` bytes along `path`; a
    /// [`SimEvent::TransferDone`] with `token` fires on completion.
    ///
    /// The path's total α (link alphas + extra) elapses first; the flow
    /// then drains at its max-min allocated rate.
    ///
    /// Identical submissions arriving back-to-back at the same instant
    /// merge into one weighted flow (see the module docs); each still
    /// gets its own completion event at the same time the unmerged
    /// engine would have produced.
    pub fn submit_transfer(&mut self, path: &Path, size: ByteSize, token: Token) {
        // A path over an already-failed link aborts after its latency
        // elapses (the sender learns of the failure one round-trip in).
        let dead = path.links.iter().any(|l| self.links[l.0].failed);
        self.telemetry.add_counter("simnet.transfers", 1.0);
        self.telemetry
            .add_counter("simnet.bytes_submitted", size.as_f64());
        let alpha = self.cluster.path_alpha(path);
        let class = self.intern_class(&path.links);
        if let Some(last) = self.last_submit {
            // Merge only when nothing happened since the previous
            // submission (seq unchanged), at the same instant, and the
            // transfer is byte-for-byte identical — then the merged
            // clone is observationally indistinguishable.
            if last.seq == self.seq && last.at == self.now && last.alpha == alpha {
                let same = {
                    let f = &self.flows[last.flow];
                    f.remaining.to_bits() == size.as_f64().to_bits()
                        && f.aborted == dead
                        && !f.done
                        && f.active_clones == 0
                        && f.emitted == 0
                        && f.class == class
                };
                if same {
                    let id = last.flow;
                    self.flows[id].extra.push(token);
                    self.push(self.now + alpha, Internal::LatencyDone(id));
                    self.last_submit = Some(LastSubmit {
                        flow: id,
                        seq: self.seq,
                        at: self.now,
                        alpha,
                    });
                    return;
                }
            }
        }
        let slots = self.slot_pos.len();
        self.slot_pos.resize(slots + path.links.len(), 0);
        self.flows.push(Flow {
            token,
            extra: Vec::new(),
            class,
            slots: slots as u32,
            remaining: size.as_f64(),
            rate: 0.0,
            draining: false,
            done: false,
            aborted: dead,
            active_clones: 0,
            emitted: 0,
            live_prev: NONE,
            live_next: NONE,
            down_links: 0,
            indexed: false,
            fill_gen: 0,
            synced_at: self.now,
        });
        let id = self.flows.len() - 1;
        // Dead-at-birth flows (submitted over a failed link) never
        // contend for bandwidth and are never fault victims — exactly
        // the set the occupancy index must cover.
        if !dead {
            self.index_flow(id);
        }
        self.push(self.now + alpha, Internal::LatencyDone(id));
        self.last_submit = Some(LastSubmit {
            flow: id,
            seq: self.seq,
            at: self.now,
            alpha,
        });
    }

    /// Submits a wave of transfers at the current instant.
    ///
    /// Equivalent to calling [`submit_transfer`](Self::submit_transfer)
    /// for each element; spelled out because same-instant submissions
    /// are the engine's batch path — their activations land
    /// back-to-back on the queue, the per-activation filling is
    /// deferred to the last one, and the whole wave pays a single
    /// filling (one frontier refill in incremental mode) instead of
    /// one per transfer.
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
        if self.incremental {
            self.links[link.0].factor = factor;
            self.mark_link_dirty(link.0);
            self.refill();
        } else {
            self.advance_flows();
            self.links[link.0].factor = factor;
            self.reallocate();
        }
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
        if self.incremental {
            self.links[link.0].up = up;
            self.note_link_transition(link.0, up);
            self.mark_link_dirty(link.0);
            self.refill();
        } else {
            self.advance_flows();
            self.links[link.0].up = up;
            self.note_link_transition(link.0, up);
            self.reallocate();
        }
    }

    /// Permanently fails a link: every unfinished flow crossing it is
    /// aborted (a [`SimEvent::TransferAborted`] fires per flow) and any
    /// later submission over it aborts after its path latency. Failed
    /// links never come back up.
    pub fn fail_link(&mut self, link: LinkId) {
        if self.links[link.0].failed {
            return;
        }
        if !self.incremental {
            self.advance_flows();
        }
        let was_up = self.links[link.0].up;
        self.links[link.0].failed = true;
        self.links[link.0].up = false;
        if was_up {
            self.note_link_transition(link.0, false);
        }
        // Victims come straight off the per-link occupancy index
        // (every not-done, not-aborted flow crossing the link);
        // ascending flow id matches the old full-scan order exactly.
        let mut victims: Vec<usize> = self.link_flows[link.0]
            .iter()
            .map(|&(f, _)| f as usize)
            .collect();
        victims.sort_unstable();
        victims.dedup();
        for id in victims {
            self.abort_flow(id);
        }
        if self.incremental {
            self.mark_link_dirty(link.0);
            self.refill();
        } else {
            self.reallocate();
        }
    }

    /// Repairs a permanently failed link: the failure flag clears and
    /// the link comes back up, so later submissions drain normally.
    /// Flows already aborted by the failure stay aborted — recovery is
    /// not retroactive. No effect on a link that never failed.
    pub fn recover_link(&mut self, link: LinkId) {
        if !self.links[link.0].failed {
            return;
        }
        if self.incremental {
            self.links[link.0].failed = false;
            self.links[link.0].up = true;
            self.note_link_transition(link.0, true);
            self.mark_link_dirty(link.0);
            self.refill();
        } else {
            self.advance_flows();
            self.links[link.0].failed = false;
            self.links[link.0].up = true;
            self.note_link_transition(link.0, true);
            self.reallocate();
        }
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

    fn abort_flow(&mut self, id: usize) {
        let f = &mut self.flows[id];
        f.aborted = true;
        if f.draining {
            f.draining = false;
            f.done = true;
            f.fill_gen += 1;
            let clones = f.active_clones;
            f.active_clones = 0;
            self.draining_clones -= clones as usize;
            if self.flows[id].down_links > 0 {
                self.stalled_clones -= clones as usize;
            }
            self.live_unlink(id);
            if self.incremental {
                self.mark_flow_links_dirty(id);
            }
            // One abort event per merged clone, in submission order —
            // exactly what separate flows would have produced.
            for _ in 0..clones {
                self.push(self.now, Internal::Aborted(id));
            }
        }
        // A latency-phase flow keeps its pending LatencyDone event(s),
        // which convert into the abort(s) when they fire.
        self.unindex_flow(id);
    }

    /// Number of flows currently in the fluid phase (draining), with
    /// merged flows counting once per clone. Counter-backed: O(1).
    pub fn draining_flows(&self) -> usize {
        self.draining_clones
    }

    /// Number of draining flows currently stalled behind a down link,
    /// with merged flows counting once per clone. Counter-backed: O(1).
    pub fn stalled_flows(&self) -> usize {
        self.stalled_clones
    }

    /// Advances the simulation to the next user-visible event and
    /// returns it, or `None` when nothing is pending.
    pub fn step(&mut self) -> Option<SimEvent> {
        loop {
            let Reverse((t, _, pid)) = self.queue.pop()?;
            let payload = self.payloads[pid as usize]
                .take()
                .expect("event payload consumed twice");
            self.free_pids.push(pid);
            self.events += 1;
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            match payload {
                Internal::Timer(token) => {
                    return Some(SimEvent::Timer { token, at: t });
                }
                Internal::LatencyDone(id) => {
                    if !self.incremental {
                        self.advance_flows();
                    }
                    let flow = &mut self.flows[id];
                    if flow.aborted {
                        let token = flow.take_token();
                        if self.flows[id].done {
                            self.unindex_flow(id);
                        }
                        return Some(SimEvent::TransferAborted { token, at: t });
                    }
                    if flow.remaining <= EPS_BYTES {
                        // Zero-byte transfer: completes right after latency.
                        let token = flow.take_token();
                        if self.flows[id].done {
                            self.unindex_flow(id);
                        }
                        return Some(SimEvent::TransferDone { token, at: t });
                    }
                    flow.draining = true;
                    flow.active_clones += 1;
                    self.draining_clones += 1;
                    if self.flows[id].active_clones == 1 {
                        // First clone: the flow joins the live list and
                        // learns how many of its links are down.
                        let down = self.class_links[self.links_range(id)]
                            .iter()
                            .filter(|l| !self.links[l.0].up)
                            .count() as u32;
                        let f = &mut self.flows[id];
                        f.down_links = down;
                        f.rate = 0.0;
                        f.synced_at = t;
                        f.fill_gen += 1;
                        self.live_push_back(id);
                    }
                    if self.flows[id].down_links > 0 {
                        self.stalled_clones += 1;
                    } else if self.incremental {
                        self.mark_flow_links_dirty(id);
                    }
                    if self.next_is_same_instant_activation() {
                        // A same-instant activation follows immediately
                        // and nothing reads rates before it recomputes
                        // them, so this filling would be thrown away.
                        // Skip it: a synchronized wave of arrivals then
                        // pays for one filling instead of one per
                        // transfer (the frontier keeps accumulating in
                        // incremental mode). The exact engine mimics
                        // the skipped filling's bookkeeping — the
                        // stale-marking version bump and one sequence
                        // step for the completion push it replaces —
                        // to stay bit-identical with its history.
                        if !self.incremental {
                            self.completion_version += 1;
                            self.seq += 1;
                        }
                    } else if self.incremental {
                        self.refill();
                    } else {
                        self.reallocate();
                    }
                }
                Internal::FlowDone(id, gen) => {
                    // Incremental mode: a per-flow drain instant.
                    debug_assert!(self.incremental);
                    {
                        let f = &self.flows[id];
                        if !f.draining || f.fill_gen != gen {
                            continue; // stale (refilled, stalled, aborted)
                        }
                    }
                    self.sync_flow(id);
                    if self.flows[id].remaining > EPS_BYTES {
                        // Numerical guard: not actually drained yet —
                        // integrate and reschedule at the residual.
                        let f = &mut self.flows[id];
                        if f.rate > 0.0 {
                            let dt = SimDuration::from_secs((f.remaining / f.rate).max(0.0));
                            let gen = f.fill_gen;
                            self.push(t + dt, Internal::FlowDone(id, gen));
                        }
                        continue;
                    }
                    let flow = &mut self.flows[id];
                    let token = flow.take_token();
                    flow.active_clones -= 1;
                    self.draining_clones -= 1;
                    if self.flows[id].down_links > 0 {
                        // A drained flow completes even while stalled.
                        self.stalled_clones -= 1;
                    }
                    if self.flows[id].active_clones == 0 {
                        self.flows[id].draining = false;
                        self.live_unlink(id);
                        if self.flows[id].done {
                            self.unindex_flow(id);
                        }
                    } else {
                        // Remaining merged clones finish at this same
                        // instant. The refill below re-stamps the event
                        // whenever the per-clone rate moves; this push
                        // covers the cap-bound case where it does not.
                        let f = &mut self.flows[id];
                        f.fill_gen += 1;
                        let gen = f.fill_gen;
                        self.push(t, Internal::FlowDone(id, gen));
                    }
                    self.mark_flow_links_dirty(id);
                    self.refill();
                    return Some(SimEvent::TransferDone { token, at: t });
                }
                Internal::Completion(version) => {
                    if version != self.completion_version {
                        continue; // stale schedule
                    }
                    self.advance_flows();
                    if let Some(ev) = self.harvest_one() {
                        return Some(ev);
                    }
                    self.reallocate();
                }
                Internal::Aborted(id) => {
                    let token = self.flows[id].take_token();
                    return Some(SimEvent::TransferAborted { token, at: t });
                }
                Internal::Fault(action) => {
                    // Silent: apply and keep looking for a user event.
                    self.apply_fault(action);
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

    fn push(&mut self, at: SimTime, payload: Internal) {
        let pid = match self.free_pids.pop() {
            Some(pid) => {
                self.payloads[pid as usize] = Some(payload);
                pid
            }
            None => {
                self.payloads.push(Some(payload));
                (self.payloads.len() - 1) as u64
            }
        };
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, pid)));
    }

    /// True when the next queued event is an *activation*: a
    /// LatencyDone at the current instant for a flow that will actually
    /// join the fluid phase (not aborted, not zero-byte). Rates
    /// recomputed now would be overwritten by that activation before
    /// any time passes or any caller code runs, so the current handler
    /// may skip its own filling.
    fn next_is_same_instant_activation(&self) -> bool {
        let Some(&Reverse((t, _, pid))) = self.queue.peek() else {
            return false;
        };
        if t != self.now {
            return false;
        }
        match self.payloads[pid as usize] {
            Some(Internal::LatencyDone(id)) => {
                let f = &self.flows[id];
                !f.aborted && f.remaining > EPS_BYTES
            }
            _ => false,
        }
    }

    /// Integrates flow progress from `last_advance` to `now` (exact
    /// mode; incremental mode integrates lazily per flow).
    fn advance_flows(&mut self) {
        let dt = self.now.duration_since(self.last_advance).as_secs();
        if dt > 0.0 {
            let mut cur = self.live_head;
            while cur != NONE {
                let f = &mut self.flows[cur as usize];
                cur = f.live_next;
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.last_advance = self.now;
    }

    /// First live flow (in activation order) that has drained.
    fn first_drained_live(&self) -> Option<usize> {
        let mut cur = self.live_head;
        while cur != NONE {
            let f = &self.flows[cur as usize];
            if f.remaining <= EPS_BYTES {
                return Some(cur as usize);
            }
            cur = f.live_next;
        }
        None
    }

    /// Completes one finished flow clone, if any (one at a time so
    /// every completion surfaces as its own event; a Completion event
    /// is rescheduled at the same instant for simultaneous finishers).
    fn harvest_one(&mut self) -> Option<SimEvent> {
        let id = self.first_drained_live()?;
        let flow = &mut self.flows[id];
        let token = flow.take_token();
        flow.active_clones -= 1;
        self.draining_clones -= 1;
        if self.flows[id].down_links > 0 {
            self.stalled_clones -= 1;
        }
        if self.flows[id].active_clones == 0 {
            self.flows[id].draining = false;
            self.live_unlink(id);
        }
        if self.flows[id].done {
            self.unindex_flow(id);
        }
        self.reallocate();
        Some(SimEvent::TransferDone {
            token,
            at: self.now,
        })
    }

    /// Exact-mode filling: every unstalled live flow enters one
    /// class filling, then every live flow takes its rate and the next
    /// completion is scheduled. Two walks of the live list in all: one
    /// to enlist the active flows, one to assign rates and find the
    /// earliest drain.
    fn reallocate(&mut self) {
        // Flows crossing a down link stall at rate zero and take no part
        // in the filling; they resume when the link comes back up.
        self.begin_filling();
        let mut active = 0;
        let mut cur = self.live_head;
        while cur != NONE {
            let i = cur as usize;
            cur = self.flows[i].live_next;
            if self.flows[i].down_links == 0 {
                self.enlist(i);
                active += 1;
            }
        }
        if active > 0 {
            self.fill_classes(active);
        }
        // Next completion: earliest remaining/rate among draining flows
        // (stalled flows have rate 0 and only count if already drained).
        let mut next: Option<SimDuration> = None;
        let mut cur = self.live_head;
        while cur != NONE {
            let f = &mut self.flows[cur as usize];
            cur = f.live_next;
            f.rate = if f.down_links == 0 {
                self.classes[f.class as usize].rate
            } else {
                0.0
            };
            if f.rate > 0.0 {
                let dt = SimDuration::from_secs((f.remaining / f.rate).max(0.0));
                next = Some(match next {
                    Some(cur) if cur <= dt => cur,
                    _ => dt,
                });
            } else if f.remaining <= EPS_BYTES {
                next = Some(SimDuration::ZERO);
            }
        }
        self.bump_completion_schedule(next);
    }

    /// Starts assembling a filling: no class is enlisted yet.
    fn begin_filling(&mut self) {
        self.stamp += 1;
        self.filled.clear();
    }

    /// Adds an active flow to the filling being assembled: its class
    /// joins on first sight and gains the flow's clones as weight.
    fn enlist(&mut self, id: usize) {
        let f = &self.flows[id];
        let c = &mut self.classes[f.class as usize];
        if c.stamp != self.stamp {
            c.stamp = self.stamp;
            c.weight = 0;
            self.filled.push(f.class);
        }
        c.weight += f.active_clones as usize;
    }

    /// The progressive-filling (max-min) kernel, shared by both
    /// allocators. It fills the enlisted classes, not their flows:
    /// members of a class cross the same links under the same cap, so
    /// they would take the same delta in every round and freeze in the
    /// same round. A class enters each link's count with the summed
    /// clones of its active members, which is the same integer the
    /// flows would add one by one, and every `min` fold below is
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
            pc.rate = 0.0;
            let start = pc.links_start as usize;
            for l in &self.class_links[start..start + pc.links_len as usize] {
                let li = l.0;
                if self.hot_stamp[li] != stamp {
                    self.hot_stamp[li] = stamp;
                    self.link_pos[li] = hot.len() as u32;
                    hot.push(li);
                    let cap = self.cluster.links()[li].capacity.as_bytes_per_sec()
                        * self.links[li].factor;
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
        let (classes, arena, pos) = (&mut self.classes, &self.class_links, &self.link_pos);
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
                    counts[pos[l.0] as usize] += pc.weight;
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
                delta = delta.min(pc.cap - pc.rate);
            }
            if !delta.is_finite() || delta < 0.0 {
                break;
            }
            for &c in &unfrozen {
                classes[c as usize].rate += delta;
            }
            for (k, &n) in counts.iter().enumerate() {
                residual[k] -= delta * n as f64;
            }
            // Freeze classes on a saturated link or at their cap; if
            // none froze, the numerical stall guard freezes them all.
            let before = unfrozen.len();
            unfrozen.retain(|&c| {
                let pc = &classes[c as usize];
                let at_cap = pc.rate >= pc.cap - (pc.cap * 1e-9).max(1e-6);
                let on_sat = links(pc).iter().any(|l| {
                    let k = pos[l.0] as usize;
                    residual[k] <= sat[k]
                });
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

    fn bump_completion_schedule(&mut self, after: Option<SimDuration>) {
        self.completion_version += 1;
        if let Some(d) = after {
            let v = self.completion_version;
            self.push(self.now + d, Internal::Completion(v));
        }
    }

    // ---- intrusive live list ----

    fn live_push_back(&mut self, id: usize) {
        let id32 = id as u32;
        let prev = self.live_tail;
        {
            let f = &mut self.flows[id];
            f.live_prev = prev;
            f.live_next = NONE;
        }
        if prev == NONE {
            self.live_head = id32;
        } else {
            self.flows[prev as usize].live_next = id32;
        }
        self.live_tail = id32;
        self.live_len += 1;
    }

    fn live_unlink(&mut self, id: usize) {
        let (prev, next) = {
            let f = &self.flows[id];
            (f.live_prev, f.live_next)
        };
        if prev == NONE {
            self.live_head = next;
        } else {
            self.flows[prev as usize].live_next = next;
        }
        if next == NONE {
            self.live_tail = prev;
        } else {
            self.flows[next as usize].live_prev = prev;
        }
        let f = &mut self.flows[id];
        f.live_prev = NONE;
        f.live_next = NONE;
        self.live_len -= 1;
    }

    // ---- per-link occupancy index ----

    fn index_flow(&mut self, id: usize) {
        let slots = self.flows[id].slots as usize;
        for (j, k) in self.links_range(id).enumerate() {
            let li = self.class_links[k].0;
            self.slot_pos[slots + j] = self.link_flows[li].len() as u32;
            self.link_flows[li].push((id as u32, j as u32));
        }
        self.flows[id].indexed = true;
    }

    fn unindex_flow(&mut self, id: usize) {
        if !self.flows[id].indexed {
            return;
        }
        self.flows[id].indexed = false;
        let slots = self.flows[id].slots as usize;
        for (j, k) in self.links_range(id).enumerate() {
            let li = self.class_links[k].0;
            let pos = self.slot_pos[slots + j] as usize;
            let last = self.link_flows[li].pop().expect("occupancy entry present");
            if pos < self.link_flows[li].len() {
                // Swap-remove: fix the moved entry's back-pointer.
                self.link_flows[li][pos] = last;
                let (mf, ms) = last;
                let mslots = self.flows[mf as usize].slots as usize;
                self.slot_pos[mslots + ms as usize] = pos as u32;
            }
        }
    }

    // ---- stall bookkeeping shared by both modes ----

    /// Updates per-flow down-link counters (and the stalled counter)
    /// after `link`'s transient availability flipped to `up`. In
    /// incremental mode this is also where stalling flows give their
    /// rate back (syncing their residual first) and where unstalling
    /// flows join the dirty frontier.
    fn note_link_transition(&mut self, li: usize, up: bool) {
        let mut ei = 0;
        while ei < self.link_flows[li].len() {
            let (fid, _) = self.link_flows[li][ei];
            ei += 1;
            let fid = fid as usize;
            if !self.flows[fid].draining {
                continue;
            }
            if up {
                self.flows[fid].down_links -= 1;
                if self.flows[fid].down_links == 0 {
                    self.stalled_clones -= self.flows[fid].active_clones as usize;
                    if self.incremental {
                        // Unstall: the refill assigns a fresh rate and
                        // schedules the completion.
                        self.mark_flow_links_dirty(fid);
                    }
                }
            } else {
                self.flows[fid].down_links += 1;
                if self.flows[fid].down_links == 1 {
                    self.stalled_clones += self.flows[fid].active_clones as usize;
                    if self.incremental {
                        self.sync_flow(fid);
                        let f = &mut self.flows[fid];
                        f.rate = 0.0;
                        f.fill_gen += 1;
                        let gen = f.fill_gen;
                        let drained = f.remaining <= EPS_BYTES;
                        if drained {
                            // Already-drained flows complete even while
                            // stalled (matches the exact engine).
                            self.push(self.now, Internal::FlowDone(fid, gen));
                        }
                        // Its departure frees share for its neighbours.
                        self.mark_flow_links_dirty(fid);
                    }
                }
            }
        }
    }

    // ---- incremental allocator ----

    /// Integrates one flow's residual up to `now` at its current rate.
    fn sync_flow(&mut self, id: usize) {
        let now = self.now;
        let f = &mut self.flows[id];
        let dt = now.duration_since(f.synced_at).as_secs();
        if dt > 0.0 && f.rate > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        f.synced_at = now;
    }

    fn mark_link_dirty(&mut self, li: usize) {
        if self.dirty_stamp[li] != self.dirty_epoch {
            self.dirty_stamp[li] = self.dirty_epoch;
            self.dirty_links.push(li);
        }
    }

    fn mark_flow_links_dirty(&mut self, id: usize) {
        for k in self.links_range(id) {
            let li = self.class_links[k].0;
            self.mark_link_dirty(li);
        }
    }

    fn mark_all_live_dirty(&mut self) {
        let mut cur = self.live_head;
        while cur != NONE {
            let i = cur as usize;
            cur = self.flows[i].live_next;
            self.mark_flow_links_dirty(i);
        }
    }

    /// Incremental-mode filling entry: refills every connected flow
    /// component reachable from the accumulated dirty links. In debug
    /// builds, cross-checks the result against a from-scratch refill
    /// of every live component (the paranoid reference): any rate-bit
    /// divergence panics.
    fn refill(&mut self) {
        debug_assert!(self.incremental);
        if self.paranoid {
            self.mark_all_live_dirty();
        }
        self.refill_dirty();
        #[cfg(debug_assertions)]
        {
            if !self.paranoid && !self.checking {
                self.checking = true;
                self.mark_all_live_dirty();
                self.refill_dirty();
                self.checking = false;
                debug_assert_eq!(
                    self.draining_clones,
                    self.flows
                        .iter()
                        .filter(|f| f.draining)
                        .map(|f| f.active_clones as usize)
                        .sum::<usize>(),
                    "draining counter out of sync"
                );
                debug_assert_eq!(
                    self.stalled_clones,
                    self.flows
                        .iter()
                        .filter(|f| f.draining && f.down_links > 0)
                        .map(|f| f.active_clones as usize)
                        .sum::<usize>(),
                    "stalled counter out of sync"
                );
            }
        }
    }

    /// Walks the dirty frontier: discovers each touched connected
    /// component over the link<->flow bipartite graph (stalled flows
    /// excluded — they hold no rate) and refills it.
    fn refill_dirty(&mut self) {
        if self.dirty_links.is_empty() {
            return;
        }
        if self.visit_flow_stamp.len() < self.flows.len() {
            self.visit_flow_stamp.resize(self.flows.len(), 0);
        }
        self.stamp += 1;
        let vstamp = self.stamp;
        let dirty = std::mem::take(&mut self.dirty_links);
        for &seed in &dirty {
            if self.visit_link_stamp[seed] == vstamp {
                continue; // already swept into an earlier component
            }
            self.visit_link_stamp[seed] = vstamp;
            let mut comp_links = std::mem::take(&mut self.comp_links);
            let mut comp_flows = std::mem::take(&mut self.comp_flows);
            comp_links.clear();
            comp_flows.clear();
            comp_links.push(seed);
            self.begin_filling();
            let mut qi = 0;
            while qi < comp_links.len() {
                let l = comp_links[qi];
                qi += 1;
                let mut ei = 0;
                while ei < self.link_flows[l].len() {
                    let (fid, _) = self.link_flows[l][ei];
                    ei += 1;
                    let fid = fid as usize;
                    if self.visit_flow_stamp[fid] == vstamp {
                        continue;
                    }
                    let f = &self.flows[fid];
                    if !f.draining || f.down_links > 0 {
                        continue;
                    }
                    self.visit_flow_stamp[fid] = vstamp;
                    comp_flows.push(fid);
                    self.enlist(fid);
                    for k in self.links_range(fid) {
                        let li = self.class_links[k].0;
                        if self.visit_link_stamp[li] != vstamp {
                            self.visit_link_stamp[li] = vstamp;
                            comp_links.push(li);
                        }
                    }
                }
            }
            self.comp_links = comp_links;
            self.comp_flows = comp_flows;
            if !self.comp_flows.is_empty() {
                self.fill_component();
            }
        }
        self.dirty_links = dirty;
        self.dirty_links.clear();
        self.dirty_epoch += 1;
    }

    /// Refills one connected component (`self.comp_flows`, whose
    /// classes were enlisted during discovery) with the class kernel,
    /// then (re)schedules completion events for every flow whose rate
    /// bits moved. Rates of flows outside the component are untouched
    /// by construction, which is what makes the frontier refill
    /// bit-identical to a from-scratch per-component recompute.
    fn fill_component(&mut self) {
        let comp = std::mem::take(&mut self.comp_flows);
        self.fill_classes(comp.len());
        // Only flows whose rate bits moved need a resync and a fresh
        // FlowDone — everything else keeps its already-scheduled
        // instant, bit for bit.
        let now = self.now;
        for &f in &comp {
            let fl = &mut self.flows[f];
            let (old, new) = (fl.rate, self.classes[fl.class as usize].rate);
            if new.to_bits() == old.to_bits() {
                continue;
            }
            assert!(
                !self.checking,
                "incremental filling diverged from full recompute: \
                 flow {f} rate {new:e} (expected {old:e})"
            );
            let dt = now.duration_since(fl.synced_at).as_secs();
            if dt > 0.0 && old > 0.0 {
                fl.remaining = (fl.remaining - old * dt).max(0.0);
            }
            fl.rate = new;
            fl.synced_at = now;
            fl.fill_gen += 1;
            let gen = fl.fill_gen;
            if new > 0.0 {
                let dt_done = SimDuration::from_secs((fl.remaining / new).max(0.0));
                self.push(now + dt_done, Internal::FlowDone(f, gen));
            } else if fl.remaining <= EPS_BYTES {
                self.push(now, Internal::FlowDone(f, gen));
            }
        }
        self.comp_flows = comp;
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
    fn identical_submissions_merge_into_one_flow() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(100);
        for t in 0..4 {
            sim.submit_transfer(&path, size, t);
        }
        // One merged flow carries all four tokens...
        assert_eq!(sim.flows.len(), 1);
        assert_eq!(sim.flows[0].weight(), 4);
        let evs = sim.drain();
        // ...but each submission still gets its own event, in order,
        // at the time four separate equal-share flows would finish.
        assert_eq!(evs.len(), 4);
        let tokens: Vec<u64> = evs.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![0, 1, 2, 3]);
        let bw = Bandwidth::from_gbps(100.0).as_bytes_per_sec();
        let expect = c.path_alpha(&path).as_secs() + 4.0 * size.as_f64() / bw;
        for e in &evs {
            assert!(
                (e.at().as_secs() - expect).abs() / expect < 0.01,
                "got {} want {expect}",
                e.at().as_secs()
            );
        }
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn merge_requires_an_identical_back_to_back_submission() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let rev = c.net_path(InstanceId(1), InstanceId(0));
        // Different size: no merge.
        sim.submit_transfer(&path, ByteSize::from_mib(10), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(20), 2);
        assert_eq!(sim.flows.len(), 2);
        // Different path: no merge.
        sim.submit_transfer(&rev, ByteSize::from_mib(20), 3);
        assert_eq!(sim.flows.len(), 3);
        // An intervening event (timer push) kills the window.
        sim.submit_transfer(&path, ByteSize::from_mib(20), 4);
        sim.schedule_timer(SimDuration::from_secs(100.0), 9);
        sim.submit_transfer(&path, ByteSize::from_mib(20), 5);
        assert_eq!(sim.flows.len(), 5);
        // Interleaving resets the batch: A A B A is three flows + one
        // merge, never a merge across B.
        let mut sim2 = NetSim::new(&c);
        sim2.submit_transfer(&path, ByteSize::from_mib(8), 1);
        sim2.submit_transfer(&path, ByteSize::from_mib(8), 2);
        sim2.submit_transfer(&rev, ByteSize::from_mib(8), 3);
        sim2.submit_transfer(&path, ByteSize::from_mib(8), 4);
        assert_eq!(sim2.flows.len(), 3);
    }

    #[test]
    fn merged_flows_abort_per_token() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
        sim.submit_transfer(&path, ByteSize::from_mib(100), 2);
        assert_eq!(sim.flows.len(), 1);
        sim.schedule_fault(SimDuration::from_millis(2.0), FaultAction::LinkFail(eg));
        let evs = sim.drain();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], SimEvent::TransferAborted { token: 1, .. }));
        assert!(matches!(evs[1], SimEvent::TransferAborted { token: 2, .. }));
        assert_eq!(evs[0].at(), evs[1].at());
    }

    #[test]
    fn merged_zero_byte_transfers_emit_every_token() {
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        for t in 0..3 {
            sim.submit_transfer(&path, ByteSize::ZERO, t);
        }
        assert_eq!(sim.flows.len(), 1);
        let evs = sim.drain();
        assert_eq!(evs.len(), 3);
        let alpha = c.path_alpha(&path).as_secs();
        for (t, e) in evs.iter().enumerate() {
            assert_eq!(e.token(), t as u64);
            assert!((e.at().as_secs() - alpha).abs() < 1e-12);
        }
    }

    /// Runs a scenario under both allocators and asserts identical
    /// token order with completion times within `tol` seconds.
    fn assert_modes_agree(c: &Cluster, tol: f64, scenario: impl Fn(&mut NetSim)) {
        let run = |incremental: bool| {
            let mut sim = NetSim::new(c).with_incremental_allocator(incremental);
            scenario(&mut sim);
            sim.drain()
                .into_iter()
                .map(|e| (e.token(), e.at().as_secs()))
                .collect::<Vec<_>>()
        };
        let exact = run(false);
        let inc = run(true);
        assert_eq!(exact.len(), inc.len(), "event counts differ");
        for ((te, ae), (ti, ai)) in exact.iter().zip(&inc) {
            assert_eq!(te, ti, "token order differs: exact {exact:?} inc {inc:?}");
            assert!(
                (ae - ai).abs() < tol,
                "token {te}: exact {ae} vs incremental {ai}"
            );
        }
    }

    #[test]
    fn incremental_matches_exact_on_contended_links() {
        let c = Cluster::homogeneous_a100(3);
        assert_modes_agree(&c, 1e-9, |sim| {
            let p01 = sim.cluster().net_path(InstanceId(0), InstanceId(1));
            let p21 = sim.cluster().net_path(InstanceId(2), InstanceId(1));
            sim.submit_transfer(&p01, ByteSize::from_mib(50), 1);
            sim.submit_transfer(&p01, ByteSize::from_mib(150), 2);
            sim.submit_transfer(&p21, ByteSize::from_mib(75), 3);
        });
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
        let run = |incremental: bool| {
            let mut sim = NetSim::new(&c).with_incremental_allocator(incremental);
            let cross = c.net_path(InstanceId(0), InstanceId(2));
            // Distinct sizes prevent same-instant clone merging: 11
            // separate flows contend on pod0's uplink.
            for i in 0..11u64 {
                sim.submit_transfer(&cross, ByteSize::from_kib(512 + i), i);
            }
            // The victim shares no link with the cross-pod flows (its
            // own egress NIC and ingress NIC) and must drain at the
            // full 12.5 GB/s NIC rate, not the 1.14 GB/s pod share.
            let victim = c.net_path(InstanceId(1), InstanceId(0));
            sim.submit_transfer(&victim, ByteSize::from_mib(1), 99);
            sim.drain()
                .into_iter()
                .find(|e| e.token() == 99)
                .expect("victim completes")
                .at()
                .as_secs()
        };
        let nic_rate = 12.5e9;
        let solo = ByteSize::from_mib(1).as_f64() / nic_rate;
        for incremental in [false, true] {
            let t = run(incremental);
            assert!(
                t < 3.0 * solo,
                "incremental={incremental}: victim took {t}s vs ~{solo}s solo \
                 — deflated by the fleet-wide stall guard"
            );
        }
    }

    #[test]
    fn incremental_matches_exact_under_faults() {
        let c = two_a100();
        let eg = c.nic_egress_link(InstanceId(0));
        assert_modes_agree(&c, 1e-9, |sim| {
            let path = sim.cluster().net_path(InstanceId(0), InstanceId(1));
            sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
            sim.submit_transfer(&path, ByteSize::from_mib(40), 2);
            sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkDown(eg));
            sim.schedule_fault(SimDuration::from_millis(9.0), FaultAction::LinkUp(eg));
            sim.schedule_fault(
                SimDuration::from_millis(12.0),
                FaultAction::SetCapacityFactor(eg, 0.5),
            );
        });
    }

    #[test]
    fn incremental_matches_exact_on_merged_weights() {
        let c = two_a100();
        assert_modes_agree(&c, 1e-9, |sim| {
            let path = sim.cluster().net_path(InstanceId(0), InstanceId(1));
            let size = ByteSize::from_mib(40);
            for t in 0..3 {
                sim.submit_transfer(&path, size, t);
            }
            sim.submit_transfer(&path, ByteSize::from_mib(10), 9);
        });
    }

    #[test]
    fn incremental_link_down_stalls_then_resumes() {
        let c = two_a100();
        let mut sim = NetSim::new(&c).with_incremental_allocator(true);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let eg = c.nic_egress_link(InstanceId(0));
        sim.submit_transfer(&path, ByteSize::from_mib(100), 1);
        sim.schedule_fault(SimDuration::from_millis(1.0), FaultAction::LinkDown(eg));
        // The flow stalls forever: the sim quiesces with the flow live.
        assert!(sim.step().is_none());
        assert_eq!(sim.stalled_flows(), 1);
        assert_eq!(sim.draining_flows(), 1);
        // Bringing the link back finishes the transfer.
        sim.set_link_up(eg, true);
        let ev = sim.step().unwrap();
        assert!(matches!(ev, SimEvent::TransferDone { token: 1, .. }));
        assert_eq!(sim.stalled_flows(), 0);
        assert_eq!(sim.draining_flows(), 0);
    }

    #[test]
    fn incremental_fail_link_aborts_and_spares() {
        let c = Cluster::homogeneous_a100(3);
        let mut sim = NetSim::new(&c).with_incremental_allocator(true);
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
        assert_eq!(sim.draining_flows(), 0);
    }

    #[test]
    fn synchronized_wave_pays_one_filling() {
        let c = two_a100();
        let mut sim = NetSim::new(&c).with_incremental_allocator(true);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        // Distinct sizes defeat aggregation: four real flows, one port.
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
    fn disjoint_components_refill_independently() {
        // Two flows on disjoint ports: each completion's frontier must
        // touch only its own component, so total frontier work stays
        // O(1) per event instead of O(live).
        let c = Cluster::fat_tree(4, 1);
        let mut sim = NetSim::new(&c).with_incremental_allocator(true);
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
    fn incremental_deterministic_replay() {
        let run = || {
            let c = two_a100();
            let mut sim = NetSim::new(&c).with_incremental_allocator(true);
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
    fn paranoid_refill_matches_frontier_refill() {
        // The exactness contract: treating every live flow as dirty on
        // every event (a from-scratch filling) must reproduce the
        // frontier refill's event stream bit for bit.
        let c = Cluster::fat_tree(6, 1);
        let eg = c.nic_egress_link(InstanceId(0));
        let run = |paranoid: bool| {
            let mut sim = NetSim::new(&c)
                .with_incremental_allocator(true)
                .with_paranoid_refill(paranoid);
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
    fn merged_flows_contend_with_their_full_weight() {
        // Three identical flows (merged) plus one distinct flow on the
        // same port: the distinct flow must see a quarter share, not a
        // half share — the merge is weight-aware.
        let c = two_a100();
        let mut sim = NetSim::new(&c);
        let path = c.net_path(InstanceId(0), InstanceId(1));
        let size = ByteSize::from_mib(40);
        for t in 0..3 {
            sim.submit_transfer(&path, size, t);
        }
        sim.submit_transfer(&path, ByteSize::from_mib(10), 9);
        assert_eq!(sim.flows.len(), 2);
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
