//! Deterministic telemetry for the AdapCC pipeline.
//!
//! Every phase of the pipeline — detection, profiling, synthesis,
//! execution — and every simulated transfer can report into one
//! [`Telemetry`] sink: timed *spans* on named tracks, named f64
//! *counters*, and per-link [`FlowRecord`]s carrying bytes plus
//! queueing/transmit timing. Two exporters render the sink:
//! [`Telemetry::chrome_trace`] (a `chrome://tracing` JSON timeline)
//! and [`Telemetry::metrics_summary`] (a flat JSON summary with
//! per-link utilization, flow-completion-time statistics, and the
//! relay wait/transmit split).
//!
//! All timestamps are *simulated* seconds — no wall clock is read
//! anywhere — so two runs with the same seed produce byte-identical
//! exports. That determinism is what the golden-trace test harness
//! asserts.
//!
//! The sink is an `Arc<Mutex<_>>` behind a cheap-to-clone handle; the
//! disabled default makes every recording call a no-op, so
//! instrumented hot paths cost one branch when telemetry is off.
//! Components record on their own local clock (starting at zero);
//! callers stitch phases onto one session timeline with
//! [`Telemetry::at_offset`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One timed span on a named track (e.g. phase `detect` on track
/// `phase`). Times are absolute simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span label shown on the timeline.
    pub name: String,
    /// Track (Chrome-trace thread) the span renders on.
    pub track: String,
    /// Start instant, simulated seconds.
    pub start_secs: f64,
    /// End instant, simulated seconds.
    pub end_secs: f64,
}

/// One recorded transfer over one logical link.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Logical link label, e.g. `gpu1->nic0`.
    pub link: String,
    /// Payload bytes.
    pub bytes: u64,
    /// Instant the chunk was queued behind the link (equals
    /// `start_secs` when the link was idle).
    pub enqueued_secs: f64,
    /// Instant the transfer hit the wire.
    pub start_secs: f64,
    /// Completion instant.
    pub end_secs: f64,
    /// Request index within the batch.
    pub request: usize,
    /// Sub-collective index within the lowered batch.
    pub sub: usize,
    /// Chunk index.
    pub chunk: usize,
}

impl FlowRecord {
    /// Time spent queued behind earlier chunks of the same hop.
    pub fn queue_secs(&self) -> f64 {
        self.start_secs - self.enqueued_secs
    }

    /// Time on the wire.
    pub fn transmit_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }

    /// Flow completion time (queueing included).
    pub fn completion_secs(&self) -> f64 {
        self.end_secs - self.enqueued_secs
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    flows: Vec<FlowRecord>,
    counters: BTreeMap<String, f64>,
}

/// A per-session telemetry sink handle.
///
/// Clones share the sink; [`Telemetry::at_offset`] derives a handle
/// whose recordings are shifted by a fixed offset, which is how
/// pipeline phases that each run on a local zero-based clock are
/// stitched onto one session timeline.
///
/// # Examples
///
/// ```
/// use adapcc_telemetry::Telemetry;
///
/// let t = Telemetry::enabled();
/// t.span("detect", "phase", 0.0, 1.5);
/// let later = t.at_offset(1.5);
/// later.span("profile", "phase", 0.0, 2.0);
/// let spans = t.spans();
/// assert_eq!(spans[1].start_secs, 1.5);
/// assert_eq!(spans[1].end_secs, 3.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
    base_secs: f64,
}

impl Telemetry {
    /// The no-op handle: every recording call returns immediately.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// A fresh, empty, recording sink.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner::default()))),
            base_secs: 0.0,
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle onto the same sink whose local time zero maps to
    /// `secs` on the session timeline.
    pub fn at_offset(&self, secs: f64) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            base_secs: self.base_secs + secs,
        }
    }

    /// This handle's offset on the session timeline.
    pub fn base_secs(&self) -> f64 {
        self.base_secs
    }

    /// Records a span; `start`/`end` are local seconds.
    pub fn span(&self, name: &str, track: &str, start_secs: f64, end_secs: f64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().expect("telemetry lock").spans.push(Span {
            name: name.to_string(),
            track: track.to_string(),
            start_secs: self.base_secs + start_secs,
            end_secs: self.base_secs + end_secs,
        });
    }

    /// Adds `delta` to a named counter (created at zero).
    pub fn add_counter(&self, name: &str, delta: f64) {
        let Some(inner) = &self.inner else { return };
        *inner
            .lock()
            .expect("telemetry lock")
            .counters
            .entry(name.to_string())
            .or_insert(0.0) += delta;
    }

    /// Adds `delta` to a per-process-group counter
    /// (`group.<label>.<metric>`). Group labels come from
    /// `ProcessGroup::label()` — short, deterministic, axis-tagged — so
    /// concurrent groups get distinct, stable counter streams. A no-op
    /// when disabled, and the format allocation is skipped entirely.
    pub fn add_group_counter(&self, label: &str, metric: &str, delta: f64) {
        if self.inner.is_none() {
            return;
        }
        self.add_counter(&format!("group.{label}.{metric}"), delta);
    }

    /// Records a span on a per-process-group track (`group.<label>`),
    /// so each group's plan/execute phases render as their own lane on
    /// the stitched timeline. A no-op when disabled.
    pub fn group_span(&self, label: &str, name: &str, start_secs: f64, end_secs: f64) {
        if self.inner.is_none() {
            return;
        }
        self.span(name, &format!("group.{label}"), start_secs, end_secs);
    }

    /// Sets a named counter to an absolute value.
    pub fn set_counter(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner
            .lock()
            .expect("telemetry lock")
            .counters
            .insert(name.to_string(), value);
    }

    /// Current value of a counter (zero when absent or disabled).
    pub fn counter(&self, name: &str) -> f64 {
        let Some(inner) = &self.inner else { return 0.0 };
        inner
            .lock()
            .expect("telemetry lock")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Records a flow; the record's times are local seconds and are
    /// shifted by this handle's offset.
    pub fn flow(&self, mut record: FlowRecord) {
        let Some(inner) = &self.inner else { return };
        record.enqueued_secs += self.base_secs;
        record.start_secs += self.base_secs;
        record.end_secs += self.base_secs;
        inner.lock().expect("telemetry lock").flows.push(record);
    }

    /// Snapshot of all recorded spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner.lock().expect("telemetry lock").spans.clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of all recorded flows, in recording order.
    pub fn flows(&self) -> Vec<FlowRecord> {
        match &self.inner {
            Some(inner) => inner.lock().expect("telemetry lock").flows.clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<String, f64> {
        match &self.inner {
            Some(inner) => inner.lock().expect("telemetry lock").counters.clone(),
            None => BTreeMap::new(),
        }
    }

    /// Renders the sink as Chrome-trace JSON (`chrome://tracing` /
    /// Perfetto). Spans become complete (`"ph": "X"`) events on pid 1
    /// with one tid per track; flows become complete events on pid 2
    /// with one tid per link. Event order and tid assignment depend
    /// only on recorded content, so equal recordings render to
    /// byte-identical JSON.
    pub fn chrome_trace(&self) -> String {
        let (spans, flows) = (self.spans(), self.flows());
        let track_tids: BTreeMap<&str, usize> = spans
            .iter()
            .map(|s| s.track.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .zip(0..)
            .collect();
        let link_tids: BTreeMap<&str, usize> = flows
            .iter()
            .map(|f| f.link.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .zip(0..)
            .collect();
        let mut events = Vec::new();
        for s in &spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                json_escape(&s.name),
                json_escape(&s.track),
                fmt_us(s.start_secs),
                fmt_us(s.end_secs - s.start_secs),
                track_tids[s.track.as_str()],
            ));
        }
        for f in &flows {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{},\
                 \"args\":{{\"bytes\":{},\"request\":{},\"sub\":{},\"chunk\":{},\"queue_us\":{}}}}}",
                json_escape(&f.link),
                fmt_us(f.start_secs),
                fmt_us(f.transmit_secs()),
                link_tids[f.link.as_str()],
                f.bytes,
                f.request,
                f.sub,
                f.chunk,
                fmt_us(f.queue_secs()),
            ));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }

    /// Renders the sink as a flat JSON metrics summary: all counters,
    /// the phase spans, per-link aggregates (flow count, bytes, busy
    /// and queue time, utilization = busy time over the link's active
    /// window — above 1 means overlapping flows shared the link), flow
    /// completion time statistics, and the relay wait/transmit split
    /// (from the `relay.wait_secs` / `relay.transmit_secs` counters).
    pub fn metrics_summary(&self) -> String {
        let (spans, flows, counters) = (self.spans(), self.flows(), self.counters());
        let mut out = String::from("{\n  \"counters\": {");
        let entries: Vec<String> = counters
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json_escape(k), fmt_num(*v)))
            .collect();
        out.push_str(&entries.join(", "));
        out.push_str("},\n  \"phases\": [");
        let phase_entries: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"track\": \"{}\", \"start_us\": {}, \"dur_us\": {}}}",
                    json_escape(&s.name),
                    json_escape(&s.track),
                    fmt_us(s.start_secs),
                    fmt_us(s.end_secs - s.start_secs),
                )
            })
            .collect();
        out.push_str(&phase_entries.join(", "));
        out.push_str("],\n  \"links\": [");
        #[derive(Default)]
        struct LinkAgg {
            flows: u64,
            bytes: u64,
            busy_secs: f64,
            queue_secs: f64,
            first: f64,
            last: f64,
        }
        let mut links: BTreeMap<&str, LinkAgg> = BTreeMap::new();
        for f in &flows {
            let agg = links.entry(f.link.as_str()).or_insert(LinkAgg {
                first: f.start_secs,
                last: f.end_secs,
                ..Default::default()
            });
            agg.flows += 1;
            agg.bytes += f.bytes;
            agg.busy_secs += f.transmit_secs();
            agg.queue_secs += f.queue_secs();
            agg.first = agg.first.min(f.start_secs);
            agg.last = agg.last.max(f.end_secs);
        }
        let link_entries: Vec<String> = links
            .iter()
            .map(|(link, a)| {
                let window = a.last - a.first;
                let util = if window > 0.0 {
                    a.busy_secs / window
                } else {
                    0.0
                };
                format!(
                    "{{\"link\": \"{}\", \"flows\": {}, \"bytes\": {}, \"busy_us\": {}, \
                     \"queue_us\": {}, \"utilization\": {}}}",
                    json_escape(link),
                    a.flows,
                    a.bytes,
                    fmt_us(a.busy_secs),
                    fmt_us(a.queue_secs),
                    fmt_num(util),
                )
            })
            .collect();
        out.push_str(&link_entries.join(",\n    "));
        let (mut fct_max, mut fct_sum) = (0.0f64, 0.0f64);
        for f in &flows {
            fct_max = fct_max.max(f.completion_secs());
            fct_sum += f.completion_secs();
        }
        let fct_mean = if flows.is_empty() {
            0.0
        } else {
            fct_sum / flows.len() as f64
        };
        out.push_str(&format!(
            "],\n  \"fct\": {{\"flows\": {}, \"mean_us\": {}, \"max_us\": {}}},\n",
            flows.len(),
            fmt_us(fct_mean),
            fmt_us(fct_max),
        ));
        let wait = counters.get("relay.wait_secs").copied().unwrap_or(0.0);
        let transmit = counters.get("relay.transmit_secs").copied().unwrap_or(0.0);
        out.push_str(&format!(
            "  \"relay\": {{\"wait_secs\": {}, \"transmit_secs\": {}}}\n}}\n",
            fmt_num(wait),
            fmt_num(transmit),
        ));
        out
    }
}

/// Microseconds with fixed three-decimal formatting — deterministic
/// for equal inputs, and the natural Chrome-trace unit.
fn fmt_us(secs: f64) -> String {
    format!("{:.3}", secs * 1e6)
}

/// A counter value: integers print without a fraction, everything
/// else uses Rust's shortest-roundtrip f64 formatting (deterministic
/// for equal values).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes `s` for a JSON string literal: quotes, backslashes and
/// every control character. The workspace's one line-JSON escaper,
/// shared by the exporters here and the bench rows.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(link: &str, bytes: u64, enq: f64, start: f64, end: f64) -> FlowRecord {
        FlowRecord {
            link: link.into(),
            bytes,
            enqueued_secs: enq,
            start_secs: start,
            end_secs: end,
            request: 0,
            sub: 0,
            chunk: 0,
        }
    }

    #[test]
    fn disabled_handle_is_a_noop() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.span("a", "phase", 0.0, 1.0);
        t.add_counter("x", 1.0);
        t.flow(flow("l", 1, 0.0, 0.0, 1.0));
        assert!(t.spans().is_empty());
        assert!(t.flows().is_empty());
        assert_eq!(t.counter("x"), 0.0);
        assert_eq!(
            t.chrome_trace(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n"
        );
    }

    #[test]
    fn counters_add_and_set() {
        let t = Telemetry::enabled();
        t.add_counter("a", 2.0);
        t.add_counter("a", 3.0);
        t.set_counter("b", 7.5);
        assert_eq!(t.counter("a"), 5.0);
        assert_eq!(t.counter("b"), 7.5);
        assert_eq!(t.counter("missing"), 0.0);
    }

    #[test]
    fn offsets_stack_and_shift_recordings() {
        let t = Telemetry::enabled();
        let a = t.at_offset(1.0);
        let b = a.at_offset(0.5);
        assert_eq!(b.base_secs(), 1.5);
        b.span("s", "phase", 0.0, 1.0);
        b.flow(flow("l", 10, 0.0, 0.1, 0.2));
        let spans = t.spans();
        assert_eq!(spans[0].start_secs, 1.5);
        assert_eq!(spans[0].end_secs, 2.5);
        let flows = t.flows();
        assert_eq!(flows[0].enqueued_secs, 1.5);
        assert_eq!(flows[0].start_secs, 1.6);
        assert!((flows[0].end_secs - 1.7).abs() < 1e-12);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::enabled();
        let c = t.clone();
        c.add_counter("shared", 1.0);
        assert_eq!(t.counter("shared"), 1.0);
    }

    #[test]
    fn chrome_trace_renders_spans_and_flows() {
        let t = Telemetry::enabled();
        t.span("detect", "phase", 0.0, 0.001);
        t.flow(flow("gpu0->nic0", 4096, 0.001, 0.0015, 0.002));
        let json = t.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"detect\""));
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"dur\":1000.000"));
        assert!(json.contains("\"name\":\"gpu0->nic0\""));
        assert!(json.contains("\"bytes\":4096"));
        assert!(json.contains("\"queue_us\":500.000"));
    }

    #[test]
    fn chrome_trace_is_deterministic_for_equal_recordings() {
        let record = |t: &Telemetry| {
            t.span("profile", "phase", 0.0, 0.25);
            t.flow(flow("nic0->nic1", 1 << 20, 0.0, 0.0, 0.1));
            t.flow(flow("nic1->nic0", 1 << 20, 0.0, 0.05, 0.15));
            t.add_counter("exec.bytes_on_wire", 2.0 * (1 << 20) as f64);
        };
        let (a, b) = (Telemetry::enabled(), Telemetry::enabled());
        record(&a);
        record(&b);
        assert_eq!(a.chrome_trace(), b.chrome_trace());
        assert_eq!(a.metrics_summary(), b.metrics_summary());
    }

    #[test]
    fn metrics_summary_aggregates_links_and_fct() {
        let t = Telemetry::enabled();
        // Two sequential flows on one link: 1 MiB each, 0.1 s on the
        // wire, second queued 0.1 s.
        t.flow(flow("nic0->nic1", 1 << 20, 0.0, 0.0, 0.1));
        t.flow(flow("nic0->nic1", 1 << 20, 0.0, 0.1, 0.2));
        let m = t.metrics_summary();
        assert!(m.contains("\"link\": \"nic0->nic1\""));
        assert!(m.contains("\"flows\": 2"));
        assert!(m.contains(&format!("\"bytes\": {}", 2u64 << 20)));
        // busy 0.2 s over a 0.2 s window: fully utilized.
        assert!(m.contains("\"utilization\": 1"), "{m}");
        // FCTs are 0.1 s and 0.2 s.
        assert!(m.contains("\"mean_us\": 150000.000"), "{m}");
        assert!(m.contains("\"max_us\": 200000.000"), "{m}");
    }

    #[test]
    fn relay_split_surfaces_in_summary() {
        let t = Telemetry::enabled();
        t.add_counter("relay.wait_secs", 0.02);
        t.add_counter("relay.transmit_secs", 0.05);
        let m = t.metrics_summary();
        assert!(m.contains("\"wait_secs\": 0.02"), "{m}");
        assert!(m.contains("\"transmit_secs\": 0.05"), "{m}");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let t = Telemetry::enabled();
        t.span("we\"ird", "ph\\ase", 0.0, 1.0);
        let json = t.chrome_trace();
        assert!(json.contains("we\\\"ird"));
        assert!(json.contains("ph\\\\ase"));
    }

    #[test]
    fn flow_record_timing_helpers() {
        let f = flow("l", 1, 1.0, 1.5, 2.5);
        assert!((f.queue_secs() - 0.5).abs() < 1e-12);
        assert!((f.transmit_secs() - 1.0).abs() < 1e-12);
        assert!((f.completion_secs() - 1.5).abs() < 1e-12);
    }
}
