//! Benchmark-side spans around calls into the library's public API.
//!
//! Each span records a name, its start and end on the benchmark's own
//! wall clock, the span that caused it and the op it belongs to. Spans
//! stay in memory and are aggregated (or written out) when the run
//! ends. A disabled tracer still runs the timed closure but records
//! nothing, so the untraced path pays only a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed span name (`core.session.plan`, `synth.cold`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (`u64::MAX` = set-up or probe).
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Op id used for spans outside the measured loop.
pub const NO_OP: u64 = u64::MAX;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations, milliseconds.
    pub total_ms: f64,
    /// Sum of self times (duration minus child-covered time), ms.
    pub self_ms: f64,
}

impl Totals {
    /// Mean duration per span, milliseconds (0 when none recorded).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms / self.count as f64
        }
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (or `None` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`]; returns its duration
    /// in milliseconds (0 when disabled).
    pub fn close(&mut self, id: Option<usize>) -> f64 {
        let Some(i) = id else { return 0.0 };
        let end = self.now_ns();
        self.spans[i].end_ns = end;
        self.spans[i].dur_ns() as f64 / 1e6
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another tracer's spans (client threads record apart and
    /// merge at the end; parent indices are rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name totals with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += s.dur_ns() as f64 / 1e6;
            t.self_ms += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Totals for one name (zero when the name never occurred).
    pub fn get(&self, name: &str) -> Totals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.open("outer", None, 0);
        t.time("inner", outer, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(outer);
        let tot = t.totals();
        let (o, i) = (tot["outer"], tot["inner"]);
        assert!(i.total_ms >= 5.0);
        assert!(o.total_ms >= i.total_ms);
        assert!((o.self_ms - (o.total_ms - i.total_ms)).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("x", None, 0, || 7), 7);
        assert!(t.totals().is_empty());
        assert!(t.to_jsonl().is_empty());
    }
}
