//! Outside-in span recording for the traced run.
//!
//! Spans are recorded *by the benchmark* around each call into a product
//! layer — nothing inside the product is instrumented. They are kept in
//! memory and written as JSON lines when the run ends. A span carries its
//! layer name, start and end in nanoseconds since the tracer's epoch, the
//! index of the span that caused it, and the batch or block it belongs to;
//! a layer's self time is its span minus the part its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// Index of a recorded span, used as the `parent` of its children.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (`crate.module.call`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The batch or block index the span belongs to.
    pub unit: u64,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; pair with [`Tracer::close`]. Children recorded in
    /// between name the returned id as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, unit: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Records a span around `call` and returns the call's result with the
    /// span's duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, unit);
        let out = call();
        (out, self.close(id))
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id` in seconds: its duration minus the part of
    /// it its direct children cover.
    pub fn self_secs(&self, id: SpanId) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Mean self time, in milliseconds, of the spans named `name`.
    pub fn self_ms_per(&self, name: &str) -> f64 {
        let ids: Vec<SpanId> = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .collect();
        let total: f64 = ids.iter().map(|&id| self.self_secs(id)).sum();
        total * 1e3 / ids.len().max(1) as f64
    }

    /// Writes the spans to `path`, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Int(id as u64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Int(s.start_ns)),
                ("end_ns", Value::Int(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Int(p as u64)),
                ),
                ("unit", Value::Int(s.unit)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("batch", None, 7);
        let (v, child_secs) = t.span("layer.call", Some(root), 7, || {
            std::hint::black_box((0..20_000u64).sum::<u64>())
        });
        assert_eq!(v, 199_990_000);
        let root_secs = t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[1].unit, 7);
        let self_secs = t.self_secs(root);
        assert!((self_secs - (root_secs - child_secs)).abs() < 1e-12);
        assert!(self_secs >= 0.0);
        assert!((t.self_ms_per("batch") - self_secs * 1e3).abs() < 1e-9);
        assert_eq!(t.self_ms_per("no such span"), 0.0);
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_span() {
        let mut t = Tracer::new();
        let root = t.open("batch", None, 0);
        t.span("a.b", Some(root), 0, || ());
        t.close(root);
        let path = std::env::temp_dir().join(format!("qpgc_trace_test_{}", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name"), Some(&Value::str("a.b")));
        assert_eq!(second.get("parent"), Some(&Value::Int(0)));
    }
}
