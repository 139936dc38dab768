//! Outside spans: the benchmark's own timing of each public layer call.
//!
//! A [`Tracer`] records `(name, start, end, parent)` for every call the
//! benchmark makes into the library while it is armed, keeps them in memory,
//! and turns them into per-name totals and self times (a span's duration
//! minus the part its child spans cover).  A disarmed tracer records nothing
//! and reads no clock, so the untimed runs pay nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, in seconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span; `None` when the tracer is disarmed.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    armed: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(armed: bool) -> Tracer {
        Tracer { armed, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.armed {
            return None;
        }
        let now = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span { name, start: now, end: now, parent: self.open.last().copied() });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id` (which must be the innermost open one) and
    /// returns its duration.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let Some(id) = id else { return 0.0 };
        let now = self.origin.elapsed().as_secs_f64();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = now;
        self.spans[id].seconds()
    }

    /// Times `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name aggregate over a set of spans: count, total and self seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub count: usize,
    pub total: f64,
    pub self_time: f64,
}

/// Aggregates spans by name; a span's self time is its duration minus the
/// durations of its direct children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.seconds();
        }
    }
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_time) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total += s.seconds();
        a.self_time += s.seconds() - children;
    }
    out
}

/// Durations of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            Span { name: "tick", start: 0.0, end: 10.0, parent: None },
            Span { name: "propose", start: 1.0, end: 5.0, parent: Some(0) },
            Span { name: "predict", start: 1.0, end: 2.0, parent: Some(1) },
            Span { name: "finish", start: 6.0, end: 9.0, parent: Some(0) },
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["tick"].self_time, 3.0);
        assert_eq!(agg["propose"].self_time, 3.0);
        assert_eq!(agg["predict"].self_time, 1.0);
        let total_self: f64 = agg.values().map(|a| a.self_time).sum();
        assert_eq!(total_self, agg["tick"].total);
    }

    #[test]
    fn disarmed_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x");
        assert_eq!(t.exit(id), 0.0);
        assert_eq!(t.time("y", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.time("inner", || ());
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].seconds() >= t.spans()[1].seconds());
    }
}
