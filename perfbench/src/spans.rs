//! In-memory spans for the traced run.
//!
//! Each span has a name, a start and end on one clock, an optional parent
//! and the id of the op it belongs to. Spans are kept in memory while the
//! workload runs and written out once at the end. A span's self time is its
//! duration minus the part of it that its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`] store.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `polyfold.finalize`.
    pub name: &'static str,
    /// Program the span measured (empty for whole-op spans).
    pub program: &'static str,
    /// Start, nanoseconds since the store's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the store's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Enclosing span.
    pub parent: Option<SpanId>,
    /// Op the span belongs to.
    pub op: u64,
}

impl Span {
    /// End minus start.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store with one clock origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn open(
        &mut self,
        name: &'static str,
        program: &'static str,
        parent: Option<SpanId>,
        op: u64,
    ) -> SpanId {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            program,
            start_ns: t,
            end_ns: t,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close a span.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        program: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.open(name, program, parent, op);
        let r = f();
        self.close(id);
        (r, id)
    }

    /// Add an already-measured interval (spans timed on another thread).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Nanoseconds from the store's origin to `t` (0 if `t` is earlier):
    /// places spans timed on other threads on this store's clock.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Duration of a span in nanoseconds.
    pub fn dur(&self, id: SpanId) -> u64 {
        self.spans[id].dur_ns()
    }

    /// All spans, in open order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur_ns().saturating_sub(covered(s, kids)))
            .collect()
    }

    /// JSON array of every span plus its self time, written once at the
    /// end of the run.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"program\": \"{}\", \"op\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.program, s.op, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Length of the union of `kids`, clipped to `parent`'s interval.
fn covered(parent: &Span, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in kids {
        let (a, b) = (a.max(parent.start_ns), b.min(parent.end_ns));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            program: "",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut s = Spans::default();
        let root = s.push(span("op", 0, 100, None));
        let a = s.push(span("a", 10, 40, Some(root)));
        s.push(span("a.1", 15, 25, Some(a)));
        // Overlapping children count their union once.
        s.push(span("b", 30, 60, Some(root)));
        // A child poking out of its parent is clipped.
        s.push(span("c", 90, 130, Some(root)));
        let selfs = s.self_times();
        assert_eq!(selfs[root], 100 - (60 - 10) - (100 - 90));
        assert_eq!(selfs[a], 30 - 10);
        assert_eq!(selfs[2], 10);
    }

    #[test]
    fn timed_spans_nest_and_serialize() {
        let mut s = Spans::default();
        let root = s.open("op", "", None, 7);
        let (v, child) = s.time("polyvm.run", "nw", Some(root), 7, || 41 + 1);
        s.close(root);
        assert_eq!(v, 42);
        assert!(s.all()[child].start_ns >= s.all()[root].start_ns);
        assert!(s.all()[child].end_ns <= s.all()[root].end_ns);
        let j = s.to_json();
        assert!(
            j.contains("\"name\": \"polyvm.run\", \"program\": \"nw\", \"op\": 7, \"parent\": 0")
        );
        assert!(j.starts_with('[') && j.ends_with(']'));
    }
}
