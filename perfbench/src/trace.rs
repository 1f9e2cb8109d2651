//! In-memory spans for the traced run, written out once at the end.
//!
//! A span has a name, start and end (ns since the tracer's epoch), the
//! index of its parent span, and the id of the pass or request it belongs
//! to. Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `t` (0 if `t` is earlier).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) -> u64 {
        let end = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end;
        s.ns()
    }

    /// Records a span around `f`; returns its result and duration in ns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let s = self.open(name, id, parent);
        let out = f();
        (out, self.close(s))
    }

    /// Adds an already-measured span (e.g. a phase the daemon timed and
    /// reported back) under `parent`, starting at `start_ns`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        ns: u64,
    ) {
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns + ns });
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize_one_per_line() {
        let mut t = Tracer::default();
        let root = t.open("pass", 1, None);
        t.record("child", 1, Some(root), t.spans[root].start_ns, 0);
        let (_, work_ns) = t.span("work", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.close(root);
        assert!(work_ns >= 2_000_000 && work_ns <= total);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.lines().nth(2).unwrap().contains("\"parent\":0"));
    }
}
