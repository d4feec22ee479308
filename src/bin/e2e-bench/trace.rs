//! In-memory span recording for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span is `(name, op, id, parent, start_ns, end_ns)`;
//! every span of one operation shares the op id. Spans stay in memory
//! and are written out as JSON lines only when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    id: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log plus counters of the work the spans did.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<(&'static str, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a root span for operation `op`; `f` receives the
    /// tracer and the root span id so it can open child spans.
    pub fn op<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self, usize) -> R,
    ) -> R {
        let id = self.open(name, op, None);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let op = self.spans[parent].op;
        let id = self.open(name, op, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Records a root span that was timed elsewhere (a request measured
    /// by a client thread).
    pub fn record(&mut self, name: &'static str, op: u64, started: Instant, ended: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos())
                .expect("a run lasts under 584 years")
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            id,
            parent: None,
            start_ns: ns(started),
            end_ns: ns(ended),
        });
    }

    /// Records one value of counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time per span name, summed over all spans, in milliseconds:
    /// each span's duration minus the time its children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut out = BTreeMap::new();
        for span in &self.spans {
            *out.entry(span.name).or_insert(0.0) += own[span.id] as f64 / 1e6;
        }
        out
    }

    /// The largest share of a root span named `name` that no child span
    /// covers (0 when there is none).
    pub fn max_unattributed(&self, name: &str) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name && s.duration_ns() > 0)
            .map(|s| own[s.id] as f64 / s.duration_ns() as f64)
            .fold(0.0, f64::max)
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .map(|s| s.duration_ns().saturating_sub(child_ns[s.id]))
            .collect()
    }

    /// Total wall time of every root span named `name`, in milliseconds.
    pub fn root_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// The sum and number of the values recorded for counter `name`.
    pub fn count_total(&self, name: &str) -> (f64, usize) {
        self.counts
            .iter()
            .filter(|(n, _)| *n == name)
            .fold((0.0, 0), |(sum, n), (_, v)| (sum + v, n + 1))
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"span\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.id, parent, s.start_ns, s.end_ns
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
        let mut t = Tracer::new();
        t.op("op", 0, |t, root| {
            t.child(root, "a", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.child(root, "b", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = t.self_ms();
        let total = t.root_ms("op");
        assert!(own["a"] >= 5.0 && own["b"] >= 5.0, "{own:?}");
        assert!((own["op"] + own["a"] + own["b"] - total).abs() < 1e-6);
        assert!((t.max_unattributed("op") - own["op"] / total).abs() < 1e-9);
        assert_eq!(t.to_json_lines().lines().count(), 3);
    }
}
