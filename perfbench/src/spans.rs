//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer: name, start, end, the span that caused it, and the op it
//! belongs to. They stay in memory and are written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The op (solve, session, move) the span belongs to; 0 for spans of
    /// the benchmark's own phases.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span store that records nothing when off, so untraced code paths
/// pay one branch per call site.
pub struct Spans {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
}

/// Per-name totals: how often, how long, and how much of it was not
/// covered by child spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            t0: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records `[start, end)` and returns its handle for child spans.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds of each span covered by its direct children (children
    /// are clipped to the parent and their overlaps merged).
    fn covered(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
                if a < b {
                    kids[p].push((a, b));
                }
            }
        }
        kids.into_iter()
            .map(|mut iv| {
                iv.sort_unstable();
                let (mut total, mut reach) = (0u64, 0u64);
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        total += b - a;
                        reach = b;
                    }
                }
                total
            })
            .collect()
    }

    /// Self time per span name: duration minus the part of it that its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let covered = self.covered();
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur();
            e.self_ns += s.dur().saturating_sub(c);
        }
        out
    }

    /// Share of the wall time of spans named `op_name` that their child
    /// spans cover — how much of each op the layer spans account for.
    pub fn coverage(&self, op_name: &str) -> Option<f64> {
        let covered = self.covered();
        let (mut wall, mut cov) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(covered) {
            if s.name == op_name {
                wall += s.dur();
                cov += c;
            }
        }
        (wall > 0).then(|| cov as f64 / wall as f64)
    }

    /// Chrome trace-event JSON (one `X` event per span; the op id is the
    /// row, so each op's spans stack on one line).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut s = Spans::new(true);
        let t = s.t0;
        let at = |ms: u64| t + Duration::from_millis(ms);
        let op = s.record("op", 1, None, at(0), at(100));
        s.record("a", 1, op, at(10), at(50));
        s.record("b", 1, op, at(40), at(70)); // overlaps a by 10
        s.record("c", 1, op, at(90), at(130)); // clipped at 100
        let st = s.self_times();
        assert_eq!(st["op"].self_ns, 30_000_000); // 100 - (60 + 10)
        assert_eq!(st["a"].self_ns, 40_000_000);
        assert_eq!(st["op"].count, 1);
        let cov = s.coverage("op").unwrap();
        assert!((cov - 0.7).abs() < 1e-9, "{cov}");
        assert!(s.chrome_json().contains("\"name\": \"b\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        let now = Instant::now();
        assert_eq!(s.record("op", 1, None, now, now), None);
        assert_eq!(s.len(), 0);
        assert_eq!(s.coverage("op"), None);
    }
}
