//! Outside-in spans: recorded by the benchmark around its calls into
//! each layer, kept in memory, written once when the run ends.
//!
//! A span is `(name, start_ns, end_ns, parent, op)`. Spans of one
//! operation share `op`; a layer's self time is its span minus the part
//! of that interval its child spans cover.

use crate::stats;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation (request / document / publish cycle) identifier.
    pub op: u64,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant every `*_ns` of this trace counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.push(name, start, end, parent, op);
        out
    }

    /// Open a parent span whose end is set by [`Trace::close`].
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, None, op)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Per span: duration minus the union of its children's intervals
    /// (clipped to the span).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration (µs) of the spans called `name`; 0 when none.
    pub fn p50_us(&self, name: &str) -> f64 {
        let d = self.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d)
        }
    }

    /// `{"spans":[[name,start_ns,end_ns,parent,op,self_ns],…]}` —
    /// compact rows, since a run holds tens of thousands of spans.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::with_capacity(64 + self.spans.len() * 56);
        out.push_str(
            "{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\",\"self_ns\"],\"spans\":[\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "[\"{}\",{},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent, s.op, selfs[i]
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(Instant::now());
        let root = t.push("request", 100, 1100, None, 1);
        t.push("parse", 100, 300, Some(root), 1);
        // Overlaps parse by 100 ns: the union covers 100..600.
        t.push("probe", 200, 600, Some(root), 1);
        // Sticks out past the parent: clipped at 1100.
        let rank = t.push("rank", 900, 1300, Some(root), 1);
        t.push("stem", 950, 1000, Some(rank), 1);
        // A different operation's span never counts.
        t.push("parse", 0, 50, None, 2);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[root], 1000 - 500 - 200);
        assert_eq!(selfs[1], 200);
        assert_eq!(selfs[rank], 400 - 50);
        assert_eq!(selfs[4], 50);
        assert_eq!(t.p50_us("parse"), 0.125, "median of 0.2 and 0.05 µs");
        assert_eq!(t.p50_us("absent"), 0.0);
    }

    #[test]
    fn timed_closures_nest_under_an_open_parent() {
        let mut t = Trace::new(Instant::now());
        let op = t.open("op", 7);
        let x = t.time("child", Some(op), 7, || 41 + 1);
        t.close(op);
        assert_eq!(x, 42);
        let (parent, child) = (&t.spans[op], &t.spans[1]);
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert_eq!(child.parent, Some(op));
        let json = t.to_json();
        assert!(json.contains("[\"child\","), "{json}");
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace file is JSON");
        assert!(
            matches!(parsed.get("spans"), Some(serde_json::Value::Seq(rows)) if rows.len() == 2)
        );
    }
}
