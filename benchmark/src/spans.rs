//! The benchmark's own in-memory span recorder.
//!
//! The traced run wraps every call into a masim crate in a span (name,
//! start, end, the span that caused it). Spans stay in memory and are
//! written out once, when the benchmark ends; nothing in the program
//! under test is instrumented.

use crate::adapter::Json;
use std::time::Instant;

/// One timed interval. `parent` indexes the recorder's span list; spans
/// of one request (one trace of a workload) share their `root`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub root: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, root });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
    }

    /// Time `f` as a span and return what it returns together with the
    /// span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        (out, self.spans[id].dur_ns() as f64 / 1e9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Inclusive seconds summed over every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::UInt(s.start_ns)),
                    ("end_ns".into(), Json::UInt(s.end_ns)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::UInt(p as u64))),
                    ("root".into(), Json::UInt(s.root as u64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children of one parent never overlap here — the
/// recorder is single-threaded and spans close innermost-first).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans.iter().filter(|s| s.parent == Some(id)).map(Span::dur_ns).sum();
    spans[id].dur_ns().saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, root: usize) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, root }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = vec![
            span("trace", 0, 100, None, 0),
            span("generate", 5, 25, Some(0), 0),
            span("sim.packet", 30, 90, Some(0), 0),
            span("lower", 40, 50, Some(2), 0),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 60);
        assert_eq!(self_ns(&spans, 2), 60 - 10);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn recorder_links_parents_and_roots() {
        let mut rec = Recorder::new("unit");
        let a = rec.enter("trace");
        rec.time("generate", || ());
        rec.time("mfact.replay", || ());
        rec.exit(a);
        let b = rec.enter("trace");
        rec.time("generate", || ());
        rec.exit(b);
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[1].parent, s[1].root), (Some(0), 0));
        assert_eq!((s[4].parent, s[4].root), (Some(3), 3));
        assert_eq!(s.iter().filter(|sp| sp.name == "generate").count(), 2);
        for (id, sp) in s.iter().enumerate() {
            assert!(sp.end_ns >= sp.start_ns);
            assert!(self_ns(s, id) <= sp.dur_ns());
        }
        let json = rec.to_json().to_json();
        assert!(json.starts_with("{\"workload\":\"unit\",\"spans\":["));
    }
}
