//! Bounded ring-buffer timeline tracing.
//!
//! A [`TraceLog`] collects fixed-size [`TraceEvent`] records — completed
//! spans, instants, and counter samples, each stamped with a worker id
//! and a monotonic nanosecond timestamp — into per-thread lanes of
//! bounded capacity. When a lane fills, the oldest records are
//! overwritten (drop-oldest; the drop count is reported so truncation is
//! never silent). Spans are stored as a *single* record carrying start
//! and duration, written when the span closes, so an exported timeline
//! always has balanced begin/end pairs even after ring overflow.
//!
//! Recording goes through the `trace_span!` / `trace_instant!` macros,
//! which consult the process-global log installed by [`install`]. When no
//! log is installed (`repro` without `--trace`) the macros cost one
//! atomic load and a predicted branch.
//!
//! The one export is [`TraceLog::to_chrome_json`]: Chrome Trace Event
//! Format (the JSON loaded by Perfetto / `chrome://tracing`), one track
//! per worker.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;
use crate::lock;

/// Default per-lane capacity (records, not bytes).
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A completed span: `start_ns` .. `start_ns + dur_ns`.
    Span,
    /// A point-in-time marker at `start_ns`.
    Instant,
    /// A sampled counter `value` at `start_ns`.
    Counter,
}

/// One fixed-size trace record (32 bytes, `Copy`).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Monotonic ns since the log's epoch.
    pub start_ns: u64,
    /// Span duration (0 for instants / counter samples).
    pub dur_ns: u64,
    /// Counter sample value (0 otherwise).
    pub value: u64,
    /// Interned name id (see [`TraceLog::name`]).
    pub name: u16,
    /// Worker id — one Perfetto track per worker.
    pub worker: u16,
    pub kind: TraceKind,
}

#[derive(Default)]
struct Names {
    ids: BTreeMap<String, u16>,
    list: Vec<String>,
}

struct Lane {
    worker: u16,
    buf: Vec<TraceEvent>,
    /// Next overwrite slot once the ring is full.
    next: usize,
    dropped: u64,
}

struct Inner {
    epoch: Instant,
    lane_capacity: usize,
    names: Mutex<Names>,
    lanes: Mutex<Vec<Arc<Mutex<Lane>>>>,
    next_worker: AtomicU64,
}

/// Shared trace sink. Clone freely; all clones share the lanes.
#[derive(Clone)]
pub struct TraceLog {
    inner: Arc<Inner>,
}

thread_local! {
    // Cache of this thread's lane, keyed by the owning log's identity so
    // tests can juggle several logs on one thread.
    static LANE: std::cell::RefCell<Option<(usize, Arc<Mutex<Lane>>)>> =
        const { std::cell::RefCell::new(None) };
}

impl TraceLog {
    /// A log whose per-thread lanes hold at most `lane_capacity` records.
    pub fn new(lane_capacity: usize) -> Self {
        TraceLog {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                lane_capacity: lane_capacity.max(16),
                names: Mutex::default(),
                lanes: Mutex::new(Vec::new()),
                next_worker: AtomicU64::new(0),
            }),
        }
    }

    /// Monotonic nanoseconds since this log was created.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    fn key(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    fn lane(&self) -> Arc<Mutex<Lane>> {
        let key = self.key();
        LANE.with(|slot| {
            let mut slot = slot.borrow_mut();
            if let Some((k, lane)) = slot.as_ref() {
                if *k == key {
                    return lane.clone();
                }
            }
            let worker = self.inner.next_worker.fetch_add(1, Ordering::Relaxed) as u16;
            let lane = Arc::new(Mutex::new(Lane { worker, buf: Vec::new(), next: 0, dropped: 0 }));
            lock(&self.inner.lanes).push(lane.clone());
            *slot = Some((key, lane.clone()));
            lane
        })
    }

    /// Bind the calling thread's lane to worker id `w` (the parallel
    /// study runner aligns trace tracks with its worker numbering).
    pub fn set_worker(&self, w: u16) {
        let lane = self.lane();
        lock(&lane).worker = w;
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&self, name: &str) -> u16 {
        let mut names = lock(&self.inner.names);
        if let Some(id) = names.ids.get(name) {
            return *id;
        }
        // Id space exhausted: fold everything else into one bucket
        // rather than panic mid-run.
        if names.list.len() >= u16::MAX as usize {
            return u16::MAX - 1;
        }
        let id = names.list.len() as u16;
        names.list.push(name.to_string());
        names.ids.insert(name.to_string(), id);
        id
    }

    /// Interned name for `id` ("?" when unknown).
    pub fn name(&self, id: u16) -> String {
        let names = lock(&self.inner.names);
        names.list.get(id as usize).cloned().unwrap_or_else(|| "?".to_string())
    }

    /// Append one record to the calling thread's lane (drop-oldest on
    /// overflow). Low-level: the macros and guards call this.
    pub fn record(&self, kind: TraceKind, name: u16, start_ns: u64, dur_ns: u64, value: u64) {
        let lane = self.lane();
        let mut lane = lock(&lane);
        let ev = TraceEvent { start_ns, dur_ns, value, name, worker: lane.worker, kind };
        if lane.buf.len() < self.inner.lane_capacity {
            lane.buf.push(ev);
        } else {
            let slot = lane.next;
            lane.buf[slot] = ev;
            lane.next = (slot + 1) % self.inner.lane_capacity;
            lane.dropped += 1;
        }
    }

    /// Open a span; records one [`TraceKind::Span`] event when dropped.
    pub fn span(&self, name: &str) -> TraceSpan {
        TraceSpan { sink: Some((self.clone(), self.intern(name))), start_ns: self.now_ns() }
    }

    /// Record a point-in-time marker.
    pub fn instant(&self, name: &str) {
        let id = self.intern(name);
        self.record(TraceKind::Instant, id, self.now_ns(), 0, 0);
    }

    /// Record a counter sample (rendered as a counter track).
    pub fn counter(&self, name: &str, value: u64) {
        let id = self.intern(name);
        self.record(TraceKind::Counter, id, self.now_ns(), 0, value);
    }

    /// Total records currently buffered across lanes.
    pub fn len(&self) -> usize {
        let lanes = lock(&self.inner.lanes);
        lanes.iter().map(|l| lock(l).buf.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records overwritten by ring overflow, across lanes.
    pub fn dropped(&self) -> u64 {
        let lanes = lock(&self.inner.lanes);
        lanes.iter().map(|l| lock(l).dropped).sum()
    }

    fn collect(&self) -> Vec<TraceEvent> {
        let lanes = lock(&self.inner.lanes);
        let mut out = Vec::new();
        for lane in lanes.iter() {
            out.extend_from_slice(&lock(lane).buf);
        }
        out
    }

    /// Export as Chrome Trace Event Format JSON: `{"traceEvents":[...]}`
    /// with `ph:"B"/"E"` span pairs (balanced by construction — both
    /// sides come from one record), `ph:"i"` instants, `ph:"C"` counter
    /// tracks, and a `thread_name` metadata row per worker. Timestamps
    /// are microseconds as Perfetto expects; per track they are
    /// non-decreasing.
    pub fn to_chrome_json(&self) -> String {
        let events = self.collect();
        let us = |ns: u64| Value::Num(ns as f64 / 1000.0);
        let mut rows: Vec<(u64, Value)> = Vec::new();

        // One metadata row per worker so Perfetto labels the tracks.
        let mut workers: Vec<u16> = events.iter().map(|e| e.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        let mut meta: Vec<Value> = Vec::new();
        for w in &workers {
            meta.push(Value::Obj(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(*w as u64)),
                (
                    "args".into(),
                    Value::Obj(vec![("name".into(), Value::Str(format!("worker {w}")))]),
                ),
            ]));
        }

        for w in workers {
            let (spans, rest): (Vec<_>, Vec<_>) =
                events.iter().filter(|e| e.worker == w).partition(|e| e.kind == TraceKind::Span);
            for (path, start, end) in nest_spans(&spans) {
                let name = self.name(path);
                let base = |ph: &str, ts: u64| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(name.clone())),
                        ("ph".into(), Value::Str(ph.into())),
                        ("ts".into(), us(ts)),
                        ("pid".into(), Value::UInt(1)),
                        ("tid".into(), Value::UInt(w as u64)),
                    ])
                };
                rows.push((start, base("B", start)));
                rows.push((end, base("E", end)));
            }
            for e in rest {
                let mut obj = vec![
                    ("name".into(), Value::Str(self.name(e.name))),
                    (
                        "ph".into(),
                        Value::Str(if e.kind == TraceKind::Counter { "C" } else { "i" }.into()),
                    ),
                    ("ts".into(), us(e.start_ns)),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(e.worker as u64)),
                ];
                if e.kind == TraceKind::Counter {
                    obj.push((
                        "args".into(),
                        Value::Obj(vec![("value".into(), Value::UInt(e.value))]),
                    ));
                } else {
                    obj.push(("s".into(), Value::Str("t".into())));
                }
                rows.push((e.start_ns, Value::Obj(obj)));
            }
        }

        // Stable sort: per-worker emission order (close-ordered span
        // triples become correctly interleaved B/E pairs — every B
        // carries a strictly smaller or tied-but-earlier ts than its E)
        // survives; cross-worker ties stay grouped.
        rows.sort_by_key(|(ts, _)| *ts);
        let mut trace_events = meta;
        trace_events.extend(rows.into_iter().map(|(_, v)| v));
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(trace_events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("droppedEvents".into(), Value::UInt(self.dropped())),
        ])
        .to_json()
    }
}

/// Resolve span records into a properly nested (name, start, end)
/// sequence for one worker: sorted by start (longer spans first on
/// ties), children clamped inside their parent so B/E pairs always
/// nest. Triples come out in close order; the exporter's stable
/// sort-by-ts turns that into the interleaved B/E stream the trace
/// format wants (an E tied with a following B sorts first because it
/// was emitted first).
fn nest_spans(spans: &[&TraceEvent]) -> Vec<(u16, u64, u64)> {
    let mut sorted: Vec<(u64, u64, u16)> =
        spans.iter().map(|e| (e.start_ns, e.start_ns.saturating_add(e.dur_ns), e.name)).collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut out = Vec::with_capacity(sorted.len());
    let mut stack: Vec<(u16, u64, u64)> = Vec::new();
    for (start, end, name) in sorted {
        while let Some(top) = stack.pop_if(|top| top.2 <= start) {
            out.push(top);
        }
        // Clamp to the enclosing span so overlap (which scoped guards
        // cannot produce, but raw records could) still nests.
        let end = match stack.last() {
            Some(top) => end.min(top.2),
            None => end,
        };
        stack.push((name, start, end));
    }
    while let Some(top) = stack.pop() {
        out.push(top);
    }
    out
}

/// Live trace span; records one `Span` record into its log on drop.
#[derive(Debug)]
pub struct TraceSpan {
    sink: Option<(TraceLog, u16)>,
    start_ns: u64,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some((tl, name)) = self.sink.take() {
            let end = tl.now_ns();
            tl.record(TraceKind::Span, name, self.start_ns, end.saturating_sub(self.start_ns), 0);
        }
    }
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("events", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

static GLOBAL: OnceLock<TraceLog> = OnceLock::new();

/// Install the process-global trace log (idempotent; the first capacity
/// wins). `repro --trace` calls this once at startup.
pub fn install(lane_capacity: usize) -> &'static TraceLog {
    GLOBAL.get_or_init(|| TraceLog::new(lane_capacity))
}

/// The installed global log, if any. One `OnceLock` load — the whole
/// disabled cost of a `trace_span!` call site.
pub fn current() -> Option<&'static TraceLog> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn trace_event_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceEvent>();
        assert!(
            std::mem::size_of::<TraceEvent>() <= 32,
            "TraceEvent grew past 32 bytes: {}",
            std::mem::size_of::<TraceEvent>()
        );
    }

    /// A worker that panics while holding the name table, the lane list
    /// or its own lane leaves the log exportable with every record.
    #[test]
    fn export_survives_a_poisoned_lock() {
        let tl = TraceLog::new(64);
        tl.instant("mark");
        drop(tl.span("work"));
        std::thread::scope(|s| {
            let died = s.spawn(|| {
                tl.instant("other");
                let lane = tl.lane();
                let _guard = lane.lock();
                panic!("worker died holding its lane");
            });
            assert!(died.join().is_err());
        });
        crate::poison(&tl.inner.names);
        crate::poison(&tl.inner.lanes);
        crate::poison(&tl.lane());
        tl.instant("after");
        assert_eq!((tl.len(), tl.dropped()), (4, 0));
        let doc = json::parse(&tl.to_chrome_json()).expect("export parses");
        let Some(json::Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents")
        };
        for name in ["mark", "work", "other", "after"] {
            assert!(
                events.iter().any(|e| e.get("name").and_then(json::Value::as_str) == Some(name)),
                "{name} missing from the export"
            );
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let tl = TraceLog::new(16);
        let id = tl.intern("x");
        for i in 0..40u64 {
            tl.record(TraceKind::Instant, id, i, 0, 0);
        }
        assert_eq!(tl.len(), 16);
        assert_eq!(tl.dropped(), 24);
        let min_ts = tl.collect().iter().map(|e| e.start_ns).min().unwrap();
        assert_eq!(min_ts, 24, "oldest records were overwritten");
    }

    /// Satellite: exported trace JSON parses via `obs::json::parse`,
    /// B/E pairs balance, and per-track timestamps never decrease.
    #[test]
    fn chrome_export_is_balanced_and_ordered() {
        let tl = TraceLog::new(1024);
        tl.set_worker(3);
        let outer = tl.intern("outer");
        let inner = tl.intern("inner");
        let tail = tl.intern("tail");
        // Nested + sibling spans with shared boundaries, plus an instant
        // and a counter sample.
        tl.record(TraceKind::Span, outer, 0, 100, 0);
        tl.record(TraceKind::Span, inner, 10, 40, 0);
        tl.record(TraceKind::Span, tail, 50, 50, 0);
        tl.record(TraceKind::Instant, tl.intern("mark"), 60, 0, 0);
        tl.record(TraceKind::Counter, tl.intern("depth"), 70, 0, 9);

        let text = tl.to_chrome_json();
        let doc = json::parse(&text).expect("chrome export must be valid JSON");
        let events = match doc.get("traceEvents") {
            Some(Value::Arr(xs)) => xs,
            other => panic!("expected traceEvents array, got {other:?}"),
        };
        let mut depth = 0i64;
        let mut last_ts = f64::MIN;
        let mut begins = 0;
        let mut ends = 0;
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).unwrap();
            if ph == "M" {
                continue;
            }
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            assert!(ts >= last_ts, "timestamps decreased: {ts} after {last_ts}");
            last_ts = ts;
            match ph {
                "B" => {
                    depth += 1;
                    begins += 1;
                }
                "E" => {
                    depth -= 1;
                    ends += 1;
                    assert!(depth >= 0, "E without matching B");
                }
                "i" | "C" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(depth, 0, "unbalanced B/E pairs");
        assert_eq!(begins, 3);
        assert_eq!(ends, 3);
    }

    #[test]
    fn span_guard_records_once() {
        let tl = TraceLog::new(64);
        {
            let _g = tl.span("phase");
        }
        assert_eq!(tl.len(), 1);
        let ev = tl.collect()[0];
        assert_eq!(ev.kind, TraceKind::Span);
        assert_eq!(tl.name(ev.name), "phase");
    }
}
