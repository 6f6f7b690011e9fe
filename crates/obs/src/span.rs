//! Wall-clock spans.
//!
//! A span is a named stopwatch: open a [`SpanGuard`] via
//! [`MetricSet::span`](crate::MetricSet::span), and when it drops (or is
//! [`SpanGuard::stop`]ped) the elapsed time folds into that name's
//! [`SpanStats`]. Names are deterministic strings chosen by the caller;
//! hierarchy is spelled into the name (`core.study.parallel.worker/w00`) so two
//! runs of the same code produce the same key set.

use std::time::{Duration, Instant};

use crate::metrics::MetricSet;

/// Aggregate of every observation recorded under one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats { count: 0, sum_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }
}

impl SpanStats {
    pub fn record(&mut self, elapsed_ns: u64) {
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(elapsed_ns);
        self.min_ns = self.min_ns.min(elapsed_ns);
        self.max_ns = self.max_ns.max(elapsed_ns);
    }

    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Live stopwatch; records on drop. Obtain via
/// [`MetricSet::span`](crate::MetricSet::span).
#[derive(Debug)]
pub struct SpanGuard {
    start: Instant,
    // None once stopped.
    sink: Option<(MetricSet, String)>,
}

impl SpanGuard {
    pub(crate) fn started(set: MetricSet, name: &str) -> Self {
        SpanGuard { start: Instant::now(), sink: Some((set, name.to_string())) }
    }

    /// Stop now, record, and hand back the elapsed wall time.
    pub fn stop(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if let Some((set, name)) = self.sink.take() {
            set.record_span(&name, elapsed.as_nanos() as u64);
        }
        elapsed
    }

    /// Elapsed so far, without stopping.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((set, name)) = self.sink.take() {
            set.record_span(&name, self.start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let ms = MetricSet::new();
        {
            let _g = ms.span("a.b.c");
        }
        let snap = ms.snapshot();
        assert_eq!(snap.spans["a.b.c"].count, 1);
        assert!(snap.spans["a.b.c"].min_ns <= snap.spans["a.b.c"].max_ns);
    }

    #[test]
    fn stop_records_once() {
        let ms = MetricSet::new();
        let g = ms.span("x");
        let d = g.stop();
        let snap = ms.snapshot();
        assert_eq!(snap.spans["x"].count, 1);
        assert!(d.as_nanos() > 0 || snap.spans["x"].sum_ns == 0);
    }

    #[test]
    fn stats_min_max_sum() {
        let mut s = SpanStats::default();
        s.record(5);
        s.record(2);
        s.record(9);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 16);
        assert_eq!(s.min_ns, 2);
        assert_eq!(s.max_ns, 9);
    }
}
