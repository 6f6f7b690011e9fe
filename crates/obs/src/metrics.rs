//! Counter/gauge/histogram registry.
//!
//! A [`MetricSet`] is a cheaply clonable handle (`Arc` inside) to a named
//! registry of atomics. Hot paths pre-register a [`Counter`], [`Gauge`],
//! or [`Histogram`] once and then touch only the atomics; cold paths can
//! use [`MetricSet::add`] / [`MetricSet::gauge_max`] by name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{HistCells, HistData, Histogram};
use crate::lock;
use crate::span::{SpanGuard, SpanStats};

/// Monotonic counter handle. Clone freely; all clones share the cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// High-water-mark gauge handle.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raise the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
    hists: Mutex<BTreeMap<String, Arc<HistCells>>>,
}

/// Shared registry of counters, gauges, and span statistics.
#[derive(Clone, Default)]
pub struct MetricSet {
    inner: Arc<Inner>,
}

/// Point-in-time copy of a [`MetricSet`], ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub spans: BTreeMap<String, SpanStats>,
    pub hists: BTreeMap<String, HistData>,
}

impl MetricSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.inner.counters);
        let cell = map.entry(name.to_string()).or_default().clone();
        Counter(cell)
    }

    /// Fetch (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.inner.gauges);
        let cell = map.entry(name.to_string()).or_default().clone();
        Gauge(cell)
    }

    /// Fetch (registering on first use) the log2-bucketed histogram
    /// `name`.
    pub fn hist(&self, name: &str) -> Histogram {
        let mut map = lock(&self.inner.hists);
        let cell = map.entry(name.to_string()).or_default().clone();
        Histogram(cell)
    }

    /// Add `n` to counter `name`; registry lookup per call, so prefer a
    /// pre-registered [`Counter`] in tight loops.
    #[inline]
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Raise gauge `name` to `v` if larger.
    #[inline]
    pub fn gauge_max(&self, name: &str, v: u64) {
        self.gauge(name).record_max(v);
    }

    /// Open a wall-clock span; it records into this set when dropped or
    /// stopped ([`SpanGuard::stop`] also returns the elapsed time).
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard::started(self.clone(), name)
    }

    /// Merge one finished span observation into the registry.
    /// Exposed for [`SpanGuard`] and for folding external measurements in.
    pub fn record_span(&self, name: &str, elapsed_ns: u64) {
        let mut map = lock(&self.inner.spans);
        map.entry(name.to_string()).or_default().record(elapsed_ns);
    }

    /// Copy out every metric, ordered by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&self.inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let spans = lock(&self.inner.spans).clone();
        let hists = lock(&self.inner.hists)
            .iter()
            .map(|(k, v)| (k.clone(), Histogram(v.clone()).data()))
            .collect();
        Snapshot { counters, gauges, spans, hists }
    }

    /// Fold every metric of `other` into `self` (counters summed, gauges
    /// maxed, span stats merged, histogram buckets summed). Used to
    /// aggregate per-worker sets.
    pub fn absorb(&self, other: &Snapshot) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_max(k, *v);
        }
        {
            let mut map = lock(&self.inner.spans);
            for (k, s) in &other.spans {
                map.entry(k.clone()).or_default().merge(s);
            }
        }
        for (k, h) in &other.hists {
            let handle = self.hist(k);
            // Bucket-sum through the atomic cells so concurrent absorbs
            // compose.
            for (b, n) in h.buckets.iter().enumerate() {
                if *n > 0 {
                    handle.add_bucket(b, *n);
                }
            }
            handle.fold_exact(h.sum, h.min, h.max);
        }
    }
}

impl std::fmt::Debug for MetricSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricSet").field("snapshot", &self.snapshot()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shared_across_handles() {
        let ms = MetricSet::new();
        let a = ms.counter("x.y.z");
        let b = ms.counter("x.y.z");
        a.inc();
        b.add(4);
        assert_eq!(ms.snapshot().counters["x.y.z"], 5);
    }

    #[test]
    fn gauge_high_water() {
        let ms = MetricSet::new();
        ms.gauge_max("q.depth", 3);
        ms.gauge_max("q.depth", 9);
        ms.gauge_max("q.depth", 5);
        assert_eq!(ms.snapshot().gauges["q.depth"], 9);
    }

    /// Satellite: absorb's merge semantics pinned — counters add, gauges
    /// max, spans merge, histogram buckets sum.
    #[test]
    fn absorb_sums_counters() {
        let a = MetricSet::new();
        let b = MetricSet::new();
        a.add("n", 2);
        a.gauge_max("g", 9);
        a.hist("h").record(3);
        b.add("n", 3);
        b.gauge_max("g", 7);
        b.record_span("s", 100);
        b.hist("h").record(3);
        b.hist("h").record(1000);
        a.absorb(&b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.counters["n"], 5, "counters add");
        assert_eq!(snap.gauges["g"], 9, "gauges keep the max");
        assert_eq!(snap.spans["s"].count, 1);
        let h = &snap.hists["h"];
        assert_eq!(h.count(), 3, "histogram buckets sum");
        assert_eq!(h.buckets[crate::hist::bucket_of(3)], 2);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 1000);
    }

    /// A worker that panics mid-update leaves every registry usable:
    /// the snapshot keeps what was recorded and later updates land.
    #[test]
    fn registries_survive_a_poisoned_lock() {
        let ms = MetricSet::new();
        ms.add("c", 1);
        ms.gauge_max("g", 2);
        ms.hist("h").record(3);
        ms.record_span("s", 4);
        crate::poison(&ms.inner.counters);
        crate::poison(&ms.inner.gauges);
        crate::poison(&ms.inner.hists);
        crate::poison(&ms.inner.spans);
        let snap = ms.snapshot();
        assert_eq!((snap.counters["c"], snap.gauges["g"]), (1, 2));
        assert_eq!((snap.hists["h"].count(), snap.spans["s"].count), (1, 1));
        ms.absorb(&snap);
        let snap = ms.snapshot();
        assert_eq!((snap.counters["c"], snap.hists["h"].count(), snap.spans["s"].count), (2, 2, 2));
    }

    #[test]
    fn hist_shared_across_handles() {
        let ms = MetricSet::new();
        let a = ms.hist("d");
        let b = ms.hist("d");
        a.record(4);
        b.record(9);
        assert_eq!(ms.snapshot().hists["d"].count(), 2);
    }
}
