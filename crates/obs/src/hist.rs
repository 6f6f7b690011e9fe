//! Lock-free log2-bucketed histograms.
//!
//! A [`Histogram`] is a cheaply clonable handle (`Arc` inside) to a fixed
//! array of 65 `AtomicU64` buckets — bucket `b` counts observations of
//! bit-width `b`, i.e. values in `[2^(b-1), 2^b)`; bucket 0 counts exact
//! zeros (the same bucketing `masim-mfact` pioneered for clock-advance
//! deltas) — plus exact atomic
//! `sum`/`min`/`max` cells. Recording is three relaxed RMWs and never
//! takes a lock, so a histogram handle is safe to touch from hot paths
//! when detail collection is on. Percentile queries return the upper
//! bound of the bucket containing the requested rank, which for any
//! non-zero observation is within a factor of two of the exact value
//! (the test suite pins that bound against a sorted reference).
//!
//! Register one in a [`MetricSet`](crate::MetricSet) via
//! [`MetricSet::hist`](crate::MetricSet::hist); snapshots carry the
//! bucket vector as [`HistData`], which merges by bucket-sum in
//! [`Snapshot::absorb`](crate::Snapshot) and serializes through the
//! sidecar writer in `run.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per possible bit width.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for value `v`: 0 for 0, else the bit width
/// `64 - leading_zeros(v)`, i.e. `v` lands in bucket `b` when
/// `2^(b-1) <= v < 2^b`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `b`: `2^b - 1` (0 for bucket 0).
#[inline]
pub fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

#[derive(Debug)]
pub(crate) struct HistCells {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Shared histogram handle. Clone freely; all clones share the cells.
#[derive(Clone, Debug)]
pub struct Histogram(pub(crate) Arc<HistCells>);

impl Histogram {
    /// Record one observation. Lock-free: three relaxed RMWs plus two
    /// bounded CAS-free `fetch_min`/`fetch_max`.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &*self.0;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Add `n` observations directly to bucket `b` (snapshot merges).
    #[inline]
    pub fn add_bucket(&self, b: usize, n: u64) {
        self.0.buckets[b].fetch_add(n, Ordering::Relaxed);
    }

    /// Fold another histogram's exact cells in (snapshot merges).
    pub fn fold_exact(&self, sum: u64, min: u64, max: u64) {
        self.0.sum.fetch_add(sum, Ordering::Relaxed);
        self.0.min.fetch_min(min, Ordering::Relaxed);
        self.0.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Copy the cells out into a [`HistData`].
    pub fn data(&self) -> HistData {
        let c = &*self.0;
        HistData {
            buckets: std::array::from_fn(|i| c.buckets[i].load(Ordering::Relaxed)),
            sum: c.sum.load(Ordering::Relaxed),
            min: c.min.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a histogram's buckets and exact sum/min/max.
/// `min` is `u64::MAX` while empty (mirrors [`SpanStats`](crate::SpanStats)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistData {
    pub buckets: [u64; NUM_BUCKETS],
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData { buckets: [0; NUM_BUCKETS], sum: 0, min: u64::MAX, max: 0 }
    }
}

impl HistData {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean observation, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Record into the snapshot directly (used by tests and replays).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Quantile estimate for `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the nearest-rank observation, clamped to the exact
    /// recorded max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Nearest-rank: the k-th smallest with k = ceil(q * total), k >= 1.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value is <= its bucket's upper bound and > the previous
        // bucket's upper bound.
        for v in [1u64, 2, 3, 7, 8, 9, 1023, 1024, 1025, 1 << 40] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "{v} in b{b}");
            assert!(v > bucket_upper(b - 1), "{v} in b{b}");
        }
    }

    #[test]
    fn exact_cells_track() {
        let h = Histogram(Arc::default());
        for v in [5u64, 0, 17, 3] {
            h.record(v);
        }
        let d = h.data();
        assert_eq!(d.count(), 4);
        assert_eq!(d.sum, 25);
        assert_eq!(d.min, 0);
        assert_eq!(d.max, 17);
        assert_eq!(d.mean(), 6);
    }

    /// Satellite: percentile estimates stay within the log2 contract —
    /// `exact <= estimate <= max(2 * exact, exact + 1)` — against an
    /// exact sorted reference over seeded pseudo-random inputs.
    #[test]
    fn quantiles_bounded_by_sorted_reference() {
        // Deterministic splitmix64 stream, no external RNG crate.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for round in 0..20 {
            let n = 100 + round * 37;
            let h = Histogram(Arc::default());
            let mut vals: Vec<u64> = (0..n)
                .map(|_| {
                    // Mix magnitudes: spread across many buckets.
                    let r = next();
                    r >> (r % 56)
                })
                .collect();
            for &v in &vals {
                h.record(v);
            }
            vals.sort_unstable();
            let d = h.data();
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = vals[rank - 1];
                let est = d.quantile(q);
                assert!(est >= exact, "round {round} q{q}: est {est} < exact {exact}");
                let ceiling = exact.saturating_mul(2).max(exact.saturating_add(1)).min(d.max);
                assert!(est <= ceiling, "round {round} q{q}: est {est} > ceiling {ceiling}");
            }
            assert_eq!(d.quantile(1.0), *vals.last().unwrap());
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let d = HistData::default();
        assert_eq!(d.p50(), 0);
        assert_eq!(d.p99(), 0);
        assert_eq!(d.count(), 0);
    }
}
