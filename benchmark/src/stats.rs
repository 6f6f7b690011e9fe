//! Order statistics for timing samples: median, quartiles, and the
//! tail-percentile rule.

/// Median and quartiles of a sample, plus its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// spread the regression bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and quartiles, the quartiles cut the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) cuts them, so
/// the spreads printed here are the ones an outside checker computes.
/// A single sample is its own median and quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "summary of an empty sample");
    if n == 1 {
        return Summary { median: v[0], q1: v[0], q3: v[0], n };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary { median: median(&v), q1: cut(1), q3: cut(3), n }
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Fewest samples a percentile is taken of: with fewer, not even the
/// median has [`TAIL_SAMPLES_BEYOND`] samples on either side.
pub const MIN_FOR_PERCENTILES: usize = 2 * TAIL_SAMPLES_BEYOND + 1;

/// The tail of a latency sample: the 95th percentile when at least
/// [`TAIL_SAMPLES_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile that still has that many beyond it.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= MIN_FOR_PERCENTILES, "tail of a sample of {n}");
    let p95 = (0.95 * n as f64).ceil() as usize - 1;
    v[p95.min(n - 1 - TAIL_SAMPLES_BEYOND)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = summarize(&[36.7]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (36.7, 36.7, 36.7, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn tail_of_235_is_p95_with_eleven_beyond() {
        let v: Vec<f64> = (1..=235).map(f64::from).collect();
        // ceil(0.95 * 235) = 224: 11 samples (225..=235) lie beyond it.
        assert_eq!(tail(&v), 224.0);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        // p95 of 60 would leave 3 beyond; the rule backs off to the 50th value.
        assert_eq!(tail(&v), 50.0);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v), 11.0);
    }
}
