//! Order statistics behind every timing metric: nearest-rank
//! percentiles, medians, and the rule that a tail is only reported at
//! a percentile the sample supports.

/// Samples that must lie strictly beyond a percentile before the
/// sample is said to support it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail can be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `q` (in `[0, 100]`) among `n`
/// samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` of an ascending slice; NaN when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Median (nearest rank) of unsorted values; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Samples strictly beyond the nearest rank of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// A tail percentile together with the sample it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub q: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Sample count.
    pub count: usize,
}

/// The highest percentile on the ladder (99.9, 99, 95, 90, 75, 50) with
/// at least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// median lacks them.
pub fn supported_tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    LADDER
        .iter()
        .find(|&&q| beyond(n, q) >= MIN_BEYOND)
        .map(|&q| Tail {
            q,
            value: percentile(sorted, q),
            count: n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, ten beyond; p99 has only two.
        let t = supported_tail(&ramp(200)).unwrap();
        assert_eq!((t.q, t.value, t.count), (95.0, 190.0, 200));
        // 199 samples: p95 is rank 190, nine beyond — falls to p90.
        assert_eq!(supported_tail(&ramp(199)).unwrap().q, 90.0);
        assert_eq!(supported_tail(&ramp(100)).unwrap().q, 90.0);
        assert_eq!(supported_tail(&ramp(1000)).unwrap().q, 99.0);
        assert_eq!(supported_tail(&ramp(10_000)).unwrap().q, 99.9);
        assert_eq!(supported_tail(&ramp(20)).unwrap().q, 50.0);
        assert_eq!(supported_tail(&ramp(19)), None);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(0, 95.0), 0);
    }
}
