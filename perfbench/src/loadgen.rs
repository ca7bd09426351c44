//! The open-loop load generator's schedule: seeded Poisson arrivals,
//! each naming its tenant and request seed. The schedule is fixed
//! before the first request is sent, so a stalled server cannot slow
//! the arrivals down — it can only make them late.

use distconv_par::rng::SplitMix64;
use std::time::Duration;

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When it is due, measured from the start of the phase.
    pub due: Duration,
    /// Tenant (model index) it is sent to.
    pub tenant: usize,
    /// The request's seed (its input).
    pub seed: u64,
}

/// `count` arrivals of a Poisson process at `rate_per_s`, conditioned
/// on the last one falling at exactly `count / rate_per_s`, so every
/// seed offers the same load over the same span. Tenants take turns
/// from a seeded offset, so each gets an equal share. Equal arguments
/// give an equal schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize, tenants: usize) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0 && tenants > 0 && count > 0);
    let mut rng = SplitMix64::new(seed);
    let offset = rng.usize_in(0, tenants - 1);
    let mut t = 0.0f64;
    let times: Vec<f64> = (0..count)
        .map(|_| {
            // Exponential gap by inversion; 1 − u lies in (0, 1].
            t += -(1.0 - rng.next_f64()).ln();
            t
        })
        .collect();
    let scale = count as f64 / rate_per_s / t;
    times
        .iter()
        .enumerate()
        .map(|(i, &t)| Arrival {
            due: Duration::from_secs_f64(t * scale),
            tenant: (offset + i) % tenants,
            seed: rng.next_u64(),
        })
        .collect()
}

/// Median latency of the last quarter of requests (in due order)
/// over that of the first quarter. Near 1 below the knee; a backlog
/// that grows through the phase drives it up.
pub fn backlog_growth(latencies_in_due_order: &[f64]) -> f64 {
    let n = latencies_in_due_order.len();
    let q = (n / 4).max(1);
    if n < 2 {
        return 1.0;
    }
    crate::stats::median(&latencies_in_due_order[n - q..])
        / crate::stats::median(&latencies_in_due_order[..q])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(7, 20.0, 300, 3);
        assert_eq!(a, poisson_schedule(7, 20.0, 300, 3));
        assert_ne!(a, poisson_schedule(8, 20.0, 300, 3));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.tenant < 3));
        // Tenants take equal turns; the schedule spans count / rate.
        for t in 0..3 {
            assert_eq!(a.iter().filter(|x| x.tenant == t).count(), 100);
        }
        let span = a.last().unwrap().due.as_secs_f64();
        assert!((span - 15.0).abs() < 1e-9, "span {span}");
        // Gaps are irregular (bursty), not a fixed pace.
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        assert!(max > 4.0 * 0.05, "largest gap {max}");
    }

    #[test]
    fn backlog_growth_compares_quarters() {
        let flat = vec![10.0; 40];
        assert_eq!(backlog_growth(&flat), 1.0);
        let climbing: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        // Quarters are 1..=10 and 31..=40: medians 5 and 35.
        assert_eq!(backlog_growth(&climbing), 7.0);
    }
}
