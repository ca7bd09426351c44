//! Metrics derived from other measurements rather than timed directly.

use crate::stats::median;

/// `core.executor_ms.<net>`: a verified forward's wall time minus the
/// time of its verification oracle (`conv.reference_ms.<net>`), paired
/// by round so both were measured together; the median over rounds.
pub fn executor_ms(forward_ms: &[f64], reference_ms: &[f64]) -> f64 {
    let diffs: Vec<f64> = forward_ms
        .iter()
        .zip(reference_ms)
        .map(|(f, r)| f - r)
        .collect();
    median(&diffs)
}

/// `serve.queue_wait_ms`: the median over requests of each request's
/// latency minus its tenant's isolated dispatch median.
pub fn queue_wait_ms(latency_ms: &[f64], tenant: &[usize], isolated_ms: &[f64]) -> f64 {
    let waits: Vec<f64> = latency_ms
        .iter()
        .zip(tenant)
        .map(|(l, &t)| l - isolated_ms[t])
        .collect();
    median(&waits)
}

/// `simnet.overhead_ms` of one forward: per layer, the median wall time
/// of its calls minus their median compute time, summed over layers.
/// `layers[i]` holds `(wall_ms, compute_ms)` for each call of layer `i`.
pub fn overhead_ms(layers: &[Vec<(f64, f64)>]) -> f64 {
    layers
        .iter()
        .map(|calls| {
            let wall: Vec<f64> = calls.iter().map(|c| c.0).collect();
            let compute: Vec<f64> = calls.iter().map(|c| c.1).collect();
            median(&wall) - median(&compute)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_is_forward_minus_oracle_per_round() {
        // A slow round slows both; pairing by round cancels it.
        let forward = [82.5, 160.0, 80.0];
        let reference = [62.0, 130.0, 61.0];
        assert_eq!(executor_ms(&forward, &reference), 20.5);
    }

    #[test]
    fn queue_wait_subtracts_each_tenants_dispatch() {
        // Tenant 0 dispatches in 80 ms, tenant 1 in 10 ms.
        let lat = [100.0, 30.0, 95.0, 12.0, 180.0];
        let tenant = [0, 1, 0, 1, 0];
        // Waits: 20, 20, 15, 2, 100 → median 20.
        assert_eq!(queue_wait_ms(&lat, &tenant, &[80.0, 10.0]), 20.0);
    }

    #[test]
    fn overhead_sums_layer_medians() {
        let layers = vec![
            vec![(10.0, 6.0), (12.0, 7.0), (11.0, 6.5)],
            vec![(5.0, 1.0)],
        ];
        // Layer 0: 11 − 6.5; layer 1: 5 − 1.
        assert_eq!(overhead_ms(&layers), 8.5);
    }
}
