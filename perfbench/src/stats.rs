//! Order statistics used by every reported timing.
//!
//! A timing is reported as its median and as a *tail*: the highest
//! percentile of [`TAIL_LADDER`] that still has at least [`TAIL_BEYOND`]
//! samples beyond it, so a tail is never a single outlier. Percentiles use
//! the nearest-rank definition, which always returns a measured sample.

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile for it to be used
/// as the tail.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(rank(p, sorted.len()) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// The tail percentile for `n` samples: the highest entry of
/// [`TAIL_LADDER`] with at least [`TAIL_BEYOND`] samples beyond its rank.
/// With too few samples for any entry, the maximum (percentile 100).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_BEYOND)
        .unwrap_or(100.0)
}

/// `(percentile used, value)` of the tail of `values`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = tail_percentile(values.len());
    (p, percentile(values, p))
}

/// Median (mean of the two middle samples for even counts); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 256 samples: p99 leaves 2 beyond, p95 leaves 12.
        assert_eq!(tail_percentile(256), 95.0);
        // 1100 samples: p99 leaves exactly 11 beyond.
        assert_eq!(tail_percentile(1100), 99.0);
        // 64 samples: p90 leaves 6, p75 leaves 16.
        assert_eq!(tail_percentile(64), 75.0);
        // 20 samples: p50 leaves exactly 10.
        assert_eq!(tail_percentile(20), 50.0);
        // Too few for any rung: the maximum.
        assert_eq!(tail_percentile(19), 100.0);
        assert_eq!(tail_percentile(5), 100.0);
    }

    #[test]
    fn every_tail_leaves_at_least_ten_samples_beyond() {
        for n in 20..3000 {
            let p = tail_percentile(n);
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&values, p);
            let beyond = values.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail(&[7.0; 3]), (100.0, 7.0));
    }
}
