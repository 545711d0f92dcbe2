//! Order statistics for the benchmark's timings.

/// The `p`-th percentile (`0 < p <= 100`) of `values` by the nearest-rank
/// method: the smallest sample with at least `p`% of the samples at or
/// below it. Nearest rank always returns a measured sample, so a p90 over
/// 100 campaigns is the 90th slowest campaign, not an interpolation.
/// `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (nearest rank), `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_measured_samples() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 99.0), Some(99.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        // Ranks round up: the p90 of ten samples is the ninth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
        assert_eq!(percentile(&ten, 91.0), Some(10.0));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(percentile(&[3.0, 1.0], 0.0), Some(1.0));
        assert_eq!(median(&[2.0, 1.0, 3.0]), Some(2.0));
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
