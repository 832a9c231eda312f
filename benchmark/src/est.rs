//! Estimators chosen because they repeat on a noisy shared host.
//!
//! The optimizer is deterministic, so other tenants of the host can only
//! *add* time to a measurement: the minimum over repeats of one query is
//! the least disturbed sample (best-of-R), and the median over rounds of
//! a rate discards the rounds a neighbour stole.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so a metric is always a number.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Best-of-R: `samples[r][k]` is the time of query `k` in repeat `r`;
/// the estimate is the mean over queries of each query's minimum over
/// the repeats.
pub fn mean_of_min(samples: &[Vec<f64>]) -> f64 {
    let Some(first) = samples.first() else {
        return 0.0;
    };
    let mins: Vec<f64> = (0..first.len())
        .map(|k| {
            samples
                .iter()
                .filter_map(|repeat| repeat.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    mean(&mins)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_r_ignores_disturbed_repeats() {
        // Query 0 costs 10, query 1 costs 20; each repeat disturbs one.
        let samples = vec![vec![10.0, 90.0], vec![55.0, 20.0], vec![11.0, 21.0]];
        assert_eq!(mean_of_min(&samples), 15.0);
        assert_eq!(mean_of_min(&[]), 0.0);
    }

    #[test]
    fn median_of_rounds_discards_outliers() {
        assert_eq!(median(&[100.0, 101.0, 5.0, 99.0, 300.0]), 100.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.9), 36.0);
    }
}
