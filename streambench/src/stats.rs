//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between the two nearest ranks, over the samples that are not `NaN`.
/// `NaN` when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The interquartile mean: the mean of `values` without the lowest and
/// the highest quarter (by count, rounded down). Unlike the median it
/// moves smoothly when samples come from a mix of two speeds, as they do
/// on a host that alternates between a fast and a slow mode. `NaN` for
/// an empty slice.
pub fn iq_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The fastest sample at each position across `rounds`, which replay the
/// same operations in the same order; `NaN` samples (operations that
/// failed) are skipped. The host this runs on slows down in phases of a
/// second or two, which hit different operations in different rounds;
/// an operation's fastest time across rounds is its cost without them.
pub fn best_per_position(rounds: &[&[f64]]) -> Vec<f64> {
    let len = rounds.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            rounds
                .iter()
                .filter_map(|r| r.get(i))
                .fold(f64::NAN, |best, &v| best.min(v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[f64::NAN, 2.0], 0.0), 2.0);
        let (a, b) = ([3.0, f64::NAN, 5.0], [4.0, 2.0]);
        assert_eq!(best_per_position(&[&a, &b]), vec![3.0, 2.0, 5.0]);
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 3.0, -50.0]), 2.0);
        assert_eq!(iq_mean(&[7.0]), 7.0);
        assert!(iq_mean(&[]).is_nan());
    }
}
