//! Exact order statistics over the benchmark's samples.

/// Median (mean of the two middle values for an even count). Reorders
/// `v`; 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `v` (the smallest sample with at least
/// `q · n` samples at or below it). Reorders `v`.
///
/// # Panics
/// Panics if `v` is empty.
pub fn percentile(v: &mut [u32], q: f64) -> u32 {
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1
}

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default, exclusive method).
/// Needs at least two values.
pub fn quartiles(data: &[f64]) -> [f64; 3] {
    assert!(data.len() >= 2, "quartiles need at least two values");
    let mut d = data.to_vec();
    d.sort_by(f64::total_cmp);
    let (n, m) = (4usize, d.len() + 1);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, d.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_is_nearest_rank_and_median_averages() {
        let mut v: Vec<u32> = (1..=200).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 100);
        assert_eq!(percentile(&mut v, 0.99), 198);
        assert_eq!(percentile(&mut v, 1.0), 200);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    }
}
