//! Quantile estimators. Everything the benchmark reports is a quantile of
//! per-slice values: host interference only ever adds time, so the quiet
//! end of a distribution repeats between runs where its mean does not.

/// Quantile `q` in `[0, 1]` of `v` by linear interpolation between order
/// statistics (`numpy.quantile`'s default). Sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Lowest decile: the quiet-host estimate of a per-slice cost.
pub fn p10(v: &mut [f64]) -> f64 {
    quantile(v, 0.10)
}

/// Lower quartile, used across latency slices.
pub fn p25(v: &mut [f64]) -> f64 {
    quantile(v, 0.25)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.50)
}

/// Nearest-rank p99 of integer samples: the smallest value with at least
/// 99 % of the samples at or below it. Sorts `v`.
pub fn p99_ns(v: &mut [u32]) -> u32 {
    assert!(!v.is_empty(), "p99 of no samples");
    v.sort_unstable();
    let rank = (v.len() * 99).div_ceil(100);
    v[rank.max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles() {
        let mut v: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(p10(&mut v), 10.0);
        assert_eq!(p25(&mut v), 25.0);
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        let mut w = vec![4.0, 1.0, 2.0, 3.0];
        assert_eq!(median(&mut w), 2.5);
        assert!((p10(&mut w) - 1.3).abs() < 1e-12);
        assert_eq!(p10(&mut [7.0]), 7.0);
    }

    #[test]
    fn p10_ignores_one_sided_noise() {
        // 70 % of slices inflated by interference, the rest quiet.
        let mut v: Vec<f64> = (0..100)
            .map(|i| {
                if i % 10 < 7 {
                    10.0 + f64::from(i)
                } else {
                    10.0
                }
            })
            .collect();
        assert_eq!(p10(&mut v), 10.0);
    }

    #[test]
    fn nearest_rank_p99() {
        let mut v: Vec<u32> = (1..=1000).collect();
        assert_eq!(p99_ns(&mut v), 990);
        let mut w = vec![5, 1, 9];
        assert_eq!(p99_ns(&mut w), 9);
    }
}
