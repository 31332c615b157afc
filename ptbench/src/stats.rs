//! Order statistics used by every metric the benchmark reports.

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between
/// order statistics at rank `q * (n - 1)`; `None` when empty.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The Harrell–Davis estimate of the `q`-quantile (`0 < q < 1`): the
/// mean of all order statistics weighted by a Beta((n + 1)q,
/// (n + 1)(1 - q)) distribution, so it rests on the samples around rank
/// `q * n` rather than on one or two of them. `None` when empty.
///
/// The latency percentiles use it because on `compile-*` they are taken
/// over only 11 or 22 per-job medians, where a plain order statistic is
/// one job's median and moves with that job alone.
pub fn hd_quantile(xs: &[f64], q: f64) -> Option<f64> {
    // Midpoint-rule slices per order statistic for the Beta weights.
    const STEPS: usize = 64;
    let v = sorted(xs);
    if v.len() < 2 {
        return v.first().copied();
    }
    let q = q.clamp(1e-9, 1.0 - 1e-9);
    let n1 = (v.len() + 1) as f64;
    let (a, b) = (n1 * q - 1.0, n1 * (1.0 - q) - 1.0);
    // Order statistic `i` weighs the Beta density over ((i - 1)/n, i/n];
    // log space, so large samples neither overflow nor underflow.
    let m = v.len() * STEPS;
    let ln_pdf: Vec<f64> = (0..m)
        .map(|k| {
            let x = (k as f64 + 0.5) / m as f64;
            a * x.ln() + b * (1.0 - x).ln()
        })
        .collect();
    let top = ln_pdf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut total, mut weighted) = (0.0, 0.0);
    for (k, l) in ln_pdf.iter().enumerate() {
        let w = (l - top).exp();
        total += w;
        weighted += w * v[k / STEPS];
    }
    Some(weighted / total)
}

/// How many of `n` samples lie strictly beyond the `q`-quantile
/// position used by [`percentile`].
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).floor() as usize;
    n - 1 - rank
}

/// Whether the `q`-quantile of `n` samples rests on at least ten
/// samples beyond it, the rule for reporting a tail percentile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method);
/// `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    if v.len() < 2 {
        return None;
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn harrell_davis_weights_the_neighbouring_order_statistics() {
        // Beta(2, 3) weights for n = 4, q = 0.4 integrate in closed form
        // (CDF 6x^2 - 8x^3 + 3x^4): 0.26171875, 0.42578125, 0.26171875,
        // 0.05078125, so the estimate is 2.40625.
        let hd = hd_quantile(&[3.0, 1.0, 10.0, 2.0], 0.4).unwrap();
        assert!((hd - 2.40625).abs() < 1e-4, "{hd}");
        // Symmetric weights on symmetric data give the median.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!((hd_quantile(&xs, 0.5).unwrap() - 6.0).abs() < 1e-9);
        let p90 = hd_quantile(&xs, 0.9).unwrap();
        assert!(p90 > 9.0 && p90 < 11.0, "{p90}");
        assert_eq!(hd_quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(hd_quantile(&[], 0.5), None);
        let big: Vec<f64> = (0..5000).map(f64::from).collect();
        assert!((hd_quantile(&big, 0.9).unwrap() - 4499.5).abs() < 1.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(90, 0.9));
        assert!(!tail_supported(44, 0.9));
        assert!(tail_supported(1000, 0.99));
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn geomean_rejects_non_positive_values() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
