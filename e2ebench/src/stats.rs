//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for an even count;
/// 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones a Python check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python: j = clamp(i·m // 4, 1, n-1); delta = i·m - 4·j;
    // q_i = (x[j-1]·(4-delta) + x[j]·delta) / 4, with m = n + 1.
    let at = |i: usize| -> f64 {
        let im = i * (n + 1);
        let j = (im / 4).clamp(1, n - 1);
        let delta = im as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    let (q1, q3) = quartiles(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Percentiles offered as a tail, highest first.
const TAIL_LADDER: [f64; 7] = [0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50];

/// The highest percentile of `TAIL_LADDER` that leaves at least ten
/// samples beyond it, for `n` samples. Below 20 samples no rung
/// qualifies and the median (0.5) is returned.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER.iter().copied().find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9).unwrap_or(0.5)
}

/// Nearest-rank percentile `q` of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    devtools::sketch::percentile_nearest_rank(&v, q)
}

/// Human label of a quantile: `p99`, `p99.9`, `p50`.
pub fn quantile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{pct:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(9_999), 0.99);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(999), 0.98);
        assert_eq!(tail_quantile(600), 0.98);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(20), 0.50);
        assert_eq!(tail_quantile(3), 0.50);
        for n in [20usize, 57, 100, 333, 1234, 50_000] {
            let q = tail_quantile(n);
            assert!(n as f64 * (1.0 - q) >= 10.0 - 1e-9, "n={n} q={q}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn labels() {
        assert_eq!(quantile_label(0.99), "p99");
        assert_eq!(quantile_label(0.999), "p99.9");
        assert_eq!(quantile_label(0.5), "p50");
    }
}
