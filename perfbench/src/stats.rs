//! Small order statistics and process measurements.

/// Median of `xs` (mean of the two middle values for an even count; `0.0`
/// for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q3)` by the same exclusive method as Python's
/// `statistics.quantiles(xs, n=4)`; `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Python: m = n + 1; j = clamp(i*m // 4, 1, n - 1); delta = i*m - 4*j;
    // q_i = (data[j-1] * (4 - delta) + data[j] * delta) / 4.
    let at = |i: usize| {
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (i as i64 * m - 4 * j) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) if median(xs) != 0.0 => (q3 - q1) / median(xs).abs(),
        _ => 0.0,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// exposes `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }
}
