//! Order statistics the benchmark reports: medians, quartiles and the
//! tail percentile.

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here agree with the ones an outside checker
/// computes from the printed values.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let lo = v[j as usize - 1];
        let hi = v[j as usize];
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Percentiles the tail is chosen from, lowest first. The rungs are far
/// apart in the sample count they need (20, 40, 100, 1000), and each
/// workload's count in a run sits well inside one band, so runs of one
/// workload report the same percentile.
pub const TAIL_LADDER: [f64; 4] = [50.0, 75.0, 90.0, 99.0];

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that has at least ten samples beyond it, as
/// `(percentile, value)`. The value is the nearest-rank percentile, so
/// "beyond" means the `n - rank` samples ranked above it. With fewer
/// than twenty samples not even the median qualifies; then the median is
/// returned with its percentile, and callers report the sample count.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of an empty sample");
    let v = sorted(values);
    let n = v.len();
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(TAIL_LADDER[0]);
    (p, v[rank(p) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 has exactly 10 beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        // 999 samples: p99 would leave 9 beyond, so p90 it is.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 900.0));
        // 1000 samples: p99 leaves 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        // 50000 samples: p99 is the highest rung.
        let v: Vec<f64> = (1..=50_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 49_500.0));
        // 20 samples: only the median qualifies.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));
        // 40 samples: p75 leaves 10 beyond; 39 leave 9, so the median.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75.0, 30.0));
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 20.0));
        // 99 samples: p90 would leave 9 beyond, so p75.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v), (75.0, 75.0));
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }
}
