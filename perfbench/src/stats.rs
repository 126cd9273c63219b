//! Order statistics for timing samples: the median every metric reports,
//! the quartiles the repeat mode compares against a bound, and the tail
//! percentile, reported only where enough samples lie beyond it.

/// Fewest samples for which a tail percentile is reported at all.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Tail percentiles considered, highest first, in permille (integers,
/// so a rank never lands one off through rounding).
const TAILS: [(usize, &str); 5] = [
    (999, "p99.9"),
    (990, "p99"),
    (950, "p95"),
    (900, "p90"),
    (750, "p75"),
];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`: the middle sample, or the mean of the middle pair.
///
/// # Panics
///
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method), so the repeat mode reports the spreads that method gives.
///
/// # Panics
///
/// With fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        // Signed: with few samples the clamped index extrapolates.
        let k = ((i + 1) * m) as i64;
        let j = (k / 4).clamp(1, v.len() as i64 - 1);
        let delta = (k - 4 * j) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// The highest tail percentile with at least [`MIN_BEYOND_TAIL`]
/// samples strictly beyond its rank, as `(label, value)` — or `None`
/// below [`MIN_TAIL_SAMPLES`] samples, where a percentile would be no
/// tail. Percentiles use the nearest-rank definition.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    let n = xs.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    let v = sorted(xs);
    TAILS.iter().find_map(|&(p, label)| {
        let rank = (p * n).div_ceil(1000);
        (n - rank >= MIN_BEYOND_TAIL).then(|| (label, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert!((spread(&ramp(10)) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0; 10]), 0.0);
    }

    #[test]
    fn below_forty_samples_only_the_median_is_reported() {
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&[]), None);
        assert!(tail(&ramp(40)).is_some());
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // 40 samples: p90 has 4 beyond, p75 has 10 beyond.
        assert_eq!(tail(&ramp(40)), Some(("p75", 30.0)));
        // 100 samples: p90 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(100)), Some(("p90", 90.0)));
        // 999 samples: p99 leaves 9 beyond, so p95 is the tail.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some("p95"));
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), Some(("p99", 990.0)));
        // 10 000 samples: p99.9 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(10_000)), Some(("p99.9", 9990.0)));
    }

    #[test]
    fn every_reported_tail_keeps_ten_samples_beyond() {
        for n in MIN_TAIL_SAMPLES..600 {
            let xs = ramp(n);
            let (_, value) = tail(&xs).expect("tail from forty samples on");
            let beyond = xs.iter().filter(|&&x| x > value).count();
            assert!(beyond >= MIN_BEYOND_TAIL, "n={n}: {beyond} beyond");
        }
    }
}
