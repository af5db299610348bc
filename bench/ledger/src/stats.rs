//! Order statistics of timing samples.
//!
//! The gated statistic of every workload is the *fast tail* — the mean of
//! the fastest 2 % of a run's samples. On this host one of the two vCPUs
//! is contended in bursts of seconds and in phases of minutes; a mean, a
//! median and even the 10th percentile move with how much of a run was
//! disturbed, while the fastest few samples are the ones that ran
//! undisturbed (see README § Noise study for the numbers).

/// Sort a sample vector ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Share of a run's samples in its fast tail.
pub const FAST_TAIL_SHARE: f64 = 0.02;

/// Mean of the fastest [`FAST_TAIL_SHARE`] of an ascending slice (at
/// least one sample): steadier than the minimum, which one freak sample
/// sets, and than a single low quantile, which few samples resolve.
pub fn fast_tail(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "fast tail of an empty sample");
    let k = ((sorted.len() as f64 * FAST_TAIL_SHARE) as usize).max(1);
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// Median of an ascending slice (mean of the middle pair for even
/// counts, as Python's `statistics.median`).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of unsorted values.
pub fn median_of(values: Vec<f64>) -> f64 {
    median(&sorted(values))
}

/// The tail statistic: the highest percentile that still has at least
/// ten samples beyond it, as `(percentile, value)`. `None` below eleven
/// samples, where no percentile qualifies.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n >= 11).then(|| ((n - 10) as f64 / n as f64 * 100.0, sorted[n - 11]))
}

/// Value of the tail statistic; the largest sample when there are too
/// few for a percentile to qualify.
pub fn tail_value(sorted: &[f64]) -> f64 {
    tail(sorted).map_or(sorted[sorted.len() - 1], |(_, value)| value)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the driver computes its spread with that function, so `--compare`
/// must agree with it digit for digit.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the driver holds against a metric's bound.
pub fn spread(sorted: &[f64]) -> f64 {
    let (q1, q3) = quartiles(sorted);
    (q3 - q1) / median(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p10_on_known_vectors() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 10.0), 1.0);
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // ceil(0.1 · 11) = 2: the first sample alone covers only 9 %.
        assert_eq!(percentile(&eleven, 10.0), 2.0);
        let eighty: Vec<f64> = (1..=80).map(f64::from).collect();
        assert_eq!(percentile(&eighty, 10.0), 8.0);
        assert_eq!(percentile(&[7.5], 10.0), 7.5);
        assert_eq!(percentile(&ten, 0.0), 1.0);
    }

    #[test]
    fn fast_tail_is_the_mean_of_the_fastest_fiftieth() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fast_tail(&hundred), 1.5);
        let many: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(fast_tail(&many), 6.5);
        // Below fifty samples the tail is the single fastest one.
        assert_eq!(fast_tail(&[3.0, 4.0, 9.0]), 3.0);
        assert_eq!(fast_tail(&hundred[..99]), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail(&eleven).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        assert_eq!(tail_value(&hundred), 90.0);
        assert_eq!(tail_value(&[1.0, 3.0]), 3.0);
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 5.5));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }
}
