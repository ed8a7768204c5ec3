//! Order statistics over measured samples.

/// Value at quantile `p` (0.0–1.0) of an ascending-sorted slice by the
/// nearest-rank rule: the smallest sample with at least `p·n` samples at or
/// below it. 0.0 on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles of unsorted samples, computed as Python's
/// `statistics.quantiles(samples, n=4)` does (its default "exclusive"
/// method), so a spread printed here matches one computed from the
/// benchmark's JSON output. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // Python's formula verbatim: position i·(n+1)/4 in 1-based order, with
    // the lower index clamped to [1, n-1] and the (possibly extrapolating)
    // weight taken after the clamp.
    let at = |i: usize| {
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (i as i64 * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// measure the benchmark's bounds are set against.
pub fn relative_iqr(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Sorted copy of latency samples with the percentiles the report prints.
#[derive(Debug, Clone)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Takes ownership of unsorted samples.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Latencies { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, `p` in 0.0–1.0.
    pub fn at(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }

    /// Samples strictly above the `p` percentile: a tail percentile is
    /// trustworthy only with at least ten of them.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.at(p);
        self.sorted.iter().filter(|&&v| v > cut).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_divides_by_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&v).expect("ten samples");
        assert!((r - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn latencies_report_tail_support() {
        let l = Latencies::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(l.count(), 1000);
        assert_eq!(l.at(0.5), 500.0);
        assert_eq!(l.at(0.99), 990.0);
        assert_eq!(l.beyond(0.99), 10);
    }
}
