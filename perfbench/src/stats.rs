//! Order statistics over a run's samples.

/// The tail percentiles the benchmark may report, highest first.
pub const TAIL_CANDIDATES: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples.
pub fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps binary rounding (99.9 % of 10 000 is not exactly
    // 9 990 in f64) from bumping an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `values` (any order).
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let sorted = sorted(values);
    sorted[rank(p, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even count (as
/// Python's `statistics.median` does).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond its rank, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// Median plus the highest qualifying tail, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// `(percentile, value)` of the reported tail, if any qualifies.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        Some(Summary {
            n: values.len(),
            p50: median(values),
            tail: tail_percentile(values.len()).map(|p| (p, percentile(values, p))),
        })
    }

    /// `p50 12.3 (p90 15.1, n 240)`-style text.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.4} {unit} (p{p} {v:.4} {unit}, n {})",
                self.p50, self.n
            ),
            None => format!("p50 {:.4} {unit} (no tail, n {})", self.p50, self.n),
        }
    }
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
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), 90.0);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        // 100 samples: rank 90, ten beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // 1000 samples: p99 has rank 990, ten beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [100, 1000, 10_000, 123_456] {
            let p = tail_percentile(n).expect("qualifies");
            assert!(n - rank(p, n) >= MIN_BEYOND, "n {n} p {p}");
        }
    }

    #[test]
    fn summary_reports_the_tail_only_when_it_qualifies() {
        let small: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(Summary::of(&small).unwrap().tail, None);
        let big: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&big).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(s.tail, Some((90.0, 180.0)));
        assert!(Summary::of(&[]).is_none());
    }
}
