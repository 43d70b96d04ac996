//! The benchmark's statistics: medians, quartiles, tail percentiles and
//! failure accounting.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches the one
//! computed from the printed results by any script that uses Python.

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count. `None` for an empty list or one holding NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values)?;
    let n = sorted.len();
    let mid = n / 2;
    if n % 2 == 1 {
        sorted.get(mid).copied()
    } else {
        Some((sorted.get(mid - 1)? + sorted.get(mid)?) / 2.0)
    }
}

/// First quartile, median and third quartile of `values`, as
/// `statistics.quantiles(values, n=4)` computes them. Needs at least two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values)?;
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    // Integer arithmetic as in CPython; `delta` may fall outside 0..=n
    // when `j` is clamped, which extrapolates exactly as Python does.
    let n: i64 = 4;
    let m = i64::try_from(ld).ok()? + 1;
    let cut = |i: i64| -> Option<f64> {
        let j = (i * m / n).clamp(1, m - 2);
        let delta = i * m - j * n;
        let low = data.get(usize::try_from(j - 1).ok()?)?;
        let high = data.get(usize::try_from(j).ok()?)?;
        Some((low * (n - delta) as f64 + high * delta as f64) / n as f64)
    };
    Some((cut(1)?, cut(2)?, cut(3)?))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the benchmark's bounds are compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// The `fraction` percentile of `values` (nearest rank), reported only when
/// at least ten samples lie strictly beyond its rank; `None` otherwise, so a
/// tail figure never rests on a handful of samples.
pub fn tail_percentile(values: &[f64], fraction: f64) -> Option<f64> {
    let sorted = sorted(values)?;
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&fraction) {
        return None;
    }
    let rank = ((fraction * n as f64).ceil() as usize).max(1);
    if n - rank < 10 {
        return None;
    }
    sorted.get(rank - 1).copied()
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted)
}

/// Attempted and failed operations of one run. A served update counts as
/// failed for any status but 200 — a request refused by the rate limiter
/// (429) is a failure like any other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one offline operation that completed.
    pub fn succeeded(&mut self) {
        self.attempted += 1;
    }

    /// Counts one served update by its HTTP status.
    pub fn response(&mut self, status: u16) {
        self.attempted += 1;
        if status != 200 {
            self.failed += 1;
        }
    }

    /// Failed operations over attempted ones (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (clamped)
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&values).unwrap_or(f64::NAN);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990, ten samples beyond it.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond — not reported.
        assert_eq!(tail_percentile(&values[..999], 0.99), None);
        // The median of twenty samples has ten beyond it.
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&twenty[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&values, 1.0), None);
    }

    #[test]
    fn refused_updates_count_as_failures() {
        let mut tally = Tally::default();
        tally.succeeded();
        for status in [200, 200, 429, 200, 500, 200, 200, 200] {
            tally.response(status);
        }
        assert_eq!(tally, Tally { attempted: 9, failed: 2 });
        assert!((tally.failed_ratio() - 2.0 / 9.0).abs() < 1e-15);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
