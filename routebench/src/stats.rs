//! Order statistics and failure accounting for the benchmark's reports.

/// Fewest samples that must lie beyond a reported percentile. A tail read
/// from fewer is a handful of outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples` (any order), or `None`
/// when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a few whole-run measurements (repeated set-ups, flows),
/// where no tail is read; the mean of the middle pair for even counts.
///
/// # Panics
///
/// On an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / base`, or 0 when nothing was counted.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        0.0
    }
}

/// Operations attempted and failed in one run. A failed request, a
/// rejected request and a failed output check each count once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted: requests, flows and output checks.
    pub attempted: u64,
    /// Operations that failed, were rejected or failed their check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one check, printing what failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("check failed: {}", what());
        }
        self.record(ok);
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), None, "p95 of 199 has 9 beyond");
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
        // A p50 from a few slow operations is refused rather than
        // reported equal to its own tail.
        assert_eq!(percentile(&[1700.0, 1710.0, 1690.0], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let p50 = percentile(&samples, 50.0);
        samples.sort_by(f64::total_cmp);
        assert_eq!(p50, percentile(&samples, 50.0));
        assert_eq!(p50, Some(19.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn failed_share_counts_requests_and_checks() {
        let mut requests = Tally::default();
        for ok in [true, true, false, true] {
            requests.record(ok);
        }
        let mut checks = Tally::default();
        checks.check(true, String::new);
        checks.check(false, || "session s0 diverged".into());
        requests.merge(checks);
        assert_eq!(
            requests,
            Tally {
                attempted: 6,
                failed: 2
            }
        );
        assert!((requests.failed_share() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
