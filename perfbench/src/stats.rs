//! The benchmark's own arithmetic: order statistics over timing samples
//! and the attempted/failed tally every workload keeps.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`, so spreads
/// computed here and by a Python harness agree. `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (slot, i) in q.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// Nearest-rank `p`-th percentile of `values` (`0 < p <= 100`);
/// `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    (!s.is_empty()).then(|| s[rank(s.len(), p) - 1])
}

/// The highest of the reported percentiles (p50, p90, p99, p99.9) that
/// still has at least ten samples above its rank, with its value: the
/// tail a sample count can support. `None` below 20 samples, where not
/// even the median has ten samples beyond it.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n >= rank(n, p) + 10)
        .and_then(|p| percentile(values, p).map(|v| (p, v)))
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Attempted and failed operations of one run. An operation fails when
/// it errors or any of its output checks does; one-time checks outside
/// the timed loop count as operations of their own.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation whose checks all held when `ok`; a failure
    /// is reported on stderr with `what`.
    pub fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Failed over attempted operations (0 before any attempt).
    pub fn fail_ratio(&self) -> f64 {
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
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    /// Reference values from Python 3.11:
    /// `statistics.quantiles([1..10], n=4)` = `[2.75, 5.5, 8.25]`,
    /// `statistics.quantiles([1, 2], n=4)` = `[0.75, 1.5, 2.25]`,
    /// `statistics.quantiles([7, 1, 4, 9, 2], n=4)` = `[1.5, 4.0, 8.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 9.0, 2.0]), Some([1.5, 4.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[2.0, 1.0], 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    /// p90 needs 100 samples (90th rank, ten beyond), p99 needs 1,000,
    /// the median 20; below that no percentile is supported.
    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let run = |n: u32| supported_tail(&(1..=n).map(f64::from).collect::<Vec<_>>());
        assert_eq!(run(19), None);
        assert_eq!(run(20), Some((50.0, 10.0)));
        assert_eq!(run(99), Some((50.0, 50.0)));
        assert_eq!(run(100), Some((90.0, 90.0)));
        assert_eq!(run(999), Some((90.0, 900.0)));
        assert_eq!(run(1000), Some((99.0, 990.0)));
    }

    #[test]
    fn fail_ratio_counts_failed_over_attempted() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.record(true, "first");
        t.record(false, "second");
        t.record(true, "third");
        t.record(true, "fourth");
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.fail_ratio(), 0.25);
    }
}
