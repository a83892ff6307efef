//! The benchmark's own arithmetic: percentiles of host timings, span
//! coverage and self time, report digests, and the failure share.  Kept
//! apart from the replay loops so each rule is unit-tested on its own.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample: the
/// smallest value with at least `q · n` of the sample at or below it.
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of a sample: the mean of the two middle values when the count is
/// even.  Returns `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Sum over stretch positions of the fastest time any run took for that
/// stretch, where every run is the same work cut into the same stretches.
/// Interference from other tenants lands in different stretches on
/// different runs, so this is the run's cost with the least of it.
/// Returns `None` without runs or when the runs were cut differently.
pub fn sum_of_fastest(runs: &[Vec<f64>]) -> Option<f64> {
    let (first, rest) = runs.split_first()?;
    let mut fastest = first.clone();
    for run in rest {
        if run.len() != fastest.len() {
            return None;
        }
        for (best, &secs) in fastest.iter_mut().zip(run) {
            *best = best.min(secs);
        }
    }
    Some(fastest.iter().sum())
}

/// A closed host-time interval `[start, end]` in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, ns since an arbitrary origin.
    pub start: u64,
    /// End, ns since the same origin (`end >= start`).
    pub end: u64,
}

/// Running length of a union of intervals fed in ascending start order —
/// the online form a traced run uses, since its spans arrive in time order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Union {
    reach: u64,
    covered: u64,
}

impl Union {
    /// Adds `interval`; its start must not precede any earlier start.
    pub fn add(&mut self, interval: Interval) {
        let from = interval.start.max(self.reach);
        if interval.end > from {
            self.covered += interval.end - from;
            self.reach = interval.end;
        }
    }

    /// Nanoseconds covered so far, overlaps counted once.
    pub fn covered(&self) -> u64 {
        self.covered
    }
}

/// A window's self time: its length minus what its child spans cover.
pub fn self_ns(window_ns: u64, covered_ns: u64) -> u64 {
    window_ns.saturating_sub(covered_ns)
}

/// Share of a window its child spans cover (1.0 for an empty window).
pub fn coverage(window_ns: u64, covered_ns: u64) -> f64 {
    if window_ns == 0 {
        return 1.0;
    }
    covered_ns.min(window_ns) as f64 / window_ns as f64
}

/// 64-bit FNV-1a digest of a serialized report.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Whether a report's bytes match a pinned digest.
pub fn digest_matches(bytes: &[u8], pinned: u64) -> bool {
    digest(bytes) == pinned
}

/// Failed operations per operation submitted: requests lost or resolved
/// more than once, over requests submitted.  With nothing submitted there
/// is nothing to fail, and the share is 0.
pub fn error_rate(failed: u64, submitted: u64) -> f64 {
    if submitted == 0 {
        return 0.0;
    }
    failed.min(submitted) as f64 / submitted as f64
}

/// Failures one run contributes: every lost and every duplicated request,
/// or the whole run when its report failed a byte check (digest or
/// parallel-vs-sequential equality), since no single request can then be
/// trusted.
pub fn run_failures(submitted: u64, lost: u64, duplicated: u64, bytes_ok: bool) -> u64 {
    if bytes_ok {
        (lost + duplicated).min(submitted)
    } else {
        submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&values, 0.5), Some(50.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0, 3.0, 5.0], 0.5), Some(5.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.75), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn sum_of_fastest_takes_each_stretch_from_its_fastest_run() {
        let runs = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 1.5],
        ];
        assert_eq!(sum_of_fastest(&runs), Some(2.0 + 1.0 + 1.5));
        assert_eq!(sum_of_fastest(&runs[..1]), Some(9.0));
        assert_eq!(sum_of_fastest(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(sum_of_fastest(&[]), None);
    }

    #[test]
    fn union_counts_overlaps_once_and_feeds_coverage_and_self_time() {
        let mut union = Union::default();
        // [100, 120] then [110, 130] overlapping it, [150, 160] with
        // [155, 158] nested inside, and [190, 200] disjoint.
        for (start, end) in [(100, 120), (110, 130), (150, 160), (155, 158), (190, 200)] {
            union.add(iv(start, end));
        }
        assert_eq!(union.covered(), 30 + 10 + 10);
        assert_eq!(self_ns(100, union.covered()), 50);
        assert!((coverage(100, union.covered()) - 0.5).abs() < 1e-12);
        assert_eq!(self_ns(40, union.covered()), 0);
        assert!((coverage(40, union.covered()) - 1.0).abs() < 1e-12);
        assert!((coverage(0, 0) - 1.0).abs() < 1e-12);
        let mut chained = Union::default();
        for (start, end) in [(0, 7), (7, 19), (19, 20)] {
            chained.add(iv(start, end));
        }
        assert_eq!(chained.covered(), 20);
    }

    #[test]
    fn digest_is_fnv1a_and_detects_a_single_changed_byte() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        let report = br#"{"served":1000,"p99":41}"#;
        let pinned = digest(report);
        assert!(digest_matches(report, pinned));
        assert!(!digest_matches(br#"{"served":1000,"p99":42}"#, pinned));
    }

    #[test]
    fn error_rate_counts_lost_and_duplicated_over_submitted() {
        assert_eq!(run_failures(1000, 3, 2, true), 5);
        assert_eq!(run_failures(1000, 0, 0, true), 0);
        assert_eq!(run_failures(1000, 0, 0, false), 1000);
        assert_eq!(run_failures(10, 8, 8, true), 10);
        assert!((error_rate(5, 1000) - 0.005).abs() < 1e-15);
        assert!((error_rate(0, 1000)).abs() < 1e-15);
        assert!((error_rate(2000, 1000) - 1.0).abs() < 1e-15);
        assert!((error_rate(0, 0)).abs() < 1e-15);
    }
}
