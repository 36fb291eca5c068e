//! Order statistics over benchmark samples: nearest-rank percentiles,
//! always reported together with the number of samples behind them.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `pct` percent of the samples at or below it. The
/// rank is computed in integers (`ceil(pct * n / 100)`), so `p90` of ten
/// samples is the ninth, never a float-rounded tenth.
///
/// # Panics
/// On an empty sample or a `pct` outside `1..=100`.
pub fn nearest_rank(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100);
    sorted[rank.clamp(1, n) - 1]
}

/// A latency sample reduced to the percentiles the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

impl Summary {
    /// Summarizes an unsorted sample; `None` when it is empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 50),
            p90: nearest_rank(&sorted, 90),
            p99: nearest_rank(&sorted, 99),
        })
    }
}

/// Median (nearest rank) of an unsorted sample; `None` when it is empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_uses_integer_ranks() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 50), 5.0);
        assert_eq!(nearest_rank(&ten, 90), 9.0);
        assert_eq!(nearest_rank(&ten, 99), 10.0);
        assert_eq!(nearest_rank(&ten, 100), 10.0);
        assert_eq!(nearest_rank(&ten, 1), 1.0);

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 90), 90.0);
        assert_eq!(nearest_rank(&hundred, 99), 99.0);
    }

    #[test]
    fn small_samples_pick_real_values() {
        assert_eq!(nearest_rank(&[7.0], 50), 7.0);
        assert_eq!(nearest_rank(&[7.0], 99), 7.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 50), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0], 50), 1.0);
        assert_eq!(nearest_rank(&[1.0, 2.0], 90), 2.0);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p90, 5.0);
        assert_eq!(s.p99, 5.0);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        nearest_rank(&[], 50);
    }
}
