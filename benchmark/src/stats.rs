//! Order statistics over latency samples.

/// 1-based nearest rank of percentile `p` among `len` samples, computed
/// in integer hundredths of a percent so that p99.99 of 10 000 samples is
/// rank 9 999 on every machine.
fn rank(len: usize, p: f64) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (len * basis_points).div_ceil(10_000)
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1])
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that
/// still has at least ten samples strictly beyond its rank, with its
/// value: p99.9 at 10 000 samples, p99 at 1 000, none below 20.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    [99.99, 99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = rank(sorted.len(), p);
        (sorted.len() >= rank + 10).then(|| (p, sorted[rank.max(1) - 1]))
    })
}

/// Median of an unsorted sample (nearest rank).
pub fn median(mut values: Vec<u64>) -> Option<u64> {
    values.sort_unstable();
    percentile(&values, 50.0)
}

/// p50 / p95 / tail of one latency series, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub count: usize,
    pub p50: u64,
    pub p95: u64,
    /// `(percentile label, value)`; see [`tail`].
    pub tail: Option<(f64, u64)>,
}

impl Summary {
    /// Summarise `samples` (any order). An empty series is all zeros.
    pub fn of(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self {
            count: samples.len(),
            p50: percentile(&samples, 50.0).unwrap_or(0),
            p95: percentile(&samples, 95.0).unwrap_or(0),
            tail: tail(&samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 95.0), Some(10));
        assert_eq!(percentile(&v, 90.0), Some(9));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 100.0), Some(10));
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // Odd length: the middle element, never an interpolation.
        assert_eq!(percentile(&[1, 2, 100], 50.0), Some(2));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(tail(&v(10_000)), Some((99.9, 9_990)));
        assert_eq!(tail(&v(100_000)), Some((99.99, 99_990)));
        assert_eq!(tail(&v(1_000)), Some((99.0, 990)));
        // 9 999 samples leave only 9 beyond the p99.9 rank.
        assert_eq!(tail(&v(9_999)), Some((99.0, 9_900)));
        assert_eq!(tail(&v(100)), Some((90.0, 90)));
        assert_eq!(tail(&v(20)), Some((50.0, 10)));
        assert_eq!(tail(&v(19)), None);
    }

    #[test]
    fn summary_of_unsorted_input() {
        let s = Summary::of(vec![30, 10, 20]);
        assert_eq!((s.count, s.p50, s.p95), (3, 20, 30));
        assert_eq!(Summary::of(Vec::new()).p50, 0);
    }
}
