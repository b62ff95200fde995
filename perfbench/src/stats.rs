//! Order statistics used by every workload and by the compare mode.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A latency tail: the value at the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples beyond it, with that percentile
/// and the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its nearest-rank percentile, `100 · rank / n`.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
    /// False when the sample is too small for a tail at or above the
    /// median (fewer than `2 · TAIL_BEYOND + 1` samples): the tail is
    /// then the maximum and does not meet the rule.
    pub meets_rule: bool,
}

/// Samples a reported tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest-percentile sample with at least [`TAIL_BEYOND`]
/// samples strictly above its rank: with `n` sorted samples that is
/// the 1-based rank `n − 10`, i.e. percentile `100 · (n − 10) / n`.
/// Below 21 samples that rank would fall under the median, so the
/// maximum is reported instead and flagged.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = tail_rank(n);
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        meets_rule: n > 2 * TAIL_BEYOND,
    })
}

/// Index (into `values`) of the sample at the tail rank of [`tail`].
pub fn tail_index(values: &[f64]) -> Option<usize> {
    let order = argsort(values);
    order.get(tail_rank(order.len()).checked_sub(1)?).copied()
}

/// 1-based rank of the tail sample among `n`: `n − 10`, or the
/// maximum when that rank would not lie above the median.
fn tail_rank(n: usize) -> usize {
    if n > 2 * TAIL_BEYOND {
        n - TAIL_BEYOND
    } else {
        n
    }
}

/// Indices (into `values`) of the one or two samples the median is
/// taken from.
pub fn median_indices(values: &[f64]) -> Vec<usize> {
    let order = argsort(values);
    let n = order.len();
    match n {
        0 => Vec::new(),
        _ if n % 2 == 1 => vec![order[n / 2]],
        _ => vec![order[n / 2 - 1], order[n / 2]],
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default `exclusive` method), so spreads match
/// what an outside script reports. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn argsort(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        // Rank 90 of 100: samples 91..=100 lie beyond it.
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert!(t.meets_rule);
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        // Twenty-one samples: rank 11, the first with ten beyond that
        // is not below the median.
        let t = tail(&values[..21]).unwrap();
        assert_eq!(t.value, 11.0);
        assert!(t.meets_rule);
    }

    #[test]
    fn tail_without_enough_samples_is_flagged() {
        let t = tail(&[5.0, 7.0, 6.0]).unwrap();
        assert_eq!(t.value, 7.0);
        assert_eq!(t.percentile, 100.0);
        assert!(!t.meets_rule);
        // Eleven to twenty samples: rank n − 10 would sit at or below
        // the median, so the maximum stands in.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 20.0);
        assert!(!t.meets_rule);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_and_median_indices_point_at_the_samples() {
        let values = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median_indices(&values), vec![2]);
        assert_eq!(median_indices(&values[..4]), vec![3, 2]);
        let many: Vec<f64> = (0..30).map(|i| f64::from((i * 7) % 30)).collect();
        let idx = tail_index(&many).unwrap();
        assert_eq!(many[idx], tail(&many).unwrap().value);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
