//! Order statistics over timing samples.
//!
//! Every timing the benchmark reports is a median or a tail percentile of
//! a stated number of samples. The percentile picker is nearest-rank with
//! a fixed convention — exactly `(1 - q) · n` samples lie strictly beyond
//! the reported one — so "p90 of 100" always has ten samples beyond it and
//! "p99 of 1 100" eleven.

/// The `q`-quantile of `samples` by nearest rank: the sample with exactly
/// `floor((1 - q) · n)` samples beyond it. `None` on an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(sorted[n - 1 - beyond(n, q)])
}

/// Number of samples beyond the one [`percentile`] reports for `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    // The small epsilon keeps `0.1 * 100` from flooring to 9.
    ((((1.0 - q) * n as f64) + 1e-9).floor() as usize).min(n.saturating_sub(1))
}

/// The median (mean of the two middle samples on even counts). `None` on
/// an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Element-wise minimum across equally long replays: `out[i]` is the
/// smallest of `replays[*][i]`. A deterministic stream replayed `R` times
/// costs the same each time; whatever else runs on a shared box only ever
/// adds to a sample, so the fastest replay of batch (or query unit) `i` is
/// the best estimate of its cost — and which units are intrinsically
/// expensive stays visible, because the percentiles are then taken across
/// units.
pub fn min_per_index(replays: &[Vec<f64>]) -> Vec<f64> {
    let len = replays.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| replays.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_has_ten_beyond_and_p99_of_1100_has_eleven() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(beyond(100, 0.9), 10);
        let many: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(1089.0));
        assert_eq!(beyond(1100, 0.99), 11);
        assert_eq!(many.iter().filter(|&&x| x > 1089.0).count(), 11);
    }

    #[test]
    fn percentile_handles_tiny_and_unsorted_inputs() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), Some(3.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
    }

    #[test]
    fn median_and_per_index_minimum() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let replays = vec![vec![1.0, 9.0], vec![2.0, 8.0], vec![30.0, 7.0]];
        assert_eq!(min_per_index(&replays), vec![1.0, 7.0]);
        assert!(min_per_index(&[]).is_empty());
    }
}
