//! Order statistics under the benchmark's sample rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! tail figure is never read off a handful of points.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `pct` (1..=99) of `values`: the sample at
/// 0-based rank `ceil(pct·n/100) − 1` of the sorted values. `None` when
/// fewer than [`MIN_BEYOND`] samples rank above it. Integer rank
/// arithmetic keeps the rule exact at the boundary (`0.99 · 1000` is not
/// exactly 990 in floating point).
pub fn percentile(values: &[f64], pct: usize) -> Option<f64> {
    let rank = supported_rank(values.len(), pct)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank])
}

fn supported_rank(n: usize, pct: usize) -> Option<usize> {
    assert!((1..=99).contains(&pct), "percentile must be in 1..=99");
    let rank = (pct * n).div_ceil(100).checked_sub(1)?;
    (n - 1 - rank >= MIN_BEYOND).then_some(rank)
}

/// The middle value (mean of the middle two for an even count) — for
/// small repeat counts such as the set-up repetitions, where the tail
/// rule does not apply.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn min_samples(pct: usize) -> usize {
        (1..)
            .find(|&n| supported_rank(n, pct).is_some())
            .expect("some count supports every percentile")
    }

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 99), None);
        // Rank 989 of 0..1000 is the value 990; ranks 990..=999 lie beyond.
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(min_samples(99), 1000);
    }

    #[test]
    fn p95_and_p50_boundaries() {
        assert_eq!(percentile(&ramp(199), 95), None);
        assert_eq!(percentile(&ramp(200), 95), Some(190.0));
        assert_eq!(min_samples(95), 200);
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(min_samples(50), 20);
    }

    #[test]
    fn empty_and_tiny_inputs_report_nothing() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[1.0], 50), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
