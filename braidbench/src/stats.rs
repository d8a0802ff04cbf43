//! Order statistics over raw samples. Latencies are kept as raw values
//! (one per query), so percentiles are exact rather than bucket bounds.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `p` is
/// clamped to `[0, 100]`; `p == 0` gives the minimum.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// [`percentile`] of unsorted samples; 0 when there are none (a layer
/// that did no work reads 0).
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        percentile(&v, p)
    }
}

/// `num / den`, or 0 when nothing was counted (a layer that did no
/// work reads 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 99.5), 100.0);
    }

    #[test]
    fn nearest_rank_picks_a_sample_never_interpolates() {
        let v = [1.0, 2.0, 10.0, 20.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 51.0), 10.0);
        assert_eq!(percentile(&v, 75.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 20.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_of_a_thousand_has_ten_samples_beyond_it() {
        let v = one_to(1000);
        let p99 = percentile(&v, 99.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn unsorted_samples_and_no_samples() {
        assert_eq!(percentile_of(&[20.0, 1.0, 10.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile_of(&[], 99.0), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
