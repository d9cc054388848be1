//! Percentiles from raw samples.
//!
//! Every latency the benchmark reports is computed here from the full
//! list of measured samples, never from a bucketed histogram. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 always rests on enough observations to mean
//! something.

/// Samples that must rank above a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// Samples ranked above the percentile.
    pub beyond: usize,
    /// Samples the percentile was computed from.
    pub samples: usize,
    /// Time windows the run was cut into; the value is the median
    /// window's tail and `beyond`/`samples` are that window's.
    pub windows: usize,
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Sort samples ascending (total order, so NaN cannot poison the sort).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank quantile of an ascending sample; `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), q)])
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// Tail quantile `q` of an ascending sample, or `None` when fewer than
/// [`MIN_BEYOND`] samples rank above it.
pub fn tail(sorted: &[f64], q: f64) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank_index(sorted.len(), q);
    let beyond = sorted.len() - idx - 1;
    (beyond >= MIN_BEYOND).then(|| Tail {
        value: sorted[idx],
        beyond,
        samples: sorted.len(),
        windows: 1,
    })
}

/// Most consecutive windows [`windowed_tail`] cuts a run into.
pub const TAIL_WINDOWS: usize = 4;

/// Tail quantile `q` of samples in time order, robust to a passing host
/// stall: the run is cut into as many consecutive windows as leave each
/// window's tail [`MIN_BEYOND`] samples beyond it (at most
/// [`TAIL_WINDOWS`]), and the median window's tail is reported, so a
/// stall confined to one window does not move the figure. `None` when
/// the whole run has too few samples for one window.
pub fn windowed_tail(in_order: &[f64], q: f64) -> Option<Tail> {
    let per_window = (MIN_BEYOND as f64 / (1.0 - q)).round() as usize;
    let windows = (in_order.len() / per_window.max(1)).clamp(1, TAIL_WINDOWS);
    let len = in_order.len() / windows;
    let mut tails = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * len
            };
            tail(&sorted(in_order[w * len..end].to_vec()), q)
        })
        .collect::<Option<Vec<Tail>>>()?;
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    Some(Tail {
        windows,
        ..tails[(windows - 1) / 2]
    })
}

/// Consecutive windows [`windowed_median`] cuts a run into.
pub const MEDIAN_WINDOWS: usize = 5;

/// Median of samples in time order, robust to a stretch of host
/// contention: the run is cut into [`MEDIAN_WINDOWS`] consecutive windows
/// (fewer when there are fewer samples) and the median of the windows'
/// medians is reported, so a slow stretch covering fewer than half the
/// windows does not move the figure. `None` when empty.
pub fn windowed_median(in_order: &[f64]) -> Option<f64> {
    let windows = MEDIAN_WINDOWS.min(in_order.len());
    let medians: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let lo = w * in_order.len() / windows;
            let hi = (w + 1) * in_order.len() / windows;
            median(&in_order[lo..hi])
        })
        .collect();
    median(&medians)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = ramp(100);
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is the 990th, with exactly 10 above it
        let t = tail(&ramp(1000), 0.99).expect("1000 samples carry a p99");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
        // 999 samples leave only 9 beyond the p99
        assert_eq!(tail(&ramp(999), 0.99), None);
        // a p90 needs only 100
        let t = tail(&ramp(100), 0.9).expect("100 samples carry a p90");
        assert_eq!((t.value, t.beyond, t.samples), (90.0, 10, 100));
        assert_eq!(tail(&ramp(99), 0.9), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn tail_counts_rank_not_distinct_values() {
        // ties above the percentile still count as samples beyond it
        let mut s = vec![1.0; 990];
        s.extend(std::iter::repeat_n(5.0, 10));
        let t = tail(&sorted(s), 0.99).expect("ten tied samples beyond");
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // four windows of 1000: window p99s 990, 1990, 2990, 3990
        let t = windowed_tail(&ramp(4000), 0.99).expect("four full windows");
        assert_eq!(
            (t.value, t.beyond, t.samples, t.windows),
            (1990.0, 10, 1000, 4)
        );
        // fewer than two windows' worth: one window over every sample
        let t = windowed_tail(&ramp(1999), 0.99).expect("one window");
        assert_eq!((t.value, t.samples, t.windows), (1980.0, 1999, 1));
        assert_eq!(windowed_tail(&ramp(999), 0.99), None);
        // more samples still cap at four windows, the last taking the rest
        let t = windowed_tail(&ramp(9000), 0.99).expect("capped windows");
        assert_eq!((t.windows, t.samples), (4, 2250));
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_tail() {
        let mut s = vec![1.0; 4000];
        for x in &mut s[3000..3050] {
            *x = 50.0;
        }
        assert_eq!(tail(&sorted(s.clone()), 0.99).map(|t| t.value), Some(50.0));
        assert_eq!(windowed_tail(&s, 0.99).map(|t| t.value), Some(1.0));
    }

    #[test]
    fn windowed_median_ignores_a_slow_stretch() {
        // five windows of 100; two of them run 1.5x slower
        let mut s: Vec<f64> = (0..500).map(|i| (i % 100) as f64).collect();
        for x in &mut s[100..300] {
            *x *= 1.5;
        }
        assert_eq!(median(&s), Some(57.0));
        assert_eq!(windowed_median(&s), Some(49.0));
        // fewer samples than windows: one window per sample
        assert_eq!(windowed_median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(windowed_median(&[]), None);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
