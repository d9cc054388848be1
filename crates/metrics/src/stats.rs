//! Summary statistics for experiment series.

use serde::{Deserialize, Serialize};

/// Summary of a sample: count, mean, standard deviation (sample, n−1),
/// min, max, and the half-width of a 95% Student's t confidence interval
/// for the mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// 95% confidence half-width, `t · std / √n` with `t` the 0.975
    /// quantile of Student's t at n − 1 degrees of freedom (12.706 at
    /// n = 2, 2.776 at n = 5, the normal 1.96 beyond 30); 0 for n < 2.
    pub ci95: f64,
}

impl Summary {
    /// Summarize a slice of samples.
    ///
    /// # Panics
    /// Panics if `xs` is empty or contains non-finite values.
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot summarize an empty sample");
        assert!(xs.iter().all(|x| x.is_finite()), "samples must be finite");
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let std = if n < 2 {
            0.0
        } else {
            (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let ci95 = if n < 2 {
            0.0
        } else {
            t975(n - 1) * std / (n as f64).sqrt()
        };
        Summary {
            n,
            mean,
            std,
            min,
            max,
            ci95,
        }
    }
}

/// The 0.975 quantile of Student's t at `df` ≥ 1 degrees of freedom:
/// tabulated to 30, and the normal quantile 1.96 beyond.
fn t975(df: usize) -> f64 {
    const T: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    T.get(df - 1).copied().unwrap_or(1.96)
}

/// Geometric mean of strictly positive samples — the right way to average
/// ratios such as SLR across heterogeneous instances.
///
/// # Panics
/// Panics if `xs` is empty or any sample is not strictly positive.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "cannot average an empty sample");
    assert!(
        xs.iter().all(|&x| x > 0.0 && x.is_finite()),
        "geometric mean needs positive finite samples"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn ci95_uses_the_t_quantile_for_the_sample_size() {
        // (n, 0.975 quantile of t at n − 1 degrees of freedom)
        for (n, t) in [(2, 12.706), (5, 2.776), (31, 2.042), (1000, 1.96)] {
            let xs: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
            let s = Summary::of(&xs);
            let want = t * s.std / (n as f64).sqrt();
            assert!(
                (s.ci95 - want).abs() < 1e-12,
                "n = {n}: {} vs {want}",
                s.ci95
            );
        }
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // geometric mean <= arithmetic mean
        let xs = [1.0, 3.0, 9.0];
        assert!(geometric_mean(&xs) < Summary::of(&xs).mean);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }
}
