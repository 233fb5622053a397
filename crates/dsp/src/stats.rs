//! Descriptive statistics used as feature summaries.
//!
//! §III-B3 of the paper summarizes SRP and GCC vectors with kurtosis,
//! skewness, maximum, mean absolute deviation (MAD) and standard deviation;
//! those are exactly the functions provided here.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population variance (0 for slices shorter than 1).
pub fn variance(x: &[f64]) -> f64 {
    variance_about(x, mean(x))
}

/// Population variance of `x` about a mean the caller already computed
/// with [`mean`] (0 for an empty slice): one pass instead of two.
pub fn variance_about(x: &[f64], mean: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root mean square.
pub fn rms(x: &[f64]) -> f64 {
    crate::signal::rms(x)
}

/// Maximum value (`-inf` for an empty slice).
pub fn max(x: &[f64]) -> f64 {
    x.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
}

/// Minimum value (`+inf` for an empty slice).
pub fn min(x: &[f64]) -> f64 {
    x.iter().fold(f64::INFINITY, |m, &v| m.min(v))
}

/// Mean absolute deviation around the mean.
pub fn mad(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m).abs()).sum::<f64>() / x.len() as f64
}

/// Sample skewness (third standardized moment). Returns 0 when the variance
/// is 0 (a constant signal has no asymmetry to measure).
pub fn skewness(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    let sd = std_dev(x);
    if sd == 0.0 {
        return 0.0;
    }
    let n = x.len() as f64;
    x.iter().map(|v| ((v - m) / sd).powi(3)).sum::<f64>() / n
}

/// Kurtosis (fourth standardized moment, *not* excess kurtosis — a normal
/// distribution scores 3). Returns 0 when the variance is 0.
pub fn kurtosis(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    let sd = std_dev(x);
    if sd == 0.0 {
        return 0.0;
    }
    let n = x.len() as f64;
    x.iter().map(|v| ((v - m) / sd).powi(4)).sum::<f64>() / n
}

/// Linearly interpolated percentile, `p` in `[0, 100]`. Returns 0 for an
/// empty slice — the function is total so feature paths fed degenerate
/// SRP/GCC vectors summarize to zeros instead of panicking. NaNs sort last
/// under `total_cmp`, so a NaN-bearing slice has NaN in its top
/// percentiles, never an unordered comparison.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` (a caller bug: `p` is a constant at
/// every call site, never data).
pub fn percentile(x: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if x.is_empty() {
        return 0.0;
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Median (50th percentile). Returns 0 for an empty slice (see
/// [`percentile`]).
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

/// The five summary statistics the paper attaches to SRP/GCC feature vectors:
/// `[kurtosis, skewness, max, mad, std_dev]` (§III-B3).
///
/// Total: an empty slice summarizes to all zeros (no `-inf` max, no panic),
/// so a degenerate capture yields a well-formed — if uninformative — feature
/// vector instead of taking the pipeline down.
pub fn feature_summary(x: &[f64]) -> [f64; 5] {
    if x.is_empty() {
        return [0.0; 5];
    }
    [kurtosis(x), skewness(x), max(x), mad(x), std_dev(x)]
}

/// Mean and the half-width of a 95% normal-approximation confidence interval
/// (`1.96 · s/√n`), as used for the SUS scores in §V. Returns `(mean, 0.0)`
/// for fewer than 2 samples.
pub fn mean_ci95(x: &[f64]) -> (f64, f64) {
    let m = mean(x);
    if x.len() < 2 {
        return (m, 0.0);
    }
    let n = x.len() as f64;
    // Sample (n-1) variance for the CI.
    let var = x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1.0);
    (m, 1.96 * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-12);
        assert!((variance(&x) - 4.0).abs() < 1e-12);
        assert!((std_dev(&x) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_handled() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(mad(&[]), 0.0);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
        assert_eq!(min(&[]), f64::INFINITY);
    }

    #[test]
    fn mad_of_symmetric_data() {
        let x = [1.0, 3.0]; // mean 2, |dev| = 1
        assert!((mad(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewness_sign_follows_tail() {
        let right_tail = [1.0, 1.0, 1.0, 1.0, 10.0];
        let left_tail = [-10.0, 1.0, 1.0, 1.0, 1.0];
        assert!(skewness(&right_tail) > 0.5);
        assert!(skewness(&left_tail) < -0.5);
        assert_eq!(skewness(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn kurtosis_of_two_point_distribution_is_one() {
        // Symmetric two-point distribution has kurtosis exactly 1.
        let x = [-1.0, 1.0, -1.0, 1.0];
        assert!((kurtosis(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kurtosis_increases_with_outliers() {
        let flat = [-1.0, 1.0, -1.0, 1.0];
        let peaky = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0];
        assert!(kurtosis(&peaky) > kurtosis(&flat));
    }

    #[test]
    fn percentile_interpolates() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&x, 100.0), 4.0);
        assert!((median(&x) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_and_median_are_total_on_empty() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 100.0), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "[0, 100]")]
    fn percentile_still_rejects_out_of_range_p() {
        percentile(&[1.0, 2.0], 101.0);
    }

    #[test]
    fn feature_summary_of_empty_is_zeroed() {
        assert_eq!(feature_summary(&[]), [0.0; 5]);
    }

    #[test]
    fn single_element_moments_are_zero() {
        // One observation has no spread: both standardized moments are
        // defined as 0, not NaN from a 0/0.
        assert_eq!(skewness(&[5.0]), 0.0);
        assert_eq!(kurtosis(&[5.0]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn nan_sorts_last_under_total_cmp() {
        let x = [1.0, f64::NAN, 2.0];
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&x, 50.0), 2.0);
        assert!(percentile(&x, 100.0).is_nan());
    }

    #[test]
    fn feature_summary_layout() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let s = feature_summary(&x);
        assert_eq!(s[2], 3.0); // max
        assert!((s[4] - std_dev(&x)).abs() < 1e-12);
    }

    #[test]
    fn ci95_shrinks_with_sample_size() {
        let small = vec![1.0, 2.0, 3.0, 4.0];
        let big: Vec<f64> = small.iter().cycle().take(400).copied().collect();
        let (_, ci_small) = mean_ci95(&small);
        let (_, ci_big) = mean_ci95(&big);
        assert!(ci_big < ci_small);
        assert_eq!(mean_ci95(&[5.0]).1, 0.0);
    }
}
