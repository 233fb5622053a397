//! Fast Fourier transform: iterative radix-2 with a Bluestein fallback for
//! arbitrary lengths, executed through cached [plans](plan).
//!
//! All transforms are unnormalized in the forward direction; the inverse
//! divides by the length, so `ifft(fft(x)) == x`.
//!
//! The free functions here are thin wrappers over the process-wide plan
//! cache ([`plan::fft_plan`] / [`plan::rfft_plan`]) plus a thread-local
//! scratch, so repeated transforms of the same size recompute no twiddles
//! and allocate only their output. Hot loops that cannot afford even the
//! output allocation should hold a plan and scratch directly — see
//! [`plan::RealFftPlan::forward_into`], [`crate::stft::StftProcessor`] and
//! [`crate::correlate::Correlator`].

pub mod plan;

use crate::complex::Complex;
use crate::error::DspError;

pub use plan::{fft_plan, rfft_plan, FftPlan, FftScratch, RealFftPlan, RealFftScratch};

/// Returns the smallest power of two `>= n` (and at least 1).
///
/// # Example
///
/// ```
/// assert_eq!(ht_dsp::fft::next_pow2(1000), 1024);
/// assert_eq!(ht_dsp::fft::next_pow2(1024), 1024);
/// assert_eq!(ht_dsp::fft::next_pow2(0), 1);
/// ```
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Forward FFT of a complex buffer of arbitrary length.
///
/// Power-of-two lengths use radix-2 directly; other lengths use Bluestein's
/// algorithm (chirp-z), so the result is the exact N-point DFT, not a padded
/// approximation.
///
/// # Example
///
/// ```
/// use ht_dsp::{fft, Complex};
///
/// let x: Vec<Complex> = (0..6).map(|k| Complex::from_real(k as f64)).collect();
/// let spec = fft::fft(&x);
/// // DC bin equals the sum of the samples.
/// assert!((spec[0].re - 15.0).abs() < 1e-9);
/// ```
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let p = plan::fft_plan(input.len());
    let mut buf = input.to_vec();
    plan::with_tls_scratch(|cpx, _| p.forward(&mut buf, cpx));
    buf
}

/// Inverse FFT of a complex buffer of arbitrary length (normalized by `1/N`).
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let p = plan::fft_plan(input.len());
    let mut buf = input.to_vec();
    plan::with_tls_scratch(|cpx, _| p.inverse(&mut buf, cpx));
    buf
}

/// Expands a one-sided spectrum already written to `out[..n/2 + 1]` into the
/// full conjugate-symmetric spectrum of length `n = out.len()`.
fn mirror_onesided(out: &mut [Complex]) {
    let n = out.len();
    for k in 1..n / 2 {
        out[n - k] = out[k].conj();
    }
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
///
/// Returns the full complex spectrum of length `next_pow2(x.len())`. Use
/// [`rfft_len`] to get the padded length up front, and [`rfft_onesided`]
/// when only the non-redundant `n/2 + 1` bins are needed (half the work,
/// half the memory).
pub fn rfft(x: &[f64]) -> Vec<Complex> {
    let p = plan::rfft_plan(x.len());
    let mut out = vec![Complex::ZERO; p.len()];
    let bins = p.onesided_len();
    plan::with_tls_scratch(|_, real| p.forward_into(x, &mut out[..bins], real));
    mirror_onesided(&mut out);
    out
}

/// One-sided forward FFT of a real signal, zero-padded to the next power of
/// two: bins `0 ..= n/2` of the `n = next_pow2(x.len())`-point DFT. The
/// remaining bins are redundant for real input (conjugate symmetry).
pub fn rfft_onesided(x: &[f64]) -> Vec<Complex> {
    let p = plan::rfft_plan(x.len());
    let mut out = vec![Complex::ZERO; p.onesided_len()];
    plan::with_tls_scratch(|_, real| p.forward_into(x, &mut out, real));
    out
}

/// Forward FFT of a real signal zero-padded to exactly `n_fft` points
/// (`n_fft` is rounded up to a power of two).
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] when `x` is longer than the rounded
/// transform size. (This used to silently compute a larger transform, which
/// shifted every bin frequency a caller derived from `n_fft` via
/// `k · fs / n_fft`.)
pub fn rfft_n(x: &[f64], n_fft: usize) -> Result<Vec<Complex>, DspError> {
    let n = next_pow2(n_fft);
    if x.len() > n {
        return Err(DspError::length(
            "x",
            format!(
                "input length {} exceeds the requested transform size {n} \
                 (n_fft = {n_fft}); bins derived from n_fft would be wrong",
                x.len()
            ),
        ));
    }
    let p = plan::rfft_plan(n);
    let mut out = vec![Complex::ZERO; n];
    let bins = p.onesided_len();
    plan::with_tls_scratch(|_, real| p.forward_into(x, &mut out[..bins], real));
    mirror_onesided(&mut out);
    Ok(out)
}

/// Length of the full spectrum produced by [`rfft`] (and [`rfft_n`]) for an
/// input/request of length `n`.
pub fn rfft_len(n: usize) -> usize {
    next_pow2(n)
}

/// Number of one-sided bins ([`rfft_onesided`], [`rfft_magnitude`]) for an
/// input/request of length `n`: `next_pow2(n)/2 + 1`. Bin `k` corresponds
/// to frequency `k · sample_rate / next_pow2(n)`; the last bin is exactly
/// Nyquist.
pub fn rfft_onesided_len(n: usize) -> usize {
    next_pow2(n) / 2 + 1
}

/// One-sided magnitude spectrum of a real signal: `|X[0..=N/2]|`.
///
/// The length is [`rfft_onesided_len`]`(x.len())`; bin `k` corresponds to
/// frequency `k * sample_rate / next_pow2(x.len())`. Magnitudes come from
/// [`Complex::abs_fast`], bit for bit what the streaming directivity
/// accumulator computes.
pub fn rfft_magnitude(x: &[f64]) -> Vec<f64> {
    rfft_onesided(x)
        .into_iter()
        .map(Complex::abs_fast)
        .collect()
}

/// Inverse FFT returning only the real parts (for spectra known to be
/// conjugate-symmetric, e.g. produced from real signals).
pub fn irfft_real(spec: &[Complex]) -> Vec<f64> {
    ifft(spec).into_iter().map(|z| z.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    /// Exact DFT bin `X[k]` by compensated (Kahan) summation over an
    /// independently rounded twiddle table, so the reference error stays
    /// near machine epsilon even for long transforms.
    fn dft_bin(x: &[Complex], table: &[Complex], k: usize) -> Complex {
        let n = x.len();
        let (mut sr, mut si, mut cr, mut ci) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (j, xj) in x.iter().enumerate() {
            let p = *xj * table[(k * j) % n];
            let yr = p.re - cr;
            let tr = sr + yr;
            cr = (tr - sr) - yr;
            sr = tr;
            let yi = p.im - ci;
            let ti = si + yi;
            ci = (ti - si) - yi;
            si = ti;
        }
        Complex::new(sr, si)
    }

    fn twiddle_table(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|t| Complex::from_angle(-2.0 * std::f64::consts::PI * t as f64 / n as f64))
            .collect()
    }

    /// Naive O(N²) DFT used as ground truth for small sizes.
    fn dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        if n == 0 {
            return Vec::new();
        }
        let table = twiddle_table(n);
        (0..n).map(|k| dft_bin(x, &table, k)).collect()
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|k| Complex::new(k as f64 * 0.5 - 1.0, (k as f64 * 0.3).sin()))
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft_pow2() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = ramp(n);
            assert!(max_err(&fft(&x), &dft(&x)) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn fft_matches_naive_dft_non_pow2() {
        for n in [3usize, 5, 6, 7, 12, 15, 100] {
            let x = ramp(n);
            assert!(max_err(&fft(&x), &dft(&x)) < 1e-8, "n = {n}");
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for n in [8usize, 13, 48, 1000] {
            let x = ramp(n);
            let back = ifft(&fft(&x));
            assert!(max_err(&x, &back) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        for bin in fft(&x) {
            assert!((bin.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x = ramp(64);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = fft(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn rfft_spectrum_is_conjugate_symmetric() {
        let x: Vec<f64> = (0..100).map(|k| (k as f64 * 0.17).sin()).collect();
        let spec = rfft(&x);
        let n = spec.len();
        for k in 1..n / 2 {
            let d = spec[k] - spec[n - k].conj();
            assert!(d.abs() < 1e-9);
        }
    }

    #[test]
    fn rfft_matches_complex_fft_of_padded_input() {
        for len in [1usize, 2, 5, 17, 100, 260] {
            let x: Vec<f64> = (0..len).map(|k| ((k * k) as f64 * 0.013).sin()).collect();
            let mut padded: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
            padded.resize(next_pow2(len), Complex::ZERO);
            let via_complex = fft(&padded);
            let via_real = rfft(&x);
            assert!(
                max_err(&via_real, &via_complex) < 1e-9,
                "full spectra disagree at len {len}"
            );
            let onesided = rfft_onesided(&x);
            assert_eq!(onesided.len(), rfft_onesided_len(len));
            assert!(
                max_err(&onesided, &via_complex[..onesided.len()]) < 1e-9,
                "one-sided spectrum disagrees at len {len}"
            );
        }
    }

    #[test]
    fn rfft_magnitude_locates_tone() {
        let sr = 48_000.0;
        let f = 3000.0;
        let x: Vec<f64> = (0..4096)
            .map(|n| (2.0 * std::f64::consts::PI * f * n as f64 / sr).sin())
            .collect();
        let mag = rfft_magnitude(&x);
        let peak = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let hz_per_bin = sr / 4096.0;
        assert!((peak as f64 * hz_per_bin - f).abs() <= hz_per_bin);
    }

    #[test]
    fn rfft_n_pads_to_requested_size() {
        let x = vec![1.0; 10];
        assert_eq!(rfft_n(&x, 64).unwrap().len(), 64);
        assert_eq!(rfft_n(&x, 16).unwrap().len(), 16);
        // A non-power-of-two request rounds up.
        assert_eq!(rfft_n(&x, 48).unwrap().len(), 64);
    }

    #[test]
    fn rfft_n_rejects_input_longer_than_transform() {
        // The old behavior silently computed a 16-point transform for
        // n_fft = 4, shifting every bin frequency derived from n_fft.
        let x = vec![1.0; 10];
        let err = rfft_n(&x, 4).unwrap_err();
        assert!(matches!(err, DspError::InvalidLength { .. }), "{err}");
        // The boundary case is fine: 10 samples fit the rounded-up
        // 16-point transform of a 10-point request.
        assert!(rfft_n(&x, 10).is_ok());
    }

    #[test]
    fn onesided_len_matches_magnitude_output() {
        for n in [1usize, 5, 16, 1000] {
            let x = vec![0.25; n];
            assert_eq!(rfft_magnitude(&x).len(), rfft_onesided_len(n), "n = {n}");
            assert_eq!(rfft_len(n), next_pow2(n));
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(fft(&[]).is_empty());
        let one = fft(&[Complex::new(2.5, 0.0)]);
        assert_eq!(one, vec![Complex::new(2.5, 0.0)]);
        assert_eq!(rfft_onesided(&[]), vec![Complex::ZERO]);
    }

    #[test]
    fn linearity_of_transform() {
        let a = ramp(32);
        let b: Vec<Complex> = ramp(32)
            .iter()
            .map(|z| *z * Complex::new(0.3, 0.7))
            .collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let lhs = fft(&sum);
        let fa = fft(&a);
        let fb = fft(&b);
        let rhs: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&lhs, &rhs) < 1e-9);
    }

    /// Accuracy pin at n = 16384 against the exact DFT, evaluated on a
    /// strided sample of bins (twiddle rounding drift spreads over the
    /// whole spectrum, so a sample captures it; the full O(N²) reference
    /// would take minutes in a debug build). The planned engine reads
    /// independently rounded table entries, so its worst relative error
    /// must stay below 1e-10.
    #[test]
    fn planned_fft_accuracy_at_16384() {
        const N: usize = 16384;
        const PLANNED_CEILING: f64 = 1e-10;

        let x: Vec<Complex> = (0..N)
            .map(|k| {
                let t = k as f64 * 0.001;
                Complex::new((3.1 * t).sin() + 0.25 * (17.0 * t).cos(), (0.7 * t).sin())
            })
            .collect();
        let planned = fft(&x);

        let table = twiddle_table(N);
        // Stride coprime to N so the sampled bins sweep the whole spectrum,
        // plus the edge bins.
        let bins: Vec<usize> = (0..N).step_by(67).chain([1, N / 2, N - 1]).collect();
        let mut scale = 0.0f64;
        let mut planned_err = 0.0f64;
        for &k in &bins {
            let exact = dft_bin(&x, &table, k);
            scale = scale.max(exact.abs());
            planned_err = planned_err.max((planned[k] - exact).abs());
        }
        let planned_err = planned_err / scale;
        assert!(
            planned_err < PLANNED_CEILING,
            "planned table error too large: {planned_err:.3e}"
        );
    }

    #[test]
    fn real_plan_round_trips_through_scratch() {
        let p = plan::RealFftPlan::new(256);
        let mut scratch = plan::RealFftScratch::new();
        let x: Vec<f64> = (0..256).map(|k| ((k * 7) as f64 * 0.02).sin()).collect();
        let mut spec = vec![Complex::ZERO; p.onesided_len()];
        p.forward_into(&x, &mut spec, &mut scratch);
        let mut back = vec![0.0; p.len()];
        p.inverse_into(&spec, &mut back, &mut scratch);
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn plan_cache_returns_shared_instances() {
        let a = plan::rfft_plan(1024);
        let b = plan::rfft_plan(1000); // rounds up to the same 1024 entry
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let c = plan::fft_plan(48_000);
        let d = plan::fft_plan(48_000);
        assert!(std::sync::Arc::ptr_eq(&c, &d));
    }
}
