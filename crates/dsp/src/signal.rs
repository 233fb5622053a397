//! Basic time-domain signal utilities: normalization, mixing, delays, gain.

/// Root-mean-square amplitude of `x` (0 for an empty slice).
///
/// # Example
///
/// ```
/// let x = [3.0, -3.0, 3.0, -3.0];
/// assert!((ht_dsp::signal::rms(&x) - 3.0).abs() < 1e-12);
/// ```
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Peak absolute amplitude of `x` (0 for an empty slice).
pub fn peak(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// Scales `x` in place so its peak absolute amplitude is `target` (the
/// paper normalizes utterances to ±1). A silent signal is left untouched.
pub fn normalize_peak(x: &mut [f64], target: f64) {
    let p = peak(x);
    if p > 0.0 {
        let g = target / p;
        for v in x.iter_mut() {
            *v *= g;
        }
    }
}

/// Scales `x` in place to zero mean and unit variance — the wav2vec2 input
/// contract used by the liveness detector (§III-A). A constant signal
/// becomes all zeros.
pub fn normalize_zscore(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let n = x.len() as f64;
    let mean = x.iter().sum::<f64>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    normalize_zscore_with(x, mean, var);
}

/// [`normalize_zscore`] with the mean and population variance already in
/// hand (as [`crate::stats::mean`] and [`crate::stats::variance_about`]
/// compute them), so a caller that needed them anyway skips two passes.
/// Bit-identical to [`normalize_zscore`] given those values.
pub fn normalize_zscore_with(x: &mut [f64], mean: f64, var: f64) {
    let sd = var.sqrt();
    if sd > 0.0 {
        for v in x.iter_mut() {
            *v = (*v - mean) / sd;
        }
    } else {
        for v in x.iter_mut() {
            *v = 0.0;
        }
    }
}

/// Converts a decibel gain to a linear amplitude factor.
///
/// ```
/// assert!((ht_dsp::signal::db_to_amplitude(20.0) - 10.0).abs() < 1e-12);
/// ```
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Converts a linear amplitude factor to decibels. Returns `-inf` for 0.
#[inline]
pub fn amplitude_to_db(a: f64) -> f64 {
    20.0 * a.log10()
}

/// Adds `src` into `dst` sample by sample, starting at `offset` in `dst`.
/// Samples that would fall past the end of `dst` are dropped.
pub fn mix_into(dst: &mut [f64], src: &[f64], offset: usize, gain: f64) {
    if offset >= dst.len() {
        return;
    }
    for (d, s) in dst[offset..].iter_mut().zip(src.iter()) {
        *d += s * gain;
    }
}

/// Delays `x` by a fractional number of samples using windowed-sinc
/// interpolation, returning a signal of the same length.
///
/// Sub-sample delays matter here: microphone-pair time differences in the
/// simulated arrays are fractions of a 48 kHz sample (a 6.5 cm aperture is
/// only ~9 samples across), so rounding to integer delays would destroy the
/// TDoA patterns that GCC-PHAT measures.
pub fn fractional_delay(x: &[f64], delay: f64, half_width: usize) -> Vec<f64> {
    assert!(delay >= 0.0, "delay must be non-negative");
    let int_part = delay.floor() as usize;
    let frac = delay - delay.floor();
    let n = x.len();
    let mut out = vec![0.0; n];
    if frac < 1e-9 {
        // Pure integer delay.
        out[int_part..n].copy_from_slice(&x[..n - int_part]);
        return out;
    }
    let hw = half_width.max(1) as isize;
    for (i, o) in out.iter_mut().enumerate() {
        let center = i as f64 - delay;
        let c0 = center.floor() as isize;
        let mut acc = 0.0;
        for k in (c0 - hw + 1)..=(c0 + hw) {
            if k < 0 || k >= n as isize {
                continue;
            }
            let t = center - k as f64;
            let sinc = if t.abs() < 1e-12 {
                1.0
            } else {
                (std::f64::consts::PI * t).sin() / (std::f64::consts::PI * t)
            };
            // Hann taper over the interpolation kernel.
            let w = 0.5 + 0.5 * (std::f64::consts::PI * t / hw as f64).cos();
            acc += x[k as usize] * sinc * w;
        }
        *o = acc;
    }
    out
}

/// Generates `n` samples of a pure sine tone.
pub fn tone(freq: f64, sample_rate: f64, n: usize, amplitude: f64) -> Vec<f64> {
    (0..n)
        .map(|k| amplitude * (2.0 * std::f64::consts::PI * freq * k as f64 / sample_rate).sin())
        .collect()
}

/// Signal-to-noise ratio in dB given a clean signal and the noise that was
/// added to it. Returns `+inf` when the noise is silent.
pub fn snr_db(signal: &[f64], noise: &[f64]) -> f64 {
    let ns = rms(noise);
    if ns == 0.0 {
        return f64::INFINITY;
    }
    amplitude_to_db(rms(signal) / ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_and_peak_basics() {
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(peak(&[]), 0.0);
        assert!((rms(&[1.0, -1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(peak(&[0.5, -2.0, 1.0]), 2.0);
    }

    #[test]
    fn normalize_peak_hits_target() {
        let mut x = vec![0.1, -0.4, 0.2];
        normalize_peak(&mut x, 1.0);
        assert!((peak(&x) - 1.0).abs() < 1e-12);
        // Silence stays silent instead of dividing by zero.
        let mut z = vec![0.0; 4];
        normalize_peak(&mut z, 1.0);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zscore_gives_zero_mean_unit_variance() {
        let mut x: Vec<f64> = (0..100).map(|k| (k as f64 * 0.37).sin() + 3.0).collect();
        normalize_zscore(&mut x);
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zscore_of_constant_is_zero() {
        let mut x = vec![5.0; 8];
        normalize_zscore(&mut x);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn db_round_trip() {
        for db in [-40.0, -6.0, 0.0, 12.0] {
            assert!((amplitude_to_db(db_to_amplitude(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn mix_into_respects_offset_and_bounds() {
        let mut dst = vec![0.0; 5];
        mix_into(&mut dst, &[1.0, 1.0, 1.0, 1.0], 3, 2.0);
        assert_eq!(dst, vec![0.0, 0.0, 0.0, 2.0, 2.0]);
        // Offset past the end is a no-op.
        mix_into(&mut dst, &[9.0], 10, 1.0);
        assert_eq!(dst.len(), 5);
    }

    #[test]
    fn integer_fractional_delay_shifts_exactly() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = fractional_delay(&x, 2.0, 8);
        assert_eq!(y, vec![0.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn fractional_delay_shifts_tone_phase() {
        let sr = 48_000.0;
        let f = 1000.0;
        let x = tone(f, sr, 4096, 1.0);
        let d = 2.5;
        let y = fractional_delay(&x, d, 16);
        // Compare against an analytically delayed tone in the steady-state
        // middle of the buffer.
        let expected: Vec<f64> = (0..4096)
            .map(|k| (2.0 * std::f64::consts::PI * f * (k as f64 - d) / sr).sin())
            .collect();
        let err: f64 = (500..3500)
            .map(|i| (y[i] - expected[i]).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-3, "max steady-state error {err}");
    }

    #[test]
    fn snr_db_matches_definition() {
        let s = vec![1.0; 100];
        let n = vec![0.1; 100];
        assert!((snr_db(&s, &n) - 20.0).abs() < 1e-9);
        assert_eq!(snr_db(&s, &[0.0; 10]), f64::INFINITY);
    }
}
