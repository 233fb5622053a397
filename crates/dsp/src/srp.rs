//! SRP-PHAT: Steered Response Power with Phase Transform (DiBiase 2000),
//! Eq. 2–6 of the paper.
//!
//! The paper expresses SRP as the sum of the pairwise GCC-PHAT curves over
//! all microphone pairs (Eq. 6) and restricts it to the physically feasible
//! lag window of the array aperture (±0.2–0.27 ms depending on the device).
//! The top peak values of this summed curve, together with the raw pairwise
//! GCC values and TDoAs, form the speech-reverberation feature set (§III-B3).

use crate::complex::Complex;
use crate::correlate::{gcc_phat_from_spectra_into, LagCurve, SpectraGccScratch};
use crate::error::DspError;
use crate::fft;

/// Result of an SRP-PHAT analysis over a multichannel frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SrpAnalysis {
    /// The summed (weighted) SRP curve over lags `±max_lag` (Eq. 6).
    pub srp: LagCurve,
    /// Pairwise GCC-PHAT curves, indexed by the microphone pair returned in
    /// [`SrpAnalysis::pairs`].
    pub gccs: Vec<LagCurve>,
    /// Microphone index pairs `(i, j)` with `i < j`, in the same order as
    /// [`SrpAnalysis::gccs`].
    pub pairs: Vec<(usize, usize)>,
}

impl SrpAnalysis {
    /// The TDoA (in samples, interpolated) of each microphone pair.
    pub fn tdoas(&self) -> Vec<f64> {
        self.gccs
            .iter()
            .map(|g| g.peak_lag_interpolated())
            .collect()
    }

    /// The `k` largest SRP peak values, zero-padded to length `k`
    /// ("we rank the top three peak values as one feature", §III-B3).
    pub fn top_peaks(&self, k: usize) -> Vec<f64> {
        crate::peak::top_k_peak_values(&self.srp.values, k)
    }
}

/// Computes SRP-PHAT over all `C(n, 2)` microphone pairs of a multichannel
/// frame, restricted to lags `±max_lag` samples.
///
/// `channels` holds one equal-length slice per microphone. Each pair is
/// whitened by [`crate::kernels::cross_whiten_into`], the one GCC-PHAT
/// kernel the streaming analyzer runs too.
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] if fewer than two channels are given
/// or the channels have mismatched/empty lengths.
///
/// # Example
///
/// ```
/// use ht_dsp::signal::fractional_delay;
/// use ht_dsp::srp::srp_phat;
///
/// # fn main() -> Result<(), ht_dsp::DspError> {
/// let x: Vec<f64> = (0..1024).map(|n| ((n * n) as f64 * 1e-3).sin()).collect();
/// let mics = vec![x.clone(), fractional_delay(&x, 2.0, 16), fractional_delay(&x, 4.0, 16)];
/// let refs: Vec<&[f64]> = mics.iter().map(|c| c.as_slice()).collect();
/// let analysis = srp_phat(&refs, 8)?;
/// assert_eq!(analysis.pairs.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn srp_phat(channels: &[&[f64]], max_lag: usize) -> Result<SrpAnalysis, DspError> {
    let _span = ht_obs::span("dsp.srp_phat");
    if channels.len() < 2 {
        return Err(DspError::length(
            "channels",
            format!("need at least 2 microphones, got {}", channels.len()),
        ));
    }
    let n = channels[0].len();
    if n == 0 {
        return Err(DspError::length("channels", "channels must be non-empty"));
    }
    if channels.iter().any(|c| c.len() != n) {
        return Err(DspError::length(
            "channels",
            "all channels must have equal length",
        ));
    }

    let mut pairs = Vec::new();
    for i in 0..channels.len() {
        for j in (i + 1)..channels.len() {
            pairs.push((i, j));
        }
    }
    // Forward-FFT every channel exactly once (parallel per channel): the
    // C(n, 2) pairs below would otherwise recompute each channel's spectrum
    // n − 1 times. Same padded size and plan as `gcc_phat` on the raw
    // channels, so the per-pair curves are bit-identical to the pairwise
    // path.
    let max_lag = max_lag.min(n - 1);
    let size = fft::next_pow2(n + max_lag + 1);
    let plan = fft::rfft_plan(size);
    let specs: Vec<Vec<Complex>> = ht_par::par_map(channels, |c| plan.forward(c));
    // One whitened cross-spectrum + inverse per pair, in parallel. Each
    // curve lands at its pair's index, and the SRP sum below runs over that
    // fixed order, so the result is byte-identical to the serial loop for
    // any thread count.
    let gccs: Vec<LagCurve> = ht_par::par_map(&pairs, |&(i, j)| {
        let mut scratch = SpectraGccScratch::new();
        let mut values = vec![0.0; 2 * max_lag + 1];
        gcc_phat_from_spectra_into(
            &specs[i],
            &specs[j],
            &plan,
            max_lag,
            &mut scratch,
            &mut values,
        );
        LagCurve { values, max_lag }
    });
    let width = gccs[0].values.len();
    let mut srp_values = vec![0.0; width];
    for g in &gccs {
        for (s, v) in srp_values.iter_mut().zip(g.values.iter()) {
            *s += v;
        }
    }
    Ok(SrpAnalysis {
        srp: LagCurve {
            values: srp_values,
            max_lag: gccs[0].max_lag,
        },
        gccs,
        pairs,
    })
}

/// Maximum physically meaningful inter-microphone delay for an aperture of
/// `distance_m` meters at `sample_rate` Hz, in samples (the paper's
/// `N = d · f / c` with `c = 340 m/s`, §III-B3).
pub fn max_delay_samples(distance_m: f64, sample_rate: f64) -> usize {
    const SPEED_OF_SOUND: f64 = 340.0;
    // Guard the exact-integer case (e.g. 8.5 cm at 48 kHz is exactly 12
    // samples) against float round-up.
    (distance_m * sample_rate / SPEED_OF_SOUND - 1e-9).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::fractional_delay;

    fn chirp(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let t = k as f64 / n as f64;
                (2.0 * std::f64::consts::PI * (80.0 * t + 600.0 * t * t)).sin()
            })
            .collect()
    }

    #[test]
    fn pair_enumeration_is_complete() {
        let x = chirp(512);
        let mics: Vec<Vec<f64>> = (0..4).map(|k| fractional_delay(&x, k as f64, 16)).collect();
        let refs: Vec<&[f64]> = mics.iter().map(|m| m.as_slice()).collect();
        let a = srp_phat(&refs, 8).unwrap();
        assert_eq!(a.pairs.len(), 6); // C(4,2)
        assert_eq!(a.pairs[0], (0, 1));
        assert_eq!(a.pairs[5], (2, 3));
    }

    #[test]
    fn srp_is_sum_of_gccs() {
        let x = chirp(512);
        let mics = [
            x.clone(),
            fractional_delay(&x, 1.0, 16),
            fractional_delay(&x, 2.0, 16),
        ];
        let refs: Vec<&[f64]> = mics.iter().map(|m| m.as_slice()).collect();
        let a = srp_phat(&refs, 6).unwrap();
        for k in 0..a.srp.values.len() {
            let s: f64 = a.gccs.iter().map(|g| g.values[k]).sum();
            assert!((a.srp.values[k] - s).abs() < 1e-12);
        }
    }

    #[test]
    fn coincident_mics_peak_at_zero_lag() {
        let x = chirp(1024);
        let mics = [x.clone(), x.clone(), x.clone()];
        let refs: Vec<&[f64]> = mics.iter().map(|m| m.as_slice()).collect();
        let a = srp_phat(&refs, 8).unwrap();
        assert_eq!(a.srp.peak_lag(), 0);
        assert!(a.tdoas().iter().all(|t| t.abs() < 0.1));
    }

    #[test]
    fn tdoas_reflect_inter_channel_delays() {
        let x = chirp(2048);
        let mics = [x.clone(), fractional_delay(&x, 3.0, 16)];
        let refs: Vec<&[f64]> = mics.iter().map(|m| m.as_slice()).collect();
        let a = srp_phat(&refs, 8).unwrap();
        assert!((a.tdoas()[0] + 3.0).abs() < 0.2);
    }

    #[test]
    fn top_peaks_pad_to_requested_width() {
        let x = chirp(512);
        let mics = [x.clone(), x.clone()];
        let refs: Vec<&[f64]> = mics.iter().map(|m| m.as_slice()).collect();
        let a = srp_phat(&refs, 4).unwrap();
        assert_eq!(a.top_peaks(3).len(), 3);
    }

    #[test]
    fn too_few_channels_is_rejected() {
        let x = chirp(128);
        assert!(srp_phat(&[x.as_slice()], 4).is_err());
        assert!(srp_phat(&[], 4).is_err());
    }

    #[test]
    fn mismatched_channels_are_rejected() {
        let a = chirp(128);
        let b = chirp(64);
        assert!(srp_phat(&[a.as_slice(), b.as_slice()], 4).is_err());
    }

    #[test]
    fn shared_spectra_match_pairwise_gcc_phat_bitwise() {
        // The forward-once optimization must be invisible: every per-pair
        // curve equals the standalone GCC-PHAT of that pair, bit for bit.
        let x = chirp(1024);
        let mics: Vec<Vec<f64>> = (0..4)
            .map(|k| fractional_delay(&x, k as f64 * 1.3, 16))
            .collect();
        let refs: Vec<&[f64]> = mics.iter().map(|m| m.as_slice()).collect();
        let a = srp_phat(&refs, 8).unwrap();
        for (g, &(i, j)) in a.gccs.iter().zip(&a.pairs) {
            let direct = crate::correlate::gcc_phat(refs[i], refs[j], 8).unwrap();
            assert_eq!(g.values, direct.values, "pair ({i}, {j})");
        }
    }

    #[test]
    fn top_peaks_never_panics_for_oversized_or_zero_k() {
        // k far beyond the number of detectable peaks in the curve must
        // zero-pad, not panic; k = 0 is the empty feature set.
        let x = chirp(256);
        let mics = [x.clone(), x.clone()];
        let refs: Vec<&[f64]> = mics.iter().map(|m| m.as_slice()).collect();
        let a = srp_phat(&refs, 2).unwrap();
        assert_eq!(a.top_peaks(0), Vec::<f64>::new());
        let padded = a.top_peaks(50);
        assert_eq!(padded.len(), 50);
        // The lag window only holds 5 values; once peaks and then the
        // largest remaining samples are exhausted, the tail is the
        // documented zero padding.
        assert!(padded[5..].iter().all(|&v| v == 0.0));
        // The leading entries are the window's samples, largest first.
        let mut window = a.srp.values.clone();
        window.sort_by(|x, y| y.total_cmp(x));
        assert_eq!(&padded[..5], window.as_slice());
    }

    #[test]
    fn max_delay_samples_rounding_is_pinned_at_sample_boundaries() {
        // d·f/c landing exactly on an integer must stay there (8.5 cm at
        // 48 kHz is exactly 12.0 samples), not round up to 13.
        assert_eq!(max_delay_samples(0.085, 48_000.0), 12);
        // A hair above the boundary (beyond the 1e-9 guard) rounds up: the
        // lag window must cover the full physical aperture.
        let just_above = 12.001 * 340.0 / 48_000.0;
        assert_eq!(max_delay_samples(just_above, 48_000.0), 13);
        // The half-sample point rounds up (ceil covers the aperture).
        let half = 11.5 * 340.0 / 48_000.0;
        assert_eq!(max_delay_samples(half, 48_000.0), 12);
        // Degenerate apertures collapse to the zero-lag window.
        assert_eq!(max_delay_samples(0.0, 48_000.0), 0);
    }

    #[test]
    fn max_delay_samples_matches_paper_values() {
        // §III-B3: D3 has d = 6.5 cm at 48 kHz -> ~10 samples (paper: 10).
        assert_eq!(max_delay_samples(0.065, 48_000.0), 10);
        // D1: 8.5 cm -> 12 samples (paper rounds the window to ±0.25 ms,
        // i.e. 12 one-sided samples -> 25-sample window).
        assert_eq!(max_delay_samples(0.085, 48_000.0), 12);
        // D2: 9 cm -> 13 samples (paper: 13 -> 27-sample window).
        assert_eq!(max_delay_samples(0.09, 48_000.0), 13);
    }
}
