//! Per-frame spectral analysis: one shared forward FFT per channel, then
//! sliding SRP-PHAT across every microphone pair from those shared spectra.
//!
//! The analyzer owns every buffer it needs — STFT plan and scratch,
//! per-channel spectra, the whitening and inverse-FFT workspaces, the
//! frequency-domain accumulators — so [`analyze`](FrameAnalyzer::analyze)
//! is allocation-free after construction. Frames are zero-padded to
//! `next_pow2(frame_len + max_lag + 1)` so circular GCC lags up to
//! `±max_lag` never alias (the same pad rule as the batch
//! `ht_dsp::srp::srp_phat`).
//!
//! GCC-PHAT is linear in the whitened cross-spectrum, so the analyzer
//! never inverts a pair's spectrum per frame. Each frame whitens every
//! pair, adds the whitened cross-spectrum both into that pair's running
//! frequency-domain sum and into one frame SRP spectrum, and takes a
//! single inverse FFT of the SRP spectrum for the gate's per-frame
//! evidence. The running sums are what the batch decision needs: at
//! finalize time
//! [`assemble_features_into`](FrameAnalyzer::assemble_features_into)
//! inverts each pair's sum once and builds the reverberation half of the
//! §III-B3 feature vector in O(features), without revisiting any audio.
//! That is one inverse FFT per frame plus one per pair per assembly,
//! instead of one per pair per frame. (The directivity half accumulates
//! in [`crate::directivity::DirectivityAccum`], which needs longer windows
//! than one analysis frame.)

use crate::error::StreamError;
use ht_dsp::complex::Complex;
use ht_dsp::correlate::extract_lags;
use ht_dsp::fft::{self, RealFftPlan, RealFftScratch};
use ht_dsp::kernels::{self, QuantMode};
use ht_dsp::spectrum::{HIGH_BAND_HZ, LOW_BAND_HZ};
use ht_dsp::stft::StftProcessor;
use ht_dsp::window::Window;
use std::sync::Arc;

/// Spectral evidence extracted from one analysis frame.
///
/// These are *incremental* observations for the early-exit gate and the
/// latency instrumentation — deliberately cheaper and coarser than the
/// batch feature vector, which remains the sole input to the trained
/// models.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameFeatures {
    /// 0-based index of the frame within the stream.
    pub frame_index: u64,
    /// RMS of the first channel's frame (the gate's voicing signal).
    pub rms: f64,
    /// Peak of the summed SRP-PHAT curve across all pairs.
    pub srp_peak: f64,
    /// Mean absolute value of the summed SRP-PHAT curve.
    pub srp_mean_abs: f64,
    /// Mean magnitude of the paper's 100–400 Hz low band (channel 0).
    pub low_band: f64,
    /// Mean magnitude of the paper's 500–4000 Hz high band (channel 0).
    pub high_band: f64,
}

impl FrameFeatures {
    /// SRP peak-to-mean ratio: a sharp dominant peak means a strong direct
    /// path — the frontal-orientation signature. 0 for a silent frame.
    ///
    /// The ratio is **not** bounded below by 1: `srp_peak` is the signed
    /// maximum of the summed PHAT curve while `srp_mean_abs` averages
    /// magnitudes, so a sign-mixed curve whose positive peak is small
    /// relative to its negative excursions scores below 1 (a single pair's
    /// whitened correlation oscillates around zero by construction).
    pub fn srp_sharpness(&self) -> f64 {
        if self.srp_mean_abs > 0.0 {
            self.srp_peak / self.srp_mean_abs
        } else {
            0.0
        }
    }

    /// High/low band ratio of this frame (the per-frame analogue of
    /// `ht_dsp::spectrum::hlbr`): replay speakers attenuate highs, so live
    /// speech scores higher. 0 when the low band is silent.
    pub fn band_ratio(&self) -> f64 {
        if self.low_band > 0.0 {
            self.high_band / self.low_band
        } else {
            0.0
        }
    }
}

/// A reusable per-frame analysis engine for one stream geometry.
#[derive(Debug, Clone)]
pub struct FrameAnalyzer {
    channels: usize,
    frame_len: usize,
    max_lag: usize,
    stft: StftProcessor,
    spectra: Vec<Vec<Complex>>,
    pairs: Vec<(usize, usize)>,
    /// Whitened cross-spectrum of the pair being processed, and the
    /// whitening kernel's magnitude scratch (`bins` each).
    cross: Vec<Complex>,
    mags: Vec<f64>,
    /// This frame's SRP spectrum: the sum of its whitened cross-spectra.
    srp_spec: Vec<Complex>,
    /// The one inverse-FFT path, shared by frames and assembly.
    inverse: LagInverter,
    lag_window: Vec<f64>,
    srp: Vec<f64>,
    /// `[lo, hi)` bin ranges of the paper's low/high bands for this
    /// geometry (fixed at construction — this is why a mid-stream sample
    /// rate change must be rejected upstream).
    low_bins: (usize, usize),
    high_bins: (usize, usize),
    frames: u64,
    features: FrameFeatures,
    /// Running per-pair sums of the whitened cross-spectra, `pairs × bins`
    /// laid out pair-major. Inverted at assembly and divided by the frame
    /// count, they yield the Welch-style frame-averaged lag curves the
    /// batch features are built from.
    cross_accum: Vec<Complex>,
    /// Assembly scratch: each pair's summed `±max_lag` window,
    /// `pairs × (2·max_lag + 1)` pair-major.
    pair_lags: Vec<f64>,
    /// Which whitening kernel per-frame GCC runs on: the byte-stable
    /// reference (default) or the vectorized Int8-path variant.
    quant: QuantMode,
}

impl FrameAnalyzer {
    /// Builds an analyzer for `channels`-channel frames of `frame_len`
    /// samples at `sample_rate`, correlating every pair over `±max_lag`
    /// (clamped to `frame_len − 1`).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::BadGeometry`] for fewer than two channels, a
    /// zero frame length, or a non-positive sample rate.
    pub fn new(
        channels: usize,
        frame_len: usize,
        max_lag: usize,
        sample_rate: f64,
    ) -> Result<FrameAnalyzer, StreamError> {
        if channels < 2 {
            return Err(StreamError::BadGeometry(format!(
                "analyzer needs at least two channels for TDoA, got {channels}"
            )));
        }
        if frame_len == 0 {
            return Err(StreamError::BadGeometry(
                "frame length must be positive".into(),
            ));
        }
        if sample_rate <= 0.0 || !sample_rate.is_finite() {
            return Err(StreamError::BadGeometry(format!(
                "sample rate must be positive and finite, got {sample_rate}"
            )));
        }
        let max_lag = max_lag.min(frame_len - 1);
        // Same pad rule as the batch SRP-PHAT: room for every lag we read.
        let n_fft = fft::next_pow2(frame_len + max_lag + 1);
        let stft = StftProcessor::with_n_fft(frame_len, n_fft, Window::Hann);
        let plan = fft::rfft_plan(n_fft);
        let bins = plan.onesided_len();
        let pairs: Vec<(usize, usize)> = (0..channels)
            .flat_map(|i| ((i + 1)..channels).map(move |j| (i, j)))
            .collect();
        let hz_to_bin = |hz: f64| {
            let k = (hz * n_fft as f64 / sample_rate).round() as usize;
            k.min(bins - 1)
        };
        let n_pairs = pairs.len();
        Ok(FrameAnalyzer {
            channels,
            frame_len,
            max_lag,
            stft,
            spectra: vec![vec![Complex::ZERO; bins]; channels],
            pairs,
            cross: vec![Complex::ZERO; bins],
            mags: vec![0.0; bins],
            srp_spec: vec![Complex::ZERO; bins],
            inverse: LagInverter {
                plan,
                lags: vec![0.0; n_fft],
                scratch: RealFftScratch::new(),
                count: 0,
            },
            lag_window: vec![0.0; 2 * max_lag + 1],
            srp: vec![0.0; 2 * max_lag + 1],
            low_bins: (hz_to_bin(LOW_BAND_HZ.0), hz_to_bin(LOW_BAND_HZ.1)),
            high_bins: (hz_to_bin(HIGH_BAND_HZ.0), hz_to_bin(HIGH_BAND_HZ.1)),
            frames: 0,
            features: FrameFeatures {
                frame_index: 0,
                rms: 0.0,
                srp_peak: 0.0,
                srp_mean_abs: 0.0,
                low_band: 0.0,
                high_band: 0.0,
            },
            cross_accum: vec![Complex::ZERO; n_pairs * bins],
            pair_lags: vec![0.0; n_pairs * (2 * max_lag + 1)],
            quant: QuantMode::Reference,
        })
    }

    /// Selects the whitening kernel for subsequent frames. Streams mixing
    /// modes mid-capture would mix accumulator provenances, so callers set
    /// this once, right after construction or a [`reset`](Self::reset).
    pub fn set_quant_mode(&mut self, mode: QuantMode) {
        self.quant = mode;
    }

    /// The active whitening-kernel selection.
    pub fn quant_mode(&self) -> QuantMode {
        self.quant
    }

    /// Analyzes one frame (`channels` buffers of exactly `frame_len`
    /// samples) and returns the evidence. Allocation-free; the returned
    /// reference borrows internal storage that the next call overwrites.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ChannelCountChanged`] /
    /// [`StreamError::BadGeometry`] for a frame of the wrong shape.
    pub fn analyze(&mut self, frame: &[Vec<f64>]) -> Result<&FrameFeatures, StreamError> {
        if frame.len() != self.channels {
            return Err(StreamError::ChannelCountChanged {
                expected: self.channels,
                got: frame.len(),
            });
        }
        for c in frame {
            if c.len() != self.frame_len {
                return Err(StreamError::BadGeometry(format!(
                    "frame length {} differs from the analyzer's {}",
                    c.len(),
                    self.frame_len
                )));
            }
        }
        {
            let _stft = ht_obs::span("stream.stft");
            for (spec, c) in self.spectra.iter_mut().zip(frame) {
                self.stft.process_into(c, spec);
            }
        }
        {
            let _srp = ht_obs::span("stream.srp");
            self.srp_spec.fill(Complex::ZERO);
            let bins = self.cross.len();
            for (&(i, j), acc) in self
                .pairs
                .iter()
                .zip(self.cross_accum.chunks_exact_mut(bins))
            {
                kernels::cross_whiten_into(
                    self.quant,
                    &self.spectra[i],
                    &self.spectra[j],
                    &mut self.cross,
                    &mut self.mags,
                );
                // Running evidence for the finalize-time feature vector,
                // and this frame's SRP spectrum.
                for ((a, s), &c) in acc.iter_mut().zip(&mut self.srp_spec).zip(&self.cross) {
                    *a += c;
                    *s += c;
                }
            }
            self.inverse
                .invert_into(&self.srp_spec, self.max_lag, &mut self.srp);
        }
        let f = &mut self.features;
        f.frame_index = self.frames;
        f.rms = ht_dsp::signal::rms(&frame[0]);
        f.srp_peak = self.srp.iter().copied().fold(f64::MIN, f64::max);
        f.srp_mean_abs = self.srp.iter().map(|v| v.abs()).sum::<f64>() / self.srp.len() as f64;
        let mags = &self.spectra[0];
        f.low_band = band_mean(mags, self.low_bins);
        f.high_band = band_mean(mags, self.high_bins);
        self.frames += 1;
        Ok(&self.features)
    }

    /// The configured channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The configured frame length in samples.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// The effective lag half-width (after clamping).
    pub fn max_lag(&self) -> usize {
        self.max_lag
    }

    /// The microphone pairs correlated per frame, in feature order.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// The FFT length frames are padded to.
    pub fn n_fft(&self) -> usize {
        self.stft.n_fft()
    }

    /// Frames analyzed so far.
    pub fn frames_analyzed(&self) -> u64 {
        self.frames
    }

    /// Inverse FFTs run since construction: one per analyzed frame plus
    /// one per pair per assembly. Survives [`reset`](Self::reset) so a
    /// pooled analyzer keeps a running total — the deterministic witness
    /// that no per-pair inverse runs on the per-frame path.
    pub fn gcc_inverse_ffts(&self) -> u64 {
        self.inverse.count
    }

    /// Assembles the reverberation half of the §III-B3 feature vector from
    /// the accumulated evidence, appending `srp_peaks + 5 +
    /// pairs·(window + 6)` values to `out`. O(features): no audio is
    /// revisited and, once `out` has capacity, no allocation happens. (The
    /// directivity features follow from
    /// [`crate::directivity::DirectivityAccum`].)
    ///
    /// Non-destructive and idempotent — the accumulators are left intact,
    /// so more frames may be analyzed and the vector assembled again.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NoFrames`] when no complete frame has been
    /// analyzed yet (`out` is left untouched).
    pub fn assemble_features_into(
        &mut self,
        srp_peaks: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), StreamError> {
        if self.frames == 0 {
            return Err(StreamError::NoFrames);
        }
        let frames = self.frames as f64;
        let w = 2 * self.max_lag + 1;
        let bins = self.cross.len();

        // One inverse per pair: its summed cross-spectrum becomes its
        // summed lag window (the IFFT is linear).
        for (acc, window) in self
            .cross_accum
            .chunks_exact(bins)
            .zip(self.pair_lags.chunks_exact_mut(w))
        {
            self.inverse.invert_into(acc, self.max_lag, window);
        }

        // Frame-averaged SRP curve: sum of per-pair lag sums, then one
        // division per lag.
        self.srp.fill(0.0);
        for window in self.pair_lags.chunks_exact(w) {
            for (s, v) in self.srp.iter_mut().zip(window) {
                *s += v;
            }
        }
        for s in &mut self.srp {
            *s /= frames;
        }
        ht_dsp::peak::push_top_k_peak_values(&self.srp, srp_peaks, out);
        out.extend_from_slice(&ht_dsp::stats::feature_summary(&self.srp));

        // Per-pair frame-averaged GCC windows: full window, interpolated
        // TDoA, summary statistics.
        for window in self.pair_lags.chunks_exact(w) {
            for (dst, v) in self.lag_window.iter_mut().zip(window) {
                *dst = v / frames;
            }
            out.extend_from_slice(&self.lag_window);
            out.push(peak_lag_interpolated(&self.lag_window, self.max_lag));
            out.extend_from_slice(&ht_dsp::stats::feature_summary(&self.lag_window));
        }
        Ok(())
    }

    /// Rewinds the frame counter and zeroes the feature accumulators so a
    /// pooled analyzer can serve a new stream without leaking evidence
    /// between sessions. All plan, scratch, and spectra buffers are kept —
    /// analysis after a reset is byte-identical to a freshly built
    /// analyzer's and allocation-free from the first frame.
    pub fn reset(&mut self) {
        self.frames = 0;
        self.cross_accum.fill(Complex::ZERO);
    }
}

/// The analyzer's only inverse-FFT path: the plan, the circular lag
/// buffer, the FFT scratch, and a running count of the inverses run.
#[derive(Debug, Clone)]
struct LagInverter {
    plan: Arc<RealFftPlan>,
    lags: Vec<f64>,
    scratch: RealFftScratch,
    /// Inverses since construction (survives `FrameAnalyzer::reset`).
    count: u64,
}

impl LagInverter {
    /// Inverts the one-sided cross-spectrum `spec` and copies the
    /// `±max_lag` window of the circular result to `out`.
    fn invert_into(&mut self, spec: &[Complex], max_lag: usize, out: &mut [f64]) {
        self.plan
            .inverse_into(spec, &mut self.lags, &mut self.scratch);
        extract_lags(&self.lags, max_lag, out);
        self.count += 1;
    }
}

/// Mean magnitude over the one-sided bins `[lo, hi)` (0 for an empty band).
fn band_mean(spec: &[Complex], (lo, hi): (usize, usize)) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    spec[lo..hi].iter().map(|z| z.abs()).sum::<f64>() / (hi - lo) as f64
}

/// Sub-sample peak of a `±max_lag` window via parabolic interpolation
/// (mirrors `LagCurve::peak_lag_interpolated`).
fn peak_lag_interpolated(values: &[f64], max_lag: usize) -> f64 {
    let mut idx = 0;
    let mut best = f64::MIN;
    for (k, &v) in values.iter().enumerate() {
        if v > best {
            best = v;
            idx = k;
        }
    }
    let coarse = idx as f64 - max_lag as f64;
    if idx == 0 || idx + 1 >= values.len() {
        return coarse;
    }
    let (ym1, y0, yp1) = (values[idx - 1], values[idx], values[idx + 1]);
    let denom = ym1 - 2.0 * y0 + yp1;
    if denom.abs() < 1e-15 {
        coarse
    } else {
        coarse + 0.5 * (ym1 - yp1) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::signal::{fractional_delay, tone};

    fn noise(n: usize, mut state: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// The per-pair interpolated TDoAs of an assembled feature vector
    /// (`srp_peaks + 5` SRP values, then per pair the window, its TDoA and
    /// five summary statistics).
    fn assembled_tdoas(a: &mut FrameAnalyzer, srp_peaks: usize) -> Vec<f64> {
        let mut out = Vec::new();
        a.assemble_features_into(srp_peaks, &mut out).unwrap();
        let w = 2 * a.max_lag() + 1;
        out[srp_peaks + 5..]
            .chunks_exact(w + 6)
            .map(|pair| pair[w])
            .collect()
    }

    /// Bit patterns of the assembled feature vector.
    fn assembled_bits(a: &mut FrameAnalyzer) -> Vec<u64> {
        let mut out = Vec::new();
        a.assemble_features_into(3, &mut out).unwrap();
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn recovers_the_inter_channel_delay() {
        let x = noise(960, 7);
        let y = fractional_delay(&x, 4.0, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        let f = a.analyze(&[x, y]).unwrap();
        assert!(f.srp_sharpness() > 1.0);
        // Negative lag: the first channel leads (mirrors gcc_phat).
        let tdoas = assembled_tdoas(&mut a, 3);
        assert_eq!(tdoas.len(), 1);
        assert!((tdoas[0] + 4.0).abs() < 0.3, "tdoa {}", tdoas[0]);
    }

    #[test]
    fn one_inverse_fft_per_frame_plus_one_per_pair_per_assembly() {
        let x = noise(960, 13);
        let y = fractional_delay(&x, 2.0, 16);
        let z = fractional_delay(&x, 3.0, 16);
        let mut a = FrameAnalyzer::new(3, 960, 13, 48_000.0).unwrap();
        for _ in 0..4 {
            a.analyze(&[x.clone(), y.clone(), z.clone()]).unwrap();
        }
        assert_eq!(a.gcc_inverse_ffts(), 4, "one inverse per frame");
        a.assemble_features_into(3, &mut Vec::new()).unwrap();
        assert_eq!(a.gcc_inverse_ffts(), 4 + 3, "one inverse per pair");
        // The count is a running total across pooled sessions.
        a.reset();
        a.analyze(&[x, y, z]).unwrap();
        assert_eq!(a.gcc_inverse_ffts(), 8);
    }

    #[test]
    fn per_frame_srp_equals_the_sum_of_pairwise_gcc_phat() {
        // Linearity: the one inverse of the summed whitened spectra is the
        // SRP sum of the per-pair GCC-PHAT curves.
        let x = noise(960, 19);
        let y = fractional_delay(&x, 2.0, 16);
        let z = fractional_delay(&x, 5.0, 16);
        let frame = [x, y, z];
        let mut a = FrameAnalyzer::new(3, 960, 13, 48_000.0).unwrap();
        let f = a.analyze(&frame).unwrap().clone();
        let plan = fft::rfft_plan(a.n_fft());
        let mut stft = StftProcessor::with_n_fft(960, a.n_fft(), Window::Hann);
        let specs: Vec<Vec<Complex>> = frame
            .iter()
            .map(|c| {
                let mut spec = vec![Complex::ZERO; plan.onesided_len()];
                stft.process_into(c, &mut spec);
                spec
            })
            .collect();
        let mut srp = vec![0.0; 27];
        for &(i, j) in a.pairs() {
            let gcc = ht_dsp::correlate::gcc_phat_from_spectra(&specs[i], &specs[j], &plan, 13);
            for (s, v) in srp.iter_mut().zip(&gcc.values) {
                *s += v;
            }
        }
        let peak = srp.iter().copied().fold(f64::MIN, f64::max);
        let mean_abs = srp.iter().map(|v| v.abs()).sum::<f64>() / srp.len() as f64;
        assert!((f.srp_peak - peak).abs() <= 1e-12 * peak.abs().max(1.0));
        assert!((f.srp_mean_abs - mean_abs).abs() <= 1e-12 * mean_abs.max(1.0));
    }

    #[test]
    fn pair_order_matches_the_batch_srp_convention() {
        let a = FrameAnalyzer::new(4, 960, 13, 48_000.0).unwrap();
        assert_eq!(a.pairs(), &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(a.n_fft(), 1024);
    }

    #[test]
    fn band_ratio_separates_bright_from_dull_frames() {
        let sr = 48_000.0;
        let n = 960;
        // Bright: energy at 2 kHz (high band). Dull: 200 Hz (low band).
        let bright = tone(2000.0, sr, n, 1.0);
        let dull = tone(200.0, sr, n, 1.0);
        let mut a = FrameAnalyzer::new(2, n, 13, sr).unwrap();
        let rb = a.analyze(&[bright.clone(), bright]).unwrap().band_ratio();
        let rd = a.analyze(&[dull.clone(), dull]).unwrap().band_ratio();
        assert!(rb > 10.0 * rd.max(1e-12), "bright {rb} dull {rd}");
    }

    #[test]
    fn silent_frames_are_finite_and_flat() {
        let mut a = FrameAnalyzer::new(2, 480, 13, 48_000.0).unwrap();
        let z = vec![0.0; 480];
        let f = a.analyze(&[z.clone(), z]).unwrap();
        assert_eq!(f.rms, 0.0);
        assert_eq!(f.srp_sharpness(), 0.0);
        assert_eq!(f.band_ratio(), 0.0);
        assert!(assembled_tdoas(&mut a, 3).iter().all(|t| t.is_finite()));
    }

    #[test]
    fn frame_indices_count_up() {
        let mut a = FrameAnalyzer::new(2, 64, 8, 48_000.0).unwrap();
        let z = vec![0.1; 64];
        for i in 0..3 {
            let f = a.analyze(&[z.clone(), z.clone()]).unwrap();
            assert_eq!(f.frame_index, i);
        }
        assert_eq!(a.frames_analyzed(), 3);
    }

    #[test]
    fn wrong_shapes_are_rejected() {
        let mut a = FrameAnalyzer::new(2, 64, 8, 48_000.0).unwrap();
        let z = vec![0.0; 64];
        assert!(matches!(
            a.analyze(std::slice::from_ref(&z)),
            Err(StreamError::ChannelCountChanged {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            a.analyze(&[z.clone(), vec![0.0; 32]]),
            Err(StreamError::BadGeometry(_))
        ));
        // Still usable after a rejection.
        assert!(a.analyze(&[z.clone(), z]).is_ok());
    }

    #[test]
    fn geometry_validation() {
        assert!(FrameAnalyzer::new(1, 64, 8, 48_000.0).is_err());
        assert!(FrameAnalyzer::new(2, 0, 8, 48_000.0).is_err());
        assert!(FrameAnalyzer::new(2, 64, 8, 0.0).is_err());
        assert!(FrameAnalyzer::new(2, 64, 8, f64::NAN).is_err());
        // Lag clamps like the batch Correlator.
        let a = FrameAnalyzer::new(2, 8, 100, 48_000.0).unwrap();
        assert_eq!(a.max_lag(), 7);
    }

    #[test]
    fn reset_matches_a_fresh_analyzer() {
        let x = noise(960, 21);
        let y = fractional_delay(&x, 3.0, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        let fresh = a.analyze(&[x.clone(), y.clone()]).unwrap().clone();
        let fresh_tdoas = assembled_tdoas(&mut a, 3);
        // Drift the internal state, then reset.
        let _ = a.analyze(&[y.clone(), x.clone()]).unwrap();
        a.reset();
        assert_eq!(a.frames_analyzed(), 0);
        let again = a.analyze(&[x.clone(), y.clone()]).unwrap().clone();
        assert_eq!(again.frame_index, 0);
        assert_eq!(again.srp_peak.to_bits(), fresh.srp_peak.to_bits());
        assert_eq!(again.low_band.to_bits(), fresh.low_band.to_bits());
        assert_eq!(assembled_tdoas(&mut a, 3), fresh_tdoas);

        // The assembled features after a reset are byte-identical to a
        // never-used analyzer's: the frequency-domain accumulators carry
        // nothing between sessions.
        let mut never_used = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        never_used.analyze(&[x, y]).unwrap();
        assert_eq!(assembled_bits(&mut a), assembled_bits(&mut never_used));
    }

    #[test]
    fn sharpness_is_zero_for_silence_and_can_dip_below_one() {
        // Silent frame: mean_abs == 0, sharpness defined as 0.
        let mut a = FrameAnalyzer::new(2, 480, 13, 48_000.0).unwrap();
        let z = vec![0.0; 480];
        assert_eq!(a.analyze(&[z.clone(), z]).unwrap().srp_sharpness(), 0.0);

        // Single pair, sign-mixed curve: a polarity-inverted second channel
        // puts a large *negative* PHAT spike at lag 0, so the signed peak
        // (small positive ripple) sits below the mean magnitude — which is
        // why the accessor makes no ">= 1" promise.
        let x = noise(480, 17);
        let inv: Vec<f64> = x.iter().map(|v| -v).collect();
        let f = a.analyze(&[x, inv]).unwrap();
        let s = f.srp_sharpness();
        assert!(s.is_finite() && s >= 0.0);
        assert!(
            s < 1.0,
            "inverted-polarity pair should dip below 1, got {s}"
        );
    }

    #[test]
    fn assemble_produces_fixed_width_and_is_idempotent() {
        let x = noise(960, 3);
        let y = fractional_delay(&x, 4.0, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();

        // Before any frame: NoFrames, and `out` stays untouched.
        let mut out = vec![42.0];
        assert_eq!(
            a.assemble_features_into(3, &mut out),
            Err(StreamError::NoFrames)
        );
        assert_eq!(out, vec![42.0]);

        a.analyze(&[x.clone(), y.clone()]).unwrap();
        a.analyze(&[y.clone(), x.clone()]).unwrap();
        out.clear();
        a.assemble_features_into(3, &mut out).unwrap();
        // srp(3+5) + 1 pair × (27+1+5).
        assert_eq!(out.len(), 3 + 5 + 33);
        assert!(out.iter().all(|v| v.is_finite()));

        // Assembly is non-destructive: a second call appends the same bits.
        let mut again = Vec::new();
        a.assemble_features_into(3, &mut again).unwrap();
        assert_eq!(out.len(), again.len());
        for (o, g) in out.iter().zip(&again) {
            assert_eq!(o.to_bits(), g.to_bits());
        }

        // ... and analysis may continue after an assembly.
        a.analyze(&[x, y]).unwrap();
        assert_eq!(a.frames_analyzed(), 3);
    }

    #[test]
    fn reset_clears_accumulated_evidence() {
        let x = noise(960, 5);
        let y = fractional_delay(&x, 2.0, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();

        a.analyze(&[x.clone(), y.clone()]).unwrap();
        let mut fresh = Vec::new();
        a.assemble_features_into(3, &mut fresh).unwrap();

        // Pollute the accumulators with a different stream, then reset.
        let other = noise(960, 99);
        a.analyze(&[other.clone(), other]).unwrap();
        a.reset();
        assert_eq!(
            a.assemble_features_into(3, &mut Vec::new()),
            Err(StreamError::NoFrames)
        );

        // Same stream after reset: bit-identical features (no evidence
        // leaks between pooled sessions).
        a.analyze(&[x, y]).unwrap();
        let mut again = Vec::new();
        a.assemble_features_into(3, &mut again).unwrap();
        assert_eq!(fresh.len(), again.len());
        for (f, g) in fresh.iter().zip(&again) {
            assert_eq!(f.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn int8_mode_agrees_with_reference_and_survives_reset() {
        let x = noise(960, 31);
        let y = fractional_delay(&x, 3.0, 16);
        let mut reference = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        let mut fast = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        fast.set_quant_mode(QuantMode::Int8);
        assert_eq!(fast.quant_mode(), QuantMode::Int8);

        reference.analyze(&[x.clone(), y.clone()]).unwrap();
        fast.analyze(&[x.clone(), y.clone()]).unwrap();
        let mut want = Vec::new();
        reference.assemble_features_into(3, &mut want).unwrap();
        let mut got = Vec::new();
        fast.assemble_features_into(3, &mut got).unwrap();
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < 1e-8, "{w} vs {g}");
        }

        // Reset keeps the configured mode (pooled slots set it once).
        fast.reset();
        assert_eq!(fast.quant_mode(), QuantMode::Int8);
    }

    #[test]
    fn repeated_analysis_is_deterministic() {
        let x = noise(960, 11);
        let y = fractional_delay(&x, 2.5, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        let first = a.analyze(&[x.clone(), y.clone()]).unwrap().clone();
        for _ in 0..3 {
            let again = a.analyze(&[x.clone(), y.clone()]).unwrap();
            assert_eq!(again.srp_peak.to_bits(), first.srp_peak.to_bits());
            assert_eq!(again.srp_mean_abs.to_bits(), first.srp_mean_abs.to_bits());
            assert_eq!(again.low_band.to_bits(), first.low_band.to_bits());
        }
    }
}
