//! Incremental speech-directivity evidence: a Welch-style running average
//! of long channel-mean magnitude spectra.
//!
//! The §III-B3 directivity features (HLBR and the 100–400 Hz low-band
//! chunk statistics) need *fine* spectral resolution — 20 chunks across a
//! 300 Hz band is 15 Hz per chunk, and the statistics inside each chunk
//! only carry information when the analysis window resolves the voice's
//! harmonic structure. A 20 ms analysis frame (≈100 Hz rectangular-window
//! resolution) cannot do that, so the directivity evidence accumulates
//! here over much longer segments than the per-frame SRP/GCC analysis:
//! non-overlapping windows of the channel-mean signal, each transformed
//! once and summed per bin.
//!
//! The accumulator is chunking-independent by construction: samples fill
//! the segment buffer by absolute index, so any split of the capture into
//! push calls produces the same segment boundaries, the same FFT inputs,
//! and bit-identical averaged magnitudes. The batch feature extractor
//! pushes the whole capture in one call; the streaming engine pushes
//! microphone chunks — both end at the same bits.
//!
//! Flushing is cached and adaptive. The flushed spectrum is stamped with
//! the sample-count epoch it was computed at, so repeat flushes with no
//! new audio (retryable finalizes, `finalize_batch` re-drives, `outcome()`
//! re-reads) return the cached [`Spectrum`] with zero FFT work. And when
//! no segment has completed yet — the common case for sub-second serving
//! captures against a 32k-sample Welch segment — the partial tail is
//! transformed at the next power of two ≥ its own length (floored at
//! [`MIN_PARTIAL_N_FFT`] so the 100–400 Hz chunk statistics stay
//! resolved), not zero-padded to the full segment: the produced
//! [`Spectrum`] carries its own `n_fft` so the band helpers read the same
//! underlying DTFT on a coarser grid at a fraction of the transform cost.

use crate::error::StreamError;
use ht_dsp::complex::Complex;
use ht_dsp::fft::{rfft_plan, RealFftPlan, RealFftScratch};
use ht_dsp::spectrum::Spectrum;
use ht_dsp::stft::StftProcessor;
use ht_dsp::window::Window;
use std::sync::Arc;

/// Resolution floor for the adaptive short-capture flush: at 48 kHz a
/// 4096-point grid gives ≈11.7 Hz bins, enough to keep every 15 Hz
/// low-band chunk populated. Captures whose next power of two is at
/// least the segment FFT length use the full segment grid (bit-identical
/// to the historical full-pad flush), so this floor only engages for
/// genuinely short captures.
pub const MIN_PARTIAL_N_FFT: usize = 4096;

/// Sentinel for "no cached flush" (no real epoch reaches `u64::MAX`).
const EPOCH_DIRTY: u64 = u64::MAX;

/// Running channel-mean spectrum accumulator for the directivity features.
#[derive(Debug, Clone)]
pub struct DirectivityAccum {
    channels: usize,
    seg_len: usize,
    stft: StftProcessor,
    /// Channel-mean samples of the segment currently being filled
    /// (`len() < seg_len` between pushes).
    buf: Vec<f64>,
    /// FFT scratch for completed and flushed segments.
    bins: Vec<Complex>,
    /// Zero-pad scratch for the flush path (the partial segment must not
    /// be mutated by a non-destructive flush).
    flush_buf: Vec<f64>,
    /// Running per-bin magnitude sums over completed segments.
    mag_accum: Vec<f64>,
    /// Completed (full-length) segments accumulated.
    segments: u64,
    /// Reused facade over the averaged magnitudes so callers can use the
    /// batch `hlbr`/chunk-stats helpers without allocating.
    spectrum: Spectrum,
    /// Segment FFT length (the full-resolution grid).
    n_fft: usize,
    /// Sample-count epoch `spectrum` was computed at (`EPOCH_DIRTY` when
    /// no flush is cached). A repeat flush at the same epoch returns the
    /// cached spectrum without touching the FFT.
    cached_epoch: u64,
    /// Plan for the most recent adaptive (shorter-than-segment) flush
    /// grid, kept so steady-state flushes skip the shared plan-cache lock.
    partial_plan: Option<Arc<RealFftPlan>>,
    /// Scratch for the adaptive flush transform (warmed at construction
    /// to the full segment size, so no flush grid can grow it).
    scratch: RealFftScratch,
    /// Forward FFTs performed by `flush_spectrum` since construction.
    /// Diagnostic: pinned by the zero-FFT-on-repeat regression tests.
    flush_ffts: u64,
}

impl DirectivityAccum {
    /// Builds an accumulator for `channels`-channel audio at `sample_rate`,
    /// averaging spectra over non-overlapping `seg_len`-sample segments of
    /// the channel mean.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::BadGeometry`] for zero channels, a zero
    /// segment length, or a non-positive sample rate.
    pub fn new(
        channels: usize,
        seg_len: usize,
        sample_rate: f64,
    ) -> Result<DirectivityAccum, StreamError> {
        if channels == 0 {
            return Err(StreamError::BadGeometry(
                "directivity accumulator needs at least one channel".into(),
            ));
        }
        if seg_len == 0 {
            return Err(StreamError::BadGeometry(
                "directivity segment length must be positive".into(),
            ));
        }
        if sample_rate <= 0.0 || !sample_rate.is_finite() {
            return Err(StreamError::BadGeometry(format!(
                "sample rate must be positive and finite, got {sample_rate}"
            )));
        }
        let n_fft = ht_dsp::fft::next_pow2(seg_len);
        let mut stft = StftProcessor::with_n_fft(seg_len, n_fft, Window::Rect);
        let bins = stft.onesided_len();
        // One throwaway transform warms the processor's lazily sized FFT
        // scratch (and the shared plan cache) at construction, so the
        // first segment to complete mid-stream allocates nothing — the
        // push path's allocation-free claim is unconditional.
        let mut warm_bins = vec![Complex::ZERO; bins];
        let warm_buf = vec![0.0; seg_len];
        stft.process_into(&warm_buf, &mut warm_bins);
        // Warm the adaptive-flush scratch at the *largest* grid the flush
        // can ever use (the full segment FFT), so every shorter grid runs
        // within its capacity and the flush path stays allocation-free.
        let mut scratch = RealFftScratch::new();
        rfft_plan(n_fft).forward_into(&warm_buf, &mut warm_bins, &mut scratch);
        warm_bins.fill(Complex::ZERO);
        Ok(DirectivityAccum {
            channels,
            seg_len,
            stft,
            buf: Vec::with_capacity(seg_len),
            bins: warm_bins,
            flush_buf: warm_buf,
            mag_accum: vec![0.0; bins],
            segments: 0,
            spectrum: Spectrum {
                magnitudes: vec![0.0; bins],
                sample_rate,
                n_fft,
            },
            n_fft,
            cached_epoch: EPOCH_DIRTY,
            partial_plan: None,
            scratch,
            flush_ffts: 0,
        })
    }

    /// Ingests one chunk (`channels` equally long sample slices), folding
    /// the per-sample channel mean into the current segment and
    /// transforming every segment that completes. Allocation-free after
    /// construction; amortized one FFT per `seg_len` samples.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ChannelCountChanged`] /
    /// [`StreamError::RaggedChunk`] for a chunk of the wrong shape (the
    /// accumulator state is untouched).
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<(), StreamError> {
        if chunk.len() != self.channels {
            return Err(StreamError::ChannelCountChanged {
                expected: self.channels,
                got: chunk.len(),
            });
        }
        let len = chunk[0].len();
        if let Some(other) = chunk.iter().find(|c| c.len() != len) {
            return Err(StreamError::RaggedChunk {
                first: len,
                other: other.len(),
            });
        }
        let n = self.channels as f64;
        for i in 0..len {
            let mut mean = 0.0;
            for c in chunk {
                mean += c[i];
            }
            self.buf.push(mean / n);
            if self.buf.len() == self.seg_len {
                let _span = ht_obs::span("stream.directivity");
                self.stft.process_into(&self.buf, &mut self.bins);
                for (acc, z) in self.mag_accum.iter_mut().zip(&self.bins) {
                    *acc += z.abs_fast();
                }
                self.segments += 1;
                self.buf.clear();
            }
        }
        Ok(())
    }

    /// Assembles the averaged magnitude spectrum over every completed
    /// segment *plus* the current partial segment (zero-padded), so short
    /// captures — down to a single sample — still yield directivity
    /// evidence. Non-destructive and idempotent: more audio may be pushed
    /// afterwards, and a repeat call returns the same bits.
    ///
    /// Two structural optimizations keep this off the finalize hot path:
    ///
    /// * **Epoch cache.** The result is stamped with the total-sample
    ///   epoch it was computed at; a repeat flush with no new audio
    ///   returns the cached spectrum and performs zero FFT work.
    /// * **Adaptive grid.** While no segment has completed, the flush is
    ///   the whole-capture magnitude spectrum at
    ///   `next_pow2(capture_len)` resolution (floored at
    ///   [`MIN_PARTIAL_N_FFT`], capped at the segment FFT length) —
    ///   exactly what [`Spectrum::of`] computes for the batch Fig. 3
    ///   analysis — instead of a full-segment zero-pad. The coarser grid
    ///   samples the *same* DTFT, so band statistics agree with the
    ///   full-pad flush at every shared frequency, for a fraction of the
    ///   transform cost. Once a segment completes, the historical
    ///   full-grid Welch average is bit-for-bit unchanged.
    ///
    /// Returns `None` when no sample has been pushed at all.
    pub fn flush_spectrum(&mut self) -> Option<&Spectrum> {
        let partial = self.buf.len();
        let epoch = self.segments * self.seg_len as u64 + partial as u64;
        if epoch == 0 {
            return None;
        }
        if self.cached_epoch == epoch {
            ht_obs::counter_add("stream.directivity_flush_cached", 1);
            return Some(&self.spectrum);
        }
        let _span = ht_obs::span("stream.directivity");
        let full_bins = self.mag_accum.len();
        if self.segments == 0 {
            // Short capture: one transform at the capture's own grid.
            let m = ht_dsp::fft::next_pow2(partial)
                .max(MIN_PARTIAL_N_FFT)
                .min(self.n_fft);
            let plan = match &self.partial_plan {
                Some(p) if p.len() == m => Arc::clone(p),
                _ => {
                    let p = rfft_plan(m);
                    self.partial_plan = Some(Arc::clone(&p));
                    p
                }
            };
            let half = plan.onesided_len();
            plan.forward_into(&self.buf, &mut self.bins[..half], &mut self.scratch);
            self.spectrum.magnitudes.resize(half, 0.0);
            for (mag, z) in self.spectrum.magnitudes.iter_mut().zip(&self.bins[..half]) {
                *mag = z.abs_fast();
            }
            self.spectrum.n_fft = m;
            self.flush_ffts += 1;
            ht_obs::counter_add("stream.directivity_flush_fft", 1);
        } else {
            self.spectrum.magnitudes.resize(full_bins, 0.0);
            self.spectrum.n_fft = self.n_fft;
            let mut total = self.segments as f64;
            if partial > 0 {
                total += 1.0;
                self.flush_buf[..partial].copy_from_slice(&self.buf);
                self.flush_buf[partial..].fill(0.0);
                self.stft.process_into(&self.flush_buf, &mut self.bins);
                for ((m, acc), z) in self
                    .spectrum
                    .magnitudes
                    .iter_mut()
                    .zip(&self.mag_accum)
                    .zip(&self.bins)
                {
                    *m = (acc + z.abs_fast()) / total;
                }
                self.flush_ffts += 1;
                ht_obs::counter_add("stream.directivity_flush_fft", 1);
            } else {
                for (m, acc) in self.spectrum.magnitudes.iter_mut().zip(&self.mag_accum) {
                    *m = acc / total;
                }
            }
        }
        self.cached_epoch = epoch;
        Some(&self.spectrum)
    }

    /// Forward FFTs `flush_spectrum` has performed since construction
    /// (cache hits and full-segment averages perform none). Survives
    /// [`reset`](DirectivityAccum::reset) so pooled reuse keeps a running
    /// total.
    pub fn flush_ffts(&self) -> u64 {
        self.flush_ffts
    }

    /// The configured channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The segment length in samples.
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// Completed (full-length) segments accumulated so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Samples folded into the current partial segment.
    pub fn pending_samples(&self) -> usize {
        self.buf.len()
    }

    /// Clears all accumulated evidence while keeping every buffer at
    /// capacity, so a pooled session can reuse the accumulator with no
    /// allocations and bit-identical results to a fresh one.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.mag_accum.fill(0.0);
        self.segments = 0;
        // A recycled session may push a different capture of the same
        // length, so the epoch alone cannot distinguish it — drop the
        // cached flush explicitly.
        self.cached_epoch = EPOCH_DIRTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn chunking_does_not_change_the_spectrum() {
        let x = noise(5000, 9);
        let y = noise(5000, 11);
        for chunk in [1usize, 7, 480, 1024, 6000] {
            let mut whole = DirectivityAccum::new(2, 1024, 48_000.0).unwrap();
            whole.push(&[&x, &y]).unwrap();
            let reference = whole.flush_spectrum().unwrap().clone();

            let mut split = DirectivityAccum::new(2, 1024, 48_000.0).unwrap();
            let mut pos = 0;
            while pos < x.len() {
                let end = (pos + chunk).min(x.len());
                split.push(&[&x[pos..end], &y[pos..end]]).unwrap();
                pos = end;
            }
            let got = split.flush_spectrum().unwrap();
            assert_eq!(got.magnitudes.len(), reference.magnitudes.len());
            for (g, r) in got.magnitudes.iter().zip(&reference.magnitudes) {
                assert_eq!(g.to_bits(), r.to_bits(), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn short_capture_matches_zero_padded_whole_capture_fft() {
        // One partial segment: the flushed spectrum is the plain magnitude
        // spectrum of the zero-padded capture mean.
        let x = noise(300, 3);
        let mut acc = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        assert_eq!(acc.segments(), 0);
        assert_eq!(acc.pending_samples(), 300);
        let got = acc.flush_spectrum().unwrap().clone();
        let mut padded = x.clone();
        padded.resize(1024, 0.0);
        let reference = ht_dsp::fft::rfft_magnitude(&padded);
        assert_eq!(got.magnitudes.len(), reference.len());
        for (g, r) in got.magnitudes.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn flush_is_non_destructive_and_idempotent() {
        let x = noise(2500, 21);
        let mut acc = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        acc.push(&[&x[..1500]]).unwrap();
        let first = acc.flush_spectrum().unwrap().clone();
        let again = acc.flush_spectrum().unwrap().clone();
        assert_eq!(first, again);

        // Continue pushing after a flush: same as never having flushed.
        acc.push(&[&x[1500..]]).unwrap();
        let streamed = acc.flush_spectrum().unwrap().clone();
        let mut fresh = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        fresh.push(&[&x]).unwrap();
        let reference = fresh.flush_spectrum().unwrap();
        for (s, r) in streamed.magnitudes.iter().zip(&reference.magnitudes) {
            assert_eq!(s.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn empty_accumulator_has_no_spectrum_and_reset_matches_fresh() {
        let mut acc = DirectivityAccum::new(2, 512, 48_000.0).unwrap();
        assert!(acc.flush_spectrum().is_none());

        let x = noise(700, 5);
        let y = noise(700, 6);
        acc.push(&[&x, &y]).unwrap();
        let first = acc.flush_spectrum().unwrap().clone();

        // Pollute with different audio, reset, replay: identical bits.
        acc.push(&[&y, &x]).unwrap();
        acc.reset();
        assert!(acc.flush_spectrum().is_none());
        acc.push(&[&x, &y]).unwrap();
        let again = acc.flush_spectrum().unwrap();
        for (f, a) in first.magnitudes.iter().zip(&again.magnitudes) {
            assert_eq!(f.to_bits(), a.to_bits());
        }
    }

    #[test]
    fn all_silent_capture_flushes_the_exact_zero_spectrum_idempotently() {
        // A soft-muted microphone delivers exact zeros: every segment (and
        // the zero-padded partial) transforms to the zero spectrum, so the
        // documented result is exactly-zero magnitudes — not a partial
        // window, not NaN — and repeated flushes return the same bits.
        for len in [1usize, 100, 512, 700, 2048] {
            let z = vec![0.0; len];
            let mut acc = DirectivityAccum::new(2, 512, 48_000.0).unwrap();
            acc.push(&[&z, &z]).unwrap();
            for round in 0..3 {
                let spec = acc.flush_spectrum().unwrap().clone();
                assert!(
                    spec.magnitudes.iter().all(|&m| m == 0.0),
                    "len {len} round {round}: non-zero magnitude"
                );
            }
            // Still ingesting after the flushes: state was untouched.
            acc.push(&[&z, &z]).unwrap();
            assert!(acc
                .flush_spectrum()
                .unwrap()
                .magnitudes
                .iter()
                .all(|&m| m == 0.0));
        }
    }

    #[test]
    fn short_capture_flush_property() {
        // Property (alongside the non-destructive-flush pin): for any
        // capture shorter than one Welch segment, pushed in any chunking,
        // the flush is the zero-padded whole-capture spectrum — never a
        // partial window — and flushing is idempotent.
        ht_dsp::check::property("directivity_short_capture_flush")
            .cases(40)
            .run(|g| {
                let seg_len = *g.choose(&[256usize, 512, 1024]);
                let len = g.usize_in(1..seg_len);
                let x = g.vec_f64(-1.0..1.0, len..len + 1);
                let mut acc = DirectivityAccum::new(1, seg_len, 48_000.0).unwrap();
                let mut pos = 0;
                while pos < len {
                    let end = (pos + g.usize_in(1..len + 1)).min(len);
                    acc.push(&[&x[pos..end]]).unwrap();
                    pos = end;
                }
                assert_eq!(acc.segments(), 0, "capture shorter than one segment");
                let first = acc.flush_spectrum().unwrap().clone();
                let again = acc.flush_spectrum().unwrap().clone();
                assert_eq!(first, again, "flush must be idempotent");
                let mut padded = x.clone();
                padded.resize(ht_dsp::fft::next_pow2(seg_len), 0.0);
                let reference = ht_dsp::fft::rfft_magnitude(&padded);
                assert_eq!(first.magnitudes.len(), reference.len());
                for (f, r) in first.magnitudes.iter().zip(&reference) {
                    assert_eq!(f.to_bits(), r.to_bits(), "partial-window leak");
                }
            });
    }

    #[test]
    fn repeat_flush_at_same_epoch_performs_zero_ffts() {
        let x = noise(1500, 77);
        let mut acc = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        acc.push(&[&x[..700]]).unwrap();
        assert_eq!(acc.flush_ffts(), 0, "push alone must not flush");
        let first = acc.flush_spectrum().unwrap().clone();
        assert_eq!(acc.flush_ffts(), 1);
        for _ in 0..3 {
            let again = acc.flush_spectrum().unwrap();
            assert_eq!(again, &first);
        }
        assert_eq!(acc.flush_ffts(), 1, "repeat flushes must hit the cache");
        // New audio invalidates the cache: the next flush transforms again.
        acc.push(&[&x[700..]]).unwrap();
        acc.flush_spectrum().unwrap();
        assert_eq!(acc.flush_ffts(), 2);
        // A reset drops the cache even though a same-length capture would
        // land on the same epoch.
        acc.reset();
        acc.push(&[&x[..700]]).unwrap();
        let replay = acc.flush_spectrum().unwrap().clone();
        assert_eq!(acc.flush_ffts(), 3);
        for (r, f) in replay.magnitudes.iter().zip(&first.magnitudes) {
            assert_eq!(r.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn complete_segment_flush_performs_no_fft_and_caches() {
        let x = noise(2048, 41);
        let mut acc = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        assert_eq!(acc.segments(), 2);
        assert_eq!(acc.pending_samples(), 0);
        let first = acc.flush_spectrum().unwrap().clone();
        let again = acc.flush_spectrum().unwrap().clone();
        assert_eq!(first, again);
        assert_eq!(
            acc.flush_ffts(),
            0,
            "averaging completed segments is FFT-free"
        );
    }

    #[test]
    fn short_capture_against_large_segment_uses_adaptive_grid() {
        // A 4800-sample capture against a 32k Welch segment (the serving
        // shape) transforms at next_pow2(4800) = 8192 — the whole-capture
        // spectrum `Spectrum::of` computes — not the full 32k pad.
        let x = noise(4800, 5);
        let mut acc = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        let got = acc.flush_spectrum().unwrap().clone();
        assert_eq!(got.n_fft, 8192);
        assert_eq!(got.magnitudes.len(), 8192 / 2 + 1);
        let reference = ht_dsp::fft::rfft_magnitude(&x);
        assert_eq!(got.magnitudes.len(), reference.len());
        for (g, r) in got.magnitudes.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
        assert_eq!(acc.flush_ffts(), 1);
    }

    #[test]
    fn tiny_capture_flush_floors_at_min_partial_n_fft() {
        let x = noise(10, 3);
        let mut acc = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        let got = acc.flush_spectrum().unwrap().clone();
        assert_eq!(got.n_fft, MIN_PARTIAL_N_FFT);
        let mut padded = x.clone();
        padded.resize(MIN_PARTIAL_N_FFT, 0.0);
        let reference = ht_dsp::fft::rfft_magnitude(&padded);
        for (g, r) in got.magnitudes.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn adaptive_grid_samples_the_full_pad_dtft() {
        // The coarse M-point grid samples the same DTFT as the historical
        // full-segment zero-pad at every (n_fft / M)-th bin: the grid
        // change trades resolution, never accuracy.
        let x = noise(4800, 21);
        let mut acc = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        let got = acc.flush_spectrum().unwrap().clone();
        assert_eq!(got.n_fft, 8192);
        let mut padded = x.clone();
        padded.resize(32_768, 0.0);
        let full = ht_dsp::fft::rfft_magnitude(&padded);
        let stride = 32_768 / got.n_fft;
        for (k, g) in got.magnitudes.iter().enumerate() {
            let r = full[k * stride];
            assert!(
                (g - r).abs() <= 1e-9 * r.abs().max(1.0),
                "bin {k}: {g} vs {r}"
            );
        }
    }

    #[test]
    fn adaptive_flush_is_non_destructive_across_the_grid_transition() {
        // Flushing on the adaptive grid, then streaming past the segment
        // boundary, must yield the same full-grid Welch average as never
        // having flushed.
        let x = noise(40_000, 31);
        let mut acc = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        acc.push(&[&x[..4800]]).unwrap();
        assert_eq!(acc.flush_spectrum().unwrap().n_fft, 8192);
        acc.push(&[&x[4800..]]).unwrap();
        let streamed = acc.flush_spectrum().unwrap().clone();
        assert_eq!(
            streamed.n_fft, 32_768,
            "full grid returns with the first segment"
        );

        let mut fresh = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        fresh.push(&[&x]).unwrap();
        let reference = fresh.flush_spectrum().unwrap();
        assert_eq!(streamed.magnitudes.len(), reference.magnitudes.len());
        for (s, r) in streamed.magnitudes.iter().zip(&reference.magnitudes) {
            assert_eq!(s.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn cached_flush_interleaving_property() {
        // Property: for any chunking with flushes interleaved at random
        // points, the final spectrum is bit-identical to a single-push
        // fresh accumulator, every interleaved double-flush hits the
        // cache, and flushing never perturbs later evidence.
        ht_dsp::check::property("directivity_cached_flush_interleaving")
            .cases(30)
            .run(|g| {
                let seg_len = *g.choose(&[512usize, 1024, 8192]);
                let len = g.usize_in(1..3 * seg_len);
                let x = g.vec_f64(-1.0..1.0, len..len + 1);
                let mut acc = DirectivityAccum::new(1, seg_len, 48_000.0).unwrap();
                let mut pos = 0;
                while pos < len {
                    let end = (pos + g.usize_in(1..len + 1)).min(len);
                    acc.push(&[&x[pos..end]]).unwrap();
                    pos = end;
                    if g.usize_in(0..3) == 0 {
                        let ffts = acc.flush_ffts();
                        let first = acc.flush_spectrum().unwrap().clone();
                        let again = acc.flush_spectrum().unwrap();
                        assert_eq!(&first, again, "repeat flush must be bit-stable");
                        assert!(
                            acc.flush_ffts() <= ffts + 1,
                            "repeat flush must not transform again"
                        );
                    }
                }
                let streamed = acc.flush_spectrum().unwrap().clone();
                let mut fresh = DirectivityAccum::new(1, seg_len, 48_000.0).unwrap();
                fresh.push(&[&x]).unwrap();
                let reference = fresh.flush_spectrum().unwrap();
                assert_eq!(streamed.n_fft, reference.n_fft);
                assert_eq!(streamed.magnitudes.len(), reference.magnitudes.len());
                for (s, r) in streamed.magnitudes.iter().zip(&reference.magnitudes) {
                    assert_eq!(s.to_bits(), r.to_bits());
                }
            });
    }

    #[test]
    fn bad_shapes_are_rejected_without_state_damage() {
        let mut acc = DirectivityAccum::new(2, 256, 48_000.0).unwrap();
        let x = noise(100, 1);
        assert!(matches!(
            acc.push(&[&x]),
            Err(StreamError::ChannelCountChanged {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            acc.push(&[&x, &x[..50]]),
            Err(StreamError::RaggedChunk { .. })
        ));
        assert_eq!(acc.pending_samples(), 0);
        acc.push(&[&x, &x]).unwrap();
        assert_eq!(acc.pending_samples(), 100);
    }

    #[test]
    fn geometry_validation() {
        assert!(DirectivityAccum::new(0, 256, 48_000.0).is_err());
        assert!(DirectivityAccum::new(2, 0, 48_000.0).is_err());
        assert!(DirectivityAccum::new(2, 256, 0.0).is_err());
        assert!(DirectivityAccum::new(2, 256, f64::NAN).is_err());
    }
}
