//! Orientation feature layout (§III-B3).
//!
//! One capture yields one fixed-width feature vector composed of:
//!
//! * **Speech reverberation** features — the frame-averaged weighted
//!   SRP-PHAT curve's top peaks and statistical summary, plus for every
//!   microphone pair the frame-averaged GCC-PHAT lag window, its TDoA, and
//!   its statistical summary (kurtosis, skewness, max, MAD, std; §III-B3);
//! * **Speech directivity** features — the high/low band ratio (HLBR) and
//!   per-chunk (mean, RMS, std) statistics of the 100–400 Hz low band split
//!   into 20 chunks, computed on the frame-averaged channel-mean spectrum.
//!
//! The vector is assembled from evidence the streaming engine
//! ([`crate::stream::EvidenceAccum`]) accumulates frame by frame at the
//! [`PipelineConfig::analysis_frame_geometry`]. There is no separate batch
//! extractor: [`HeadTalk::orientation_features`](crate::HeadTalk) is that
//! engine fed the whole capture as one chunk.

use crate::config::PipelineConfig;
use crate::HeadTalkError;
use ht_dsp::spectrum;
use ht_stream::analyzer::FrameAnalyzer;
use ht_stream::directivity::DirectivityAccum;
use ht_stream::error::StreamError;

/// Computes the width of the feature vector for `n_channels` microphones
/// under a configuration (feature vectors are fixed-width per device).
pub fn feature_width(n_channels: usize, config: &PipelineConfig) -> usize {
    let pairs = n_channels * (n_channels - 1) / 2;
    let window = 2 * config.max_lag + 1;
    // SRP: top peaks + 5 summary stats.
    let srp = config.srp_peaks + 5;
    // Per pair: GCC window + TDoA + 5 summary stats.
    let gcc = pairs * (window + 1 + 5);
    // Directivity: HLBR + chunks × (mean, rms, std).
    let directivity = 1 + 3 * config.low_band_chunks;
    srp + gcc + directivity
}

/// Assembles the feature vector from the accumulated evidence — the
/// analyzer's SRP/GCC sums followed by the directivity accumulator's
/// averaged spectrum.
///
/// # Errors
///
/// Returns [`HeadTalkError::Stream`] with [`StreamError::NoFrames`] when
/// no complete frame has been analyzed (capture shorter than one frame).
pub(crate) fn assemble_into(
    analyzer: &mut FrameAnalyzer,
    dir: &mut DirectivityAccum,
    config: &PipelineConfig,
    out: &mut Vec<f64>,
) -> Result<(), HeadTalkError> {
    let _span = ht_obs::span("wake.feature_extract");
    analyzer.assemble_features_into(config.srp_peaks, out)?;
    // ≥1 analyzed frame implies ≥frame_len pushed samples, so the
    // accumulator always has a spectrum here.
    let spec = dir.flush_spectrum().ok_or(StreamError::NoFrames)?;
    out.push(spectrum::hlbr(spec));
    spectrum::push_low_band_chunk_stats(spec, config.low_band_chunks, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::EvidenceAccum;
    use crate::HeadTalk;
    use ht_dsp::rng::SeedableRng;
    use ht_dsp::signal::fractional_delay;
    use ht_dsp::QuantMode;

    fn extract(channels: &[Vec<f64>], cfg: &PipelineConfig) -> Result<Vec<f64>, HeadTalkError> {
        HeadTalk::orientation_features(cfg, channels)
    }

    fn test_channels(n: usize, len: usize) -> Vec<Vec<f64>> {
        let mut rng = ht_dsp::rng::StdRng::seed_from_u64(1);
        let base = ht_dsp::rng::white_noise(&mut rng, len);
        (0..n)
            .map(|k| fractional_delay(&base, k as f64 * 1.5, 16))
            .collect()
    }

    #[test]
    fn width_formula_matches_extraction() {
        let cfg = PipelineConfig::default();
        for n in [2usize, 4, 6] {
            let ch = test_channels(n, 2048);
            let f = extract(&ch, &cfg).unwrap();
            assert_eq!(f.len(), feature_width(n, &cfg), "{n} channels");
        }
    }

    #[test]
    fn paper_gcc_vector_width_for_d2() {
        // §III-B3: for D2 (4 selected mics, ±13 lag) the GCC+TDoA feature
        // is 6×27 + 6 = 168 values.
        let cfg = PipelineConfig::default(); // max_lag 13
        let pairs = 6;
        let window = 27;
        let gcc_part = pairs * (window + 1); // + TDoA
        assert_eq!(gcc_part, 168);
        // The full width adds SRP and directivity features on top.
        assert!(feature_width(4, &cfg) > gcc_part);
    }

    #[test]
    fn features_are_finite() {
        let cfg = PipelineConfig::default();
        let ch = test_channels(4, 4096);
        let f = extract(&ch, &cfg).unwrap();
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_channel_is_rejected() {
        let cfg = PipelineConfig::default();
        let ch = test_channels(1, 1024);
        assert!(matches!(
            extract(&ch, &cfg),
            Err(HeadTalkError::Stream(StreamError::BadGeometry(_)))
        ));
    }

    #[test]
    fn tdoa_features_reflect_geometry() {
        // Channels delayed by 1.5 samples each: pair (0,1) TDoA ≈ -1.5.
        let cfg = PipelineConfig::default();
        let ch = test_channels(2, 4096);
        let f = extract(&ch, &cfg).unwrap();
        // Layout: srp_peaks (3) + srp stats (5) + gcc window (27) + tdoa.
        let tdoa_idx = 3 + 5 + 27;
        assert!(
            (f[tdoa_idx] + 1.5).abs() < 0.3,
            "TDoA feature {} should be ≈ -1.5",
            f[tdoa_idx]
        );
    }

    #[test]
    fn silence_produces_finite_features() {
        // Silence has no liveness input (zero variance), so the public
        // entry points refuse it; the feature half alone must still be
        // finite.
        let cfg = PipelineConfig::default();
        let ch = vec![vec![0.0; 1024], vec![0.0; 1024]];
        let mut accum =
            EvidenceAccum::whole_capture(&cfg, &ch, QuantMode::Reference, cfg.liveness_input_len)
                .unwrap();
        let f = accum.assemble_features().unwrap();
        assert_eq!(f.len(), feature_width(2, &cfg));
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
