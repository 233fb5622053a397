//! The end-to-end HeadTalk pipeline (Fig. 2): preprocessing → liveness →
//! orientation → accept/soft-mute decision.
//!
//! Every entry point here that takes audio runs the streaming engine
//! ([`crate::stream`]) fed the whole capture as one chunk, so batch
//! decisions, training vectors and served decisions share one code path.

use crate::config::PipelineConfig;
use crate::features;
use crate::liveness::{LivenessDetector, LIVE_HUMAN};
use crate::orientation::OrientationDetector;
use crate::preprocess::Preprocessor;
use crate::stream::EvidenceAccum;
use crate::HeadTalkError;
use ht_dsp::QuantMode;

/// The pipeline's verdict on one wake-word capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeDecision {
    /// Liveness verdict: `true` = live human.
    pub live: bool,
    /// Liveness class-1 probability.
    pub live_probability: f64,
    /// Orientation verdict: `true` = facing the device. Only meaningful
    /// when `live` (the paper rejects mechanical sources before checking
    /// orientation), but always computed for diagnostics.
    pub facing: bool,
    /// Orientation decision score (positive = facing).
    pub facing_score: f64,
}

impl WakeDecision {
    /// The overall accept decision (Fig. 2): the command is forwarded to
    /// the cloud only when the source is a live human *and* facing.
    pub fn accepted(&self) -> bool {
        self.live && self.facing
    }
}

/// The assembled HeadTalk system: configuration + liveness detector +
/// orientation detector.
#[derive(Debug, Clone)]
pub struct HeadTalk {
    config: PipelineConfig,
    liveness: LivenessDetector,
    orientation: OrientationDetector,
    /// Which inference backend the decision path runs. Defaults to the
    /// byte-stable f64 [`QuantMode::Reference`]; switched to
    /// [`QuantMode::Int8`] by [`HeadTalk::enable_int8`].
    quant: QuantMode,
}

impl HeadTalk {
    /// Assembles a pipeline from trained components.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Dsp`] for an invalid preprocessing
    /// configuration.
    pub fn new(
        config: PipelineConfig,
        liveness: LivenessDetector,
        orientation: OrientationDetector,
    ) -> Result<HeadTalk, HeadTalkError> {
        // Every accumulator designs this band-pass from the config; reject
        // corners it cannot realize here, once.
        Preprocessor::new(&config)?;
        Ok(HeadTalk {
            config,
            liveness,
            orientation,
            quant: QuantMode::Reference,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The active inference backend.
    pub fn quant_mode(&self) -> QuantMode {
        self.quant
    }

    /// Selects the inference backend. [`QuantMode::Reference`] is always
    /// available; [`QuantMode::Int8`] requires a prior
    /// [`enable_int8`](HeadTalk::enable_int8) (or
    /// [`enable_int8_assembled`](HeadTalk::enable_int8_assembled)) so the
    /// static scales exist.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::InvalidInput`] when Int8 is requested
    /// before calibration.
    pub fn set_quant_mode(&mut self, mode: QuantMode) -> Result<(), HeadTalkError> {
        if mode == QuantMode::Int8 && !self.liveness.has_int8() {
            return Err(HeadTalkError::InvalidInput(
                "int8 mode requires calibrated scales: call enable_int8 first".into(),
            ));
        }
        self.quant = mode;
        Ok(())
    }

    /// Calibrates the int8 backends offline from raw training captures and
    /// switches the pipeline to [`QuantMode::Int8`]: each capture runs
    /// through the engine exactly as [`decide_batch`](HeadTalk::decide_batch)
    /// runs it, and the observed ranges of the assembled features and
    /// liveness inputs fix the static per-layer scales. The f64 models are
    /// untouched and stay selectable via
    /// [`set_quant_mode`](HeadTalk::set_quant_mode).
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::InvalidInput`] for an empty calibration set,
    /// the errors of [`decide_batch`](HeadTalk::decide_batch) for a
    /// degenerate capture, and propagates model errors.
    pub fn enable_int8(&mut self, captures: &[Vec<Vec<f64>>]) -> Result<(), HeadTalkError> {
        if captures.is_empty() {
            return Err(HeadTalkError::InvalidInput(
                "int8 calibration needs at least one capture".into(),
            ));
        }
        let mut liveness_calib = Vec::with_capacity(captures.len());
        let mut feature_calib = Vec::with_capacity(captures.len());
        for channels in captures {
            let mut accum = self.whole_capture(channels)?;
            let ev = accum.assemble()?;
            feature_calib.push(ev.features.to_vec());
            liveness_calib.push(ev.liveness_input.to_vec());
        }
        let liv: Vec<&[f64]> = liveness_calib.iter().map(Vec::as_slice).collect();
        let feat: Vec<&[f64]> = feature_calib.iter().map(Vec::as_slice).collect();
        self.enable_int8_assembled(&liv, &feat)
    }

    /// [`enable_int8`](HeadTalk::enable_int8) from already-assembled
    /// evidence: prepared liveness inputs and (unscaled) orientation
    /// feature vectors — what a serving layer that has been running the
    /// reference path already holds.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors; on error the pipeline stays in its
    /// previous mode.
    pub fn enable_int8_assembled(
        &mut self,
        liveness_calib: &[&[f64]],
        feature_calib: &[&[f64]],
    ) -> Result<(), HeadTalkError> {
        self.liveness.calibrate_int8(liveness_calib)?;
        self.orientation.calibrate_int8(feature_calib)?;
        self.quant = QuantMode::Int8;
        Ok(())
    }

    /// Processes one multichannel wake-word capture (raw 48 kHz channels)
    /// and returns the accept/soft-mute decision:
    /// [`decide_batch`](HeadTalk::decide_batch) without the feature vector.
    ///
    /// Liveness runs on a single channel (the paper: "we needed one channel
    /// of audio data to detect liveliness and 4-channel audio data to detect
    /// speaker orientation", §IV-B15); orientation runs on all channels.
    ///
    /// # Errors
    ///
    /// As for [`decide_batch`](HeadTalk::decide_batch).
    pub fn process_wake(&self, channels: &[Vec<f64>]) -> Result<WakeDecision, HeadTalkError> {
        Ok(self.decide_batch(channels)?.0)
    }

    /// Decides one whole capture and returns the decision together with the
    /// orientation feature vector it was based on. This is the streaming
    /// engine fed the capture as one chunk at the pipeline's analysis
    /// geometry, then assembled and scored: the same route, and the same
    /// bits, as a [`WakeStream`](crate::WakeStream) fed the capture in any
    /// chunking and finalized.
    ///
    /// Each stage runs under an `ht_obs` span (`wake.process` around the
    /// call; per-frame `stream.ingest/frame/score/gate`; then
    /// `wake.feature_extract`, `wake.liveness_prepare`,
    /// `wake.liveness_infer` and `wake.orientation_infer`), so with
    /// `HT_OBS` enabled the per-stage breakdown of §IV-B15 falls out of the
    /// registry. With `HT_OBS=off` the spans cost an atomic load each.
    ///
    /// # Errors
    ///
    /// [`HeadTalkError::Stream`] for fewer than two channels
    /// ([`StreamError::BadGeometry`](crate::stream::StreamError)), ragged
    /// channels, or a capture shorter than one analysis frame
    /// ([`StreamError::NoFrames`](crate::stream::StreamError));
    /// [`HeadTalkError::InvalidInput`] for silent or DC-only audio and for
    /// a channel count whose feature width differs from the width the
    /// orientation model was trained on.
    pub fn decide_batch(
        &self,
        channels: &[Vec<f64>],
    ) -> Result<(WakeDecision, Vec<f64>), HeadTalkError> {
        let _wake = ht_obs::span("wake.process");
        let mut accum = self.whole_capture(channels)?;
        let ev = accum.assemble()?;
        Ok((
            self.infer_assembled(ev.features, ev.liveness_input),
            ev.features.to_vec(),
        ))
    }

    /// The engine fed `channels` as one chunk at this pipeline's liveness
    /// width, after the feature-width check.
    fn whole_capture(&self, channels: &[Vec<f64>]) -> Result<EvidenceAccum, HeadTalkError> {
        let accum =
            EvidenceAccum::whole_capture(&self.config, channels, self.liveness.input_len())?;
        self.validate_feature_width(channels.len())?;
        Ok(accum)
    }

    /// Runs the trained models over already-assembled evidence: the
    /// fixed-width orientation feature vector and the prepared liveness
    /// input. This is the O(models) tail of every decision: the streaming
    /// engine calls it on the evidence it assembled.
    pub fn infer_assembled(&self, features: &[f64], liveness_input: &[f64]) -> WakeDecision {
        let (live_probability, live) = {
            let _s = ht_obs::span("wake.liveness_infer");
            // One forward pass: `predict` is defined as `proba >= 0.5`, so
            // deriving the class from the probability is bit-identical and
            // halves the conv-net cost of every wake decision.
            let p = self
                .liveness
                .live_probability_mode(liveness_input, self.quant);
            (p, usize::from(p >= 0.5) == LIVE_HUMAN)
        };
        let (facing_score, facing) = {
            let _s = ht_obs::span("wake.orientation_infer");
            self.orientation.score_and_facing_mode(features, self.quant)
        };
        WakeDecision {
            live,
            live_probability,
            facing,
            facing_score,
        }
    }

    /// The liveness model's fixed input width in 16 kHz samples.
    pub(crate) fn liveness_input_len(&self) -> usize {
        self.liveness.input_len()
    }

    /// Rejects a channel count whose feature width differs from the width
    /// the orientation model was trained on. The width is a pure function
    /// of the channel count; a capture from a different geometry must be
    /// rejected up front, not fed to the classifier (whose distance/kernel
    /// code would index out of the trained width).
    pub(crate) fn validate_feature_width(&self, n_channels: usize) -> Result<(), HeadTalkError> {
        let expected = self.orientation.input_dim();
        let width = features::feature_width(n_channels, &self.config);
        if width != expected {
            return Err(HeadTalkError::InvalidInput(format!(
                "capture has {n_channels} channel(s) giving feature width {width}, but the \
                 orientation model was trained on feature width {expected}"
            )));
        }
        Ok(())
    }

    /// The orientation feature vector of a raw capture, bit for bit as
    /// [`decide_batch`](HeadTalk::decide_batch) and a served stream score
    /// it under either [`QuantMode`]. The dataset builders train on this,
    /// so training and inference share one code path.
    ///
    /// # Errors
    ///
    /// As for [`decide_batch`](HeadTalk::decide_batch), less the
    /// model-width check (there is no model here).
    pub fn orientation_features(
        config: &PipelineConfig,
        channels: &[Vec<f64>],
    ) -> Result<Vec<f64>, HeadTalkError> {
        let _span = ht_obs::span("wake.orientation_features");
        let mut accum = EvidenceAccum::whole_capture(config, channels, config.liveness_input_len)?;
        Ok(accum.assemble()?.features.to_vec())
    }

    /// The prepared liveness input of a raw capture (causal band-pass on
    /// channel 0, decimated to 16 kHz, cropped or padded and z-scored), as
    /// [`decide_batch`](HeadTalk::decide_batch) scores it. Shared by
    /// training and inference.
    ///
    /// # Errors
    ///
    /// As for [`orientation_features`](HeadTalk::orientation_features).
    pub fn liveness_input(
        config: &PipelineConfig,
        channels: &[Vec<f64>],
    ) -> Result<Vec<f64>, HeadTalkError> {
        let _span = ht_obs::span("wake.liveness_input");
        let mut accum = EvidenceAccum::whole_capture(config, channels, config.liveness_input_len)?;
        Ok(accum.assemble()?.liveness_input.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::ModelKind;
    use ht_dsp::rng::{SeedableRng, StdRng};
    use ht_ml::dataset::Dataset;

    /// Builds a tiny but end-to-end-valid pipeline: the models are trained
    /// on trivially separable synthetic data just to exercise the plumbing.
    fn tiny_pipeline() -> HeadTalk {
        let config = PipelineConfig {
            liveness_input_len: 512,
            ..PipelineConfig::default()
        };

        // Liveness training data at the prepared-input width.
        let mut rng = StdRng::seed_from_u64(1);
        let mut live_ds = Dataset::new(512);
        for _ in 0..10 {
            let mut fast: Vec<f64> = (0..512).map(|t| (t as f64 * 2.5).sin()).collect();
            for v in fast.iter_mut() {
                *v += 0.05 * ht_dsp::rng::gaussian(&mut rng);
            }
            ht_dsp::signal::normalize_zscore(&mut fast);
            live_ds.push(fast, 1).unwrap();
            let mut slow: Vec<f64> = (0..512).map(|t| (t as f64 * 0.05).sin()).collect();
            for v in slow.iter_mut() {
                *v += 0.05 * ht_dsp::rng::gaussian(&mut rng);
            }
            ht_dsp::signal::normalize_zscore(&mut slow);
            live_ds.push(slow, 0).unwrap();
        }
        let liveness = LivenessDetector::fit(&live_ds, 8, 2).unwrap();

        // Orientation training data at the real feature width for 2 chans.
        let width = crate::features::feature_width(2, &config);
        let mut orient_ds = Dataset::new(width);
        for i in 0..10 {
            let mut f = vec![0.0; width];
            f[0] = 1.0 + i as f64 * 0.01;
            orient_ds.push(f, 1).unwrap();
            let mut f = vec![0.0; width];
            f[0] = -1.0 - i as f64 * 0.01;
            orient_ds.push(f, 0).unwrap();
        }
        let orientation = OrientationDetector::fit(&orient_ds, ModelKind::Knn, 3).unwrap();

        HeadTalk::new(config, liveness, orientation).unwrap()
    }

    #[test]
    fn pipeline_produces_a_complete_decision() {
        let ht = tiny_pipeline();
        let mut rng = StdRng::seed_from_u64(4);
        let ch0 = ht_dsp::rng::white_noise(&mut rng, 4800);
        let ch1 = ht_dsp::signal::fractional_delay(&ch0, 2.0, 16);
        let d = ht.process_wake(&[ch0, ch1]).unwrap();
        assert!((0.0..=1.0).contains(&d.live_probability));
        assert!(d.facing_score.is_finite());
        assert_eq!(d.accepted(), d.live && d.facing);
    }

    #[test]
    fn empty_capture_is_rejected() {
        let ht = tiny_pipeline();
        assert!(ht.process_wake(&[]).is_err());
        assert!(ht.process_wake(&[vec![], vec![]]).is_err());
    }

    #[test]
    fn channel_count_mismatch_is_rejected_up_front() {
        let ht = tiny_pipeline(); // trained at the 2-channel feature width
        let mut rng = StdRng::seed_from_u64(8);
        let three: Vec<Vec<f64>> = (0..3)
            .map(|_| ht_dsp::rng::white_noise(&mut rng, 4800))
            .collect();
        let err = ht.process_wake(&three).unwrap_err();
        let msg = err.to_string();
        // Both widths are named so the mismatch is debuggable.
        let expected = crate::features::feature_width(2, ht.config());
        let got = crate::features::feature_width(3, ht.config());
        assert!(msg.contains("feature width"), "{msg}");
        assert!(msg.contains(&expected.to_string()), "{msg}");
        assert!(msg.contains(&got.to_string()), "{msg}");
        // A single-channel capture fails the same structured way.
        let one = vec![ht_dsp::rng::white_noise(&mut rng, 4800)];
        assert!(ht.process_wake(&one).is_err());
    }

    #[test]
    fn pathologically_short_capture_never_panics() {
        let ht = tiny_pipeline();
        let mut rng = StdRng::seed_from_u64(9);
        for len in [1usize, 3, 8, 37, 200] {
            let ch0 = ht_dsp::rng::white_noise(&mut rng, len);
            let ch1 = ch0.clone();
            // Ok or a structured error are both acceptable; a panic is the
            // bug this test guards against.
            let _ = ht.process_wake(&[ch0, ch1]);
        }
    }

    #[test]
    fn decision_requires_both_conditions() {
        let both = WakeDecision {
            live: true,
            live_probability: 0.9,
            facing: true,
            facing_score: 1.0,
        };
        assert!(both.accepted());
        for (live, facing) in [(true, false), (false, true), (false, false)] {
            let d = WakeDecision {
                live,
                facing,
                live_probability: 0.5,
                facing_score: 0.0,
            };
            assert!(!d.accepted());
        }
    }

    #[test]
    fn int8_mode_requires_calibration_then_tracks_reference() {
        let mut ht = tiny_pipeline();
        // Int8 cannot be selected before scales exist.
        assert!(ht.set_quant_mode(QuantMode::Int8).is_err());
        assert_eq!(ht.quant_mode(), QuantMode::Reference);

        let mut rng = StdRng::seed_from_u64(21);
        let captures: Vec<Vec<Vec<f64>>> = (0..4)
            .map(|_| {
                let ch0 = ht_dsp::rng::white_noise(&mut rng, 4800);
                let ch1 = ht_dsp::signal::fractional_delay(&ch0, 2.0, 16);
                vec![ch0, ch1]
            })
            .collect();
        let reference: Vec<WakeDecision> = captures
            .iter()
            .map(|c| ht.process_wake(c).unwrap())
            .collect();

        ht.enable_int8(&captures).unwrap();
        assert_eq!(ht.quant_mode(), QuantMode::Int8);
        for (c, r) in captures.iter().zip(&reference) {
            let q = ht.process_wake(c).unwrap();
            assert!(
                (q.live_probability - r.live_probability).abs() < 0.05,
                "int8 {} vs reference {}",
                q.live_probability,
                r.live_probability
            );
            assert_eq!(q.live, r.live, "liveness verdict agrees");
            // The kNN orientation model has no int8 backend, so facing is
            // the identical f64 path either way.
            assert_eq!(q.facing_score.to_bits(), r.facing_score.to_bits());
            assert_eq!(q.facing, r.facing);
        }

        // Switching back reproduces the pre-calibration reference bits:
        // calibration never perturbs the f64 models.
        ht.set_quant_mode(QuantMode::Reference).unwrap();
        for (c, r) in captures.iter().zip(&reference) {
            let q = ht.process_wake(c).unwrap();
            assert_eq!(
                q.live_probability.to_bits(),
                r.live_probability.to_bits(),
                "reference stays byte-stable after calibration"
            );
        }
    }

    #[test]
    fn enable_int8_rejects_an_empty_calibration_set() {
        let mut ht = tiny_pipeline();
        assert!(ht.enable_int8(&[]).is_err());
        assert_eq!(ht.quant_mode(), QuantMode::Reference, "mode unchanged");
    }

    #[test]
    fn helper_extractors_share_the_inference_path() {
        let config = PipelineConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let ch0 = ht_dsp::rng::white_noise(&mut rng, 4800);
        let ch1 = ht_dsp::signal::fractional_delay(&ch0, 1.0, 16);
        let capture = vec![ch0, ch1];
        let fv = HeadTalk::orientation_features(&config, &capture).unwrap();
        assert_eq!(fv.len(), crate::features::feature_width(2, &config));
        let li = HeadTalk::liveness_input(&config, &capture).unwrap();
        assert_eq!(li.len(), config.liveness_input_len);
    }
}
