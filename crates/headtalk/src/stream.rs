//! The streaming wake engine — the one route to a wake decision.
//!
//! An [`EvidenceAccum`] is the model-free half of the engine: ring ingest,
//! per-frame STFT + sliding SRP-PHAT, the early-exit [`EarlyExitGate`]
//! scoring each frame's cheap evidence
//! ([`crate::liveness::frame_live_evidence`],
//! [`crate::orientation::frame_facing_evidence`]), the per-pair whitened
//! cross-spectrum sums and directivity spectrum behind the §III-B3 feature
//! vector, and a causally band-passed, streaming-decimated 16 kHz liveness
//! branch — all on alloc-free scratch paths. Assembly builds the feature
//! vector and the liveness input from those statistics in O(features); no
//! audio is stored or revisited. A [`WakeStream`] is that accumulator plus the trained
//! [`HeadTalk`] models that decide on it.
//!
//! Every decision and every training vector comes from here. Batch mode is
//! the engine fed the whole capture as one chunk:
//! [`HeadTalk::decide_batch`], [`HeadTalk::process_wake`],
//! [`HeadTalk::orientation_features`], [`HeadTalk::liveness_input`] and the
//! int8 calibration all push one chunk and assemble. The result does not
//! depend on the chunking or on `HT_THREADS`; the golden and property tests
//! pin it against independent whole-capture references.
//!
//! ```no_run
//! # fn main() -> Result<(), headtalk::HeadTalkError> {
//! # let ht: headtalk::HeadTalk = unimplemented!();
//! let mut stream = ht.streamer(4)?;
//! // Feed 10 ms chunks as the microphone delivers them:
//! # let chunk: Vec<&[f64]> = Vec::new();
//! let verdict = stream.push(&chunk)?;
//! if verdict == headtalk::stream::WakeVerdict::SoftMute {
//!     // the gate concluded mid-utterance: not live, or not facing
//! }
//! let outcome = stream.finalize()?;
//! # Ok(()) }
//! ```

use crate::config::PipelineConfig;
use crate::liveness::{frame_live_evidence, prepare_decimated_into};
use crate::orientation::frame_facing_evidence;
use crate::pipeline::{HeadTalk, WakeDecision};
use crate::preprocess::Preprocessor;
use crate::{features, HeadTalkError};
use ht_dsp::filter::StreamingSos;
use ht_dsp::resample::StreamDecimator;
use ht_dsp::QuantMode;
use ht_stream::{DirectivityAccum, EarlyExitGate, FrameAnalyzer, FrameRing};

pub use ht_stream::{
    AudioChunk, EarlyExit, ExitReason, GateConfig, GateMode, StreamError, WakeVerdict,
};

/// Geometry and gate tuning for a [`WakeStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop between frames in samples (the real-time deadline: each frame's
    /// processing must finish within `hop / sample_rate` seconds).
    pub hop: usize,
    /// Early-exit gate tuning.
    pub gate: GateConfig,
    /// Expected capture length in samples (presizes the liveness branch so
    /// steady-state pushes don't reallocate it); 0 for a modest default.
    pub capacity_hint: usize,
}

impl StreamConfig {
    /// The default geometry for a pipeline configuration:
    /// [`PipelineConfig::analysis_frame_geometry`] (20 ms frames advancing
    /// by 10 ms — 960/480 samples at the paper's 48 kHz) with an advisory
    /// gate. This is the geometry the batch entry points run the engine
    /// at, so a stream opened with it decides exactly as
    /// [`HeadTalk::decide_batch`] does on the same capture. A custom
    /// geometry still works but frames the capture differently.
    pub fn for_pipeline(config: &PipelineConfig) -> StreamConfig {
        let (frame_len, hop) = config.analysis_frame_geometry();
        StreamConfig {
            frame_len,
            hop,
            gate: GateConfig::default(),
            capacity_hint: 0,
        }
    }

    /// The per-frame real-time budget in seconds: one hop of audio.
    pub fn hop_deadline_secs(&self, sample_rate: f64) -> f64 {
        self.hop as f64 / sample_rate
    }
}

/// Everything a finished stream knows.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The stream's verdict: [`WakeVerdict::Allow`] only when the finalized
    /// decision accepted; [`WakeVerdict::SoftMute`] when the decision
    /// rejected *or* an enforcing gate stopped the stream early.
    pub verdict: WakeVerdict,
    /// The decision over the accumulated evidence. `None` only when an
    /// enforcing gate stopped ingestion before a decidable capture
    /// accumulated.
    pub decision: Option<WakeDecision>,
    /// The orientation feature vector behind `decision` (empty when
    /// `decision` is `None`).
    pub features: Vec<f64>,
    /// The gate's early exit, if it fired (recorded in advisory mode,
    /// enforced in enforcing mode).
    pub early_exit: Option<EarlyExit>,
    /// Frames analyzed.
    pub frames: u64,
    /// Samples ingested per channel.
    pub samples_per_channel: usize,
}

/// The assembled decision evidence, borrowed from the accumulator's scratch
/// buffers: the fixed-width orientation feature vector and the prepared
/// liveness input. Feed them to [`HeadTalk::infer_assembled`] — or inspect
/// them — without any copy.
#[derive(Debug, Clone, Copy)]
pub struct AssembledEvidence<'s> {
    /// The §III-B3 orientation feature vector.
    pub features: &'s [f64],
    /// The z-scored fixed-width 16 kHz liveness input.
    pub liveness_input: &'s [f64],
}

/// A stream's evidence copied out of its scratch, so the models can run
/// after whatever guards the stream is released (the serving layer's
/// batched finalize). [`decide`](Concluded::decide) returns the outcome
/// [`WakeStream::outcome`] returns for the same stream.
#[derive(Debug, Clone)]
pub struct Concluded {
    /// Features and liveness input; `None` when an enforcing gate stopped
    /// the stream before a decidable capture accumulated.
    evidence: Option<(Vec<f64>, Vec<f64>)>,
    tally: Tally,
}

impl Concluded {
    /// Runs the models over the copied evidence.
    pub fn decide(&self, ht: &HeadTalk) -> StreamOutcome {
        match &self.evidence {
            Some((features, liveness_input)) => self.tally.outcome(
                Some(ht.infer_assembled(features, liveness_input)),
                features.clone(),
            ),
            None => self.tally.outcome(None, Vec::new()),
        }
    }
}

/// The stream bookkeeping an outcome reports besides the decision.
#[derive(Debug, Clone, Copy)]
struct Tally {
    muted: bool,
    early_exit: Option<EarlyExit>,
    frames: u64,
    samples_per_channel: usize,
}

impl Tally {
    /// The verdict rule: [`WakeVerdict::Allow`] only for an accepted
    /// decision on a stream no enforcing gate muted.
    fn outcome(self, decision: Option<WakeDecision>, features: Vec<f64>) -> StreamOutcome {
        let allow = !self.muted && decision.is_some_and(|d| d.accepted());
        StreamOutcome {
            verdict: if allow {
                WakeVerdict::Allow
            } else {
                WakeVerdict::SoftMute
            },
            decision,
            features,
            early_exit: self.early_exit,
            frames: self.frames,
            samples_per_channel: self.samples_per_channel,
        }
    }
}

/// The model-free state of the streaming engine: everything between raw
/// audio and the assembled decision evidence.
#[derive(Debug, Clone)]
pub struct EvidenceAccum {
    config: PipelineConfig,
    stream: StreamConfig,
    ring: FrameRing,
    analyzer: FrameAnalyzer,
    gate: EarlyExitGate,
    /// Welch accumulator for the speech-directivity spectrum.
    dir: DirectivityAccum,
    /// Samples ingested per channel (no audio is stored beyond the ring's
    /// working window and the decimated liveness branch).
    samples: usize,
    /// Scratch frame the ring pops into.
    frame: Vec<Vec<f64>>,
    /// Carried band-pass state of the causal liveness filter (channel 0).
    liv_sos: StreamingSos,
    /// Per-chunk scratch for the filtered channel-0 samples.
    liv_filtered: Vec<f64>,
    /// Streaming ÷3 decimator carrying the anti-alias FIR tail.
    liv_dec: StreamDecimator,
    /// Decimated 16 kHz liveness samples emitted so far.
    liv_16k: Vec<f64>,
    /// Assembly scratch: `liv_16k` plus the decimator's flushed tail.
    liv_tail: Vec<f64>,
    /// Assembly scratch: the cropped/padded, z-scored liveness input.
    liv_prepared: Vec<f64>,
    /// Assembly scratch: the feature vector.
    features: Vec<f64>,
    /// The liveness model's fixed input width in 16 kHz samples.
    liv_input_len: usize,
    /// `true` once an enforcing gate has stopped ingestion.
    muted: bool,
}

impl EvidenceAccum {
    /// An empty accumulator for `n_channels` microphones. `quant` selects
    /// the per-frame GCC whitening kernel (fast squared-magnitude under
    /// Int8, byte-stable hypot under Reference); `liv_input_len` is the
    /// liveness input width in 16 kHz samples.
    ///
    /// # Errors
    ///
    /// [`HeadTalkError::Stream`] with [`StreamError::BadGeometry`] for
    /// fewer than two channels or a bad frame/hop, and
    /// [`HeadTalkError::Dsp`] for invalid band-pass corners.
    pub(crate) fn new(
        config: &PipelineConfig,
        n_channels: usize,
        stream: StreamConfig,
        quant: QuantMode,
        liv_input_len: usize,
    ) -> Result<EvidenceAccum, HeadTalkError> {
        let ring = FrameRing::with_capacity(
            n_channels,
            stream.frame_len,
            stream.hop,
            stream.frame_len + 2 * stream.hop,
        )?;
        let mut analyzer = FrameAnalyzer::new(
            n_channels,
            stream.frame_len,
            config.max_lag,
            config.sample_rate,
        )?;
        analyzer.set_quant_mode(quant);
        let capacity = if stream.capacity_hint > 0 {
            stream.capacity_hint
        } else {
            // Default to 4 s of audio at the configured rate.
            (config.sample_rate * 4.0) as usize
        };
        Ok(EvidenceAccum {
            config: *config,
            ring,
            analyzer,
            gate: EarlyExitGate::new(stream.gate),
            dir: DirectivityAccum::new(
                n_channels,
                config.directivity_segment_len(),
                config.sample_rate,
            )?,
            samples: 0,
            frame: vec![vec![0.0; stream.frame_len]; n_channels],
            liv_sos: StreamingSos::new(Preprocessor::new(config)?.sos().clone()),
            liv_filtered: Vec::with_capacity(2 * stream.hop + 16),
            liv_dec: StreamDecimator::new(3)?,
            liv_16k: Vec::with_capacity(capacity / 3 + 64),
            liv_tail: Vec::with_capacity(capacity / 3 + 128),
            liv_prepared: Vec::with_capacity(liv_input_len),
            features: Vec::with_capacity(features::feature_width(n_channels, config)),
            liv_input_len,
            muted: false,
            stream,
        })
    }

    /// The engine fed a whole capture as one chunk at the pipeline's
    /// analysis geometry: what every batch entry point runs.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new) and [`push`](Self::push).
    pub(crate) fn whole_capture(
        config: &PipelineConfig,
        channels: &[Vec<f64>],
        quant: QuantMode,
        liv_input_len: usize,
    ) -> Result<EvidenceAccum, HeadTalkError> {
        let stream = StreamConfig {
            capacity_hint: channels.first().map_or(0, Vec::len),
            ..StreamConfig::for_pipeline(config)
        };
        let mut accum = EvidenceAccum::new(config, channels.len(), stream, quant, liv_input_len)?;
        let chunk: Vec<&[f64]> = channels.iter().map(Vec::as_slice).collect();
        accum.push(&chunk)?;
        Ok(accum)
    }

    /// Ingests one chunk (any length; hop-aligned or ragged) and processes
    /// every frame that becomes ready. Returns the rolling verdict.
    ///
    /// After an enforcing gate has fired, further pushes are dropped and
    /// return [`WakeVerdict::SoftMute`] immediately — the soft mute is the
    /// point: no more audio leaves the device.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for a chunk whose channel count
    /// differs from the stream's or whose channels have unequal lengths;
    /// the stream state is untouched and subsequent valid pushes work.
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<WakeVerdict, HeadTalkError> {
        if self.muted {
            return Ok(WakeVerdict::SoftMute);
        }
        {
            let _ingest = ht_obs::span("stream.ingest");
            self.ring.push(chunk)?;
            self.dir.push(chunk)?;
            self.samples += chunk[0].len();
            // Liveness branch: causal band-pass with carried state, then
            // streaming decimation — O(chunk) per push, and the same bits
            // for any chunking.
            self.liv_filtered.clear();
            self.liv_sos.process(chunk[0], &mut self.liv_filtered);
            self.liv_dec.push(&self.liv_filtered, &mut self.liv_16k);
        }
        while !self.muted && self.ring.pop_frame_into(&mut self.frame) {
            let _frame_span = ht_obs::span("stream.frame");
            let (rms, live_evidence, facing_evidence) = {
                let features = self.analyzer.analyze(&self.frame)?;
                let _score = ht_obs::span("stream.score");
                (
                    features.rms,
                    frame_live_evidence(features),
                    frame_facing_evidence(features),
                )
            };
            let verdict = {
                let _gate = ht_obs::span("stream.gate");
                self.gate.observe(rms, live_evidence, facing_evidence)
            };
            if verdict == WakeVerdict::SoftMute && self.stream.gate.mode == GateMode::Enforcing {
                self.muted = true;
            }
        }
        Ok(self.verdict())
    }

    /// Like [`push`](EvidenceAccum::push), but verifies the chunk's claimed
    /// sample rate against the pipeline's.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] with
    /// [`StreamError::SampleRateChanged`] for a rate mismatch (compared at
    /// integer-Hz resolution), plus everything [`push`](EvidenceAccum::push)
    /// returns.
    pub fn push_audio(&mut self, chunk: AudioChunk<'_>) -> Result<WakeVerdict, HeadTalkError> {
        let expected_hz = self.config.sample_rate.round() as u32;
        let got_hz = chunk.sample_rate.round() as u32;
        if got_hz != expected_hz {
            return Err(StreamError::SampleRateChanged {
                expected_hz,
                got_hz,
            }
            .into());
        }
        self.push(chunk.channels)
    }

    /// The rolling verdict: [`WakeVerdict::SoftMute`] once the gate has
    /// fired, [`WakeVerdict::Undecided`] otherwise. (An Allow only ever
    /// comes from [`WakeStream::finalize`] — the models, not the gate,
    /// grant it.)
    pub fn verdict(&self) -> WakeVerdict {
        if self.gate.fired().is_some() {
            WakeVerdict::SoftMute
        } else {
            WakeVerdict::Undecided
        }
    }

    /// The gate's early exit, if it has fired.
    pub fn early_exit(&self) -> Option<EarlyExit> {
        self.gate.fired()
    }

    /// `true` once an enforcing gate has stopped ingestion.
    pub fn is_muted(&self) -> bool {
        self.muted
    }

    /// Frames analyzed so far.
    pub fn frames(&self) -> u64 {
        self.analyzer.frames_analyzed()
    }

    /// Samples ingested per channel so far.
    pub fn samples_per_channel(&self) -> usize {
        self.samples
    }

    /// Forward FFTs the directivity accumulator's flush has performed
    /// since this accumulator was constructed (a repeat flush at an
    /// unchanged sample count hits the epoch cache and performs none).
    /// Survives [`reset`](EvidenceAccum::reset), so a pooled slot keeps a
    /// running total — the serving layer's retry-hits-the-cache regression
    /// tests pin this.
    pub fn directivity_flush_ffts(&self) -> u64 {
        self.dir.flush_ffts()
    }

    /// Inverse FFTs the frame analyzer has run since this accumulator was
    /// constructed: one per analyzed frame plus one per microphone pair
    /// per assembly. Survives [`reset`](EvidenceAccum::reset), like
    /// [`directivity_flush_ffts`](Self::directivity_flush_ffts).
    pub fn gcc_inverse_ffts(&self) -> u64 {
        self.analyzer.gcc_inverse_ffts()
    }

    /// The stream's hop in samples (the natural push granularity).
    pub fn hop(&self) -> usize {
        self.stream.hop
    }

    /// The stream's configuration.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.stream
    }

    /// Assembles the feature vector into scratch from the analyzer's
    /// Welch accumulators and the directivity spectrum.
    pub(crate) fn assemble_features(&mut self) -> Result<&[f64], HeadTalkError> {
        self.features.clear();
        features::assemble_into(
            &mut self.analyzer,
            &mut self.dir,
            &self.config,
            &mut self.features,
        )?;
        Ok(&self.features)
    }

    /// Assembles the decision evidence from the accumulated statistics into
    /// scratch: the feature vector, then the liveness input from the
    /// decimated branch plus the decimator's flushed FIR tail. O(features),
    /// allocation-free once the scratch has grown, and non-destructive —
    /// analysis may continue and the evidence be assembled again.
    fn assemble_evidence(&mut self) -> Result<(), HeadTalkError> {
        self.assemble_features()?;
        self.liv_tail.clear();
        self.liv_tail.extend_from_slice(&self.liv_16k);
        self.liv_dec.flush_into(&mut self.liv_tail);
        prepare_decimated_into(&self.liv_tail, self.liv_input_len, &mut self.liv_prepared)
    }

    /// Assembles and exposes the decision evidence without running the
    /// models (borrowed from internal scratch; the next push or assembly
    /// overwrites it).
    ///
    /// # Errors
    ///
    /// [`HeadTalkError::Stream`] with [`StreamError::NoFrames`] for a
    /// capture shorter than one frame, and [`HeadTalkError::InvalidInput`]
    /// for silent or DC-only audio.
    pub fn assemble(&mut self) -> Result<AssembledEvidence<'_>, HeadTalkError> {
        self.assemble_evidence()?;
        Ok(AssembledEvidence {
            features: &self.features,
            liveness_input: &self.liv_prepared,
        })
    }

    fn tally(&self) -> Tally {
        Tally {
            muted: self.muted,
            early_exit: self.gate.fired(),
            frames: self.analyzer.frames_analyzed(),
            samples_per_channel: self.samples,
        }
    }

    /// [`assemble`](Self::assemble) under the muted-undecidable rule: when
    /// an enforcing gate has muted the stream, evidence that cannot be
    /// assembled is `Ok(None)` — the gate's soft-mute is the decision —
    /// rather than an error.
    fn decidable(&mut self) -> Result<Option<AssembledEvidence<'_>>, HeadTalkError> {
        match self.assemble_evidence() {
            Ok(()) => Ok(Some(AssembledEvidence {
                features: &self.features,
                liveness_input: &self.liv_prepared,
            })),
            Err(_) if self.muted => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Assembles the evidence and copies it out, for deciding with
    /// [`Concluded::decide`] once this accumulator is no longer borrowed.
    ///
    /// # Errors
    ///
    /// As for [`WakeStream::finalize`].
    pub fn conclude(&mut self) -> Result<Concluded, HeadTalkError> {
        let tally = self.tally();
        let evidence = self
            .decidable()?
            .map(|ev| (ev.features.to_vec(), ev.liveness_input.to_vec()));
        Ok(Concluded { evidence, tally })
    }

    /// Returns the accumulator to its just-opened state — empty ring,
    /// rewound analyzer, fresh gate and filter/decimator state, cleared
    /// liveness branch — while keeping every buffer at its grown capacity.
    /// A reset accumulator produces byte-identical results to a freshly
    /// opened one, but reusing it costs no heap allocations once its
    /// buffers have grown to the working capture length; the serving
    /// layer's session arenas depend on this.
    pub fn reset(&mut self) {
        self.ring.reset();
        self.analyzer.reset();
        self.gate.reset();
        self.dir.reset();
        self.samples = 0;
        self.liv_sos.reset();
        self.liv_dec.reset();
        self.liv_filtered.clear();
        self.liv_16k.clear();
        self.liv_tail.clear();
        self.liv_prepared.clear();
        self.features.clear();
        self.muted = false;
    }
}

/// A live streaming session: an [`EvidenceAccum`] (reached through `Deref`
/// for `push`, `assemble`, `reset`, …) plus the [`HeadTalk`] models that
/// decide on it.
#[derive(Debug, Clone)]
pub struct WakeStream<'a> {
    ht: &'a HeadTalk,
    evidence: EvidenceAccum,
}

impl std::ops::Deref for WakeStream<'_> {
    type Target = EvidenceAccum;

    fn deref(&self) -> &EvidenceAccum {
        &self.evidence
    }
}

impl std::ops::DerefMut for WakeStream<'_> {
    fn deref_mut(&mut self) -> &mut EvidenceAccum {
        &mut self.evidence
    }
}

impl HeadTalk {
    /// Opens a streaming session for an `n_channels` microphone array with
    /// the default [`StreamConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for fewer than two channels or bad
    /// geometry, and [`HeadTalkError::InvalidInput`] when `n_channels`
    /// gives a feature width the orientation model wasn't trained on.
    pub fn streamer(&self, n_channels: usize) -> Result<WakeStream<'_>, HeadTalkError> {
        self.streamer_with(n_channels, StreamConfig::for_pipeline(self.config()))
    }

    /// Opens a streaming session with explicit geometry and gate tuning.
    ///
    /// # Errors
    ///
    /// As for [`streamer`](HeadTalk::streamer).
    pub fn streamer_with(
        &self,
        n_channels: usize,
        config: StreamConfig,
    ) -> Result<WakeStream<'_>, HeadTalkError> {
        let evidence = EvidenceAccum::new(
            self.config(),
            n_channels,
            config,
            self.quant_mode(),
            self.liveness_input_len(),
        )?;
        self.validate_feature_width(n_channels)?;
        Ok(WakeStream { ht: self, evidence })
    }
}

impl WakeStream<'_> {
    /// Finalizes the stream: assembles the feature vector and liveness
    /// input from the accumulated evidence — O(features), not O(capture) —
    /// runs the trained models, and folds in the gate's early exit.
    ///
    /// In enforcing mode the evidence may have been truncated at the mute
    /// point; if too little audio accumulated to decide, the outcome
    /// carries the gate's soft-mute with `decision: None` instead of an
    /// error.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors (short or silent/DC-only captures) when
    /// the gate did not stop the stream.
    pub fn finalize(mut self) -> Result<StreamOutcome, HeadTalkError> {
        self.outcome()
    }

    /// [`finalize`](WakeStream::finalize) without consuming the stream, so
    /// a pooled session slot can be [`reset`](EvidenceAccum::reset) and
    /// reused afterwards (the multi-tenant server's steady state).
    /// Identical semantics and byte-identical results.
    ///
    /// # Errors
    ///
    /// As for [`finalize`](WakeStream::finalize).
    pub fn outcome(&mut self) -> Result<StreamOutcome, HeadTalkError> {
        let tally = self.evidence.tally();
        Ok(match self.evidence.decidable()? {
            Some(ev) => tally.outcome(
                Some(self.ht.infer_assembled(ev.features, ev.liveness_input)),
                ev.features.to_vec(),
            ),
            None => tally.outcome(None, Vec::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_20ms_frames_10ms_hop() {
        let cfg = StreamConfig::for_pipeline(&PipelineConfig::default());
        assert_eq!(cfg.frame_len, 960);
        assert_eq!(cfg.hop, 480);
        assert!((cfg.hop_deadline_secs(48_000.0) - 0.010).abs() < 1e-12);
        assert_eq!(cfg.gate.mode, GateMode::Advisory);
    }

    #[test]
    fn odd_sample_rates_round_to_positive_hops() {
        let cfg = StreamConfig::for_pipeline(&PipelineConfig {
            sample_rate: 44_100.0,
            ..PipelineConfig::default()
        });
        assert_eq!(cfg.hop, 441);
        assert_eq!(cfg.frame_len, 882);
    }
}
