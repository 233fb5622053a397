//! # ht-stream — the streaming frame substrate for the wake pipeline
//!
//! The paper's orientation-aware privacy control only thwarts misactivation
//! if the decision lands *before* the assistant wakes, which means the
//! pipeline must run online, frame by frame, not batch over a finished
//! capture. This crate provides the generic, model-free substrate for that:
//!
//! * [`FrameRing`] — multi-channel ring-buffered PCM ingest with fixed
//!   frame/hop geometry; accepts pushes of any size and yields overlapping
//!   analysis frames with no steady-state allocations.
//! * [`FrameAnalyzer`] — one shared forward FFT per channel per frame
//!   (the alloc-free `StftProcessor` scratch path), then sliding SRP-PHAT
//!   over every microphone pair from cross-spectra whitened by
//!   `ht_dsp::kernels::cross_whiten_into`, plus the paper's low/high band
//!   evidence.
//! * [`DirectivityAccum`] — Welch-style running average of long
//!   channel-mean magnitude spectra, the incremental carrier of the
//!   paper's speech-directivity evidence (HLBR + low-band chunks).
//! * [`EarlyExitGate`] — frame-granular soft-mute: EWMA-smoothed liveness
//!   and orientation evidence with a patience counter, advisory or
//!   enforcing ([`GateMode`]).
//! * [`StreamError`] — typed rejection of mid-stream geometry changes
//!   (sample rate, channel count, ragged chunks) that would otherwise
//!   produce silently wrong GCC lags.
//!
//! The model-bearing streaming engine (`headtalk::stream::WakeStream`)
//! composes these with the trained liveness/orientation detectors; this
//! crate stays zero-dependency on the model layer so the substrate can be
//! reused (and tested) in isolation.

pub mod analyzer;
pub mod directivity;
pub mod error;
pub mod gate;
pub mod ring;

pub use analyzer::{FrameAnalyzer, FrameFeatures};
pub use directivity::DirectivityAccum;
pub use error::StreamError;
pub use gate::{EarlyExit, EarlyExitGate, ExitReason, GateConfig, GateMode, WakeVerdict};
pub use ring::FrameRing;

/// A borrowed multi-channel PCM chunk with its claimed sample rate.
///
/// The rate travels with every chunk so the consumer can verify it against
/// the stream's construction-time geometry and reject a mid-stream change
/// with [`StreamError::SampleRateChanged`] instead of mis-scaling every
/// frequency bin and TDoA.
#[derive(Debug, Clone, Copy)]
pub struct AudioChunk<'a> {
    /// Sample rate of the samples in `channels`, in Hz.
    pub sample_rate: f64,
    /// One equal-length slice per channel.
    pub channels: &'a [&'a [f64]],
}

impl<'a> AudioChunk<'a> {
    /// Convenience constructor.
    pub fn new(sample_rate: f64, channels: &'a [&'a [f64]]) -> AudioChunk<'a> {
        AudioChunk {
            sample_rate,
            channels,
        }
    }
}
