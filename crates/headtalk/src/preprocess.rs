//! Preprocessing: the paper's denoising block (§III).
//!
//! *"In order to remove low-frequency and high-frequency components
//! generated from the surrounding environment, we adopted the fifth-order
//! Butterworth bandpass filter to keep the audio within the frequency range
//! of 100∼16000 Hz."* The band-pass runs causally on the liveness branch
//! only; the orientation features analyze raw frames, so no filter phase
//! ever touches the inter-channel delays (the TDoA information).

use crate::config::PipelineConfig;
use crate::HeadTalkError;
use ht_dsp::filter::{Butterworth, Sos};

/// The preprocessing stage: the band-pass denoising filter.
#[derive(Debug, Clone)]
pub struct Preprocessor {
    filter: Sos,
}

impl Preprocessor {
    /// Builds the preprocessor for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Dsp`] when the corners are invalid for the
    /// sample rate.
    pub fn new(config: &PipelineConfig) -> Result<Preprocessor, HeadTalkError> {
        let filter = Butterworth::bandpass(
            5,
            config.preprocess_lo_hz,
            config.preprocess_hi_hz,
            config.sample_rate,
        )?;
        Ok(Preprocessor { filter })
    }

    /// The band-pass cascade itself, for callers that need to run it
    /// causally with carried state (`ht_dsp::filter::StreamingSos` on the
    /// streaming liveness branch).
    pub fn sos(&self) -> &Sos {
        &self.filter
    }

    /// Causal single-pass band-pass: each output sample depends only on
    /// past inputs, so a chunked stream can compute this incrementally with
    /// carried per-section state and match this whole-capture call bit for
    /// bit. The decision path's liveness branch runs it that way.
    pub fn filter_causal(&self, x: &[f64]) -> Vec<f64> {
        self.filter.filter(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::signal::{rms, tone};

    fn pre() -> Preprocessor {
        Preprocessor::new(&PipelineConfig::default()).unwrap()
    }

    #[test]
    fn rejects_out_of_band_noise() {
        let p = pre();
        // 30 Hz rumble is outside the 100–16k band.
        let rumble = tone(30.0, 48_000.0, 9600, 1.0);
        let out = p.filter_causal(&rumble);
        assert!(rms(&out[2400..7200]) < 0.05 * rms(&rumble[2400..7200]));
        // 1 kHz speech-band content passes.
        let speech = tone(1000.0, 48_000.0, 9600, 1.0);
        let out = p.filter_causal(&speech);
        assert!(rms(&out[2400..7200]) > 0.9 * rms(&speech[2400..7200]));
    }

    #[test]
    fn silence_stays_silent() {
        let p = pre();
        let out = p.filter_causal(&[0.0; 256]);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bad_config_is_rejected() {
        let cfg = PipelineConfig {
            sample_rate: 8_000.0, // 16 kHz corner above Nyquist
            ..PipelineConfig::default()
        };
        assert!(Preprocessor::new(&cfg).is_err());
    }
}
