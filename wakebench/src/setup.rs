//! Benchmark set-up: the trained pipeline, the rendered traffic, its
//! ground truth and the output oracle every served outcome is held to.

use headtalk::facing::FacingDefinition;
use headtalk::liveness::LivenessDetector;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::stream::StreamConfig;
use headtalk::{HeadTalk, PipelineConfig, WakeDecision};
use ht_acoustics::noise::NoiseKind;
use ht_datagen::{CaptureSpec, SourceKind};
use ht_dsp::rng::{derive_seed, split_stream, Rng, SliceRandom};
use ht_ml::Dataset;
use ht_speech::replay::SpeakerModel;
use ht_speech::utterance::WakeWord;
use ht_speech::voice::VoiceProfile;
use ht_stream::{EarlyExit, WakeVerdict};

use crate::Workload;

/// Microphone channels of every capture (the paper's default 4-mic subset).
pub const CHANNELS: usize = 4;

/// Distinct long captures: 4 scenario kinds x 3 wake words x TV on/off,
/// twice over, so each seed's mix of capture lengths stays close to the
/// next seed's.
const LONG_CAPTURES: usize = 48;

/// Distinct short misactivation captures (half TV noise, half replay).
const SHORT_CAPTURES: usize = 64;

/// Replay renders the short replay windows are cut from.
const SHORT_RENDERS: usize = 8;

/// Level of the injected TV ambient on long captures (§IV-B10 uses 45 dB).
const TV_AMBIENT_SPL: f64 = 45.0;

/// What a capture really is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// A live human inside the facing zone: the only capture to allow.
    LiveFacing,
    /// A live human turned away (outside the facing zone).
    LiveAway,
    /// The wake word replayed through a loudspeaker.
    Replay,
    /// TV noise alone.
    TvNoise,
}

impl Truth {
    /// The ground truth of a rendered spec: live and facing per the
    /// paper's evaluation zones, else why not.
    pub fn of_spec(spec: &CaptureSpec) -> Truth {
        match spec.source {
            SourceKind::Replay { .. } => Truth::Replay,
            SourceKind::Human { .. } if FacingDefinition::ground_truth(spec.angle_deg) == 1 => {
                Truth::LiveFacing
            }
            SourceKind::Human { .. } => Truth::LiveAway,
        }
    }

    /// `true` when the right answer is `Allow`.
    pub fn should_allow(self) -> bool {
        self == Truth::LiveFacing
    }
}

/// One distinct capture of a workload's traffic.
#[derive(Debug, Clone)]
pub struct Capture {
    /// `CHANNELS` equal-length 48 kHz channels.
    pub channels: Vec<Vec<f64>>,
    /// Its ground truth.
    pub truth: Truth,
}

impl Capture {
    /// Samples per channel.
    pub fn len(&self) -> usize {
        self.channels[0].len()
    }

    /// Audio duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.len() as f64 / ht_acoustics::SAMPLE_RATE
    }

    /// Channel views of samples `[a, b)`.
    pub fn chunk(&self, a: usize, b: usize) -> [&[f64]; CHANNELS] {
        std::array::from_fn(|c| &self.channels[c][a..b])
    }

    /// The capture as consecutive `hop`-sample chunks, the last one short.
    pub fn hops(&self, hop: usize) -> impl Iterator<Item = [&[f64]; CHANNELS]> + '_ {
        (0..self.len())
            .step_by(hop)
            .map(move |a| self.chunk(a, (a + hop).min(self.len())))
    }
}

/// The outcome every serve of one capture must reproduce bit for bit.
#[derive(Debug, Clone)]
pub struct Expected {
    /// `HeadTalk::decide_batch` on the whole capture.
    pub decision: WakeDecision,
    /// Feature vector of a solo hop-chunked `WakeStream` on the capture.
    pub features: Vec<f64>,
    /// The solo stream's gate exit.
    pub early_exit: Option<EarlyExit>,
    /// Frames the solo stream analyzed.
    pub frames: u64,
}

impl Expected {
    /// The verdict the server must return.
    pub fn verdict(&self) -> WakeVerdict {
        if self.decision.accepted() {
            WakeVerdict::Allow
        } else {
            WakeVerdict::SoftMute
        }
    }
}

/// Everything set-up produces.
pub struct Bench {
    /// The deployed pipeline (int8 backends calibrated and active).
    pub ht: HeadTalk,
    /// A copy of the trained liveness model, calibrated like the deployed
    /// one, for per-layer timing of `ht-ml`.
    pub liveness: LivenessDetector,
    /// A copy of the trained orientation model, likewise.
    pub orientation: OrientationDetector,
    /// The workload's distinct captures.
    pub captures: Vec<Capture>,
    /// The oracle, index-aligned with `captures`.
    pub expected: Vec<Expected>,
    /// Largest relative difference between the batch extractor's features
    /// and the served (streamed) features over all captures. Non-zero
    /// under int8: the stream whitens GCC with the fast kernel, the batch
    /// extractor with the reference one.
    pub batch_feature_dev: f64,
    /// Seconds each set-up stage took, in order.
    pub stages: Vec<(&'static str, f64)>,
}

/// The stream geometry every session runs with.
pub fn stream_config(ht: &HeadTalk) -> StreamConfig {
    StreamConfig::for_pipeline(ht.config())
}

/// Renders `specs` in parallel on the `ht-par` pool.
fn render_all(specs: &[CaptureSpec]) -> Vec<Vec<Vec<f64>>> {
    ht_par::par_map(specs, |s| s.render().expect("capture render"))
}

/// Trains the pipeline with the end-to-end recipe: an SVM over the angle
/// sweep for orientation and a conv net on human vs Sony-replay renders for
/// liveness, every render seeded from `seed`, then calibrates and enables
/// the int8 backends as deployed.
fn train(seed: u64) -> (HeadTalk, LivenessDetector, OrientationDetector) {
    let config = PipelineConfig::default();
    let def = FacingDefinition::Definition4;
    let angles = [0.0, 15.0, -30.0, 30.0, 90.0, -90.0, 135.0, 180.0];
    let orient_specs: Vec<CaptureSpec> = angles
        .iter()
        .enumerate()
        .flat_map(|(i, &angle_deg)| {
            (0..4u64).map(move |rep| CaptureSpec {
                angle_deg,
                seed: derive_seed(seed ^ 0x0A7E, i as u64 * 4 + rep),
                ..CaptureSpec::baseline(0)
            })
        })
        .collect();
    let live_specs: Vec<(CaptureSpec, usize)> = (0..16u64)
        .flat_map(|i| {
            let human = CaptureSpec::baseline(derive_seed(seed ^ 0x11FE, i));
            let replay = CaptureSpec {
                source: SourceKind::Replay {
                    model: SpeakerModel::SonySrsX5,
                    voice: VoiceProfile::adult_male(),
                },
                ..CaptureSpec::baseline(derive_seed(seed ^ 0x5EA7, i))
            };
            [(human, 1), (replay, 0)]
        })
        .collect();

    let orient_renders = render_all(&orient_specs);
    let labelled: Vec<(&Vec<Vec<f64>>, usize)> = orient_specs
        .iter()
        .zip(&orient_renders)
        .filter_map(|(spec, ch)| def.label(spec.angle_deg).map(|l| (ch, l)))
        .collect();
    let feats: Vec<Vec<f64>> = ht_par::par_map(&labelled, |(ch, _)| {
        HeadTalk::orientation_features(&config, ch).expect("features")
    });
    let labels: Vec<usize> = labelled.iter().map(|(_, l)| *l).collect();
    let mut orientation = OrientationDetector::fit(
        &Dataset::from_parts(feats.clone(), labels).expect("dataset"),
        ModelKind::Svm,
        7,
    )
    .expect("orientation training");

    let live_only: Vec<CaptureSpec> = live_specs.iter().map(|(s, _)| *s).collect();
    let live_renders = render_all(&live_only);
    let live_inputs: Vec<Vec<f64>> = ht_par::par_map(&live_renders, |ch| {
        HeadTalk::liveness_input(&config, ch).expect("liveness input")
    });
    let mut live_ds = Dataset::new(config.liveness_input_len);
    for ((_, label), x) in live_specs.iter().zip(&live_inputs) {
        live_ds.push(x.clone(), *label).expect("push");
    }
    let mut liveness = LivenessDetector::fit(&live_ds, 24, 8).expect("liveness training");

    let mut ht =
        HeadTalk::new(config, liveness.clone(), orientation.clone()).expect("pipeline assembly");
    // Calibrate on a quarter of the training renders, spread over both sets.
    let calib: Vec<Vec<Vec<f64>>> = orient_renders
        .into_iter()
        .chain(live_renders)
        .step_by(4)
        .collect();
    ht.enable_int8(&calib).expect("int8 calibration");

    // The per-layer copies run the same int8 kernels; their scales come
    // from the training evidence, which changes no timing.
    let live_refs: Vec<&[f64]> = live_inputs.iter().map(Vec::as_slice).collect();
    liveness
        .calibrate_int8(&live_refs)
        .expect("liveness int8 calibration");
    let feat_refs: Vec<&[f64]> = feats.iter().map(Vec::as_slice).collect();
    orientation
        .calibrate_int8(&feat_refs)
        .expect("orientation int8 calibration");
    (ht, liveness, orientation)
}

/// The long-capture mix of `realtime_mix` and `saturate_long`: the
/// `serve_scenarios` kinds (facing, 90°, 180°, Sony replay), cycling wake
/// words, half of them over TV ambient.
fn long_specs(seed: u64) -> Vec<CaptureSpec> {
    ht_datagen::datasets::serve_scenarios(LONG_CAPTURES, seed)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| CaptureSpec {
            wake_word: WakeWord::ALL[(i / 4) % WakeWord::ALL.len()],
            ambient: ((i / 12) % 2 == 1).then_some((NoiseKind::Tv, TV_AMBIENT_SPL)),
            ..spec
        })
        .collect()
}

fn long_table(seed: u64) -> Vec<Capture> {
    let specs = long_specs(seed);
    render_all(&specs)
        .into_iter()
        .zip(&specs)
        .map(|(channels, spec)| Capture {
            channels,
            truth: Truth::of_spec(spec),
        })
        .collect()
}

/// Lengths of `n` short captures, stratified over 0.1–0.3 s at 48 kHz (one
/// seeded length in each of `n` equal strata, in seeded order), so every
/// seed offers the same mix of lengths.
fn short_lengths(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = split_stream(seed ^ 0x1E9, 0);
    let (lo, hi) = (4_800.0, 14_400.0);
    let mut lens: Vec<usize> = (0..n)
        .map(|k| (lo + (k as f64 + rng.next_f64()) * (hi - lo) / n as f64) as usize)
        .collect();
    lens.shuffle(&mut rng);
    lens
}

/// The short misactivation burst of `tv_storm`: TV noise (independent per
/// microphone, a diffuse field) alternating with seeded windows cut from
/// facing Sony-replay renders. None of it is a live facing human.
fn short_table(seed: u64) -> Vec<Capture> {
    let replay_specs: Vec<CaptureSpec> = (0..SHORT_RENDERS)
        .map(|i| CaptureSpec {
            source: SourceKind::Replay {
                model: SpeakerModel::SonySrsX5,
                voice: ht_datagen::datasets::experimenter_voice(),
            },
            wake_word: WakeWord::ALL[i % WakeWord::ALL.len()],
            ..CaptureSpec::baseline(derive_seed(seed ^ 0x5707, i as u64))
        })
        .collect();
    let replays = render_all(&replay_specs);
    short_lengths(seed, SHORT_CAPTURES)
        .into_iter()
        .enumerate()
        .map(|(k, n)| {
            let mut rng = split_stream(seed ^ 0x7F57, k as u64);
            if k % 2 == 0 {
                let spl = rng.gen_range(55.0..65.0);
                let tv = (0..CHANNELS)
                    .map(|_| {
                        ht_acoustics::noise::generate(
                            &mut rng,
                            NoiseKind::Tv,
                            n,
                            ht_acoustics::SAMPLE_RATE,
                            spl,
                        )
                    })
                    .collect();
                return Capture {
                    channels: tv,
                    truth: Truth::TvNoise,
                };
            }
            let full = &replays[(k / 2) % SHORT_RENDERS];
            let n = n.min(full[0].len());
            let start = rng.gen_range(0..full[0].len() - n + 1);
            Capture {
                channels: full.iter().map(|c| c[start..start + n].to_vec()).collect(),
                truth: Truth::Replay,
            }
        })
        .collect()
}

/// The oracle for one capture: the batch decision plus the features, gate
/// exit and frame count of a solo stream fed one hop at a time.
fn expect(ht: &HeadTalk, capture: &Capture) -> (Expected, f64) {
    let (decision, batch_features) = ht.decide_batch(&capture.channels).expect("batch decision");
    let mut stream = ht
        .streamer_with(CHANNELS, stream_config(ht))
        .expect("solo stream");
    let hop = stream.hop();
    for chunk in capture.hops(hop) {
        stream.push(&chunk).expect("solo push");
    }
    let outcome = stream.finalize().expect("solo finalize");
    let dev = batch_features
        .iter()
        .zip(&outcome.features)
        .map(|(a, b)| (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max);
    (
        Expected {
            decision,
            features: outcome.features,
            early_exit: outcome.early_exit,
            frames: outcome.frames,
        },
        dev,
    )
}

/// Runs the whole set-up for `workload` from `seed`.
pub fn build(workload: Workload, seed: u64) -> Bench {
    let t = std::time::Instant::now();
    let (ht, liveness, orientation) = train(seed);
    let t_train = t.elapsed().as_secs_f64();
    let captures = match workload {
        Workload::RealtimeMix | Workload::SaturateLong => long_table(seed),
        Workload::TvStorm => short_table(seed),
    };
    let t_traffic = t.elapsed().as_secs_f64();
    let oracle = ht_par::par_map(&captures, |c| expect(&ht, c));
    let t_oracle = t.elapsed().as_secs_f64();
    let batch_feature_dev = oracle.iter().map(|(_, d)| *d).fold(0.0, f64::max);
    let expected = oracle.into_iter().map(|(e, _)| e).collect();
    Bench {
        ht,
        liveness,
        orientation,
        captures,
        expected,
        batch_feature_dev,
        stages: vec![
            ("train", t_train),
            ("traffic", t_traffic - t_train),
            ("oracle", t_oracle - t_traffic),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(angle_deg: f64, source: SourceKind) -> CaptureSpec {
        CaptureSpec {
            angle_deg,
            source,
            ..CaptureSpec::baseline(1)
        }
    }

    #[test]
    fn ground_truth_allows_only_live_facing_humans() {
        let human = SourceKind::Human {
            voice: VoiceProfile::adult_male(),
        };
        let replay = SourceKind::Replay {
            model: SpeakerModel::SonySrsX5,
            voice: VoiceProfile::adult_male(),
        };
        for angle in [0.0, 15.0, -30.0, 30.0] {
            assert_eq!(Truth::of_spec(&spec(angle, human)), Truth::LiveFacing);
        }
        for angle in [90.0, -90.0, 135.0, 180.0] {
            assert_eq!(Truth::of_spec(&spec(angle, human)), Truth::LiveAway);
        }
        // A replay facing the device is still not live.
        assert_eq!(Truth::of_spec(&spec(0.0, replay)), Truth::Replay);
        assert!(Truth::LiveFacing.should_allow());
        for t in [Truth::LiveAway, Truth::Replay, Truth::TvNoise] {
            assert!(!t.should_allow(), "{t:?}");
        }
    }

    #[test]
    fn long_mix_cycles_kinds_words_and_ambient() {
        let specs = long_specs(9);
        assert_eq!(specs.len(), LONG_CAPTURES);
        let truths: Vec<Truth> = specs.iter().map(Truth::of_spec).collect();
        let count = |t: Truth| truths.iter().filter(|&&x| x == t).count();
        // facing / 90° / 180° / replay, a quarter each.
        let quarter = LONG_CAPTURES / 4;
        assert_eq!(count(Truth::LiveFacing), quarter);
        assert_eq!(count(Truth::LiveAway), 2 * quarter);
        assert_eq!(count(Truth::Replay), quarter);
        for word in WakeWord::ALL {
            let n = specs.iter().filter(|s| s.wake_word == word).count();
            assert_eq!(n, LONG_CAPTURES / 3);
        }
        let tv = specs.iter().filter(|s| s.ambient.is_some()).count();
        assert_eq!(tv, LONG_CAPTURES / 2);
        assert_eq!(long_specs(9), specs, "specs are a function of the seed");
    }

    #[test]
    fn short_lengths_are_stratified_over_the_burst_range() {
        for seed in 0..5 {
            let mut lens = short_lengths(seed, 64);
            assert!(lens.iter().all(|n| (4_800..14_400).contains(n)), "{lens:?}");
            lens.sort_unstable();
            for (k, n) in lens.iter().enumerate() {
                let stratum = (n - 4_800) * 64 / 9_600;
                assert_eq!(stratum, k, "one length per stratum");
            }
            let mean = lens.iter().sum::<usize>() as f64 / 64.0;
            assert!((mean - 9_600.0).abs() < 150.0 / 2.0, "mean {mean}");
        }
        assert_ne!(short_lengths(1, 64), short_lengths(2, 64));
    }
}
