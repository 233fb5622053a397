//! Shared experiment context: scale/threading knobs plus lazily-computed,
//! disk-cached feature tables for every dataset.

use crate::cache::{self, Record};
use headtalk::{HeadTalk, PipelineConfig};
use ht_acoustics::array::Device;
use ht_datagen::placements::Placement;
use ht_datagen::{datasets, CaptureSpec};

/// Experiment-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    /// Keep every `scale`-th sample (1 = the paper's full counts). Useful
    /// for quick passes; cache entries are scale-specific.
    pub scale: usize,
    /// Worker threads for rendering. Thanks to the ht-par determinism
    /// contract this only affects wall-clock time, never the rendered
    /// features.
    pub threads: usize,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            scale: 1,
            threads: ht_par::default_threads(),
        }
    }
}

impl Context {
    /// Reads `HT_SCALE` / `HT_THREADS` from the environment.
    pub fn from_env() -> Context {
        let mut ctx = Context::default();
        if let Ok(s) = std::env::var("HT_SCALE") {
            if let Ok(v) = s.parse::<usize>() {
                ctx.scale = v.max(1);
            }
        }
        if let Ok(s) = std::env::var("HT_THREADS") {
            if let Ok(v) = s.parse::<usize>() {
                ctx.threads = v.max(1);
            }
        }
        ctx
    }

    /// Applies the scale knob: keeps every `scale`-th spec.
    pub fn subsample(&self, specs: Vec<CaptureSpec>) -> Vec<CaptureSpec> {
        if self.scale <= 1 {
            return specs;
        }
        specs
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % self.scale == 0)
            .map(|(_, s)| s)
            .collect()
    }

    fn cache_name(&self, base: &str) -> String {
        if self.scale <= 1 {
            base.to_string()
        } else {
            format!("{base}_s{}", self.scale)
        }
    }

    /// Maps `f` over capture specs on `self.threads` workers, reusing the
    /// innermost installed ht-par pool when it already has that width.
    fn render_map<U, F>(&self, specs: &[CaptureSpec], f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(&CaptureSpec) -> U + Sync,
    {
        if ht_par::current_threads() == self.threads {
            ht_par::par_map(specs, f)
        } else {
            ht_par::Pool::new(self.threads).par_map(specs, f)
        }
    }

    /// Renders orientation features for a spec list (default microphone
    /// subset, per-device configuration), cached under `name`.
    pub fn orientation_features(&self, name: &str, specs: Vec<CaptureSpec>) -> Vec<Record> {
        let specs = self.subsample(specs);
        cache::load_or_compute(&self.cache_name(name), || {
            eprintln!("[cache] rendering {} captures for `{name}`…", specs.len());
            self.render_map(&specs, |spec| {
                let cfg = PipelineConfig::for_device(spec.device);
                let channels = spec.render().expect("valid scenario geometry");
                let vector = HeadTalk::orientation_features(&cfg, &channels)
                    .expect("feature extraction on rendered audio");
                Record {
                    spec: *spec,
                    vector,
                }
            })
        })
    }

    /// Renders prepared liveness inputs (16 kHz, fixed length, z-scored)
    /// for a spec list, cached under `name`.
    pub fn liveness_inputs(&self, name: &str, specs: Vec<CaptureSpec>) -> Vec<Record> {
        let specs = self.subsample(specs);
        cache::load_or_compute(&self.cache_name(name), || {
            eprintln!(
                "[cache] rendering {} liveness captures for `{name}`…",
                specs.len()
            );
            self.render_map(&specs, |spec| {
                let cfg = PipelineConfig::for_device(spec.device);
                let channels = spec.render().expect("valid scenario geometry");
                let vector = HeadTalk::liveness_input(&cfg, &channels)
                    .expect("liveness preparation on rendered audio");
                Record {
                    spec: *spec,
                    vector,
                }
            })
        })
    }

    // ---- Dataset accessors ------------------------------------------------

    /// Dataset-1 orientation features (all rooms/devices/words).
    pub fn dataset1(&self) -> Vec<Record> {
        self.orientation_features("dataset1", datasets::dataset1())
    }

    /// Dataset-3 (temporal) features.
    pub fn dataset3(&self) -> Vec<Record> {
        self.orientation_features("dataset3", datasets::dataset3())
    }

    /// Dataset-4 (ambient noise) features.
    pub fn dataset4(&self) -> Vec<Record> {
        self.orientation_features("dataset4", datasets::dataset4())
    }

    /// Dataset-5 (sitting) features.
    pub fn dataset5(&self) -> Vec<Record> {
        self.orientation_features("dataset5", datasets::dataset5())
    }

    /// Dataset-6 (loudness) features.
    pub fn dataset6(&self) -> Vec<Record> {
        self.orientation_features("dataset6", datasets::dataset6())
    }

    /// Dataset-7 (surrounding objects) features.
    pub fn dataset7(&self) -> Vec<Record> {
        self.orientation_features("dataset7", datasets::dataset7())
    }

    /// Dataset-8 (cross-user) features plus participant ids.
    pub fn dataset8(&self) -> (Vec<Record>, Vec<usize>) {
        let (specs, pids) = datasets::dataset8();
        let pids = self
            .subsample(specs.clone())
            .iter()
            .map(|s| {
                let idx = specs
                    .iter()
                    .position(|x| x.seed == s.seed)
                    .expect("spec present");
                pids[idx]
            })
            .collect();
        let records = self.orientation_features("dataset8", specs);
        (records, pids)
    }

    /// The ±75° verification captures for Table III.
    pub fn table3_extra(&self) -> Vec<Record> {
        self.orientation_features("table3_extra", datasets::table3_extra_angles())
    }

    /// §IV-B7 placement captures for location B or C.
    pub fn placement(&self, placement: Placement) -> Vec<Record> {
        let name = match placement {
            Placement::LabB => "placement_b",
            Placement::LabC => "placement_c",
            _ => "placement_other",
        };
        self.orientation_features(name, datasets::placement_specs(placement))
    }

    /// D2/lab/"Computer" captures rendered with **all six** microphones —
    /// the §IV-B6 mic-count experiment extracts per-subset features from
    /// these. Returned records hold the concatenated 6-channel audio
    /// *features per subset*, so this accessor instead exposes raw audio:
    /// rendering is done inside [`Context::table4_subset_features`].
    pub fn table4_subset_features(&self, mic_indices: &[usize]) -> Vec<Record> {
        let name = Self::table4_cache_name(mic_indices);
        if let Some(records) = cache::load(&self.cache_name(&name)) {
            return records;
        }
        // Miss: render each capture once with all six microphones and fill
        // the caches for *all* subsets in one pass (§IV-B6 reuses the same
        // recordings for every channel count).
        self.warm_table4_subsets();
        cache::load(&self.cache_name(&name)).expect("warm_table4_subsets fills every subset")
    }

    fn table4_cache_name(mic_indices: &[usize]) -> String {
        let tag: String = mic_indices.iter().map(|i| i.to_string()).collect();
        format!("table4_m{tag}")
    }

    /// Renders the §IV-B6 captures (D2, lab, "Computer") once with all six
    /// microphones and extracts features for every Table IV subset.
    pub fn warm_table4_subsets(&self) {
        let subsets: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![0, 1, 4],
            vec![0, 1, 3, 4],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ];
        if subsets
            .iter()
            .all(|m| cache::load(&self.cache_name(&Self::table4_cache_name(m))).is_some())
        {
            return;
        }
        let specs: Vec<CaptureSpec> = datasets::dataset1()
            .into_iter()
            .filter(|s| {
                s.room == ht_datagen::placements::RoomKind::Lab
                    && s.device == Device::D2
                    && s.wake_word == ht_speech::WakeWord::Computer
            })
            .collect();
        let specs = self.subsample(specs);
        eprintln!(
            "[cache] rendering {} six-mic captures for the Table IV subsets…",
            specs.len()
        );
        let all_mics: Vec<usize> = (0..6).collect();
        let cfg = PipelineConfig::for_device(Device::D2);
        // One render per capture; one feature vector per subset.
        let per_capture: Vec<Vec<Vec<f64>>> = self.render_map(&specs, |spec| {
            let channels = spec
                .render_mics(Some(&all_mics))
                .expect("valid scenario geometry");
            subsets
                .iter()
                .map(|mics| {
                    let sub: Vec<Vec<f64>> = mics.iter().map(|&m| channels[m].clone()).collect();
                    HeadTalk::orientation_features(&cfg, &sub)
                        .expect("feature extraction on rendered audio")
                })
                .collect()
        });
        for (k, mics) in subsets.iter().enumerate() {
            let records: Vec<Record> = specs
                .iter()
                .zip(per_capture.iter())
                .map(|(spec, vectors)| Record {
                    spec: *spec,
                    vector: vectors[k].clone(),
                })
                .collect();
            let name = self.cache_name(&Self::table4_cache_name(mics));
            if let Err(e) = cache::store(&name, &records) {
                eprintln!("warning: could not write cache `{name}`: {e}");
            }
        }
    }

    /// ASVspoof-sim liveness pre-training corpus (prepared inputs).
    pub fn liveness_asvspoof(&self) -> Vec<Record> {
        let (specs, _) = datasets::asvspoof_sim(300, 0xA5F);
        self.liveness_inputs("liveness_asvspoof", specs)
    }

    /// The paper's "own data" liveness evaluation set: 1008 live samples
    /// (Dataset-1: D2, lab, the two Dataset-2 wake words) plus the 1008
    /// Dataset-2 Sony replays = 2016 samples (§IV-A1).
    pub fn liveness_own(&self) -> Vec<Record> {
        let mut specs: Vec<CaptureSpec> = datasets::dataset1()
            .into_iter()
            .filter(|s| {
                s.room == ht_datagen::placements::RoomKind::Lab
                    && s.device == Device::D2
                    && (s.wake_word == ht_speech::WakeWord::Computer
                        || s.wake_word == ht_speech::WakeWord::HeyAssistant)
            })
            .collect();
        specs.extend(datasets::dataset2());
        self.liveness_inputs("liveness_own", specs)
    }
}

/// Splits records into per-class label/feature views for a facing
/// definition, returning `(features, labels, angles)` for records whose
/// angle the definition labels.
pub fn labeled_views(
    records: &[Record],
    def: headtalk::facing::FacingDefinition,
) -> (Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
    let mut feats = Vec::new();
    let mut labels = Vec::new();
    let mut angles = Vec::new();
    for r in records {
        if let Some(l) = def.label(r.spec.angle_deg) {
            feats.push(r.vector.clone());
            labels.push(l);
            angles.push(r.spec.angle_deg);
        }
    }
    (feats, labels, angles)
}

/// Builds an `ht_ml` dataset from labeled views.
///
/// # Panics
///
/// Panics when `feats` is empty (an experiment asked for an impossible
/// slice).
pub fn to_dataset(feats: Vec<Vec<f64>>, labels: Vec<usize>) -> ht_ml::Dataset {
    ht_ml::Dataset::from_parts(feats, labels).expect("non-empty homogeneous features")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsample_keeps_every_kth() {
        let ctx = Context {
            scale: 3,
            threads: 1,
        };
        let specs: Vec<CaptureSpec> = (0..10).map(CaptureSpec::baseline).collect();
        let sub = ctx.subsample(specs);
        assert_eq!(sub.len(), 4); // indices 0, 3, 6, 9
        assert_eq!(sub[1].seed, 3);
    }

    #[test]
    fn scale_one_is_identity() {
        let ctx = Context {
            scale: 1,
            threads: 1,
        };
        let specs: Vec<CaptureSpec> = (0..5).map(CaptureSpec::baseline).collect();
        assert_eq!(ctx.subsample(specs).len(), 5);
    }

    #[test]
    fn cache_names_embed_scale() {
        let full = Context {
            scale: 1,
            threads: 1,
        };
        let quick = Context {
            scale: 8,
            threads: 1,
        };
        assert_eq!(full.cache_name("x"), "x");
        assert_eq!(quick.cache_name("x"), "x_s8");
    }

    #[test]
    fn env_parsing_defaults_are_sane() {
        let ctx = Context::from_env();
        assert!(ctx.scale >= 1);
        assert!(ctx.threads >= 1);
    }

    #[test]
    fn labeled_views_filter_excluded_angles() {
        let mut records = Vec::new();
        for (i, angle) in [0.0, 45.0, 90.0].iter().enumerate() {
            let mut spec = CaptureSpec::baseline(i as u64);
            spec.angle_deg = *angle;
            records.push(Record {
                spec,
                vector: vec![i as f64],
            });
        }
        let (f, l, a) = labeled_views(&records, headtalk::facing::FacingDefinition::Definition4);
        // 45° is excluded under Definition-4.
        assert_eq!(f.len(), 2);
        assert_eq!(l, vec![1, 0]);
        assert_eq!(a, vec![0.0, 90.0]);
    }
}
