//! §IV-B15 — run-time performance: wall-clock latency of liveness
//! detection and orientation detection on one wake-word capture.
//!
//! The paper measures 42 ms (liveness) and 136 ms (orientation) on an
//! i7-2600 PC and 527 ms (orientation) on the ReSpeaker Core's Cortex-A7.
//! Absolute numbers depend on the machine; the shape check is that both
//! stages finish well within a VA's wake-word budget (< 1 s).
//!
//! Each stage is timed by the span that covers its whole one-route call —
//! `wake.liveness_input` around [`HeadTalk::liveness_input`] and
//! `wake.orientation_features` around [`HeadTalk::orientation_features`] —
//! rather than by ad-hoc stopwatches, so this experiment measures exactly
//! what `HT_OBS=summary` reports in production and exercises the
//! observability path end to end. Both calls run the same streaming engine
//! over the whole capture, so the breakdown rows split that engine's cost
//! into per-frame analysis and final assembly.

use crate::context::Context;
use crate::report::ExperimentResult;
use headtalk::{HeadTalk, PipelineConfig};
use ht_datagen::CaptureSpec;

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when a stage span is missing or a stage exceeds one
/// second per capture.
pub fn run(_ctx: &Context) -> Result<ExperimentResult, String> {
    let cfg = PipelineConfig::default();
    let spec = CaptureSpec::baseline(0xB15);
    let channels = spec.render().map_err(|e| e.to_string())?;

    // Record the reps through the pipeline's stage spans: enable
    // observability (restored afterwards so an `HT_OBS=off` run stays off
    // for other experiments), clear the registry so warm-up and prior
    // experiments don't pollute the histograms, then read the means back.
    let prev = ht_obs::mode();
    ht_obs::set_mode(ht_obs::Mode::Summary);
    ht_obs::registry().reset();
    let reps = 10;
    let timed = (|| {
        for _ in 0..reps {
            HeadTalk::liveness_input(&cfg, &channels)?;
            HeadTalk::orientation_features(&cfg, &channels)?;
        }
        Ok::<_, headtalk::HeadTalkError>(())
    })();
    let snap = ht_obs::registry().snapshot();
    ht_obs::set_mode(prev);
    timed.map_err(|e| e.to_string())?;

    // Mean milliseconds per whole-stage call: the span's total time over
    // the `calls` stage calls that recorded it (per-frame spans record
    // many times per call).
    let per_call_ms = |name: &str, calls: u64| -> Result<f64, String> {
        let h = snap
            .span(name)
            .ok_or_else(|| format!("span {name:?} not recorded"))?;
        if h.count < calls {
            return Err(format!(
                "span {name:?}: {} records, expected at least {calls}",
                h.count
            ));
        }
        Ok(h.mean_ns * h.count as f64 / calls as f64 / 1e6)
    };
    let liveness_ms = per_call_ms("wake.liveness_input", reps)?;
    let orientation_ms = per_call_ms("wake.orientation_features", reps)?;
    let frames_ms = per_call_ms("stream.frame", 2 * reps)?;
    let assembly_ms = per_call_ms("wake.feature_extract", 2 * reps)?
        + per_call_ms("wake.liveness_prepare", 2 * reps)?;

    let mut res = ExperimentResult::new(
        "runtime",
        "§IV-B15: run-time performance per wake-word capture",
        "both stages complete well within a voice assistant's response budget (< 1 s)",
    );
    res.push_row(
        "liveness input preparation",
        "42 ms (i7-2600 PC, model inference included)",
        format!("{liveness_ms:.1} ms"),
        Some(liveness_ms),
    );
    res.push_row(
        "orientation feature extraction",
        "136 ms (PC) / 527 ms (ReSpeaker Core v2)",
        format!("{orientation_ms:.1} ms"),
        Some(orientation_ms),
    );
    res.push_row(
        "  of which per-frame SRP/GCC analysis",
        "",
        format!("{frames_ms:.1} ms"),
        Some(frames_ms),
    );
    res.push_row(
        "  of which evidence assembly",
        "",
        format!("{assembly_ms:.1} ms"),
        Some(assembly_ms),
    );
    for (stage, ms) in [("liveness", liveness_ms), ("orientation", orientation_ms)] {
        if ms > 1000.0 {
            return Err(format!("{stage} stage too slow: {ms:.0} ms"));
        }
    }
    res.note(
        "Stage means read from the ht-obs span histograms over 10 reps — the same \
         breakdown HT_OBS=summary prints. Both stages run one streaming engine over \
         the whole capture, which computes the liveness input and the features \
         together, so the two cost about the same; the breakdown rows average over \
         both calls. Absolute numbers are hardware-specific; benches in crates/bench \
         give calibrated measurements.",
    );
    Ok(res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn runtime_experiment_runs_and_reports_both_stages() {
        let ctx = crate::context::Context::default();
        let res = crate::run_experiment("runtime", &ctx).expect("runtime experiment");
        let values: Vec<f64> = res.rows.iter().filter_map(|r| r.value).collect();
        assert_eq!(
            values.len(),
            4,
            "liveness, orientation and two breakdown rows"
        );
        assert!(
            values.iter().all(|v| v.is_finite() && *v > 0.0),
            "{values:?}"
        );
    }
}
