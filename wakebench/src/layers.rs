//! Per-layer probes for the traced run. Each one times calls into one
//! module's public functions on the workload's own captures, from here —
//! no span lives inside the program.

use std::time::Instant;

use ht_dsp::QuantMode;
use ht_serve::WakeServer;
use ht_stream::{DirectivityAccum, FrameAnalyzer, FrameRing};

use crate::drive::{epoch_wave, mismatch, run_waves, Decide, Tally, Wave};
use crate::setup::{stream_config, Bench, Capture, CHANNELS};
use crate::stats::quantile;

/// Session ids of the probes start here, clear of every drive's ids.
const PROBE_IDS: u64 = 1 << 40;

fn us(t0: Instant, t1: Instant) -> f64 {
    t1.saturating_duration_since(t0).as_secs_f64() * 1e6
}

/// What the probes measured, per layer.
#[derive(Debug, Default)]
pub struct Probe {
    /// `WakeStream::push` µs per hop.
    pub wake_push_us_per_hop: f64,
    /// `WakeStream::assemble` µs per decision (median).
    pub wake_assemble_us: f64,
    /// `HeadTalk::infer_assembled` µs per decision (median).
    pub wake_infer_us: f64,
    /// `LivenessDetector::live_probability_mode` µs (median).
    pub ml_liveness_us: f64,
    /// `OrientationDetector::score_and_facing_mode` µs (median).
    pub ml_orientation_us: f64,
    /// `FrameAnalyzer::analyze` µs per frame.
    pub stream_analyze_us: f64,
    /// `FrameRing` push plus frame pops, µs per hop.
    pub stream_ring_us_per_hop: f64,
    /// `DirectivityAccum::push` µs per hop.
    pub stream_directivity_push_us_per_hop: f64,
    /// `DirectivityAccum::flush_spectrum` µs per decision (median).
    pub stream_directivity_flush_us: f64,
    /// Forward FFTs per flush.
    pub stream_flush_ffts_per_decision: f64,
    /// Share of `WakeStream::push` that ring, analyze and directivity
    /// pushes do not cover.
    pub wake_push_residual_frac: f64,
    /// `WakeServer::push` minus solo `WakeStream::push`, µs per hop.
    pub serve_overhead_us_per_hop: f64,
    /// Probe waves' `finalize_batch` µs per session.
    pub serve_finalize_batch_us_per_session: f64,
    /// Summed solo assemble+infer over `finalize_batch` wall x threads.
    pub par_batch_efficiency: f64,
}

/// One capture's solo timings of the engine and model layers.
struct Solo {
    /// Summed `WakeStream::push` time, ns.
    push_ns: f64,
    /// Pushes (one hop each; the last may be short).
    hops: usize,
    assemble_us: f64,
    infer_us: f64,
    liveness_us: f64,
    orientation_us: f64,
}

/// Runs every probe over the workload's captures once, and one probe wave
/// through `finalize_batch`. Fails on any served outcome that
/// differs from the oracle.
pub fn probe(
    server: &WakeServer<'_>,
    bench: &Bench,
    seed: u64,
    threads: usize,
) -> Result<Probe, String> {
    let ht = &bench.ht;
    let cfg = stream_config(ht);
    let hop = cfg.hop;
    let pc = ht.config();
    let mut stream = ht.streamer_with(CHANNELS, cfg).map_err(|e| e.to_string())?;
    let mut ring = FrameRing::with_capacity(CHANNELS, cfg.frame_len, hop, cfg.frame_len + 2 * hop)
        .map_err(|e| e.to_string())?;
    let mut analyzer = FrameAnalyzer::new(CHANNELS, cfg.frame_len, pc.max_lag, pc.sample_rate)
        .map_err(|e| e.to_string())?;
    analyzer.set_quant_mode(ht.quant_mode());
    let mut dir = DirectivityAccum::new(CHANNELS, pc.directivity_segment_len(), pc.sample_rate)
        .map_err(|e| e.to_string())?;
    let mut frame = vec![vec![0.0; cfg.frame_len]; CHANNELS];

    let mut flush = Vec::new();
    let (mut ring_ns, mut analyze_ns, mut dir_ns, mut frames, mut ffts) =
        (0.0, 0.0, 0.0, 0u64, 0u64);
    let (mut wake_ns, mut serve_ns, mut hops) = (0.0, 0.0, 0usize);
    let mut solo = Vec::with_capacity(bench.captures.len());

    for (i, capture) in bench.captures.iter().enumerate() {
        // Alternate which of the two pushes of the same capture runs
        // first, so neither always finds the capture's audio in cache.
        let id = PROBE_IDS + i as u64;
        let served_first = i % 2 == 1;
        if served_first {
            serve_ns += served_push(server, bench, id, i, hop)?;
        }
        let s = solo_stream(bench, &mut stream, capture, hop)?;
        if !served_first {
            serve_ns += served_push(server, bench, id, i, hop)?;
        }
        wake_ns += s.push_ns;
        hops += s.hops;
        solo.push(s);

        // The engine's own layers, one at a time on the same chunks.
        ring.reset();
        analyzer.reset();
        dir.reset();
        let ffts_before = dir.flush_ffts();
        for chunk in capture.hops(hop) {
            let t0 = Instant::now();
            ring.push(&chunk).map_err(|e| e.to_string())?;
            ring_ns += us(t0, Instant::now()) * 1e3;
            loop {
                let t0 = Instant::now();
                let popped = ring.pop_frame_into(&mut frame);
                let t1 = Instant::now();
                ring_ns += us(t0, t1) * 1e3;
                if !popped {
                    break;
                }
                analyzer.analyze(&frame).map_err(|e| e.to_string())?;
                analyze_ns += us(t1, Instant::now()) * 1e3;
                frames += 1;
            }
            let t0 = Instant::now();
            dir.push(&chunk).map_err(|e| e.to_string())?;
            dir_ns += us(t0, Instant::now()) * 1e3;
        }
        let t0 = Instant::now();
        let flushed = dir.flush_spectrum().is_some();
        flush.push(us(t0, Instant::now()));
        if !flushed {
            return Err(format!(
                "capture {i}: directivity flush produced no spectrum"
            ));
        }
        ffts += dir.flush_ffts() - ffts_before;
    }

    let hops_f = hops as f64;
    let n = bench.captures.len() as f64;
    let median = |f: fn(&Solo) -> f64| {
        let v: Vec<f64> = solo.iter().map(f).collect();
        quantile(&v, 0.5).map_or(0.0, |q| q.value)
    };
    let mut probe = Probe {
        wake_push_us_per_hop: wake_ns / hops_f / 1e3,
        wake_assemble_us: median(|s| s.assemble_us),
        wake_infer_us: median(|s| s.infer_us),
        ml_liveness_us: median(|s| s.liveness_us),
        ml_orientation_us: median(|s| s.orientation_us),
        stream_analyze_us: analyze_ns / frames.max(1) as f64 / 1e3,
        stream_ring_us_per_hop: ring_ns / hops_f / 1e3,
        stream_directivity_push_us_per_hop: dir_ns / hops_f / 1e3,
        stream_directivity_flush_us: quantile(&flush, 0.5).map_or(0.0, |q| q.value),
        stream_flush_ffts_per_decision: ffts as f64 / n,
        wake_push_residual_frac: 1.0 - (ring_ns + analyze_ns + dir_ns) / wake_ns,
        serve_overhead_us_per_hop: (serve_ns - wake_ns) / hops_f / 1e3,
        ..Probe::default()
    };
    batch_probe(server, bench, seed, threads, &solo, &mut probe)?;
    Ok(probe)
}

/// Pushes capture `cap` through a server session one hop at a time and
/// decides it; returns the summed push time in ns.
fn served_push(
    server: &WakeServer<'_>,
    bench: &Bench,
    id: u64,
    cap: usize,
    hop: usize,
) -> Result<f64, String> {
    let capture = &bench.captures[cap];
    server.open(id, 0).map_err(|e| format!("probe open: {e}"))?;
    let mut ns = 0.0;
    for chunk in capture.hops(hop) {
        let t0 = Instant::now();
        server
            .push(id, &chunk, 0)
            .map_err(|e| format!("probe push: {e}"))?;
        ns += us(t0, Instant::now()) * 1e3;
    }
    let outcome = server
        .finalize(id, 0)
        .map_err(|e| format!("probe finalize: {e}"))?;
    if let Some(why) = mismatch(&outcome, &bench.expected[cap]) {
        return Err(format!("probe session on capture {cap}: {why}"));
    }
    Ok(ns)
}

/// One solo stream over a capture: hop pushes, then assemble, infer and
/// the two models alone.
fn solo_stream(
    bench: &Bench,
    stream: &mut headtalk::WakeStream<'_>,
    capture: &Capture,
    hop: usize,
) -> Result<Solo, String> {
    stream.reset();
    let mut push_ns = 0.0;
    let mut hops = 0;
    for chunk in capture.hops(hop) {
        let t0 = Instant::now();
        stream.push(&chunk).map_err(|e| e.to_string())?;
        push_ns += us(t0, Instant::now()) * 1e3;
        hops += 1;
    }
    let t0 = Instant::now();
    let ev = stream.assemble().map_err(|e| e.to_string())?;
    let assemble_us = us(t0, Instant::now());
    let (features, liv) = (ev.features.to_vec(), ev.liveness_input.to_vec());
    let t0 = Instant::now();
    std::hint::black_box(bench.ht.infer_assembled(&features, &liv));
    let t1 = Instant::now();
    std::hint::black_box(bench.liveness.live_probability_mode(&liv, QuantMode::Int8));
    let t2 = Instant::now();
    std::hint::black_box(
        bench
            .orientation
            .score_and_facing_mode(&features, QuantMode::Int8),
    );
    let t3 = Instant::now();
    Ok(Solo {
        push_ns,
        hops,
        assemble_us,
        infer_us: us(t0, t1),
        liveness_us: us(t1, t2),
        orientation_us: us(t2, t3),
    })
}

/// One probe wave of every capture through `finalize_batch`: per-session
/// batch cost and the pool's efficiency against the solo assemble+infer
/// times.
fn batch_probe(
    server: &WakeServer<'_>,
    bench: &Bench,
    seed: u64,
    threads: usize,
    solo: &[Solo],
    probe: &mut Probe,
) -> Result<(), String> {
    let n = bench.captures.len();
    let mut tally = Tally::new(n, false);
    let (ids, caps) = epoch_wave(seed ^ 0xBA7, n, PROBE_IDS * 2, 0);
    let solo_us: f64 = caps
        .iter()
        .map(|&c| solo[c].assemble_us + solo[c].infer_us)
        .sum();
    let mut wave = Some(Wave {
        ids,
        caps,
        decide: Decide::Batch,
        traced: false,
    });
    run_waves(server, bench, seed, threads, &mut tally, |_| wave.take());
    if tally.failed > 0 {
        return Err(tally.first_failure.unwrap_or_default());
    }
    let (batch_us, sessions) = tally
        .batches
        .iter()
        .fold((0.0, 0usize), |(w, k), &(bw, bk)| (w + bw, k + bk));
    probe.serve_finalize_batch_us_per_session = batch_us / sessions.max(1) as f64;
    probe.par_batch_efficiency = solo_us / (batch_us * ht_par::current_threads() as f64);
    Ok(())
}

/// Tracing and `ht-obs` overhead: batched waves over the workload's
/// captures, rotating through plain, span-recording and `HT_OBS=json`
/// waves for `seconds`. Returns each mode's wall time per second of
/// decided audio relative to plain, minus one: `(trace, obs)`. Fails on
/// any outcome that differs from the oracle, in any mode.
pub fn overheads(
    server: &WakeServer<'_>,
    bench: &Bench,
    seed: u64,
    threads: usize,
    seconds: f64,
) -> Result<(f64, f64), String> {
    let n = bench.captures.len();
    let mut tally = Tally::new(n, false);
    let start = Instant::now();
    // Wave i runs mode (i + i / 3) % 3: each round of three covers every
    // mode, and the starting mode rotates so slow drift hits all alike.
    let mode = |i: u64| ((i + i / 3) % 3) as usize;
    run_waves(server, bench, seed, threads, &mut tally, |i| {
        if i >= 6 && i % 3 == 0 && start.elapsed().as_secs_f64() >= seconds {
            ht_obs::set_mode(ht_obs::Mode::Off);
            return None;
        }
        let m = mode(i);
        ht_obs::set_mode(if m == 2 {
            ht_obs::Mode::Json
        } else {
            ht_obs::Mode::Off
        });
        let (ids, caps) = epoch_wave(seed ^ 0x0B5, n, PROBE_IDS * 3, i);
        Some(Wave {
            ids,
            caps,
            decide: Decide::Batch,
            traced: m == 1,
        })
    });
    if tally.failed > 0 {
        return Err(tally.first_failure.unwrap_or_default());
    }
    let mut wall = [0.0f64; 3];
    let mut audio = [0.0f64; 3];
    for (i, w) in tally.waves.iter().enumerate() {
        wall[mode(i as u64)] += w.wall_s;
        audio[mode(i as u64)] += w.audio_s;
    }
    let per = |m: usize| wall[m] / audio[m];
    Ok((per(1) / per(0) - 1.0, per(2) / per(0) - 1.0))
}

/// Writes the traced drive's spans, one per line (`session name start_ns
/// dur_ns`, tab-separated), to `wakebench/out/spans_<workload>.tsv` under
/// the working directory. Returns the path.
pub fn write_spans(
    workload: crate::Workload,
    spans: &[crate::drive::SpanRec],
) -> std::io::Result<String> {
    use std::io::Write as _;
    let dir = std::path::Path::new("wakebench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans_{}.tsv", workload.name()));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "session\tname\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}", s.session, s.name, s.start_ns, s.dur_ns)?;
    }
    w.flush()?;
    Ok(path.display().to_string())
}
