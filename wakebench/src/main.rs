//! `wakebench` — the wake-serving benchmark.
//!
//! Trains a HeadTalk pipeline on rendered audio, renders the workload's
//! traffic, and serves it through `ht-serve`'s public `WakeServer` API from
//! this client, holding every served outcome to a bit-exact oracle.
//!
//! ```text
//! wakebench --workload <realtime_mix|saturate_long|tv_storm> --seed N
//!           --seconds S --trace <0|1> [--threads N]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separately traced drive plus probes. The `ht-par` pool is
//! pinned to `--threads` (default 2) whatever `HT_THREADS` says. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is non-zero when any output was wrong.

mod drive;
mod layers;
mod setup;
mod stats;

use std::time::Instant;

use ht_serve::{ServeConfig, TokenBucketConfig, WakeServer};

use crate::drive::Tally;
use crate::stats::{quantile, MachineStamp};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop of real-length rendered captures at real-time pace.
    RealtimeMix,
    /// Closed loop of the same traffic family, as fast as possible.
    SaturateLong,
    /// Closed loop of short TV-noise and replay fragments.
    TvStorm,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "realtime_mix" => Some(Workload::RealtimeMix),
            "saturate_long" => Some(Workload::SaturateLong),
            "tv_storm" => Some(Workload::TvStorm),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RealtimeMix => "realtime_mix",
            Workload::SaturateLong => "saturate_long",
            Workload::TvStorm => "tv_storm",
        }
    }
}

/// Default `ht-par` pool width.
const DEFAULT_THREADS: usize = 2;

/// Most client threads; never more than `nproc`.
const CLIENT_THREADS: usize = 2;

/// Seconds of the traced run spent measuring span and `ht-obs` overhead.
const OVERHEAD_SECONDS: f64 = 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("wakebench: {msg}");
    eprintln!(
        "usage: wakebench --workload <realtime_mix|saturate_long|tv_storm> --seed N \
         --seconds S --trace <0|1> [--threads N]"
    );
    std::process::exit(2);
}

fn bad(flag: &str, value: &str) -> ! {
    usage(&format!("bad value for {flag}: {value:?}"))
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut threads) = (None, None, None, DEFAULT_THREADS);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).unwrap_or_else(|| bad(&flag, &value)))
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad(&flag, &value))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| bad(&flag, &value)),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                })
            }
            "--threads" => {
                threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|t| *t > 0)
                    .unwrap_or_else(|| bad(&flag, &value))
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        threads,
    }
}

/// The server every workload runs against: four shards (a multiple of the
/// client threads) of prewarmed slots, and admission wide enough never to
/// refuse the offered traffic.
fn serve_config(bench: &setup::Bench) -> ServeConfig {
    ServeConfig {
        n_shards: 4,
        sessions_per_shard: 24,
        bucket: TokenBucketConfig {
            capacity: 1 << 20,
            refill_per_sec: 1 << 30,
        },
        n_channels: setup::CHANNELS,
        stream: setup::stream_config(&bench.ht),
        prewarm_slots: 24,
        ..ServeConfig::for_pipeline(bench.ht.config())
    }
}

/// Metrics in print order, with units.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.problems
                .push(format!("{name} is not finite ({value})"));
        }
    }

    /// The median of per-second medians of timestamped samples, printed
    /// with its window and sample counts.
    fn windowed(&mut self, name: &'static str, at: &[u64], samples: &[f64], unit: &'static str) {
        match stats::windowed_median(at, samples, 1_000_000_000) {
            Some(w) => {
                println!(
                    "  {name}: median of {} per-second medians over {} samples",
                    w.windows, w.samples
                );
                self.put(name, w.value, unit);
            }
            None => self
                .problems
                .push(format!("{name}: no window with enough samples")),
        }
    }

    /// An exact percentile of `samples`, printed with its sample count;
    /// left out (a problem) when fewer than ten samples lie beyond it.
    fn pct(&mut self, name: &'static str, samples: &[f64], q: f64, unit: &'static str) {
        match quantile(samples, q) {
            Some(p) if p.reportable() => {
                println!(
                    "  {name}: p{} of {} samples, {} beyond",
                    (q * 100.0).round(),
                    p.n,
                    p.beyond
                );
                self.put(name, p.value, unit);
            }
            Some(p) => self.problems.push(format!(
                "{name}: only {} of {} samples beyond p{}; run longer",
                p.beyond,
                p.n,
                (q * 100.0).round()
            )),
            None => self.problems.push(format!("{name}: no samples")),
        }
    }
}

fn main() {
    let args = parse_args();
    // Pin the pool before anything touches it: the global pool reads
    // HT_THREADS once, at first use.
    std::env::set_var("HT_THREADS", args.threads.to_string());
    ht_obs::set_mode(ht_obs::Mode::Off);
    let stamp = MachineStamp::collect(args.threads, args.seed);
    let client_threads = CLIENT_THREADS.min(stamp.nproc).max(1);

    let t_setup = Instant::now();
    let bench = setup::build(args.workload, args.seed);
    let server = WakeServer::new(&bench.ht, serve_config(&bench));
    let setup_s = t_setup.elapsed().as_secs_f64();
    let server_s = setup_s - bench.stages.iter().map(|(_, s)| s).sum::<f64>();
    assert_eq!(ht_par::current_threads(), args.threads, "pool width pinned");

    println!(
        "wakebench {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("{}", stamp.lines());
    let stages: Vec<String> = bench
        .stages
        .iter()
        .chain([&("server", server_s)])
        .map(|(name, s)| format!("{name} {s:.3} s"))
        .collect();
    println!("setup {setup_s:.3} s: {}", stages.join(", "));
    println!(
        "captures {} (oracle: decide_batch decisions, solo-stream features; batch features \
         differ by up to {:.3e} relative)",
        bench.captures.len(),
        bench.batch_feature_dev
    );

    let cpu0 = stats::process_cpu_seconds();
    let t0 = Instant::now();
    let tally = match args.workload {
        Workload::RealtimeMix => drive::realtime(
            &server,
            &bench,
            args.seed,
            args.seconds,
            client_threads,
            args.trace,
        ),
        Workload::SaturateLong | Workload::TvStorm => drive::closed(
            &server,
            &bench,
            args.seed,
            args.seconds,
            client_threads,
            args.trace,
        ),
    };
    let wall = t0.elapsed().as_secs_f64();
    let cpu = stats::process_cpu_seconds() - cpu0;

    let mut report = Report::default();
    if args.trace {
        traced_metrics(&mut report, &server, &bench, &args, &tally, client_threads);
    } else {
        end_to_end_metrics(&mut report, &tally, setup_s, wall, cpu);
    }

    // Quality per distinct capture served: each capture's outcome is
    // pinned to the oracle, so these repeat exactly for a seed.
    let served: Vec<(&setup::Expected, setup::Truth)> = bench
        .expected
        .iter()
        .zip(&bench.captures)
        .zip(&tally.served)
        .filter(|(_, &s)| s)
        .map(|((e, c), _)| (e, c.truth))
        .collect();
    let wrong_share = |should_allow: bool| -> String {
        let pool: Vec<_> = served
            .iter()
            .filter(|(_, t)| t.should_allow() == should_allow)
            .collect();
        let wrong = pool
            .iter()
            .filter(|(e, _)| (e.verdict() == ht_stream::WakeVerdict::Allow) != should_allow)
            .count();
        if pool.is_empty() {
            "n/a (no such captures)".into()
        } else {
            format!("{}", wrong as f64 / pool.len() as f64)
        }
    };
    println!("quality (per distinct capture, exact for a seed):");
    println!(
        "  failed_frac        {}",
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    println!("  false_allow_frac   {}", wrong_share(false));
    println!("  false_mute_frac    {}", wrong_share(true));
    println!(
        "  checksum           {:#018x}",
        drive::checksum(&bench, &tally.served)
    );
    println!(
        "  sessions           {} attempted, {} decided, {} failed; {}/{} captures served",
        tally.attempted,
        tally.decided,
        tally.failed,
        served.len(),
        bench.captures.len()
    );
    println!(
        "  drive              {wall:.3} s wall, {cpu:.3} s CPU, {:.1} s audio",
        tally.audio_s()
    );
    if let Some(why) = &tally.first_failure {
        report.problems.push(format!("first failure: {why}"));
    }
    if served.len() != bench.captures.len() {
        report.problems.push("not every capture was served".into());
    }

    for (name, value, unit) in &report.metrics {
        println!("{name:<40} {value} {unit}");
    }
    for p in &report.problems {
        println!("PROBLEM: {p}");
    }
    let correct = report.problems.is_empty() && tally.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end_metrics(report: &mut Report, tally: &Tally, setup_s: f64, wall: f64, cpu: f64) {
    println!("end-to-end:");
    report.put("setup_s", setup_s, "s");
    report.windowed("chunk_late_p50_ms", &tally.late_at, &tally.late_ms, "ms");
    let (per_s, per_core) = if tally.waves.is_empty() {
        (tally.decided as f64 / wall, tally.audio_s() / cpu)
    } else {
        // Closed loops: every wave serves the whole capture table once, so
        // waves do equal work and the median wave shrugs off the odd one a
        // noisy neighbour stalls.
        println!(
            "  decisions_per_s, rt_streams_per_core: median of {} waves",
            tally.waves.len()
        );
        let median = |v: Vec<f64>| quantile(&v, 0.5).map_or(f64::NAN, |q| q.value);
        (
            median(
                tally
                    .waves
                    .iter()
                    .map(|w| w.decided as f64 / w.wall_s)
                    .collect(),
            ),
            median(tally.waves.iter().map(|w| w.audio_s / w.cpu_s).collect()),
        )
    };
    report.put("decisions_per_s", per_s, "1/s");
    report.put("rt_streams_per_core", per_core, "streams/core");
    report.put(
        "peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    // Printed, not gated: a batched verdict waits on every pool thread, so
    // hypervisor steal on a small shared VM moves its median by up to 40 %
    // between identical runs, and the p99 tails by 2-3x.
    println!("verdict latency and tails (printed, not gated):");
    match stats::windowed_median(&tally.verdict_at, &tally.verdict_ms, 1_000_000_000) {
        Some(w) => println!(
            "  verdict_p50_ms     {} ms (median of {} per-second medians over {} samples)",
            w.value, w.windows, w.samples
        ),
        None => println!("  verdict_p50_ms     n/a (no window with enough samples)"),
    }
    for (name, samples) in [
        ("verdict_p99_ms", &tally.verdict_ms),
        ("chunk_late_p99_ms", &tally.late_ms),
    ] {
        match quantile(samples, 0.99) {
            Some(p) if p.reportable() => println!(
                "  {name:<18} {} ms (p99 of {} samples, {} beyond)",
                p.value, p.n, p.beyond
            ),
            Some(p) => println!(
                "  {name:<18} n/a (only {} of {} samples beyond p99)",
                p.beyond, p.n
            ),
            None => println!("  {name:<18} n/a (no samples)"),
        }
    }
}

/// The traced run's per-layer metrics.
fn traced_metrics(
    report: &mut Report,
    server: &WakeServer<'_>,
    bench: &setup::Bench,
    args: &Args,
    tally: &Tally,
    client_threads: usize,
) {
    println!("per-layer:");
    let hops = tally.pushed_samples as f64 / server.config().stream.hop as f64;
    report.pct("serve.open_us.p50", &tally.open_us, 0.50, "us");
    report.pct("serve.open_us.p99", &tally.open_us, 0.99, "us");
    report.put(
        "serve.push_us_per_hop",
        tally.push_ns as f64 / hops / 1e3,
        "us",
    );
    report.pct("serve.finalize_us.p50", &tally.finalize_us, 0.50, "us");
    report.pct("serve.finalize_us.p99", &tally.finalize_us, 0.99, "us");

    let probe = match layers::probe(server, bench, args.seed, client_threads) {
        Ok(p) => p,
        Err(e) => {
            report.problems.push(format!("probe: {e}"));
            return;
        }
    };
    let batch_per_session = if tally.batches.is_empty() {
        probe.serve_finalize_batch_us_per_session
    } else {
        let (wall, n) = tally
            .batches
            .iter()
            .fold((0.0, 0usize), |(w, n), &(bw, bn)| (w + bw, n + bn));
        wall / n.max(1) as f64
    };
    report.put(
        "serve.finalize_batch_us_per_session",
        batch_per_session,
        "us",
    );
    report.put(
        "serve.overhead_us_per_hop",
        probe.serve_overhead_us_per_hop,
        "us",
    );
    report.put(
        "serve.busy_frac",
        tally.serve_ns as f64 / tally.client_wall_ns as f64,
        "frac",
    );
    report.put(
        "serve.slots_built",
        server.stats().slots_built as f64,
        "count",
    );
    report.put("wake.push_us_per_hop", probe.wake_push_us_per_hop, "us");
    report.put("wake.assemble_us", probe.wake_assemble_us, "us");
    report.put("wake.infer_us", probe.wake_infer_us, "us");
    report.put(
        "wake.push_residual_frac",
        probe.wake_push_residual_frac,
        "frac",
    );
    report.put("ml.liveness_us", probe.ml_liveness_us, "us");
    report.put("ml.orientation_us", probe.ml_orientation_us, "us");
    report.put("stream.analyze_us", probe.stream_analyze_us, "us");
    report.put("stream.ring_us_per_hop", probe.stream_ring_us_per_hop, "us");
    report.put(
        "stream.directivity_push_us_per_hop",
        probe.stream_directivity_push_us_per_hop,
        "us",
    );
    report.put(
        "stream.directivity_flush_us",
        probe.stream_directivity_flush_us,
        "us",
    );
    report.put(
        "stream.flush_ffts_per_decision",
        probe.stream_flush_ffts_per_decision,
        "count",
    );
    report.put(
        "stream.frames_after_exit_frac",
        tally.frames_after_exit as f64 / tally.frames.max(1) as f64,
        "frac",
    );
    report.put("par.batch_efficiency", probe.par_batch_efficiency, "frac");

    match layers::overheads(server, bench, args.seed, client_threads, OVERHEAD_SECONDS) {
        Ok((trace_frac, obs_frac)) => {
            report.put("obs.enabled_overhead_frac", obs_frac, "frac");
            report.put("trace.overhead_frac", trace_frac, "frac");
        }
        Err(e) => report.problems.push(format!("overhead waves: {e}")),
    }
    report.put(
        "trace.serve_coverage_frac",
        tally.serve_ns as f64 / tally.busy_ns as f64,
        "frac",
    );
    report.put("frames", tally.frames as f64, "count");
    report.put("hops", hops, "count");
    report.put("audio_s", tally.audio_s(), "s");
    report.put("decisions", tally.decided as f64, "count");
    println!(
        "  serve.rejected: {} (admission is sized never to refuse; a constant 0 is not a metric)",
        tally.rejected
    );
    match layers::write_spans(args.workload, &tally.spans) {
        Ok(path) => println!("  spans: {} written to {path}", tally.spans.len()),
        Err(e) => report.problems.push(format!("writing spans: {e}")),
    }
}
