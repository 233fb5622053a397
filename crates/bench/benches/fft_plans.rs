//! Planned FFT engine timings (`BENCH_fft.json`), plus the
//! plan-cache gate: after a warm-up pass, a steady-state workload touching
//! a fixed set of transform sizes must add **zero** cache misses (misses
//! are bounded by the number of distinct sizes), asserted through the
//! `fft.plan_hits` / `fft.plan_misses` ht-obs counters. `ci.sh` runs this
//! bench, so a regression that rebuilds plans per call fails CI.

use ht_bench::{black_box, Suite};
use ht_dsp::fft;
use ht_dsp::rng::SeedableRng;
use ht_dsp::Complex;

fn signal(n: usize) -> Vec<f64> {
    let mut rng = ht_dsp::rng::StdRng::seed_from_u64(7);
    ht_dsp::rng::white_noise(&mut rng, n)
}

fn complex_signal(n: usize) -> Vec<Complex> {
    signal(n).into_iter().map(Complex::from_real).collect()
}

/// Planned real FFTs (cached tables, one-sided half-size transform).
fn bench_real_fft(s: &mut Suite) {
    for &n in &[32_768usize, 48_000] {
        let x = signal(n);
        // The planned hot path: plan and scratch held across calls, output
        // written into a reused buffer (this is what StftProcessor and
        // Correlator do per frame).
        let plan = fft::rfft_plan(n);
        let mut scratch = fft::RealFftScratch::new();
        let mut out = vec![Complex::ZERO; plan.onesided_len()];
        s.bench(&format!("fft/planned_rfft_onesided_{n}"), || {
            plan.forward_into(black_box(&x), &mut out, &mut scratch);
            out[1]
        });
        // The source-compatible wrapper (allocates its full-spectrum
        // output, shares the cached plan).
        s.bench(&format!("fft/planned_rfft_full_{n}"), || {
            fft::rfft(black_box(&x))
        });
    }
}

fn bench_inverse(s: &mut Suite) {
    let n = 32_768usize;
    let spec_full = fft::rfft(&signal(n));
    let plan = fft::rfft_plan(n);
    let mut scratch = fft::RealFftScratch::new();
    let onesided = spec_full[..plan.onesided_len()].to_vec();
    let mut out = vec![0.0; n];
    s.bench("fft/planned_irfft_onesided_32768", || {
        plan.inverse_into(black_box(&onesided), &mut out, &mut scratch);
        out[0]
    });
}

/// Bluestein sizes: the plan precomputes the chirp and its filter
/// spectrum.
fn bench_bluestein(s: &mut Suite) {
    let n = 12_000usize;
    let x = complex_signal(n);
    s.bench("fft/planned_bluestein_12000", || fft::fft(black_box(&x)));
}

/// The steady-state plan-cache gate (not a timing — a correctness check on
/// the caching layer, run under `HT_OBS` recording).
fn cache_gate() {
    ht_obs::set_mode(ht_obs::Mode::Json);
    ht_obs::registry().reset();

    let frame = signal(480);
    let seg = signal(1024);
    let long = signal(2048);
    let a = signal(2048);
    let b = signal(2048);
    let nonpow2 = complex_signal(600);
    // Distinct transform sizes this workload can request from the cache:
    // real plans 512 (480-sample frames), 1024, 2048, 4096 (GCC padding of
    // 2048 + 13 + 1) and the complex plan 600.
    const DISTINCT_SIZES: u64 = 5;
    let workload = || {
        for _ in 0..10 {
            black_box(fft::rfft(&frame));
            black_box(fft::rfft_onesided(&seg));
            black_box(fft::rfft_magnitude(&long));
            black_box(ht_dsp::correlate::gcc_phat(&a, &b, 13).expect("valid pair"));
            black_box(fft::fft(&nonpow2));
        }
    };

    workload();
    let warm_misses = ht_obs::registry()
        .snapshot()
        .counter("fft.plan_misses")
        .unwrap_or(0);

    workload();
    let snap = ht_obs::registry().snapshot();
    let misses = snap.counter("fft.plan_misses").unwrap_or(0);
    let hits = snap.counter("fft.plan_hits").unwrap_or(0);
    ht_obs::set_mode(ht_obs::Mode::Off);

    assert!(
        warm_misses <= DISTINCT_SIZES,
        "plan cache missed {warm_misses} times on a workload with only \
         {DISTINCT_SIZES} distinct sizes — misses must be bounded by the \
         number of distinct sizes"
    );
    assert!(
        misses == warm_misses,
        "steady-state workload rebuilt plans: {} new misses after warm-up",
        misses - warm_misses
    );
    assert!(hits > 0, "workload never hit the plan cache");
    eprintln!(
        "cache gate: ok ({warm_misses} misses for {DISTINCT_SIZES} distinct \
         sizes, {hits} hits, 0 steady-state misses)"
    );
}

fn main() {
    let mut s = Suite::new("fft");
    bench_real_fft(&mut s);
    bench_inverse(&mut s);
    bench_bluestein(&mut s);
    s.finish();
    cache_gate();
}
