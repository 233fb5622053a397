//! Property tests for the planned FFT engine: agreement with an exact
//! (compensated-summation) DFT, real-FFT round-trips over random lengths,
//! and race-free deterministic plan-cache sharing across `ht-par` workers.

use ht_dsp::check::property;
use ht_dsp::fft;
use ht_dsp::Complex;
use ht_par::Pool;

fn random_complex(g: &mut ht_dsp::check::Gen, len: usize) -> Vec<Complex> {
    (0..len)
        .map(|_| Complex::new(g.f64_in(-1.0..1.0), g.f64_in(-1.0..1.0)))
        .collect()
}

/// Exact DFT bin `X[k]` by compensated (Kahan) summation over
/// independently rounded twiddles, so the reference error stays near
/// machine epsilon even for long transforms.
fn dft_bin(x: &[Complex], k: usize) -> Complex {
    let n = x.len();
    let (mut sr, mut si, mut cr, mut ci) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (j, xj) in x.iter().enumerate() {
        let angle = -2.0 * std::f64::consts::PI * ((k * j) % n) as f64 / n as f64;
        let p = *xj * Complex::from_angle(angle);
        let yr = p.re - cr;
        let tr = sr + yr;
        cr = (tr - sr) - yr;
        sr = tr;
        let yi = p.im - ci;
        let ti = si + yi;
        ci = (ti - si) - yi;
        si = ti;
    }
    Complex::new(sr, si)
}

/// Worst error of `planned` against the exact DFT over up to 24 bins
/// (every bin of a short transform; a seeded spread plus both edges of a
/// long one), relative to the largest exact magnitude among them.
fn rel_err_vs_dft(g: &mut ht_dsp::check::Gen, x: &[Complex], planned: &[Complex]) -> f64 {
    let n = x.len();
    let bins: Vec<usize> = if n <= 24 {
        (0..n).collect()
    } else {
        (0..22)
            .map(|_| g.usize_in(0..n))
            .chain([0, n - 1])
            .collect()
    };
    let (mut err, mut scale) = (0.0f64, f64::MIN_POSITIVE);
    for k in bins {
        let exact = dft_bin(x, k);
        scale = scale.max(exact.abs());
        err = err.max((planned[k] - exact).abs());
    }
    err / scale
}

#[test]
fn planned_fft_matches_exact_dft_on_pow2_sizes() {
    property("planned_fft_matches_exact_dft_on_pow2_sizes").run(|g| {
        let n = 1usize << g.usize_in(0..12);
        let x = random_complex(g, n);
        let planned = fft::fft(&x);
        let err = rel_err_vs_dft(g, &x, &planned);
        assert!(err < 1e-10, "n = {n}: relative error {err:.3e}");
        let back = fft::ifft(&planned);
        for (b, orig) in back.iter().zip(&x) {
            assert!((*b - *orig).abs() < 1e-9, "round trip at n = {n}");
        }
    });
}

#[test]
fn planned_fft_matches_exact_dft_on_bluestein_sizes() {
    property("planned_fft_matches_exact_dft_on_bluestein_sizes").run(|g| {
        // Skew towards awkward sizes: odd, prime-ish, just-off-pow2.
        let n = g.usize_in(2..2500);
        let x = random_complex(g, n);
        let planned = fft::fft(&x);
        let err = rel_err_vs_dft(g, &x, &planned);
        assert!(err < 1e-10, "n = {n}: relative error {err:.3e}");
    });
}

#[test]
fn irfft_real_round_trips_rfft_over_random_lengths() {
    property("irfft_real_round_trips_rfft_over_random_lengths").run(|g| {
        let x = g.vec_f64(-2.0..2.0, 1..1500);
        let spec = fft::rfft(&x);
        assert_eq!(spec.len(), fft::rfft_len(x.len()));
        let back = fft::irfft_real(&spec);
        for (k, (b, orig)) in back.iter().zip(&x).enumerate() {
            assert!(
                (b - orig).abs() < 1e-9,
                "sample {k} of {}: {b} vs {orig}",
                x.len()
            );
        }
        // The zero-padded tail comes back as (numerical) zeros.
        for (k, b) in back.iter().enumerate().skip(x.len()) {
            assert!(b.abs() < 1e-9, "tail sample {k} is {b}");
        }
    });
}

#[test]
fn real_plan_inverse_inverts_forward_over_random_lengths() {
    property("real_plan_inverse_inverts_forward_over_random_lengths").run(|g| {
        let n = 1usize << g.usize_in(0..13);
        let plan = fft::rfft_plan(n);
        let x: Vec<f64> = (0..n).map(|_| g.f64_in(-1.0..1.0)).collect();
        let mut scratch = fft::RealFftScratch::new();
        let mut spec = vec![Complex::ZERO; plan.onesided_len()];
        plan.forward_into(&x, &mut spec, &mut scratch);
        // Edge bins of a real signal's spectrum are real.
        assert_eq!(spec[0].im, 0.0);
        assert_eq!(spec[plan.onesided_len() - 1].im, 0.0);
        let mut back = vec![0.0; n];
        plan.inverse_into(&spec, &mut back, &mut scratch);
        for (k, (b, orig)) in back.iter().zip(&x).enumerate() {
            assert!((b - orig).abs() < 1e-10, "n = {n}, sample {k}");
        }
    });
}

#[test]
fn one_sided_rfft_matches_full_spectrum_prefix() {
    property("one_sided_rfft_matches_full_spectrum_prefix").run(|g| {
        let x = g.vec_f64(-1.0..1.0, 1..2000);
        let full = fft::rfft(&x);
        let onesided = fft::rfft_onesided(&x);
        assert_eq!(onesided.len(), fft::rfft_onesided_len(x.len()));
        for (k, (o, f)) in onesided.iter().zip(&full).enumerate() {
            assert_eq!(*o, *f, "bin {k}: one-sided and full prefix diverge");
        }
    });
}

/// Plan-cache sharing across a 4-worker pool must be race-free and produce
/// bit-identical results to the serial path, including when the workers all
/// miss (and build) the same sizes simultaneously.
#[test]
fn plan_cache_is_race_free_and_deterministic_across_workers() {
    // Sizes chosen to overlap heavily across workers; a fresh test binary
    // means a cold cache, so the first wave of lookups races on building.
    let sizes = [
        256usize, 300, 256, 1024, 300, 777, 1024, 256, 777, 300, 512, 512,
    ];
    let signals: Vec<Vec<f64>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            (0..n)
                .map(|k| ((k * (i + 3)) as f64 * 0.01).sin())
                .collect()
        })
        .collect();

    let serial = Pool::new(1).install(|| ht_par::par_map(&signals, |x| fft::rfft(x)));
    for _ in 0..3 {
        let parallel = Pool::new(4).install(|| ht_par::par_map(&signals, |x| fft::rfft(x)));
        assert_eq!(serial, parallel, "thread count changed rfft results");
    }

    // The cache hands every worker the same shared plan instance.
    let arcs = Pool::new(4).install(|| ht_par::par_map(&sizes, |&n| fft::rfft_plan(n)));
    for (a, &n) in arcs.iter().zip(&sizes) {
        assert!(
            std::sync::Arc::ptr_eq(a, &fft::rfft_plan(n)),
            "size {n} not served from the shared cache"
        );
    }
}
