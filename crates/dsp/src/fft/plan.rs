//! Planned FFTs: precomputed bit-reversal permutations and per-stage
//! twiddle tables, executed into caller-provided scratch so the hot path is
//! allocation-free after warm-up.
//!
//! The free functions in [`crate::fft`] recompute nothing per call except
//! the transform itself because they run on plans from the process-wide
//! [size-keyed cache](fft_plan). A plan is immutable once built (tables
//! only), so one `Arc<FftPlan>` can be shared freely across `ht-par`
//! workers; all mutable state lives in the per-caller [`FftScratch`] /
//! [`RealFftScratch`].
//!
//! Two properties the plans buy:
//!
//! * **Accuracy** — every twiddle factor is an independently rounded
//!   `sin`/`cos` table entry instead of a `w *= wlen` running product,
//!   whose rounding error would compound over each butterfly stage. At
//!   `n = 16384` the worst-case error against the exact DFT stays below
//!   1e-10 (pinned by the accuracy test in `fft::tests`).
//! * **Real-input cost** — [`RealFftPlan`] computes the one-sided spectrum
//!   of a length-`n` real signal with a single complex FFT of length `n/2`
//!   (pack-even/odd trick) plus an `O(n)` reconstruction, roughly halving
//!   the work of a full complex transform.
//!
//! Determinism: a plan of size `n` always contains the same tables no
//! matter which thread builds it or in which order sizes are first
//! requested, so the cache is a pure wall-clock optimization — results are
//! run-to-run deterministic and thread-count invariant. Cache traffic is
//! observable through the `fft.plan_hits` / `fft.plan_misses` counters.

use crate::complex::Complex;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use super::next_pow2;

/// Reusable scratch for [`FftPlan`] execution. Only non-power-of-two
/// (Bluestein) plans need it; power-of-two transforms run fully in place.
/// Buffers grow on first use and are reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    conv: Vec<Complex>,
}

impl FftScratch {
    /// An empty scratch; buffers are sized lazily by the first transform.
    pub fn new() -> FftScratch {
        FftScratch::default()
    }
}

/// Reusable scratch for [`RealFftPlan`] execution: the packed half-size
/// complex buffer. Grows on first use and is reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct RealFftScratch {
    packed: Vec<Complex>,
}

impl RealFftScratch {
    /// An empty scratch; buffers are sized lazily by the first transform.
    pub fn new() -> RealFftScratch {
        RealFftScratch::default()
    }
}

/// A planned complex DFT of one fixed length.
///
/// Power-of-two lengths execute the iterative radix-2 butterflies over
/// precomputed tables; other lengths use Bluestein's chirp-z algorithm with
/// the chirp and its convolution-filter spectrum precomputed at plan time.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    /// `n <= 1`: the transform is the identity.
    Trivial,
    Pow2(Pow2Tables),
    Bluestein(Box<BluesteinTables>),
}

#[derive(Debug, Clone)]
struct Pow2Tables {
    /// Index pairs `(i, j)` with `i < j` of the bit-reversal permutation.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles `e^{-2πik/len}` for `k < len/2`, concatenated over
    /// the stages `len = 2, 4, …, n` (`n − 1` entries in total). The
    /// inverse transform conjugates them on the fly.
    twiddles: Vec<Complex>,
}

#[derive(Debug, Clone)]
struct BluesteinTables {
    /// The inner power-of-two plan of length `m = next_pow2(2n − 1)`.
    inner: FftPlan,
    /// Forward chirp `w_k = e^{-iπk²/n}` (the inverse uses its conjugate).
    chirp: Vec<Complex>,
    /// `FFT_m` of the forward chirp filter `b` (unit-scaled).
    filter_fwd: Vec<Complex>,
    /// `FFT_m` of the inverse-direction chirp filter.
    filter_inv: Vec<Complex>,
}

impl Pow2Tables {
    fn build(n: usize) -> Pow2Tables {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            let step = -2.0 * std::f64::consts::PI / len as f64;
            for k in 0..len / 2 {
                twiddles.push(Complex::from_angle(step * k as f64));
            }
            len <<= 1;
        }
        Pow2Tables { swaps, twiddles }
    }

    /// Unnormalized in-place radix-2 pass over the precomputed tables.
    fn process(&self, buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        for &(i, j) in &self.swaps {
            buf.swap(i as usize, j as usize);
        }
        let mut tables = self.twiddles.as_slice();
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let (stage, rest) = tables.split_at(half);
            tables = rest;
            for chunk in buf.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for k in 0..half {
                    let w = if inverse { stage[k].conj() } else { stage[k] };
                    let u = lo[k];
                    let v = hi[k] * w;
                    lo[k] = u + v;
                    hi[k] = u - v;
                }
            }
            len <<= 1;
        }
    }
}

impl BluesteinTables {
    fn build(n: usize) -> BluesteinTables {
        debug_assert!(n >= 2 && !n.is_power_of_two());
        let m = next_pow2(2 * n - 1);
        // Inner plans are built directly (not through the cache) so cache
        // lookups never re-enter the cache lock.
        let inner = FftPlan::new(m);
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                // Reduce k² mod 2n before the float multiply to keep
                // precision for long transforms.
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex::from_angle(-std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let filter_of = |chirp_dir: &dyn Fn(usize) -> Complex| {
            let mut b = vec![Complex::ZERO; m];
            b[0] = chirp_dir(0).conj();
            for k in 1..n {
                let c = chirp_dir(k).conj();
                b[k] = c;
                b[m - k] = c;
            }
            match &inner.kind {
                Kind::Pow2(t) => t.process(&mut b, false),
                _ => unreachable!("inner Bluestein plan is always pow2"),
            }
            b
        };
        let filter_fwd = filter_of(&|k| chirp[k]);
        let filter_inv = filter_of(&|k| chirp[k].conj());
        BluesteinTables {
            inner,
            chirp,
            filter_fwd,
            filter_inv,
        }
    }

    /// Unnormalized chirp-z transform of `buf` through the inner plan.
    fn process(&self, buf: &mut [Complex], scratch: &mut FftScratch, inverse: bool) {
        let n = buf.len();
        let m = self.inner.len();
        let tables = match &self.inner.kind {
            Kind::Pow2(t) => t,
            _ => unreachable!("inner Bluestein plan is always pow2"),
        };
        let chirp_at = |k: usize| {
            if inverse {
                self.chirp[k].conj()
            } else {
                self.chirp[k]
            }
        };
        let a = &mut scratch.conv;
        a.clear();
        a.resize(m, Complex::ZERO);
        for k in 0..n {
            a[k] = buf[k] * chirp_at(k);
        }
        tables.process(a, false);
        let filter = if inverse {
            &self.filter_inv
        } else {
            &self.filter_fwd
        };
        for (av, bv) in a.iter_mut().zip(filter.iter()) {
            *av *= *bv;
        }
        tables.process(a, true);
        let scale = 1.0 / m as f64;
        for k in 0..n {
            buf[k] = a[k] * chirp_at(k) * scale;
        }
    }
}

impl FftPlan {
    /// Builds a plan for exact-length-`n` complex DFTs (any `n`; `n <= 1`
    /// plans are identity transforms).
    pub fn new(n: usize) -> FftPlan {
        let kind = if n <= 1 {
            Kind::Trivial
        } else if n.is_power_of_two() {
            Kind::Pow2(Pow2Tables::build(n))
        } else {
            Kind::Bluestein(Box::new(BluesteinTables::build(n)))
        };
        FftPlan { n, kind }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DFT of `buf` in place (unnormalized, like [`crate::fft::fft`]).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [Complex], scratch: &mut FftScratch) {
        self.process(buf, scratch, false);
    }

    /// Inverse DFT of `buf` in place, normalized by `1/n`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [Complex], scratch: &mut FftScratch) {
        self.process(buf, scratch, true);
        let inv_n = 1.0 / self.n as f64;
        for z in buf.iter_mut() {
            *z = *z * inv_n;
        }
    }

    fn process(&self, buf: &mut [Complex], scratch: &mut FftScratch, inverse: bool) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length must match the planned size"
        );
        match &self.kind {
            Kind::Trivial => {}
            Kind::Pow2(t) => t.process(buf, inverse),
            Kind::Bluestein(t) => t.process(buf, scratch, inverse),
        }
    }
}

/// A planned one-sided real FFT of one fixed power-of-two length `n`,
/// implemented as a complex FFT of length `n/2` over the even/odd-packed
/// input plus an `O(n)` split step — about half the work of a full complex
/// transform. The matching [`inverse`](RealFftPlan::inverse_into)
/// reconstructs the packed spectrum and round-trips bit-for-bit
/// deterministically.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    n: usize,
    /// Complex plan of length `n/2` (`None` for the trivial `n == 1`).
    half: Option<FftPlan>,
    /// Split twiddles `e^{-2πik/n}` for `k < n/2`.
    split: Vec<Complex>,
}

impl RealFftPlan {
    /// Builds a plan for real FFTs of length `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two (use [`next_pow2`] — the cached
    /// entry point [`rfft_plan`] rounds up for you).
    pub fn new(n: usize) -> RealFftPlan {
        assert!(
            n.is_power_of_two(),
            "real FFT plans require a power-of-two length, got {n}"
        );
        if n == 1 {
            return RealFftPlan {
                n,
                half: None,
                split: Vec::new(),
            };
        }
        let h = n / 2;
        let step = -2.0 * std::f64::consts::PI / n as f64;
        RealFftPlan {
            n,
            half: Some(FftPlan::new(h)),
            split: (0..h)
                .map(|k| Complex::from_angle(step * k as f64))
                .collect(),
        }
    }

    /// The real transform length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never true: plans are at least length 1.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of one-sided output bins, `n/2 + 1`.
    pub fn onesided_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward one-sided real FFT: `out[k] = X[k]` for `k <= n/2`, where
    /// `X` is the unnormalized `n`-point DFT of `x` zero-padded to `n`.
    ///
    /// Allocation-free once `scratch` has warmed up to this size.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() > self.len()` (the input would be silently
    /// truncated) or `out.len() != self.onesided_len()`.
    pub fn forward_into(&self, x: &[f64], out: &mut [Complex], scratch: &mut RealFftScratch) {
        assert!(
            x.len() <= self.n,
            "input length {} exceeds the planned real FFT length {}",
            x.len(),
            self.n
        );
        assert_eq!(out.len(), self.onesided_len(), "one-sided output length");
        let Some(half) = &self.half else {
            out[0] = Complex::from_real(x.first().copied().unwrap_or(0.0));
            return;
        };
        let h = self.n / 2;
        let z = &mut scratch.packed;
        z.clear();
        z.resize(h, Complex::ZERO);
        let pairs = x.len() / 2;
        for (k, zk) in z.iter_mut().enumerate().take(pairs) {
            *zk = Complex::new(x[2 * k], x[2 * k + 1]);
        }
        if x.len() % 2 == 1 {
            z[pairs] = Complex::from_real(x[x.len() - 1]);
        }
        match &half.kind {
            Kind::Pow2(t) => t.process(z, false),
            Kind::Trivial => {}
            Kind::Bluestein(_) => unreachable!("half plan of a pow2 real plan is pow2"),
        }
        // Split the packed spectrum: with Fe/Fo the DFTs of the even/odd
        // samples, X[k] = Fe[k] + e^{-2πik/n}·Fo[k].
        out[0] = Complex::from_real(z[0].re + z[0].im);
        out[h] = Complex::from_real(z[0].re - z[0].im);
        for k in 1..h {
            let a = z[k];
            let b = z[h - k].conj();
            let fe = (a + b).scale(0.5);
            let fo = (a - b) * Complex::new(0.0, -0.5);
            out[k] = fe + self.split[k] * fo;
        }
    }

    /// Inverse of [`forward_into`](RealFftPlan::forward_into): reconstructs
    /// the length-`n` real signal from its one-sided spectrum, normalized
    /// by `1/n` so the pair round-trips.
    ///
    /// The imaginary parts of `spec[0]` and `spec[n/2]` (which are zero for
    /// any spectrum of a real signal) are ignored.
    ///
    /// Allocation-free once `scratch` has warmed up to this size.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.onesided_len()` or
    /// `out.len() != self.len()`.
    pub fn inverse_into(&self, spec: &[Complex], out: &mut [f64], scratch: &mut RealFftScratch) {
        assert_eq!(spec.len(), self.onesided_len(), "one-sided input length");
        assert_eq!(out.len(), self.n, "output length");
        let Some(half) = &self.half else {
            out[0] = spec[0].re;
            return;
        };
        let h = self.n / 2;
        let z = &mut scratch.packed;
        z.clear();
        z.resize(h, Complex::ZERO);
        // Rebuild the packed spectrum: Fe[k] = (X[k] + conj(X[h−k]))/2,
        // Fo[k] = (X[k] − conj(X[h−k]))/2 · e^{+2πik/n}, Z[k] = Fe[k] + i·Fo[k].
        // k = 0 uses only the real parts of X[0] and X[h], which is where
        // the "imaginary parts of the edge bins are ignored" contract comes
        // from.
        z[0] = Complex::new(
            (spec[0].re + spec[h].re) * 0.5,
            (spec[0].re - spec[h].re) * 0.5,
        );
        for (k, zk) in z.iter_mut().enumerate().skip(1) {
            let a = spec[k];
            let b = spec[h - k].conj();
            let fe = (a + b).scale(0.5);
            let fo = (a - b).scale(0.5) * self.split[k].conj();
            *zk = fe + Complex::I * fo;
        }
        match &half.kind {
            Kind::Pow2(t) => t.process(z, true),
            Kind::Trivial => {}
            Kind::Bluestein(_) => unreachable!("half plan of a pow2 real plan is pow2"),
        }
        let inv_h = 1.0 / h as f64;
        for k in 0..h {
            out[2 * k] = z[k].re * inv_h;
            out[2 * k + 1] = z[k].im * inv_h;
        }
    }

    /// Allocating convenience wrapper around
    /// [`forward_into`](RealFftPlan::forward_into).
    pub fn forward(&self, x: &[f64]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.onesided_len()];
        let mut scratch = RealFftScratch::new();
        self.forward_into(x, &mut out, &mut scratch);
        out
    }

    /// Allocating convenience wrapper around
    /// [`inverse_into`](RealFftPlan::inverse_into).
    pub fn inverse(&self, spec: &[Complex]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        let mut scratch = RealFftScratch::new();
        self.inverse_into(spec, &mut out, &mut scratch);
        out
    }
}

type PlanCache<P> = OnceLock<Mutex<BTreeMap<usize, Arc<P>>>>;

static COMPLEX_PLANS: PlanCache<FftPlan> = OnceLock::new();
static REAL_PLANS: PlanCache<RealFftPlan> = OnceLock::new();

fn cached<P>(cache: &PlanCache<P>, n: usize, build: impl FnOnce(usize) -> P) -> Arc<P> {
    let map = cache.get_or_init(|| Mutex::new(BTreeMap::new()));
    // A plan of a given size is the same value no matter who builds it, so
    // a poisoned lock (a panicking caller elsewhere) leaves nothing to
    // repair — recover the map and keep serving.
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(p) = map.get(&n) {
        ht_obs::counter_add("fft.plan_hits", 1);
        return Arc::clone(p);
    }
    // Building inside the lock keeps the miss count exactly "one per
    // distinct size" (the CI cache gate asserts this bound); plans build in
    // O(n log n), so the briefly-held lock is not a contention concern.
    ht_obs::counter_add("fft.plan_misses", 1);
    let p = Arc::new(build(n));
    map.insert(n, Arc::clone(&p));
    p
}

/// The process-wide plan for exact-length-`n` complex DFTs (built on first
/// request, shared afterwards). Cache traffic is counted in
/// `fft.plan_hits` / `fft.plan_misses`.
pub fn fft_plan(n: usize) -> Arc<FftPlan> {
    cached(&COMPLEX_PLANS, n, FftPlan::new)
}

/// The process-wide plan for real FFTs of length `next_pow2(n)` (real
/// plans are power-of-two only; the requested length rounds up). Cache
/// traffic is counted in `fft.plan_hits` / `fft.plan_misses`.
pub fn rfft_plan(n: usize) -> Arc<RealFftPlan> {
    cached(&REAL_PLANS, next_pow2(n), RealFftPlan::new)
}

thread_local! {
    static TLS_SCRATCH: std::cell::RefCell<(FftScratch, RealFftScratch)> =
        std::cell::RefCell::new((FftScratch::new(), RealFftScratch::new()));
}

/// Runs `f` with this thread's reusable scratch pair, so the free-function
/// wrappers in [`crate::fft`] stop allocating scratch once warm.
pub(crate) fn with_tls_scratch<R>(f: impl FnOnce(&mut FftScratch, &mut RealFftScratch) -> R) -> R {
    TLS_SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let (cpx, real) = &mut *s;
        f(cpx, real)
    })
}
