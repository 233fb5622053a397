//! Flat, chunked, autovectorizable kernels for the decision hot path, and
//! the [`QuantMode`] switch that selects between the byte-stable f64
//! reference kernels and the faster approximate variants backing the int8
//! quantized inference path.
//!
//! Two whitening kernels implement the GCC-PHAT cross-spectrum product:
//!
//! * [`cross_whiten_reference_into`] fuses the product, magnitude and
//!   running-max passes of the historical `product loop + whiten` sequence
//!   into one streaming pass over contiguous scratch. It is **bit-identical**
//!   to the original (same `hypot` magnitudes, same sequential max fold,
//!   same per-component division) while computing each magnitude once
//!   instead of twice — the reference path's golden reports stay
//!   byte-stable.
//! * [`cross_whiten_fast_into`] works in squared magnitudes (`re² + im²`,
//!   no `hypot` libm call), takes the bin maximum with a chunked
//!   multi-accumulator fold, and normalizes via `1/√m²` — every loop is a
//!   flat FMA-able sweep the compiler autovectorizes. Values agree with the
//!   reference to ~1e-12 relative but are *not* bit-identical, so this
//!   kernel is only reachable under [`QuantMode::Int8`].

use crate::complex::Complex;

/// Which numeric backend the decision hot path runs on.
///
/// `Reference` is the byte-stable f64 path every golden report is pinned
/// against; `Int8` selects the vectorized whitening kernels here plus the
/// int8 quantized model forwards in `ht-ml` (calibrated offline, accuracy
/// gated within 0.5 pp of the reference in CI). Training, calibration and
/// report-producing experiment paths always use `Reference`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// The f64 reference path: byte-stable, golden-report pinned.
    #[default]
    Reference,
    /// The quantized/vectorized fast path: int8 model forwards plus the
    /// squared-magnitude whitening kernel. Logits and features agree with
    /// the reference within tested tolerance bounds but are not
    /// bit-identical.
    Int8,
}

impl QuantMode {
    /// `true` for the byte-stable reference backend.
    pub fn is_reference(self) -> bool {
        matches!(self, QuantMode::Reference)
    }
}

/// Relative silence floor of the PHAT whitening: bins more than 80 dB below
/// the strongest bin are zeroed (PHAT would amplify round-off to unit
/// weight).
const PHAT_REL_FLOOR: f64 = 1e-4;
/// Absolute magnitude floor guarding all-silent spectra.
const PHAT_ABS_FLOOR: f64 = 1e-15;

/// Fused cross-power product + PHAT whitening, reference flavour.
///
/// Computes `cross[i] = xf[i] · conj(yf[i])` whitened to unit magnitude
/// (silencing bins below the relative/absolute floors), using `mags` as
/// magnitude scratch so each bin's `hypot` is evaluated exactly once. The
/// result is bit-identical to the separate product-then-whiten loops this
/// replaces: magnitudes, the sequential `f64::max` fold and the
/// per-component division are evaluated on the same values in the same
/// order.
///
/// # Panics
///
/// Panics if the four slices disagree in length.
pub fn cross_whiten_reference_into(
    xf: &[Complex],
    yf: &[Complex],
    cross: &mut [Complex],
    mags: &mut [f64],
) {
    let n = cross.len();
    assert_eq!(xf.len(), n, "x spectrum length");
    assert_eq!(yf.len(), n, "y spectrum length");
    assert_eq!(mags.len(), n, "magnitude scratch length");
    let mut max_mag = 0.0f64;
    for i in 0..n {
        let c = xf[i] * yf[i].conj();
        cross[i] = c;
        let m = c.abs();
        mags[i] = m;
        max_mag = max_mag.max(m);
    }
    let floor = max_mag * PHAT_REL_FLOOR;
    for i in 0..n {
        let m = mags[i];
        cross[i] = if m > floor && m > PHAT_ABS_FLOOR {
            cross[i] / m
        } else {
            Complex::ZERO
        };
    }
}

/// Fused cross-power product + PHAT whitening through the kernel `mode`
/// selects: [`cross_whiten_reference_into`] under
/// [`QuantMode::Reference`], [`cross_whiten_fast_into`] under
/// [`QuantMode::Int8`]. The one dispatch point every GCC-PHAT caller uses.
///
/// # Panics
///
/// Panics if the four slices disagree in length.
pub fn cross_whiten_into(
    mode: QuantMode,
    xf: &[Complex],
    yf: &[Complex],
    cross: &mut [Complex],
    mags: &mut [f64],
) {
    match mode {
        QuantMode::Reference => cross_whiten_reference_into(xf, yf, cross, mags),
        QuantMode::Int8 => cross_whiten_fast_into(xf, yf, cross, mags),
    }
}

/// Accumulator lanes of the fast kernel's chunked max fold — wide enough to
/// fill a 256-bit vector of f64, small enough to stay in registers.
const MAX_LANES: usize = 4;

/// Fused cross-power product + PHAT whitening, vectorized flavour
/// ([`QuantMode::Int8`] only).
///
/// Identical contract to [`cross_whiten_reference_into`] but works in
/// squared magnitudes throughout: the product pass stores `re² + im²` into
/// `m2s` (no `hypot`), the maximum is folded over [`MAX_LANES`] independent
/// accumulators so the compiler can keep it in one vector register, and the
/// normalize pass multiplies by `1/√m²`. The floors are squared
/// (`(max·1e-4)² = max²·1e-8`, `(1e-15)² = 1e-30`), preserving the
/// reference predicate in exact arithmetic; float rounding can flip bins
/// sitting exactly on the floor, which is covered by the Int8 tolerance
/// gate rather than byte-stability.
///
/// # Panics
///
/// Panics if the four slices disagree in length.
pub fn cross_whiten_fast_into(
    xf: &[Complex],
    yf: &[Complex],
    cross: &mut [Complex],
    m2s: &mut [f64],
) {
    let n = cross.len();
    assert_eq!(xf.len(), n, "x spectrum length");
    assert_eq!(yf.len(), n, "y spectrum length");
    assert_eq!(m2s.len(), n, "magnitude scratch length");
    for i in 0..n {
        let c = xf[i] * yf[i].conj();
        cross[i] = c;
        m2s[i] = c.norm_sqr();
    }
    let mut lanes = [0.0f64; MAX_LANES];
    let chunks = m2s.chunks_exact(MAX_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (acc, &m2) in lanes.iter_mut().zip(chunk) {
            *acc = acc.max(m2);
        }
    }
    let mut max_m2 = tail.iter().fold(0.0f64, |acc, &m2| acc.max(m2));
    for acc in lanes {
        max_m2 = max_m2.max(acc);
    }
    let floor2 = max_m2 * (PHAT_REL_FLOOR * PHAT_REL_FLOOR);
    let abs_floor2 = PHAT_ABS_FLOOR * PHAT_ABS_FLOOR;
    for i in 0..n {
        let m2 = m2s[i];
        cross[i] = if m2 > floor2 && m2 > abs_floor2 {
            cross[i].scale(1.0 / m2.sqrt())
        } else {
            Complex::ZERO
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The historical two-loop implementation the fused reference kernel
    /// replaces, kept here verbatim as the bit-identity oracle.
    fn naive_product_then_whiten(xf: &[Complex], yf: &[Complex]) -> Vec<Complex> {
        let mut cross: Vec<Complex> = xf.iter().zip(yf).map(|(a, b)| *a * b.conj()).collect();
        let max_mag = cross.iter().map(|c| c.abs()).fold(0.0, f64::max);
        let floor = max_mag * 1e-4;
        for c in cross.iter_mut() {
            let m = c.abs();
            *c = if m > floor && m > 1e-15 {
                *c / m
            } else {
                Complex::ZERO
            };
        }
        cross
    }

    fn spectra(n: usize, seed: u64) -> (Vec<Complex>, Vec<Complex>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let xf: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let yf: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        (xf, yf)
    }

    #[test]
    fn reference_kernel_is_bit_identical_to_naive_loops() {
        for n in [1usize, 3, 4, 7, 64, 129, 513] {
            let (xf, yf) = spectra(n, 0x9E3779B97F4A7C15 ^ n as u64);
            let expected = naive_product_then_whiten(&xf, &yf);
            let mut cross = vec![Complex::ZERO; n];
            let mut mags = vec![0.0; n];
            cross_whiten_reference_into(&xf, &yf, &mut cross, &mut mags);
            assert_eq!(cross, expected, "n = {n}");
        }
    }

    #[test]
    fn fast_kernel_matches_reference_within_tolerance() {
        for n in [1usize, 5, 64, 257, 1024] {
            let (xf, yf) = spectra(n, 0xD1B54A32D192ED03 ^ n as u64);
            let expected = naive_product_then_whiten(&xf, &yf);
            let mut cross = vec![Complex::ZERO; n];
            let mut m2s = vec![0.0; n];
            cross_whiten_fast_into(&xf, &yf, &mut cross, &mut m2s);
            for (got, want) in cross.iter().zip(&expected) {
                assert!(
                    (got.re - want.re).abs() < 1e-10 && (got.im - want.im).abs() < 1e-10,
                    "n = {n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn both_kernels_silence_an_all_zero_spectrum() {
        let zeros = vec![Complex::ZERO; 33];
        let mut cross = vec![Complex::ONE; 33];
        let mut mags = vec![1.0; 33];
        cross_whiten_reference_into(&zeros, &zeros, &mut cross, &mut mags);
        assert!(cross.iter().all(|c| *c == Complex::ZERO));
        let mut cross = vec![Complex::ONE; 33];
        cross_whiten_fast_into(&zeros, &zeros, &mut cross, &mut mags);
        assert!(cross.iter().all(|c| *c == Complex::ZERO));
    }

    #[test]
    fn whitened_bins_have_unit_magnitude() {
        let (xf, yf) = spectra(100, 42);
        let mut cross = vec![Complex::ZERO; 100];
        let mut mags = vec![0.0; 100];
        cross_whiten_reference_into(&xf, &yf, &mut cross, &mut mags);
        for c in &cross {
            let m = c.abs();
            assert!(m == 0.0 || (m - 1.0).abs() < 1e-12, "|c| = {m}");
        }
    }

    #[test]
    fn quant_mode_defaults_to_reference() {
        assert_eq!(QuantMode::default(), QuantMode::Reference);
        assert!(QuantMode::Reference.is_reference());
        assert!(!QuantMode::Int8.is_reference());
    }
}
