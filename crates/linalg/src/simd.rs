//! Runtime-dispatched SIMD kernels for the solve pipeline's hot stages.
//!
//! Eight kernels cover the stages that dominate a LION solve and its
//! calibration — phase unwrap, moving-average (Savitzky–Golay degree-0)
//! smoothing, radical-line row assembly, the fixed-width Gram
//! accumulation behind [`crate::NormalEq`], the IRLS reweight (the
//! fixed-width residual pass with its fused `(Σr, Σr²)`
//! ([`residuals_fixed`]), the Gaussian weights with their exponent and
//! exponential ([`gaussian_weights`]), and the bare exponential
//! ([`exp_non_positive`])), and the circular resultant
//! `(Σ sin α, Σ cos α)` behind every circular mean and the phase-offset
//! fit of paper Eq. 17 ([`sin_cos_sums`], and [`phase_offset_sums`],
//! which derives each `α` from a read on the fly). Each kernel exists
//! twice: a portable scalar reference (`*_scalar`) and an explicit-width
//! `core::arch` twin (AVX2 with FMA on x86_64, NEON on aarch64) selected
//! once at runtime by [`active`]. Where a kernel has no twin for a
//! backend, that backend runs the scalar reference.
//!
//! # Bit-identical contract
//!
//! Every SIMD twin produces **bit-identical** `f64` results to its scalar
//! reference, on every input. This is not an accuracy nicety: the
//! batch/stream parity suites assert `==` between estimates produced by
//! different code paths, and the incremental re-solver's replay oracle
//! only works if a replayed window reproduces the original solve exactly.
//! The twins therefore restrict themselves to operations that are
//! correctly rounded per IEEE 754 and identical per lane — add, sub, mul,
//! div, sqrt, floor, max, sign flips and fused multiply-add — applied in
//! the same order as the scalar loop. **The twins fuse exactly where the
//! scalar reference calls [`f64::mul_add`]; no other contraction.** A
//! fused multiply-add rounds once, and `mul_add` is that one correctly
//! rounded operation on every target (an `fmadd` instruction on aarch64
//! and inside an FMA-enabled x86_64 function, a call to libm's `fma`
//! elsewhere), so an AVX2 `_mm256_fmadd_pd` lane and the scalar `mul_add`
//! agree bit for bit. The fused steps are the Gram accumulation
//! ([`gram_fixed`], [`gram_into`]), the residual dot products
//! ([`residuals_fixed`]), the shared exponential's rounding to `n` and
//! polynomial ([`exp_non_positive`], [`gaussian_weights`]), and the
//! resultant's rounding to `n` and sine and cosine polynomials
//! ([`sin_cos`]); every other product is rounded before it is added.
//! The price falls on the scalar fallback on x86_64 (`LION_SIMD=scalar`,
//! or a CPU without FMA), where each `mul_add` is a libm call.
//!
//! A reduction's summation order is whatever its scalar twin does: lanes
//! hold *independent* accumulators, or interleaved partial sums of one
//! reduction only where the scalar twin interleaves the same way. Every
//! sum over rows uses one interleaved order, [`sum_sumsq`]'s: row `i` of
//! every whole block of four adds into partial sum `i mod 4`, the
//! partials combine as `(l0 + l1) + (l2 + l3)`, and the tail rows are
//! added after that. [`residuals_fixed`] and
//! [`crate::lstsq::WeightFunction::weights_into`] sum `Σr` and `Σr²` in
//! that order, [`gram_fixed`] and [`gram_into`] every Gram and `AᵀWk`
//! entry, [`weighted_sums`] the σ̂ inputs `Σw` and `Σw·r²`, and
//! [`sin_cos_sums`] and [`phase_offset_sums`] the resultant's `Σ sin` and
//! `Σ cos`.
//!
//! # Row storage
//!
//! The row, Gram and residual kernels share one layout for a system's
//! rows, [`blocked_index`]'s, which [`crate::NormalEq`] stores: in each
//! whole block of four rows, column 0 of the four rows comes first, then
//! column 1, and so on, and the `m mod 4` tail rows stay row-major. A
//! vector load or store is then one column of four rows, row `i` in lane
//! `i mod 4`, which is exactly the interleaved lane order above, so the
//! vector twins move whole columns with no transposes. [`block_rows`]
//! and [`unblock_rows`] convert between this layout and row-major in
//! place.
//!
//! The resultant meets the contract without libm on its hot path: its
//! sine and cosine ([`sin_cos`]) are a Cody–Waite reduction by π/2 and
//! two fixed polynomials in add, sub, mul and fused multiply-add, the
//! quadrant select is a blend and a sign-bit XOR on the integer `n mod 4`
//! read out of the reduction's shift trick, and the offset's distance and
//! `4π·d/λ` are one sqrt and one div per lane. An angle outside the
//! reduction's exact range (`|α| >` [`SIN_COS_MAX`], NaN, ±∞) sends its
//! whole block of four to the scalar body lane by lane, which calls libm
//! for that angle on every backend, so the twins agree there too.
//!
//! # Dispatch
//!
//! [`detected`] probes the CPU once (cached in an atomic); [`active`]
//! additionally honors a process-wide override installed with [`force`],
//! which tests use to pin the scalar fallback regardless of host CPU.
//! The `LION_SIMD` environment variable (`scalar` / `avx2` / `neon` /
//! `auto`) overrides detection at first use, for CI runs that must
//! exercise the fallback. Forcing a backend the CPU cannot run clamps to
//! [`Backend::Scalar`], so dispatch is always sound.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel implementation family, selected once at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable reference implementation; always available and always the
    /// semantics the SIMD twins must reproduce bit-for-bit.
    Scalar,
    /// 256-bit AVX2 kernels with FMA (x86_64, both features
    /// runtime-detected: Haswell, Zen or later).
    Avx2,
    /// 128-bit NEON kernels (aarch64 baseline).
    Neon,
}

impl Backend {
    /// Stable lowercase name, used by bench `env` blocks and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// 0 = not probed yet; otherwise `encode(backend)`.
static DETECTED: AtomicU8 = AtomicU8::new(0);
/// 0 = no override; otherwise `encode(backend)`.
static FORCED: AtomicU8 = AtomicU8::new(0);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
        Backend::Neon => 3,
    }
}

fn decode(v: u8) -> Backend {
    match v {
        2 => Backend::Avx2,
        3 => Backend::Neon,
        _ => Backend::Scalar,
    }
}

/// Whether this process can actually execute `b`'s instructions. The
/// AVX2 twins fuse multiply-adds, so they need FMA as well as AVX2.
fn available(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => false,
        Backend::Neon => cfg!(target_arch = "aarch64"),
    }
}

fn probe() -> Backend {
    if let Ok(v) = std::env::var("LION_SIMD") {
        match v.to_ascii_lowercase().as_str() {
            "scalar" => return Backend::Scalar,
            "avx2" if available(Backend::Avx2) => return Backend::Avx2,
            "neon" if available(Backend::Neon) => return Backend::Neon,
            // Unknown or unavailable value: fall through to detection.
            _ => {}
        }
    }
    if available(Backend::Avx2) {
        Backend::Avx2
    } else if available(Backend::Neon) {
        Backend::Neon
    } else {
        Backend::Scalar
    }
}

/// The backend runtime detection picked for this CPU (cached after the
/// first call; `LION_SIMD` overrides it at first use).
pub fn detected() -> Backend {
    match DETECTED.load(Ordering::Relaxed) {
        0 => {
            let b = probe();
            DETECTED.store(encode(b), Ordering::Relaxed);
            b
        }
        v => decode(v),
    }
}

/// Installs (or with `None` removes) a process-wide backend override.
///
/// Tests use this to exercise the scalar fallback on any host. Because
/// the kernels are bit-identical, flipping the override mid-run changes
/// no result — only which instructions compute it. A forced backend the
/// CPU cannot execute silently clamps to [`Backend::Scalar`].
pub fn force(backend: Option<Backend>) {
    FORCED.store(backend.map_or(0, encode), Ordering::Relaxed);
}

/// The backend kernels dispatch to right now: the [`force`]d override if
/// one is installed (clamped to what the CPU supports), else
/// [`detected`].
pub fn active() -> Backend {
    match FORCED.load(Ordering::Relaxed) {
        0 => detected(),
        v => {
            let b = decode(v);
            if available(b) {
                b
            } else {
                Backend::Scalar
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel 1: elementwise exp for non-positive arguments (IRLS weights).
// ---------------------------------------------------------------------------

/// The digits spell out the exact Cody–Waite hi/lo split of ln 2.
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_471_803_691_238_2e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// 1.5·2⁵²: adding then subtracting rounds to the nearest integer and
/// leaves that integer in the sum's low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// The degree-9 Taylor polynomial of `exp(r)`, `Σ rᵏ/k!`, lowest degree
/// first.
const EXP_C: [f64; 10] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
];

/// `c[0] + x·(c[1] + x·(c[2] + …))` by Horner's rule from the highest
/// coefficient down, each step one [`f64::mul_add`]: the polynomial
/// arithmetic of the exp and sin/cos kernels, which their vector twins
/// repeat lane for lane.
#[inline]
fn horner(x: f64, c: &[f64]) -> f64 {
    let (&top, rest) = c.split_last().expect("a polynomial has a coefficient");
    rest.iter().rev().fold(top, |p, &k| x.mul_add(p, k))
}

/// Elementwise `x → exp(x)` for non-positive `x`, in place.
///
/// This is the exponential of the Gaussian weights that the QR
/// ([`crate::lstsq::solve_irls`]) and normal-equation
/// ([`crate::solve_irls_normal`]) IRLS loops share through
/// [`gaussian_weights`]: one `exp` per equation per iteration, so a libm
/// call each would dominate the whole reweight. Instead: Cody–Waite
/// reduction `x = n·ln2 + r` (`|r| ≤ ln2/2`), a degree-9 Taylor
/// polynomial for `exp(r)` (remainder below 7e-12 on the reduced range —
/// noise at the scale of a reliability weight), and an exact power-of-two
/// scale assembled from the shift trick's mantissa bits. The rounding to
/// `n` and every Horner step are fused multiply-adds ([`f64::mul_add`],
/// one rounding each), which only tightens the evaluation error; the
/// 7e-12 remainder is the bound. The reduction stays unfused: `n·LN2_HI`
/// is exact, and fusing `n·LN2_LO` moves `r` by at most an ulp that the
/// result's rounding absorbs (no difference in 2·10⁸ random arguments),
/// so it would only add two libm calls per value to the scalar fallback.
/// One tolerance, one arithmetic: [`gaussian_weights`] evaluates exactly
/// this per lane.
pub fn exp_non_positive(xs: &mut [f64]) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::exp_non_positive(xs) },
        // aarch64 runs the scalar twin, whose `mul_add` is one `fmadd`.
        _ => exp_non_positive_scalar(xs),
    }
}

/// Scalar reference for [`exp_non_positive`]; the body is straight-line
/// arithmetic with no branches or float→int conversions.
pub fn exp_non_positive_scalar(xs: &mut [f64]) {
    for x in xs {
        *x = exp_one(*x);
    }
}

/// `exp(x)` for one non-positive `x`: the scalar body every exp kernel
/// shares.
#[inline]
fn exp_one(x: f64) -> f64 {
    debug_assert!(x <= 0.0);
    // exp(-690) ≈ 1e-300 — an effectively zero weight — and the
    // clamp keeps the 2ⁿ scale inside normal-number range.
    let v = x.max(-690.0);
    let t = v.mul_add(std::f64::consts::LOG2_E, SHIFT);
    let n = t - SHIFT;
    let r = (v - n * LN2_HI) - n * LN2_LO;
    let p = horner(r, &EXP_C);
    // n ∈ [-996, 0] lives in t's low mantissa bits (mod 2¹²), so the
    // biased exponent (n + 1023) << 52 comes straight from them.
    let scale = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    p * scale
}

/// The paper's Gaussian reliability weights (Eq. 15),
/// `out[i] = exp(−(rᵢ − μ)²·inv_two_sigma2)`. `inv_two_sigma2 = 1/(2σ²)`
/// must be non-negative, and `out.len() == residuals.len()`.
///
/// Each weight is [`exp_non_positive`] of `−(d·d)·inv_two_sigma2` with
/// `d = rᵢ − μ`, so the result is bit-identical to writing the exponents
/// out and exponentiating them in a second pass. The AVX2 twin works in
/// chunks of 64 weights, two passes each: the exponent and the
/// Cody–Waite reduction into two stack buffers, then the polynomial and
/// the `2ⁿ` scale. One weight's exp is a long dependency chain, and the
/// split lets each pass overlap independent lanes; the arithmetic per
/// lane is unchanged.
pub fn gaussian_weights(residuals: &[f64], mu: f64, inv_two_sigma2: f64, out: &mut [f64]) {
    // The vector twins read `residuals` at every index of `out`.
    assert_eq!(residuals.len(), out.len(), "one weight per residual");
    debug_assert!(inv_two_sigma2 >= 0.0);
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::gaussian_weights(residuals, mu, inv_two_sigma2, out) },
        _ => gaussian_weights_scalar(residuals, mu, inv_two_sigma2, out),
    }
}

/// Scalar reference for [`gaussian_weights`].
pub fn gaussian_weights_scalar(residuals: &[f64], mu: f64, inv_two_sigma2: f64, out: &mut [f64]) {
    for (w, &r) in out.iter_mut().zip(residuals) {
        let d = r - mu;
        *w = exp_one(-(d * d) * inv_two_sigma2);
    }
}

// ---------------------------------------------------------------------------
// Kernel 2: phase unwrap (paper Sec. IV-A1).
// ---------------------------------------------------------------------------

const TAU: f64 = std::f64::consts::TAU;
const INV_TAU: f64 = 1.0 / std::f64::consts::TAU;

/// Unwraps a `[0, 2π)`-wrapped phase sequence in place, using `revs` as
/// scratch (resized to `phases.len()`, contents overwritten).
///
/// Three passes: (1) per-gap revolution counts
/// `rᵢ = ⌊(θᵢ − θᵢ₋₁)/2π + ½⌋` — data-parallel; (2) a scalar prefix sum
/// turning gap counts into per-sample offsets `mᵢ = mᵢ₋₁ − rᵢ` (exact
/// small integers in `f64`); (3) `θᵢ ← θᵢ + mᵢ·2π` — data-parallel.
/// The floor form reproduces the classic `while |jump| ≥ π` loop's
/// half-open `[−π, π)` normalization interval, including the `+π`
/// boundary.
pub fn phase_unwrap_in_place(phases: &mut [f64], revs: &mut Vec<f64>) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::phase_unwrap_in_place(phases, revs) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        Backend::Neon => unsafe { neon::phase_unwrap_in_place(phases, revs) },
        _ => phase_unwrap_in_place_scalar(phases, revs),
    }
}

/// Scalar reference for [`phase_unwrap_in_place`].
pub fn phase_unwrap_in_place_scalar(phases: &mut [f64], revs: &mut Vec<f64>) {
    let n = phases.len();
    revs.clear();
    revs.resize(n, 0.0);
    if n < 2 {
        return;
    }
    for i in 1..n {
        revs[i] = ((phases[i] - phases[i - 1]) * INV_TAU + 0.5).floor();
    }
    unwrap_integrate_and_apply(phases, revs);
}

/// Passes 2 + 3 of the unwrap, shared verbatim by every backend: the
/// prefix sum is inherently sequential (and exact — the counts are small
/// integers), and the scalar apply loop keeps the tail handling in one
/// place. Backends may run pass 3 with SIMD as long as each element stays
/// the same `θᵢ + mᵢ·2π` (separate mul then add, never fused).
fn unwrap_integrate_and_apply(phases: &mut [f64], revs: &mut [f64]) {
    let mut m = 0.0;
    for r in revs[1..].iter_mut() {
        m -= *r;
        *r = m;
    }
    for (p, &m) in phases.iter_mut().zip(revs.iter()) {
        *p += m * TAU;
    }
}

// ---------------------------------------------------------------------------
// Kernel 3: centered moving-average smoothing from a prefix sum.
// ---------------------------------------------------------------------------

/// Fills `out[i] = (prefix[hi] − prefix[lo]) / (hi − lo)` with the
/// centered window `[lo, hi) = [i − ⌊w/2⌋, i + ⌊w/2⌋ + (w mod 2))`
/// clamped to the sequence — exactly the spans
/// [`crate::stats::moving_average_into`] documents. `prefix` must hold
/// the running sums (`prefix[0] = 0`, `prefix.len() = out.len() + 1`);
/// `window ≥ 2`. Interior samples (where the window is unclamped) divide
/// by the constant window width and vectorize; the clamped edges stay
/// scalar.
pub fn sliding_mean_from_prefix(prefix: &[f64], window: usize, out: &mut [f64]) {
    debug_assert_eq!(prefix.len(), out.len() + 1);
    debug_assert!(window >= 2);
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::sliding_mean_from_prefix(prefix, window, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        Backend::Neon => unsafe { neon::sliding_mean_from_prefix(prefix, window, out) },
        _ => sliding_mean_from_prefix_scalar(prefix, window, out),
    }
}

/// Scalar reference for [`sliding_mean_from_prefix`].
pub fn sliding_mean_from_prefix_scalar(prefix: &[f64], window: usize, out: &mut [f64]) {
    let n = out.len();
    sliding_mean_edges(prefix, window, out, 0, n);
}

/// The fully general (clamped-window) scalar loop over `[from, to)`;
/// SIMD backends use it for the edges and any interior tail.
fn sliding_mean_edges(prefix: &[f64], window: usize, out: &mut [f64], from: usize, to: usize) {
    let n = out.len();
    let half = window / 2;
    let odd = window % 2;
    for (i, o) in out[from..to].iter_mut().enumerate() {
        let i = from + i;
        let lo = i.saturating_sub(half);
        let hi = (i + half + odd).min(n).max(lo + 1);
        *o = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
    }
}

/// The index range `[start, end)` where the centered window is unclamped
/// (width exactly `window`), so the divisor is constant.
fn sliding_mean_interior(n: usize, window: usize) -> (usize, usize) {
    let half = window / 2;
    let odd = window % 2;
    let start = half.min(n);
    let end = (n + 1).saturating_sub(half + odd).clamp(start, n);
    (start, end)
}

// ---------------------------------------------------------------------------
// Row storage: blocks of four rows, columns inside each block.
// ---------------------------------------------------------------------------

/// Where entry `c` of row `i` sits in the blocked storage of `m` rows of
/// `cols` columns, the layout the row ([`radical_rows`]), Gram
/// ([`gram_fixed`], [`gram_into`]) and residual ([`residuals_fixed`])
/// kernels share. In each whole block of four rows, column 0 of the four
/// rows comes first, then column 1, and so on: one vector load is one
/// column of four rows, row `i` in lane `i mod 4`, which is the lane
/// order every row sum uses. The `m mod 4` tail rows after the last whole
/// block stay row-major.
#[inline]
pub fn blocked_index(i: usize, c: usize, cols: usize, m: usize) -> usize {
    if i < m - m % LANES {
        (i - i % LANES) * cols + c * LANES + i % LANES
    } else {
        i * cols + c
    }
}

/// Rewrites `rows` (row-major, `cols` columns) into the blocked layout of
/// [`blocked_index`], in place: each whole block of four rows is
/// transposed, and the tail rows stay as they are.
pub fn block_rows(rows: &mut [f64], cols: usize) {
    transpose_blocks(rows, LANES, cols);
}

/// The inverse of [`block_rows`]: rewrites blocked `rows` as row-major,
/// in place.
pub fn unblock_rows(rows: &mut [f64], cols: usize) {
    transpose_blocks(rows, cols, LANES);
}

/// Transposes each whole `r·c`-value block of `rows` from a row-major
/// `r × c` matrix into the row-major `c × r` one, in place. The widths
/// the localizers solve (2–4 columns) run a copy of each block in
/// registers; other widths rotate each cycle of the permutation.
fn transpose_blocks(rows: &mut [f64], r: usize, c: usize) {
    match (r, c) {
        (LANES, 2) => transpose_fixed::<LANES, 2>(rows),
        (LANES, 3) => transpose_fixed::<LANES, 3>(rows),
        (LANES, 4) => transpose_fixed::<LANES, 4>(rows),
        (2, LANES) => transpose_fixed::<2, LANES>(rows),
        (3, LANES) => transpose_fixed::<3, LANES>(rows),
        _ if r * c > 0 => rows
            .chunks_exact_mut(r * c)
            .for_each(|b| transpose_cycles(b, r, c)),
        _ => {}
    }
}

/// [`transpose_blocks`] at a fixed shape: each block is read into a
/// `R × C` array and written back column by column.
fn transpose_fixed<const R: usize, const C: usize>(rows: &mut [f64]) {
    for b in rows.chunks_exact_mut(R * C) {
        let copy: [[f64; C]; R] = std::array::from_fn(|i| std::array::from_fn(|j| b[i * C + j]));
        for (j, out) in b.chunks_exact_mut(R).enumerate() {
            for (i, o) in out.iter_mut().enumerate() {
                *o = copy[i][j];
            }
        }
    }
}

/// Transposes one row-major `r × c` block in place with no scratch, by
/// rotating each cycle of the permutation once, from its smallest index.
fn transpose_cycles(b: &mut [f64], r: usize, c: usize) {
    let dest = |p: usize| (p % c) * r + p / c;
    for start in 1..b.len() {
        let mut p = dest(start);
        while p > start {
            p = dest(p);
        }
        if p < start {
            continue; // an earlier start already rotated this cycle
        }
        let mut carry = b[start];
        let mut p = dest(start);
        while p != start {
            std::mem::swap(&mut b[p], &mut carry);
            p = dest(p);
        }
        b[start] = carry;
    }
}

// ---------------------------------------------------------------------------
// Kernel 4: radical-line row assembly (paper Eqs. 7, 9, 12).
// ---------------------------------------------------------------------------

/// Assembles the stacked radical-line system from axis-major coordinates.
///
/// `coords` holds `k` contiguous axis slices of length `n` (axis `c` at
/// `coords[c·n .. (c+1)·n]`); `deltas` has length `n`. Pair `r`,
/// `(pair_i[r], pair_j[r])`, becomes row `r` of `design` (`k + 1`
/// columns, in the blocked layout of
/// [`blocked_index`]), exactly [`radical_row`]'s. The AVX2 twin assembles
/// four rows per step for `k = 1, 2, 3`: its gathers yield one column of
/// four rows per vector, which it stores whole into the block, never past
/// `rhs.len()·(k + 1)`. The scalar twin writes rows row-major and blocks
/// them in place ([`block_rows`]), so every backend produces
/// bit-identical systems.
///
/// Indices are `i32` so the x86 path can feed them straight into vector
/// gathers.
///
/// # Panics
///
/// Panics when a slice length disagrees with `n`, `k` and `rhs.len()`,
/// or a pair index is outside `0..n`: the vector twin gathers and stores
/// by them unchecked. Callers that need a typed error validate first.
#[allow(clippy::too_many_arguments)]
pub fn radical_rows(
    coords: &[f64],
    n: usize,
    k: usize,
    deltas: &[f64],
    pair_i: &[i32],
    pair_j: &[i32],
    design: &mut [f64],
    rhs: &mut [f64],
) {
    assert_eq!(coords.len(), n * k, "k axis lanes of n samples");
    assert_eq!(deltas.len(), n, "one delta per sample");
    assert_eq!(pair_i.len(), rhs.len(), "one pair per row");
    assert_eq!(pair_j.len(), rhs.len(), "one pair per row");
    assert_eq!(design.len(), rhs.len() * (k + 1), "k + 1 columns per row");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it,
        // the lengths are asserted above, and the twin gathers only by
        // indices clamped into `0..n`.
        Backend::Avx2 => unsafe {
            avx2::radical_rows(coords, n, k, deltas, pair_i, pair_j, design, rhs)
        },
        // The gather-heavy inner loop has no NEON win (no gather
        // instruction); aarch64 runs the scalar reference.
        _ => radical_rows_scalar(coords, n, k, deltas, pair_i, pair_j, design, rhs),
    }
}

/// Scalar reference for [`radical_rows`].
#[allow(clippy::too_many_arguments)]
pub fn radical_rows_scalar(
    coords: &[f64],
    n: usize,
    k: usize,
    deltas: &[f64],
    pair_i: &[i32],
    pair_j: &[i32],
    design: &mut [f64],
    rhs: &mut [f64],
) {
    radical_rows_from(coords, n, k, deltas, pair_i, pair_j, design, rhs, 0);
}

/// The scalar rows `from..` (`from` a multiple of four): written
/// row-major, then their whole blocks transposed in place into the
/// blocked layout. SIMD backends use it for `k > 3` and the tail, which
/// stays row-major.
#[allow(clippy::too_many_arguments)]
fn radical_rows_from(
    coords: &[f64],
    n: usize,
    k: usize,
    deltas: &[f64],
    pair_i: &[i32],
    pair_j: &[i32],
    design: &mut [f64],
    rhs: &mut [f64],
    from: usize,
) {
    debug_assert_eq!(from % LANES, 0);
    let stride = k + 1;
    for row in from..rhs.len() {
        let i = pair_i[row] as usize;
        let j = pair_j[row] as usize;
        let ends = (0..k).map(|c| (coords[c * n + i], coords[c * n + j]));
        let out = &mut design[row * stride..row * stride + stride];
        rhs[row] = radical_row(ends, deltas[i], deltas[j], out);
    }
    block_rows(&mut design[from * stride..], stride);
}

/// One radical-line row (paper Eqs. 7, 9, 12) for the pair `(i, j)`:
/// `ends` yields the endpoints' coordinates `(cᵢ, cⱼ)` axis by axis, and
/// `out` (`k + 1` entries for `k` axes) receives `2(cᵢ − cⱼ)` per axis,
/// then `2(Δdᵢ − Δdⱼ)`. Returns the right-hand side
/// `κ − (Δdᵢ² − Δdⱼ²)` with `κ = Σ_c (cᵢ² − cⱼ²)` added axis by axis.
///
/// This is the arithmetic of every row the program builds: the row
/// kernel [`radical_rows`] runs it per row, and its SIMD twin repeats it
/// per lane.
#[inline]
pub fn radical_row(
    ends: impl IntoIterator<Item = (f64, f64)>,
    di: f64,
    dj: f64,
    out: &mut [f64],
) -> f64 {
    let (d_col, axes) = out.split_last_mut().expect("a row ends in its d_r column");
    let mut kappa = 0.0;
    for (o, (ci, cj)) in axes.iter_mut().zip(ends) {
        *o = 2.0 * (ci - cj);
        kappa += ci * ci - cj * cj;
    }
    *d_col = 2.0 * (di - dj);
    kappa - (di * di - dj * dj)
}

// ---------------------------------------------------------------------------
// Kernel 5: fixed-width weighted Gram accumulation (NormalEq rebuild).
// ---------------------------------------------------------------------------

/// Sums `Σ wᵢ·aᵢaᵢᵀ` (lower triangle; upper entries stay 0) and
/// `Σ wᵢ·aᵢ·kᵢ` over every stored row; `rows` is in the blocked layout
/// of [`blocked_index`].
/// `weights[i]` is the stored weight of row `i`; each term is
/// `(wᵢ·aᵢ[r])·aᵢ[c]` or `(wᵢ·aᵢ[r])·kᵢ`, with `wᵢ·aᵢ[r]` rounded and
/// the second product fused into its partial sum
/// (`wa.mul_add(aᵢ[c], sum)`).
///
/// Every entry is summed in [`sum_sumsq`]'s lane order: row `i` of every
/// whole block of four adds into partial sum `i mod 4`, the partials
/// combine as `(l0 + l1) + (l2 + l3)`, and the tail rows are added after
/// that. The AVX2 twin loads each column of a block as one vector (row
/// `i` in lane `i mod 4`), so its one accumulator per entry holds exactly
/// the scalar twin's four partial sums; [`gram_into`] sums the same terms
/// in the same order at any width.
pub fn gram_fixed<const N: usize>(
    rows: &[f64],
    rhs: &[f64],
    weights: &[f64],
) -> ([[f64; N]; N], [f64; N]) {
    // The vector twin reads row `i` unchecked for every `rhs[i]`.
    assert_eq!(
        rows.len(),
        rhs.len() * N,
        "flat row storage is rhs.len() * N"
    );
    assert_eq!(weights.len(), rhs.len(), "one weight per row");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it,
        // and the slice lengths are asserted above.
        Backend::Avx2 if N >= 2 && N <= 4 => unsafe { avx2::gram_fixed::<N>(rows, rhs, weights) },
        _ => gram_fixed_scalar::<N>(rows, rhs, weights),
    }
}

/// Scalar reference for [`gram_fixed`].
pub fn gram_fixed_scalar<const N: usize>(
    rows: &[f64],
    rhs: &[f64],
    weights: &[f64],
) -> ([[f64; N]; N], [f64; N]) {
    let mut lane_gram = [[[0.0; N]; N]; LANES];
    let mut lane_atk = [[0.0; N]; LANES];
    let (mut gram, mut atk) = ([[0.0; N]; N], [0.0; N]);
    gram_lanes(
        rows,
        rhs,
        weights,
        N,
        [
            lane_gram.as_flattened_mut().as_flattened_mut(),
            lane_atk.as_flattened_mut(),
        ],
        gram.as_flattened_mut(),
        &mut atk,
    );
    (gram, atk)
}

/// [`gram_fixed`]'s sums at a runtime width `cols` over the same blocked
/// rows, in the same order, written into `gram` (`cols × cols`
/// row-major, lower triangle; the rest is zeroed) and `atk` (`cols`).
/// `lanes` is scratch for the partial sums. The AVX2 backend runs the
/// scalar body compiled with FMA enabled, so each `mul_add` is one
/// `vfmadd` instruction instead of a libm `fma` call; the arithmetic is
/// the same, so the results are bit-identical.
///
/// # Panics
///
/// Panics when the slice lengths disagree with `cols` and `rhs.len()`.
pub fn gram_into(
    rows: &[f64],
    rhs: &[f64],
    weights: &[f64],
    cols: usize,
    lanes: &mut Vec<f64>,
    gram: &mut [f64],
    atk: &mut [f64],
) {
    assert_eq!(
        rows.len(),
        rhs.len() * cols,
        "flat row storage is rhs.len() * cols"
    );
    assert_eq!(gram.len(), cols * cols, "gram is cols × cols");
    assert_eq!(atk.len(), cols, "atk has cols entries");
    lanes.clear();
    lanes.resize(LANES * (cols * cols + cols), 0.0);
    let (lane_gram, lane_atk) = lanes.split_at_mut(LANES * cols * cols);
    let lanes = [lane_gram, lane_atk];
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports AVX2
        // and FMA; the twin runs the same safe body.
        Backend::Avx2 => unsafe { avx2::gram_into(rows, rhs, weights, cols, lanes, gram, atk) },
        _ => gram_lanes(rows, rhs, weights, cols, lanes, gram, atk),
    }
}

/// The scalar Gram sums at width `cols` over blocked `rows`: row `l` of
/// every whole block into the zeroed partial sums `l` of `lanes`
/// (`[gram, atk]`, four consecutive copies of each), combined into
/// `gram`/`atk`, then the row-major tail rows. Always inlined, so the
/// FMA-enabled AVX2 twin of [`gram_into`] compiles its own copy with
/// `vfmadd` instructions.
#[inline(always)]
fn gram_lanes(
    rows: &[f64],
    rhs: &[f64],
    weights: &[f64],
    cols: usize,
    lanes: [&mut [f64]; 2],
    gram: &mut [f64],
    atk: &mut [f64],
) {
    assert_eq!(weights.len(), rhs.len(), "one weight per row");
    let [lane_gram, lane_atk] = lanes;
    let whole = rhs.len() - rhs.len() % LANES;
    let blocks = rows[..whole * cols]
        .chunks_exact(LANES * cols)
        .zip(rhs.chunks_exact(LANES))
        .zip(weights.chunks_exact(LANES));
    for ((b, k), w) in blocks {
        let parts = lane_gram.chunks_exact_mut(cols * cols);
        for (l, (g, t)) in parts.zip(lane_atk.chunks_exact_mut(cols)).enumerate() {
            gram_add_row(g, t, |c| b[c * LANES + l], k[l], w[l]);
        }
    }
    combine_lanes(lane_gram, gram);
    combine_lanes(lane_atk, atk);
    let tail = rows[whole * cols..].chunks_exact(cols).zip(&rhs[whole..]);
    for ((a, &k), &w) in tail.zip(&weights[whole..]) {
        gram_add_row(gram, atk, |c| a[c], k, w);
    }
}

/// Adds one row's terms into a set of sums: the lower triangle of
/// `w·a·aᵀ` into `gram` (`atk.len()` square, row-major) and `w·a·k` into
/// `atk`, each product fused into its sum. `a(c)` is the row's entry in
/// column `c`.
#[inline(always)]
fn gram_add_row(gram: &mut [f64], atk: &mut [f64], a: impl Fn(usize) -> f64, k: f64, w: f64) {
    let cols = atk.len();
    for (r, t) in atk.iter_mut().enumerate() {
        let wa = w * a(r);
        for (c, g) in gram[r * cols..=r * cols + r].iter_mut().enumerate() {
            *g = wa.mul_add(a(c), *g);
        }
        *t = wa.mul_add(k, *t);
    }
}

/// Combines four partial sums as `(l0 + l1) + (l2 + l3)`.
#[inline]
fn combine4([l0, l1, l2, l3]: [f64; LANES]) -> f64 {
    (l0 + l1) + (l2 + l3)
}

/// [`combine4`] entry by entry: `parts` holds four consecutive copies of
/// `out`'s entries, and `out[e]` combines entry `e` of each.
#[inline]
fn combine_lanes(parts: &[f64], out: &mut [f64]) {
    let len = out.len();
    for (e, o) in out.iter_mut().enumerate() {
        *o = combine4([0, 1, 2, 3].map(|l| parts[l * len + e]));
    }
}

// ---------------------------------------------------------------------------
// Kernel 6: IRLS residual pass with fused (Σr, Σr²).
// ---------------------------------------------------------------------------

/// Partial sums in the interleaved reduction of [`sum_sumsq`].
const LANES: usize = 4;

/// Two reductions side by side, each as four interleaved partial sums:
/// lane `l` holds the rows `i ≡ l (mod 4)` of the whole blocks seen so
/// far. Blocks are added whole, so every partial sum is addressed by a
/// constant lane and stays in a register.
#[derive(Default)]
struct LaneSums {
    a: [f64; LANES],
    b: [f64; LANES],
}

impl LaneSums {
    /// Adds one whole block's two terms: row `l` of the block into
    /// partial sum `l`.
    #[inline]
    fn add_block(&mut self, a: [f64; LANES], b: [f64; LANES]) {
        for l in 0..LANES {
            self.a[l] += a[l];
            self.b[l] += b[l];
        }
    }

    /// Combines the lanes as `(l0 + l1) + (l2 + l3)`, then adds the
    /// `tail` rows' terms one at a time.
    #[inline]
    fn finish(&self, tail: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
        let mut a = combine4(self.a);
        let mut b = combine4(self.b);
        for (ta, tb) in tail {
            a += ta;
            b += tb;
        }
        (a, b)
    }
}

/// `(Σr, Σr²)` over `rs` in the one summation order every IRLS residual
/// statistic uses: row `i` of every whole block of four adds into
/// partial sum `i mod 4`, the partials combine as `(l0 + l1) + (l2 + l3)`,
/// and the tail rows are added after that. Four independent add chains
/// instead of one, and exactly what [`residuals_fixed`] fuses into its
/// residual pass on every backend.
pub fn sum_sumsq(rs: &[f64]) -> (f64, f64) {
    let blocks = rs.chunks_exact(LANES);
    let tail = blocks.remainder();
    let mut lanes = LaneSums::default();
    for r in blocks.map(block) {
        lanes.add_block(r, r.map(|r| r * r));
    }
    lanes.finish(tail.iter().map(|&r| (r, r * r)))
}

/// A whole block of [`LANES`] values as an array.
#[inline]
fn block(values: &[f64]) -> [f64; LANES] {
    values.try_into().expect("a whole block")
}

/// `(Σw, Σw·r²)` over paired weights and residuals (`(w·r)·r` per row),
/// in [`sum_sumsq`]'s lane order: the σ̂ inputs of an IRLS run, summed in
/// one pass with four independent add chains per sum.
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn weighted_sums(weights: &[f64], residuals: &[f64]) -> (f64, f64) {
    assert_eq!(weights.len(), residuals.len(), "one weight per residual");
    let (wb, rb) = (weights.chunks_exact(LANES), residuals.chunks_exact(LANES));
    let tail = wb.remainder().iter().zip(rb.remainder());
    let mut lanes = LaneSums::default();
    for (w, r) in wb.map(block).zip(rb.map(block)) {
        lanes.add_block(w, std::array::from_fn(|l| w[l] * r[l] * r[l]));
    }
    lanes.finish(tail.map(|(&w, &r)| (w, w * r * r)))
}

/// Residuals `rᵢ = aᵢ·x − kᵢ` of every row of the blocked `rows`
/// ([`blocked_index`]) into `out` (`out.len() == rhs.len()`), returning
/// `(Σr, Σr²)` over them in [`sum_sumsq`]'s order. Each dot product adds
/// its columns left to right, every column after the first fused into
/// the running sum: `fma(a₃, x₃, fma(a₂, x₂, fma(a₁, x₁, a₀x₀)))`, then
/// `− kᵢ`. `Σr²` squares each residual before adding it, as
/// [`sum_sumsq`] does.
///
/// The AVX2 twin computes four rows per vector (row `i` in lane
/// `i mod 4`, each column one load from the block) and keeps the four
/// partial sums in one register each for `Σr` and `Σr²`, so the scalar
/// twin's interleaved order is its natural one. `1 ≤ N`; the vector path
/// covers `2 ≤ N ≤ 4`.
pub fn residuals_fixed<const N: usize>(
    rows: &[f64],
    rhs: &[f64],
    x: &[f64; N],
    out: &mut [f64],
) -> (f64, f64) {
    // The vector twin reads and writes by these lengths unchecked.
    assert_eq!(
        rows.len(),
        rhs.len() * N,
        "flat row storage is rhs.len() * N"
    );
    assert_eq!(out.len(), rhs.len(), "one residual per row");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it,
        // and the lengths the twin relies on are asserted above.
        Backend::Avx2 if N >= 2 && N <= 4 => unsafe {
            avx2::residuals_fixed::<N>(rows, rhs, x, out)
        },
        _ => residuals_fixed_scalar::<N>(rows, rhs, x, out),
    }
}

/// Scalar reference for [`residuals_fixed`].
pub fn residuals_fixed_scalar<const N: usize>(
    rows: &[f64],
    rhs: &[f64],
    x: &[f64; N],
    out: &mut [f64],
) -> (f64, f64) {
    let whole = rhs.len() - rhs.len() % LANES;
    let mut lanes = LaneSums::default();
    let blocks = out[..whole]
        .chunks_exact_mut(LANES)
        .zip(rows.chunks_exact(LANES * N))
        .zip(rhs.chunks_exact(LANES));
    for ((o, b), k) in blocks {
        let r: [f64; LANES] = std::array::from_fn(|l| {
            let a: [f64; N] = std::array::from_fn(|c| b[c * LANES + l]);
            residual::<N>(&a, x, k[l])
        });
        o.copy_from_slice(&r);
        lanes.add_block(r, r.map(|r| r * r));
    }
    residual_tail::<N>(rows, rhs, x, out, whole);
    lanes.finish(out[whole..].iter().map(|&r| (r, r * r)))
}

/// `a·x − k` for one row, columns fused into the sum left to right.
#[inline]
fn residual<const N: usize>(a: &[f64], x: &[f64; N], k: f64) -> f64 {
    let mut dot = a[0] * x[0];
    for c in 1..N {
        dot = a[c].mul_add(x[c], dot);
    }
    dot - k
}

/// The residuals of the row-major tail rows `from..`, one at a time;
/// every backend's tail.
fn residual_tail<const N: usize>(
    rows: &[f64],
    rhs: &[f64],
    x: &[f64; N],
    out: &mut [f64],
    from: usize,
) {
    for (i, o) in out.iter_mut().enumerate().skip(from) {
        *o = residual::<N>(&rows[i * N..(i + 1) * N], x, rhs[i]);
    }
}

// ---------------------------------------------------------------------------
// Kernel 8: the circular resultant (Σ sin α, Σ cos α) (paper Eq. 17).
// ---------------------------------------------------------------------------

/// π/2 in three parts, fdlibm's `pio2_1`, `pio2_2` and `pio2_2t`: the
/// first two carry at most 32 significant bits, so `n·PIO2_1` and
/// `n·PIO2_2` are exact for `|n| < 2²⁰`.
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000);
const PIO2_2T: f64 = f64::from_bits(0x3BA3_198A_2E03_7073);
/// fdlibm's `__kernel_sin` (S) and `__kernel_cos` (C) minimax
/// coefficients on `|r| ≤ π/4`.
#[allow(clippy::excessive_precision)]
const SIN_C: [f64; 6] = [
    -1.666_666_666_666_663_243_48e-1,
    8.333_333_333_322_489_461_24e-3,
    -1.984_126_982_985_794_931_34e-4,
    2.755_731_370_707_006_767_89e-6,
    -2.505_076_025_340_686_341_95e-8,
    1.589_690_995_211_550_102_21e-10,
];
#[allow(clippy::excessive_precision)]
const COS_C: [f64; 6] = [
    4.166_666_666_666_660_190_37e-2,
    -1.388_888_888_887_410_957_49e-3,
    2.480_158_728_947_672_941_78e-5,
    -2.755_731_435_139_066_330_35e-7,
    2.087_572_321_298_174_827_90e-9,
    -1.135_964_755_778_819_482_65e-11,
];
/// The largest `|α|` the polynomial path reduces; `|n| ≤ 2²⁰·2/π < 2²⁰`
/// keeps the reduction's products exact. Larger (and non-finite) angles
/// go to libm on every backend.
pub const SIN_COS_MAX: f64 = 1_048_576.0;
/// 4π, the factor of the round-trip phase `4π·d/λ`.
const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

/// `(sin x, cos x)` as the circular-resultant kernel evaluates them:
/// the scalar body both twins share lane for lane.
///
/// For `|x| ≤` [`SIN_COS_MAX`]: a Cody–Waite reduction
/// `x = n·π/2 + r` (`|r| ≲ π/4`, the shift trick rounds `x·2/π` to `n`,
/// like [`exp_non_positive`] reduces by ln 2), fdlibm's sin and cos
/// polynomials both evaluated on `r`, and a quadrant select on `n mod 4`
/// (swap on odd `n`, sign flips as bit XORs). Beyond it, or for NaN and
/// ±∞, libm's `sin`/`cos`. The rounding to `n` and the polynomials'
/// multiply-adds are fused ([`f64::mul_add`]). The three-part reduction
/// (its first two products are exact, the third is below an ulp of `r`)
/// and the cosine's final `w + ((1 − w − hz) + z·pc)` correction round
/// step by step: fusing the correction moved no value in 2·10⁷ random
/// angles. Within the
/// polynomial domain each value is within 2 ULP of libm's (the accuracy
/// test in `simd_parity.rs`; the largest absolute difference it sees is
/// 2⁻⁵³).
#[inline]
pub fn sin_cos(x: f64) -> (f64, f64) {
    if x.is_nan() || x.abs() > SIN_COS_MAX {
        return (x.sin(), x.cos());
    }
    let t = x.mul_add(std::f64::consts::FRAC_2_PI, SHIFT);
    let n = t - SHIFT;
    let r = ((x - n * PIO2_1) - n * PIO2_2) - n * PIO2_2T;
    let z = r * r;
    let sin_r = (z * r).mul_add(horner(z, &SIN_C), r);
    let pc = z * horner(z, &COS_C);
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let cos_r = w + (((1.0 - w) - hz) + z * pc);
    // n mod 4 sits in t's low mantissa bits (two's complement).
    let q = t.to_bits();
    let (s, c) = if q & 1 == 0 {
        (sin_r, cos_r)
    } else {
        (cos_r, sin_r)
    };
    (
        f64::from_bits(s.to_bits() ^ ((q & 2) << 62)),
        f64::from_bits(c.to_bits() ^ ((q.wrapping_add(1) & 2) << 62)),
    )
}

/// The phase offset `θ − 4π·d/λ` of one read at `p` against `center`,
/// with `d` computed as `Point3::distance` does:
/// `sqrt(x·x + y·y + z·z)` of `center − p`.
#[inline]
pub fn phase_offset(p: [f64; 3], theta: f64, center: [f64; 3], wavelength: f64) -> f64 {
    let (x, y, z) = (center[0] - p[0], center[1] - p[1], center[2] - p[2]);
    let d = (x * x + y * y + z * z).sqrt();
    theta - FOUR_PI * d / wavelength
}

/// The resultant `(Σ sin aᵢ, Σ cos aᵢ)` of `angles`, each pair from
/// [`sin_cos`], summed in [`sum_sumsq`]'s lane order: row `i` of every
/// whole block of four into partial sum `i mod 4`, the partials combined
/// as `(l0 + l1) + (l2 + l3)`, the tail rows added after that. The AVX2
/// twin evaluates four angles per vector, row `i` in lane `i mod 4`, so
/// its two accumulators hold exactly the scalar twin's partial sums;
/// NEON runs the scalar twin.
pub fn sin_cos_sums(angles: &[f64]) -> (f64, f64) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::sin_cos_sums(angles) },
        _ => sin_cos_sums_scalar(angles),
    }
}

/// Scalar reference for [`sin_cos_sums`].
pub fn sin_cos_sums_scalar(angles: &[f64]) -> (f64, f64) {
    resultant_from(angles.len(), 0, LaneSums::default(), |i| angles[i])
}

/// [`sin_cos_sums`] of the phase offsets
/// `αᵢ = θᵢ − 4π·|center − pᵢ|/λ` of `reads` ([`phase_offset`]'s
/// arithmetic), where `read` yields each read's position `pᵢ` and phase
/// `θᵢ`: the one pass of the paper's Eq. 17 offset fit, with no buffer
/// of offsets. The AVX2 twin gathers four reads' fields into lanes and
/// computes the distance, the offset and both sums per lane, in the
/// same order; NEON runs the scalar twin.
pub fn phase_offset_sums<T>(
    reads: &[T],
    read: impl Fn(&T) -> ([f64; 3], f64),
    center: [f64; 3],
    wavelength: f64,
) -> (f64, f64) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::phase_offset_sums(reads, read, center, wavelength) },
        _ => phase_offset_sums_scalar(reads, read, center, wavelength),
    }
}

/// Scalar reference for [`phase_offset_sums`].
pub fn phase_offset_sums_scalar<T>(
    reads: &[T],
    read: impl Fn(&T) -> ([f64; 3], f64),
    center: [f64; 3],
    wavelength: f64,
) -> (f64, f64) {
    let alpha = |i: usize| {
        let (p, theta) = read(&reads[i]);
        phase_offset(p, theta, center, wavelength)
    };
    resultant_from(reads.len(), 0, LaneSums::default(), alpha)
}

/// Folds the angles `alpha(i)` for `i` in `from..len` into `lanes`
/// (rows of whole blocks into partial sum `i mod 4`, `from` a multiple
/// of four), then finishes with the tail rows: the lane order every
/// backend of [`sin_cos_sums`] and [`phase_offset_sums`] ends on.
#[inline]
fn resultant_from(
    len: usize,
    from: usize,
    mut lanes: LaneSums,
    alpha: impl Fn(usize) -> f64,
) -> (f64, f64) {
    let whole = len - len % LANES;
    for i in (from..whole).step_by(LANES) {
        let t: [(f64, f64); LANES] = std::array::from_fn(|l| sin_cos(alpha(i + l)));
        lanes.add_block(t.map(|t| t.0), t.map(|t| t.1));
    }
    lanes.finish((whole..len).map(|i| sin_cos(alpha(i))))
}

// ---------------------------------------------------------------------------
// AVX2 twins (x86_64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Four lanes of [`super::horner`]: one `fmadd` per step.
    ///
    /// # Safety
    /// AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn horner4(x: __m256d, c: &[f64]) -> __m256d {
        let (&top, rest) = c.split_last().expect("a polynomial has a coefficient");
        let mut p = _mm256_set1_pd(top);
        for &k in rest.iter().rev() {
            p = _mm256_fmadd_pd(x, p, _mm256_set1_pd(k));
        }
        p
    }

    /// The first half of [`exp4`]: the clamp and the Cody–Waite
    /// reduction, returning the reduced argument `r` and the shift-trick
    /// sum `t` whose low mantissa bits hold `n`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_reduce4(x: __m256d) -> (__m256d, __m256d) {
        let set = _mm256_set1_pd;
        let v = _mm256_max_pd(x, set(-690.0));
        let shift = set(SHIFT);
        let t = _mm256_fmadd_pd(v, set(std::f64::consts::LOG2_E), shift);
        let nv = _mm256_sub_pd(t, shift);
        let r = _mm256_sub_pd(
            _mm256_sub_pd(v, _mm256_mul_pd(nv, set(LN2_HI))),
            _mm256_mul_pd(nv, set(LN2_LO)),
        );
        (r, t)
    }

    /// The second half of [`exp4`]: the polynomial in `r` and the exact
    /// `2ⁿ` scale from `t`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_finish4(r: __m256d, t: __m256d) -> __m256d {
        let p = horner4(r, &EXP_C);
        let scale = _mm256_castsi256_pd(_mm256_slli_epi64(
            _mm256_add_epi64(_mm256_castpd_si256(t), _mm256_set1_epi64x(1023)),
            52,
        ));
        _mm256_mul_pd(p, scale)
    }

    /// Four lanes of [`super::exp_one`], with `fmadd` where it calls
    /// `mul_add`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(x: __m256d) -> __m256d {
        let (r, t) = exp_reduce4(x);
        exp_finish4(r, t)
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_non_positive(xs: &mut [f64]) {
        let n = xs.len();
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(xs.as_ptr().add(i));
            _mm256_storeu_pd(xs.as_mut_ptr().add(i), exp4(x));
            i += 4;
        }
        super::exp_non_positive_scalar(&mut xs[i..]);
    }

    /// Weights per pass of [`gaussian_weights`]: the reduced arguments
    /// and shift sums of one chunk fit in two 512-byte stack buffers.
    const CHUNK: usize = 64;

    /// [`exp4`] of each exponent in two passes per chunk of [`CHUNK`]
    /// weights: the exponent and the reduction into `r` and `t`, then the
    /// polynomial and the scale. One weight's exp is a long dependency
    /// chain; split in two, each pass has only independent lanes to
    /// overlap. The arithmetic per lane is `exp4`'s.
    ///
    /// # Safety
    /// Caller must have verified AVX2 and FMA support and
    /// `out.len() == residuals.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gaussian_weights(
        residuals: &[f64],
        mu: f64,
        inv_two_sigma2: f64,
        out: &mut [f64],
    ) {
        let n = out.len();
        let whole = n - n % LANES;
        let muv = _mm256_set1_pd(mu);
        let inv = _mm256_set1_pd(inv_two_sigma2);
        // XOR with −0.0 flips the sign bit: the scalar `-(d * d)`.
        let sign = _mm256_set1_pd(-0.0);
        let (mut rs, mut ts) = ([0.0; CHUNK], [0.0; CHUNK]);
        for from in (0..whole).step_by(CHUNK) {
            let len = CHUNK.min(whole - from);
            for i in (0..len).step_by(LANES) {
                let d = _mm256_sub_pd(_mm256_loadu_pd(residuals.as_ptr().add(from + i)), muv);
                let x = _mm256_mul_pd(_mm256_xor_pd(_mm256_mul_pd(d, d), sign), inv);
                let (r, t) = exp_reduce4(x);
                _mm256_storeu_pd(rs.as_mut_ptr().add(i), r);
                _mm256_storeu_pd(ts.as_mut_ptr().add(i), t);
            }
            for i in (0..len).step_by(LANES) {
                let r = _mm256_loadu_pd(rs.as_ptr().add(i));
                let t = _mm256_loadu_pd(ts.as_ptr().add(i));
                _mm256_storeu_pd(out.as_mut_ptr().add(from + i), exp_finish4(r, t));
            }
        }
        let (tail, out_tail) = (&residuals[whole..], &mut out[whole..]);
        super::gaussian_weights_scalar(tail, mu, inv_two_sigma2, out_tail);
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA support; `2 ≤ N ≤ 4`,
    /// `rows.len() == rhs.len()·N` and `out.len() == rhs.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn residuals_fixed<const N: usize>(
        rows: &[f64],
        rhs: &[f64],
        x: &[f64; N],
        out: &mut [f64],
    ) -> (f64, f64) {
        let whole = rhs.len() - rhs.len() % LANES;
        let mut xv = [_mm256_setzero_pd(); N];
        for (v, &c) in xv.iter_mut().zip(x) {
            *v = _mm256_set1_pd(c);
        }
        // Lane l of `sum`/`sumsq` is the scalar twin's partial sum l.
        let mut sum = _mm256_setzero_pd();
        let mut sumsq = _mm256_setzero_pd();
        let mut i = 0;
        while i < whole {
            // Column c of the block's four rows is one load, row `i` in
            // lane `i mod 4`; each lane fuses its terms left to right
            // like [`super::residual`].
            let base = rows.as_ptr().add(i * N);
            let mut dot = _mm256_mul_pd(_mm256_loadu_pd(base), xv[0]);
            for (c, &xc) in xv.iter().enumerate().skip(1) {
                dot = _mm256_fmadd_pd(_mm256_loadu_pd(base.add(c * LANES)), xc, dot);
            }
            let r = _mm256_sub_pd(dot, _mm256_loadu_pd(rhs.as_ptr().add(i)));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), r);
            sum = _mm256_add_pd(sum, r);
            sumsq = _mm256_add_pd(sumsq, _mm256_mul_pd(r, r));
            i += LANES;
        }
        let mut lanes = LaneSums::default();
        _mm256_storeu_pd(lanes.a.as_mut_ptr(), sum);
        _mm256_storeu_pd(lanes.b.as_mut_ptr(), sumsq);
        super::residual_tail::<N>(rows, rhs, x, out, whole);
        lanes.finish(out[whole..].iter().map(|&r| (r, r * r)))
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn phase_unwrap_in_place(phases: &mut [f64], revs: &mut Vec<f64>) {
        let n = phases.len();
        revs.clear();
        revs.resize(n, 0.0);
        if n < 2 {
            return;
        }
        let inv_tau = _mm256_set1_pd(INV_TAU);
        let half = _mm256_set1_pd(0.5);
        let mut i = 1;
        while i + 4 <= n {
            let cur = _mm256_loadu_pd(phases.as_ptr().add(i));
            let prev = _mm256_loadu_pd(phases.as_ptr().add(i - 1));
            let r = _mm256_floor_pd(_mm256_add_pd(
                _mm256_mul_pd(_mm256_sub_pd(cur, prev), inv_tau),
                half,
            ));
            _mm256_storeu_pd(revs.as_mut_ptr().add(i), r);
            i += 4;
        }
        while i < n {
            revs[i] = ((phases[i] - phases[i - 1]) * INV_TAU + 0.5).floor();
            i += 1;
        }
        // Pass 2 stays scalar (sequential dependency); pass 3 is the
        // elementwise `θᵢ + mᵢ·2π` apply, shared with the scalar twin.
        super::unwrap_integrate_and_apply(phases, revs);
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sliding_mean_from_prefix(prefix: &[f64], window: usize, out: &mut [f64]) {
        let n = out.len();
        let (start, end) = super::sliding_mean_interior(n, window);
        super::sliding_mean_edges(prefix, window, out, 0, start);
        let half = window / 2;
        let odd = window % 2;
        let inv = _mm256_set1_pd(window as f64);
        let mut i = start;
        while i + 4 <= end {
            let hi = _mm256_loadu_pd(prefix.as_ptr().add(i + half + odd));
            let lo = _mm256_loadu_pd(prefix.as_ptr().add(i - half));
            let mean = _mm256_div_pd(_mm256_sub_pd(hi, lo), inv);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), mean);
            i += 4;
        }
        super::sliding_mean_edges(prefix, window, out, i, n);
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA support and the slice
    /// lengths [`super::radical_rows`] asserts.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn radical_rows(
        coords: &[f64],
        n: usize,
        k: usize,
        deltas: &[f64],
        pair_i: &[i32],
        pair_j: &[i32],
        design: &mut [f64],
        rhs: &mut [f64],
    ) {
        let whole = match k {
            1 => radical_blocks::<1, 2>(coords, n, deltas, pair_i, pair_j, design, rhs),
            2 => radical_blocks::<2, 3>(coords, n, deltas, pair_i, pair_j, design, rhs),
            3 => radical_blocks::<3, 4>(coords, n, deltas, pair_i, pair_j, design, rhs),
            _ => 0,
        };
        super::radical_rows_from(coords, n, k, deltas, pair_i, pair_j, design, rhs, whole);
    }

    /// The whole blocks of four rows of [`radical_rows`] for `K` axes
    /// (`C = K + 1` columns), each lane repeating [`super::radical_row`]
    /// and each gathered column stored whole into its block; returns the
    /// number of rows written.
    ///
    /// # Safety
    /// AVX2 and FMA, the slice lengths [`super::radical_rows`] asserts,
    /// `1 ≤ K ≤ 3` and `C = K + 1`. Pair indices need not be in bounds:
    /// the gathers read only clamped ones, and any out-of-bounds index
    /// panics.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn radical_blocks<const K: usize, const C: usize>(
        coords: &[f64],
        n: usize,
        deltas: &[f64],
        pair_i: &[i32],
        pair_j: &[i32],
        design: &mut [f64],
        rhs: &mut [f64],
    ) -> usize {
        let whole = rhs.len() - rhs.len() % LANES;
        if whole == 0 {
            return 0;
        }
        assert!(n > 0, "pair index out of bounds");
        // The gathers use each index clamped to `last` (read as u32, so a
        // negative one clamps too) and never leave the slices; a clamp
        // that changed an index fails the check after the loop.
        let last = _mm_set1_epi32(n.saturating_sub(1).min(i32::MAX as usize) as i32);
        let mut in_bounds = _mm_set1_epi32(-1);
        let two = _mm256_set1_pd(2.0);
        let mut row = 0;
        while row < whole {
            let ii_raw = _mm_loadu_si128(pair_i.as_ptr().add(row).cast());
            let jj_raw = _mm_loadu_si128(pair_j.as_ptr().add(row).cast());
            let ii = _mm_min_epu32(ii_raw, last);
            let jj = _mm_min_epu32(jj_raw, last);
            let same = _mm_and_si128(_mm_cmpeq_epi32(ii, ii_raw), _mm_cmpeq_epi32(jj, jj_raw));
            in_bounds = _mm_and_si128(in_bounds, same);
            // Column c of the block's four rows is one store.
            let block = design.as_mut_ptr().add(row * C);
            let mut kappa = _mm256_setzero_pd();
            for c in 0..K {
                let axis = coords.as_ptr().add(c * n);
                let ci = _mm256_i32gather_pd::<8>(axis, ii);
                let cj = _mm256_i32gather_pd::<8>(axis, jj);
                let col = _mm256_mul_pd(two, _mm256_sub_pd(ci, cj));
                _mm256_storeu_pd(block.add(c * LANES), col);
                let sq = _mm256_sub_pd(_mm256_mul_pd(ci, ci), _mm256_mul_pd(cj, cj));
                kappa = _mm256_add_pd(kappa, sq);
            }
            let di = _mm256_i32gather_pd::<8>(deltas.as_ptr(), ii);
            let dj = _mm256_i32gather_pd::<8>(deltas.as_ptr(), jj);
            let d_col = _mm256_mul_pd(two, _mm256_sub_pd(di, dj));
            _mm256_storeu_pd(block.add(K * LANES), d_col);
            let dsq = _mm256_sub_pd(_mm256_mul_pd(di, di), _mm256_mul_pd(dj, dj));
            _mm256_storeu_pd(rhs.as_mut_ptr().add(row), _mm256_sub_pd(kappa, dsq));
            row += LANES;
        }
        assert!(
            _mm_movemask_epi8(in_bounds) == 0xFFFF,
            "pair index out of bounds"
        );
        whole
    }

    /// [`super::gram_lanes`], the body of [`super::gram_into`], compiled
    /// with FMA enabled: each `mul_add` becomes one `vfmadd` instead of a
    /// libm `fma` call, with the same rounding.
    ///
    /// # Safety
    /// Caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gram_into(
        rows: &[f64],
        rhs: &[f64],
        weights: &[f64],
        cols: usize,
        lanes: [&mut [f64]; 2],
        gram: &mut [f64],
        atk: &mut [f64],
    ) {
        super::gram_lanes(rows, rhs, weights, cols, lanes, gram, atk);
    }

    /// Adds the Gram rows `range` and their `atk` entries of the first
    /// `whole` rows into the accumulators.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gram_pass<const N: usize>(
        rows: &[f64],
        rhs: &[f64],
        weights: &[f64],
        whole: usize,
        range: std::ops::Range<usize>,
        acc: &mut [[__m256d; N]; N],
        acc_atk: &mut [__m256d; N],
    ) {
        let mut i = 0;
        while i < whole {
            let block = rows.as_ptr().add(i * N);
            let col = |c: usize| _mm256_loadu_pd(block.add(c * LANES));
            let w = _mm256_loadu_pd(weights.as_ptr().add(i));
            let k = rhs.as_ptr().add(i);
            for r in range.clone() {
                let wa = _mm256_mul_pd(w, col(r));
                for (c, a) in acc[r][..=r].iter_mut().enumerate() {
                    *a = _mm256_fmadd_pd(wa, col(c), *a);
                }
                acc_atk[r] = _mm256_fmadd_pd(wa, _mm256_loadu_pd(k), acc_atk[r]);
            }
            i += LANES;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA support; `2 ≤ N ≤ 4`,
    /// `rows.len() == rhs.len()·N` and `weights.len() == rhs.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gram_fixed<const N: usize>(
        rows: &[f64],
        rhs: &[f64],
        weights: &[f64],
    ) -> ([[f64; N]; N], [f64; N]) {
        let m = rhs.len();
        let whole = m - m % LANES;
        // One accumulator per lower-triangle entry and per `atk` entry;
        // lane l of each is the scalar twin's partial sum l. Each term is
        // one `fmadd` into its accumulator, so a block needs no product
        // temporaries. For N = 4 the 14 accumulators, `w`, `wa` and the
        // columns would need more than the 16 registers, and LLVM keeps
        // loaded columns in registers rather than folding each use into
        // its `fmadd`, so one pass spills accumulators to the stack every
        // block. Two passes over the blocks, Gram rows 0–2 and then row 3,
        // keep every accumulator in a register: the second pass re-reads
        // the blocks, which are already columns, and is still 13–30%
        // faster than one pass with spills (m = 160–1944). Each
        // accumulator sums its blocks in order either way.
        let mut acc = [[_mm256_setzero_pd(); N]; N];
        let mut acc_atk = [_mm256_setzero_pd(); N];
        if N == 4 {
            gram_pass::<N>(rows, rhs, weights, whole, 0..3, &mut acc, &mut acc_atk);
            gram_pass::<N>(rows, rhs, weights, whole, 3..4, &mut acc, &mut acc_atk);
        } else {
            gram_pass::<N>(rows, rhs, weights, whole, 0..N, &mut acc, &mut acc_atk);
        }
        let mut gram = [[0.0; N]; N];
        let mut atk = [0.0; N];
        let finish = |v: __m256d| {
            let mut lanes = [0.0; LANES];
            _mm256_storeu_pd(lanes.as_mut_ptr(), v);
            super::combine4(lanes)
        };
        for r in 0..N {
            for c in 0..=r {
                gram[r][c] = finish(acc[r][c]);
            }
            atk[r] = finish(acc_atk[r]);
        }
        let tail = rows[whole * N..].chunks_exact(N).zip(&rhs[whole..]);
        for ((a, &k), &w) in tail.zip(&weights[whole..]) {
            super::gram_add_row(gram.as_flattened_mut(), &mut atk, |c| a[c], k, w);
        }
        (gram, atk)
    }

    /// Four lanes of [`super::sin_cos`]'s polynomial path (no domain
    /// guard).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sin_cos4(x: __m256d) -> (__m256d, __m256d) {
        let set = _mm256_set1_pd;
        let shift = set(SHIFT);
        let t = _mm256_fmadd_pd(x, set(std::f64::consts::FRAC_2_PI), shift);
        let n = _mm256_sub_pd(t, shift);
        let r = _mm256_sub_pd(
            _mm256_sub_pd(
                _mm256_sub_pd(x, _mm256_mul_pd(n, set(PIO2_1))),
                _mm256_mul_pd(n, set(PIO2_2)),
            ),
            _mm256_mul_pd(n, set(PIO2_2T)),
        );
        let z = _mm256_mul_pd(r, r);
        let sin_r = _mm256_fmadd_pd(_mm256_mul_pd(z, r), horner4(z, &SIN_C), r);
        let pc = _mm256_mul_pd(z, horner4(z, &COS_C));
        let hz = _mm256_mul_pd(set(0.5), z);
        let one = set(1.0);
        let w = _mm256_sub_pd(one, hz);
        let cos_r = _mm256_add_pd(
            w,
            _mm256_add_pd(
                _mm256_sub_pd(_mm256_sub_pd(one, w), hz),
                _mm256_mul_pd(z, pc),
            ),
        );
        let q = _mm256_castpd_si256(t);
        let bit = |b: i64| _mm256_set1_epi64x(b);
        let odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(q, bit(1)), bit(1)));
        let s = _mm256_blendv_pd(sin_r, cos_r, odd);
        let c = _mm256_blendv_pd(cos_r, sin_r, odd);
        let sign_s = _mm256_slli_epi64::<62>(_mm256_and_si256(q, bit(2)));
        let sign_c = _mm256_slli_epi64::<62>(_mm256_and_si256(_mm256_add_epi64(q, bit(1)), bit(2)));
        (
            _mm256_xor_pd(s, _mm256_castsi256_pd(sign_s)),
            _mm256_xor_pd(c, _mm256_castsi256_pd(sign_c)),
        )
    }

    /// [`super::sin_cos`] on four lanes: the polynomial path, or the
    /// scalar body lane by lane when any lane is outside its domain.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sin_cos_block(x: __m256d) -> (__m256d, __m256d) {
        let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
        let inside = _mm256_cmp_pd::<_CMP_LE_OQ>(abs, _mm256_set1_pd(SIN_COS_MAX));
        if _mm256_movemask_pd(inside) == 0b1111 {
            return sin_cos4(x);
        }
        let mut a = [0.0; LANES];
        _mm256_storeu_pd(a.as_mut_ptr(), x);
        let [p0, p1, p2, p3] = a.map(super::sin_cos);
        (
            _mm256_setr_pd(p0.0, p1.0, p2.0, p3.0),
            _mm256_setr_pd(p0.1, p1.1, p2.1, p3.1),
        )
    }

    /// The lane partial sums `(s, c)` of the whole blocks, finished with
    /// the tail rows `alpha(whole..len)` exactly as the scalar twin does.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn finish_resultant(
        s: __m256d,
        c: __m256d,
        len: usize,
        alpha: impl Fn(usize) -> f64,
    ) -> (f64, f64) {
        let mut lanes = LaneSums::default();
        _mm256_storeu_pd(lanes.a.as_mut_ptr(), s);
        _mm256_storeu_pd(lanes.b.as_mut_ptr(), c);
        super::resultant_from(len, len - len % LANES, lanes, alpha)
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sin_cos_sums(angles: &[f64]) -> (f64, f64) {
        let (mut s, mut c) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for block in angles.chunks_exact(LANES) {
            let (bs, bc) = sin_cos_block(_mm256_loadu_pd(block.as_ptr()));
            s = _mm256_add_pd(s, bs);
            c = _mm256_add_pd(c, bc);
        }
        finish_resultant(s, c, angles.len(), |i| angles[i])
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn phase_offset_sums<T>(
        reads: &[T],
        read: impl Fn(&T) -> ([f64; 3], f64),
        center: [f64; 3],
        wavelength: f64,
    ) -> (f64, f64) {
        let [cx, cy, cz] = center.map(|v| _mm256_set1_pd(v));
        let (four_pi, lambda) = (_mm256_set1_pd(FOUR_PI), _mm256_set1_pd(wavelength));
        let (mut s, mut c) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for block in reads.chunks_exact(LANES) {
            // Gather the four reads' fields into lanes: row `i` in lane
            // `i mod 4`.
            let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|l| read(&block[l]));
            let axis = |a: usize| _mm256_setr_pd(r0.0[a], r1.0[a], r2.0[a], r3.0[a]);
            let (x, y, z) = (
                _mm256_sub_pd(cx, axis(0)),
                _mm256_sub_pd(cy, axis(1)),
                _mm256_sub_pd(cz, axis(2)),
            );
            let d = _mm256_sqrt_pd(_mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y)),
                _mm256_mul_pd(z, z),
            ));
            let theta = _mm256_setr_pd(r0.1, r1.1, r2.1, r3.1);
            let alpha = _mm256_sub_pd(theta, _mm256_div_pd(_mm256_mul_pd(four_pi, d), lambda));
            let (bs, bc) = sin_cos_block(alpha);
            s = _mm256_add_pd(s, bs);
            c = _mm256_add_pd(c, bc);
        }
        finish_resultant(s, c, reads.len(), |i| {
            let (p, theta) = read(&reads[i]);
            super::phase_offset(p, theta, center, wavelength)
        })
    }
}

// ---------------------------------------------------------------------------
// NEON twins (aarch64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
#[allow(unused_unsafe)]
mod neon {
    use super::*;
    use core::arch::aarch64::*;

    /// # Safety
    /// NEON is baseline on aarch64; kept `unsafe` for dispatch symmetry.
    pub(super) unsafe fn phase_unwrap_in_place(phases: &mut [f64], revs: &mut Vec<f64>) {
        let n = phases.len();
        revs.clear();
        revs.resize(n, 0.0);
        if n < 2 {
            return;
        }
        let inv_tau = vdupq_n_f64(INV_TAU);
        let half = vdupq_n_f64(0.5);
        let mut i = 1;
        while i + 2 <= n {
            let cur = vld1q_f64(phases.as_ptr().add(i));
            let prev = vld1q_f64(phases.as_ptr().add(i - 1));
            let r = vrndmq_f64(vaddq_f64(vmulq_f64(vsubq_f64(cur, prev), inv_tau), half));
            vst1q_f64(revs.as_mut_ptr().add(i), r);
            i += 2;
        }
        while i < n {
            revs[i] = ((phases[i] - phases[i - 1]) * INV_TAU + 0.5).floor();
            i += 1;
        }
        super::unwrap_integrate_and_apply(phases, revs);
    }

    /// # Safety
    /// NEON is baseline on aarch64; kept `unsafe` for dispatch symmetry.
    pub(super) unsafe fn sliding_mean_from_prefix(prefix: &[f64], window: usize, out: &mut [f64]) {
        let n = out.len();
        let (start, end) = super::sliding_mean_interior(n, window);
        super::sliding_mean_edges(prefix, window, out, 0, start);
        let half = window / 2;
        let odd = window % 2;
        let width = vdupq_n_f64(window as f64);
        let mut i = start;
        while i + 2 <= end {
            let hi = vld1q_f64(prefix.as_ptr().add(i + half + odd));
            let lo = vld1q_f64(prefix.as_ptr().add(i - half));
            vst1q_f64(out.as_mut_ptr().add(i), vdivq_f64(vsubq_f64(hi, lo), width));
            i += 2;
        }
        super::sliding_mean_edges(prefix, window, out, i, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_roundtrip_and_names() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            assert_eq!(decode(encode(b)), b);
            assert!(!b.name().is_empty());
        }
        assert!(available(Backend::Scalar));
    }

    #[test]
    fn avx2_backend_requires_fma() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            available(Backend::Avx2),
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!available(Backend::Avx2));
    }

    #[test]
    fn force_clamps_to_available() {
        force(Some(Backend::Scalar));
        assert_eq!(active(), Backend::Scalar);
        force(None);
        assert_eq!(active(), detected());
    }

    #[test]
    fn unwrap_matches_while_loop_reference() {
        // The classic reference: normalize each jump into [-π, π) with a
        // while loop, accumulating an offset.
        fn reference(wrapped: &[f64]) -> Vec<f64> {
            let tau = std::f64::consts::TAU;
            let mut out = Vec::new();
            let mut offset = 0.0;
            let mut prev: Option<f64> = None;
            for &theta in wrapped {
                if let Some(p) = prev {
                    let mut jump = theta - p;
                    while jump >= std::f64::consts::PI {
                        jump -= tau;
                        offset -= tau;
                    }
                    while jump < -std::f64::consts::PI {
                        jump += tau;
                        offset += tau;
                    }
                }
                out.push(theta + offset);
                prev = Some(theta);
            }
            out
        }
        let wrapped = [
            0.3,
            0.1,
            2.0 * std::f64::consts::PI - 0.1,
            0.2,
            3.0,
            6.0,
            0.05,
        ];
        let mut phases = wrapped.to_vec();
        let mut revs = Vec::new();
        phase_unwrap_in_place_scalar(&mut phases, &mut revs);
        for (a, b) in phases.iter().zip(reference(&wrapped)) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// The partial-sum idiom the lane sums replaced, kept as their
    /// oracle: row `i` of the whole blocks into `partial[i % 4]`, the
    /// partials combined as `(l0 + l1) + (l2 + l3)`, the tail rows added
    /// after that.
    fn indexed_lane_sums(len: usize, term: impl Fn(usize) -> (f64, f64)) -> (f64, f64) {
        let whole = len - len % LANES;
        let (mut a, mut b) = ([0.0_f64; LANES], [0.0_f64; LANES]);
        for i in 0..whole {
            let (ta, tb) = term(i);
            a[i % LANES] += ta;
            b[i % LANES] += tb;
        }
        let (mut sa, mut sb) = (combine4(a), combine4(b));
        for i in whole..len {
            let (ta, tb) = term(i);
            sa += ta;
            sb += tb;
        }
        (sa, sb)
    }

    /// A seeded xorshift stream of values in `[-scale, scale)`.
    fn values(seed: u64, len: usize, scale: f64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5) * 2.0 * scale
            })
            .collect()
    }

    fn bits((a, b): (f64, f64)) -> (u64, u64) {
        (a.to_bits(), b.to_bits())
    }

    /// The block-wise lane sums of `sum_sumsq`, `weighted_sums` and the
    /// residual and resultant scalar twins are bit-identical to the
    /// indexed oracle at every tail length and at random sizes.
    #[test]
    fn lane_sums_match_the_indexed_oracle() {
        let random = values(7, 6, 1.0);
        let sizes = (0..=9).chain(random.iter().map(|v| 10 + (v.abs() * 2000.0) as usize));
        for (case, len) in sizes.enumerate() {
            let seed = 0x9E37_79B9_7F4A_7C15 ^ case as u64;
            let rs = values(seed, len, 3.0);
            let ws: Vec<f64> = values(seed ^ 1, len, 1.0).iter().map(|w| w.abs()).collect();
            assert_eq!(
                bits(sum_sumsq(&rs)),
                bits(indexed_lane_sums(len, |i| (rs[i], rs[i] * rs[i]))),
                "sum_sumsq at {len}"
            );
            assert_eq!(
                bits(weighted_sums(&ws, &rs)),
                bits(indexed_lane_sums(len, |i| (ws[i], ws[i] * rs[i] * rs[i]))),
                "weighted_sums at {len}"
            );
            fn residual_case<const N: usize>(seed: u64, rhs: &[f64]) {
                let len = rhs.len();
                let rows = values(seed ^ 2, len * N, 2.0);
                let x: [f64; N] = std::array::from_fn(|c| 0.5 + c as f64 * 0.25);
                let mut out = vec![0.0; len];
                let got = residuals_fixed_scalar::<N>(&rows, rhs, &x, &mut out);
                let r = |i: usize| {
                    let a: [f64; N] = std::array::from_fn(|c| rows[blocked_index(i, c, N, len)]);
                    residual::<N>(&a, &x, rhs[i])
                };
                let want = indexed_lane_sums(len, |i| (r(i), r(i) * r(i)));
                assert_eq!(bits(got), bits(want), "residuals::<{N}> at {len}");
                for (i, o) in out.iter().enumerate() {
                    assert_eq!(o.to_bits(), r(i).to_bits(), "residual {i} of {len}");
                }
            }
            residual_case::<2>(seed, &rs);
            residual_case::<3>(seed, &rs);
            residual_case::<4>(seed, &rs);
            let angles: Vec<f64> = rs.iter().map(|r| r * 40.0).collect();
            assert_eq!(
                bits(sin_cos_sums_scalar(&angles)),
                bits(indexed_lane_sums(len, |i| sin_cos(angles[i]))),
                "sin_cos_sums at {len}"
            );
            let reads: Vec<([f64; 3], f64)> =
                (0..len).map(|i| ([rs[i], ws[i], 0.1], angles[i])).collect();
            let center = [0.2, 0.8, 0.0];
            assert_eq!(
                bits(phase_offset_sums_scalar(&reads, |r| *r, center, 0.3256)),
                bits(indexed_lane_sums(len, |i| {
                    sin_cos(phase_offset(reads[i].0, reads[i].1, center, 0.3256))
                })),
                "phase_offset_sums at {len}"
            );
        }
    }

    #[test]
    fn sliding_mean_interior_bounds() {
        assert_eq!(sliding_mean_interior(10, 5), (2, 8));
        assert_eq!(sliding_mean_interior(10, 4), (2, 9));
        assert_eq!(sliding_mean_interior(3, 7), (3, 3)); // window wider than data
    }
}
