//! Nonlinear operators: the exponential, RMSNorm, softmax, SwiGLU, rotary
//! embedding, top-k. These are the operations the VEX unit implements in
//! hardware (§4.3).
//!
//! [`exp`] is the repo's own: every softmax, SiLU and attention weight
//! goes through it, so no output bit depends on the host's libm, and
//! [`exp_lanes`] runs the same operation sequence many lanes at a time.
//! The rotary embedding's frequencies ([`rope_inv_freq`]) and angles
//! ([`rope_sin_cos`]) are owned too, over `hnlpu_model::math::sin_cos`.

use hnlpu_model::math::sin_cos;

/// `log2(e)`, rounded to `f32`.
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5 × 2^23`: adding it rounds any `|v| < 2^22` to an integer, and
/// subtracting it again leaves that integer.
const ROUND: f32 = 12_582_912.0;
/// Cody–Waite split of `ln 2`: `LN2_HI` is `355 / 512`, 9 significant bits, so `n ×
/// LN2_HI` is exact for every `|n| ≤ 2^15`, and `LN2_HI + LN2_LO` is `ln 2`
/// to about 2^-33.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Taylor-like coefficients of `(e^r - 1 - r) / r²` on `|r| ≤ ln 2 / 2`,
/// highest degree first (Moshier's Cephes `expf`).
const POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];
/// Inputs are clamped to `[EXP_LO, EXP_HI]`: `e^EXP_LO` is below half the
/// smallest subnormal, so it rounds to `+0`, and `e^EXP_HI` overflows to
/// `+∞` — the values every smaller or larger input has too.
const EXP_LO: f32 = -104.0;
const EXP_HI: f32 = 89.0;

/// `e^x`, as a fixed sequence of IEEE-754 single-precision operations:
/// clamp to `[-104, 89]`, Cody–Waite reduction `x = n ln 2 + r` with `n`
/// rounded to nearest by the `1.5 × 2^23` shifter, a degree-7 polynomial
/// for `e^r` in Horner form, and `2^n` built from exponent bits as two
/// factors `2^⌊n/2⌋ · 2^⌈n/2⌉`, so the result is rounded once even when it
/// is subnormal. There is no branch, and every multiply and add is its own
/// rounding (no fused multiply-add), so the result depends on neither the
/// host's libm nor the compiler nor the vector width; [`exp_lanes`] runs
/// the same sequence per lane.
///
/// Exact at the edges: `exp(0) == 1`, `exp(-∞) == +0`, `exp(+∞) == +∞`,
/// NaN in gives NaN out. Results are at most 1 ulp from `e^x` over every
/// finite input (`exp_max_ulp_error_exhaustive` measures 0.9903 ulp,
/// results in the subnormal range included, where the ulp is 2^-149).
/// Inputs below ≈ −103.97 give `+0`, inputs above ≈ 88.72 give `+∞`.
#[inline(always)]
pub(crate) fn exp(x: f32) -> f32 {
    // Two selects; NaN fails both comparisons and flows through as NaN.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    // `t` lies in [2^23, 2^24), where the ulp is 1, so its low mantissa
    // bits are `n`, an integer in [-150, 128].
    let t = x * LOG2E + ROUND;
    let n = t - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut y = POLY[0];
    for &c in &POLY[1..] {
        y = y * r + c;
    }
    let p = y * (r * r) + r + 1.0;
    // Both halves of `n` are normal exponents, so `p · 2^lo` is exact. (A
    // NaN's `k` is garbage, but its `p` is NaN.)
    let k = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let lo = k >> 1;
    p * pow2(lo) * pow2(k.wrapping_sub(lo))
}

/// `2^e` from exponent bits, for `e` in the normal range `[-126, 127]`.
#[inline(always)]
fn pow2(e: i32) -> f32 {
    f32::from_bits((e.wrapping_add(127) as u32) << 23)
}

hnlpu_model::arm::per_arm! {
    /// [`exp`] of every element of `xs`, in place: [`exp`] inlined into
    /// one loop, compiled once per [`crate::kernels::kernel_path`] arm, the
    /// arm picked by the CPU alone with the panel matmul's selector. The
    /// compiler runs the operation sequence 16 lanes at a time under
    /// AVX-512 and 8 under AVX2; there is no intrinsic and no fused
    /// multiply-add, so every element is the scalar function's bits by
    /// construction.
    pub(crate) fn exp_lanes, exp_lanes_on(xs: &mut [f32]) {
        for x in xs {
            *x = exp(*x);
        }
    }
}

/// Allocating [`rmsnorm_into`], the test oracles' form.
#[cfg(test)]
pub(crate) fn rmsnorm(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    rmsnorm_into(x, &mut out);
    out
}

/// Root-mean-square normalization of `x` into `out` (no learned scale in
/// this reproduction; synthetic weights make a learned gain redundant).
///
/// # Panics
///
/// Panics if lengths differ.
pub(crate) fn rmsnorm_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "length mismatch");
    let eps = 1e-5f32;
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = v * inv;
    }
}

/// Numerically-stable softmax.
pub(crate) fn softmax(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Allocation-free [`softmax`]: replace `x` with its softmax.
pub(crate) fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let m = x.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    for v in x.iter_mut() {
        *v -= m;
    }
    exp_lanes(x);
    let sum: f32 = x.iter().sum();
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// Allocating [`swiglu_in_place`], the test oracles' form.
#[cfg(test)]
pub(crate) fn swiglu(gate: &[f32], up: &[f32]) -> Vec<f32> {
    let mut out = gate.to_vec();
    swiglu_in_place(&mut out, up);
    out
}

/// SwiGLU combine: overwrite `gate` with `silu(gate) ⊙ up`.
///
/// # Panics
///
/// Panics if lengths differ.
pub(crate) fn swiglu_in_place(gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len(), "length mismatch");
    // `silu` with its `exp` at lane width, a stack chunk at a time.
    let mut e = [0.0f32; 256];
    for (gate, up) in gate.chunks_mut(e.len()).zip(up.chunks(e.len())) {
        let e = &mut e[..gate.len()];
        for (e, &g) in e.iter_mut().zip(gate.iter()) {
            *e = -g;
        }
        exp_lanes(e);
        for ((g, &u), &e) in gate.iter_mut().zip(up).zip(e.iter()) {
            *g = *g / (1.0 + e) * u;
        }
    }
}

/// `ln 10000`, the log of the rotary base, rounded to `f64`.
const LN_ROPE_BASE: f64 = 9.210_340_371_976_184;
/// `1.5 × 2⁵²`: adding it rounds any `|v| < 2⁵¹` to an integer.
const ROUND_F64: f64 = 6_755_399_441_055_744.0;
/// Cody–Waite split of `ln 2` in `f64` (fdlibm's `ln2HI` / `ln2LO`):
/// `n × LN2_HI_F64` is exact for every `|n| < 2¹¹`.
const LN2_HI_F64: f64 = 6.931_471_803_691_238e-1;
const LN2_LO_F64: f64 = 1.908_214_929_270_587_7e-10;

/// `e^x` in `f64` basic operations, for the rotary table's exponents
/// `x ∈ [−ln 10000, 0]`: `x = n ln 2 + r` with `|r| ≤ ln 2 / 2`, the Taylor
/// series of `e^r` to degree 13 in Horner form (its tail is below 2⁻⁵⁷),
/// and `2^n` from exponent bits. Valid while `2^n` is a normal `f64`.
fn exp_f64(x: f64) -> f64 {
    let n = x * std::f64::consts::LOG2_E + ROUND_F64 - ROUND_F64;
    let r = x - n * LN2_HI_F64 - n * LN2_LO_F64;
    let mut p = 1.0;
    for k in (1..=13u8).rev() {
        p = 1.0 + p * r / f64::from(k);
    }
    p * f64::from_bits(((n as i64 + 1023) as u64) << 52)
}

/// The rotary inverse frequency `10000^(−2i/d)` of pair `i` of a head of
/// dimension `d`, rounded to `f32`: the value `f32` rounding of the exact
/// power gives on every `(i, d)` with `d ≤ 1024`
/// (`rope_inv_freq_is_the_rounded_power`).
pub(crate) fn rope_inv_freq(i: usize, head_dim: usize) -> f32 {
    exp_f64(-((2 * i) as f64) / head_dim as f64 * LN_ROPE_BASE) as f32
}

/// `(sin, cos)` of the rotary angle `position × inv_freq`. The product is
/// exact in `f64` (a 24-bit significand times a position below 2²⁹), and
/// `hnlpu_model::math::sin_cos` reduces it by `π/2` in `f64`.
pub(crate) fn rope_sin_cos(position: usize, inv_freq: f32) -> (f32, f32) {
    sin_cos(position as f64 * f64::from(inv_freq))
}

/// Apply rotary position embedding in place to a head vector of even
/// dimension at `position` (the oracle of the engines' `RopeTable`).
///
/// # Panics
///
/// Panics if the head dimension is odd.
#[cfg(test)]
pub(crate) fn rope(head: &mut [f32], position: usize) {
    assert!(head.len().is_multiple_of(2), "rope needs an even head dim");
    let d = head.len();
    for i in 0..d / 2 {
        let (sin, cos) = rope_sin_cos(position, rope_inv_freq(i, d));
        let (a, b) = (head[2 * i], head[2 * i + 1]);
        head[2 * i] = a * cos - b * sin;
        head[2 * i + 1] = a * sin + b * cos;
    }
}

/// Indices of the `k` largest values, in descending value order with
/// deterministic (lowest-index) tie-breaking — hardware comparator trees
/// are deterministic, so the reference must be too. NaN ranks below every
/// number, so NaNs come last, by index; `0.0` and `-0.0` tie.
///
/// Uses O(n) partial selection (`select_nth_unstable_by`) plus an O(k log k)
/// sort of the survivors instead of sorting all `n` candidates; the
/// comparator (NaN last, then value, then index) is a total order, so the
/// selected set and its order are identical to a full sort.
pub(crate) fn topk(x: &[f32], k: usize) -> Vec<usize> {
    let mut idx = Vec::new();
    topk_into(x, k, &mut idx);
    idx
}

/// Allocation-free [`topk`]: fill `idx` with the winners, reusing its
/// storage (the router calls this every layer of every step).
pub(crate) fn topk_into(x: &[f32], k: usize, idx: &mut Vec<usize>) {
    idx.clear();
    if k == 0 {
        return;
    }
    idx.extend(0..x.len());
    let cmp = |&a: &usize, &b: &usize| {
        let (va, vb) = (x[a], x[b]);
        // `partial_cmp` is `None` only when both are NaN: a tie.
        (va.is_nan().cmp(&vb.is_nan()))
            .then(vb.partial_cmp(&va).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.cmp(&b))
    };
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `|exp(x) − e^x|` in units of the last place of `e^x`'s `f32`
    /// binade (2^-149 below the normal range); 0 when both overflow.
    #[expect(
        clippy::disallowed_methods,
        reason = "the f64 libm oracle ops::exp is held to"
    )]
    fn ulp_error(x: f32) -> f64 {
        let got = exp(x);
        let want = (x as f64).exp();
        if want as f32 == f32::INFINITY {
            return if got == f32::INFINITY {
                0.0
            } else {
                f64::INFINITY
            };
        }
        let binade = want.max(f64::from(f32::MIN_POSITIVE)).log2().floor();
        (got as f64 - want).abs() / (binade - 23.0).exp2()
    }

    /// The accuracy bound the exhaustive test measures and the sampled
    /// test holds every build to.
    const MAX_ULP: f64 = 1.0;

    #[test]
    fn exp_is_exact_at_the_edges() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        // Overflow: `e^88.72284` is just below `f32::MAX`.
        assert!(exp(88.72283).is_finite());
        assert_eq!(exp(88.72284), f32::INFINITY);
        assert_eq!(exp(f32::MAX), f32::INFINITY);
        // Underflow is gradual, rounded once: subnormal results down to
        // the smallest, then +0 below half of it (e^-103.97 ≈ 2^-150).
        assert!(exp(-87.5) < f32::MIN_POSITIVE && exp(-87.5) > 0.0);
        assert_eq!(exp(-103.9).to_bits(), 1, "the smallest subnormal");
        assert_eq!(exp(-104.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::MIN).to_bits(), 0.0f32.to_bits());
        for x in [-103.9f32, -100.0, -95.5, -90.0, -87.5] {
            assert!(ulp_error(x) <= MAX_ULP, "x = {x}: {} ulp", ulp_error(x));
        }
        assert!((exp(1.0) - std::f32::consts::E).abs() <= f32::EPSILON * 3.0);
    }

    /// Every 1021st bit pattern (about four million inputs, all binades
    /// and both signs) is within [`MAX_ULP`] of `e^x`.
    #[test]
    fn exp_is_within_one_ulp_sampled() {
        let mut worst = (0.0f64, 0.0f32);
        for bits in (0..=u32::MAX).step_by(1021) {
            let x = f32::from_bits(bits);
            if x.is_finite() {
                let e = ulp_error(x);
                if e > worst.0 {
                    worst = (e, x);
                }
            }
        }
        assert!(worst.0 <= MAX_ULP, "{} ulp at x = {:e}", worst.0, worst.1);
    }

    /// Every finite `f32` input, on two threads; prints the worst error.
    /// `cargo test --release -p hnlpu-llm exp_max_ulp_error_exhaustive --
    /// --ignored --nocapture` (about three minutes on two cores).
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn exp_max_ulp_error_exhaustive() {
        let worst = std::thread::scope(|s| {
            let half = |lo: u64, hi: u64| {
                s.spawn(move || {
                    let mut worst = (0.0f64, 0.0f32);
                    for bits in lo..hi {
                        let x = f32::from_bits(bits as u32);
                        if x.is_finite() {
                            let e = ulp_error(x);
                            if e > worst.0 {
                                worst = (e, x);
                            }
                        }
                    }
                    worst
                })
            };
            let (a, b) = (half(0, 1 << 31), half(1 << 31, 1 << 32));
            let (a, b) = (a.join().unwrap(), b.join().unwrap());
            if a.0 >= b.0 {
                a
            } else {
                b
            }
        });
        println!("exp: max error {:.4} ulp at x = {:e}", worst.0, worst.1);
        assert!(worst.0 <= MAX_ULP, "{} ulp at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn rope_exp_constants_are_fdlibms() {
        assert_eq!(
            [LN2_HI_F64, LN2_LO_F64].map(f64::to_bits),
            [0x3FE6_2E42_FEE0_0000, 0x3DEA_39EF_3579_3C76]
        );
    }

    /// Every `(i, d)` with `d` even up to 1024: the owned frequency is the
    /// `f32` rounding of the `f64` libm power, bit for bit.
    #[test]
    fn rope_inv_freq_is_the_rounded_power() {
        for d in (2..=1024).step_by(2) {
            for i in 0..d / 2 {
                #[expect(clippy::disallowed_methods, reason = "the f64 libm oracle")]
                let want = 10_000f64.powf(-((2 * i) as f64) / d as f64) as f32;
                assert_eq!(
                    rope_inv_freq(i, d).to_bits(),
                    want.to_bits(),
                    "i = {i}, d = {d}"
                );
            }
        }
    }

    /// Head dimensions of every model the engines run: 64 and 128 in the
    /// zoo, 16 in the test models, 32 in the benchmark's bench-256.
    const ROPE_HEAD_DIMS: [usize; 4] = [16, 32, 64, 128];

    /// The longest context the repo prices (Figure 14's 512 K): the
    /// rotary angles are checked at every position up to it.
    const ROPE_CONTEXT: usize = 1 << 19;

    /// The accuracy bound of [`rope_sin_cos`] against `f64` libm `sin` and
    /// `cos` of the exact angle, in `f32` ulps.
    const ROPE_MAX_ULP: f64 = 2.0;

    /// The worst ulp error of [`rope_sin_cos`] at `positions`, over every
    /// frequency of [`ROPE_HEAD_DIMS`], dealt over the host's cores:
    /// `(ulps, position, inv_freq)`.
    #[expect(clippy::disallowed_methods, reason = "the f64 libm oracle")]
    fn rope_worst(positions: &[usize]) -> (f64, usize, f32) {
        let freqs: Vec<f32> = ROPE_HEAD_DIMS
            .iter()
            .flat_map(|&d| (0..d / 2).map(move |i| rope_inv_freq(i, d)))
            .collect();
        let ulps = |got: f32, want: f64| {
            let binade = want.abs().max(f64::from(f32::MIN_POSITIVE)).log2().floor();
            (f64::from(got) - want).abs() / (binade - 23.0).exp2()
        };
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let worst_of = |chunk: &[usize]| {
            let mut worst = (0.0, 0, 0.0);
            for &p in chunk {
                for &f in &freqs {
                    let (sin, cos) = rope_sin_cos(p, f);
                    let (want_sin, want_cos) = (p as f64 * f as f64).sin_cos();
                    let e = ulps(sin, want_sin).max(ulps(cos, want_cos));
                    if e > worst.0 {
                        worst = (e, p, f);
                    }
                }
            }
            worst
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = positions
                .chunks(positions.len().div_ceil(workers).max(1))
                .map(|chunk| s.spawn(move || worst_of(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0.0, 0, 0.0), |a, b| if b.0 > a.0 { b } else { a })
        })
    }

    /// Every 61st position up to [`ROPE_CONTEXT`], and the first 64.
    #[test]
    fn rope_angles_are_accurate_sampled() {
        let positions: Vec<usize> = (0..64).chain((64..=ROPE_CONTEXT).step_by(61)).collect();
        let (worst, p, f) = rope_worst(&positions);
        assert!(
            worst <= ROPE_MAX_ULP,
            "{worst} ulp at position {p}, inv_freq {f:e}"
        );
    }

    /// Every position up to [`ROPE_CONTEXT`] at every frequency of
    /// [`ROPE_HEAD_DIMS`] (63 M angles); prints the worst error.
    /// `cargo test --release -p hnlpu-llm rope_angles_are_accurate_exhaustive
    /// -- --ignored --nocapture`.
    #[test]
    #[ignore = "exhaustive over 2^19 positions; run in release"]
    fn rope_angles_are_accurate_exhaustive() {
        let positions: Vec<usize> = (0..=ROPE_CONTEXT).collect();
        let (worst, p, f) = rope_worst(&positions);
        println!("rope_sin_cos: {worst:.4} ulp at worst (position {p}, inv_freq {f:e})");
        assert!(
            worst <= ROPE_MAX_ULP,
            "{worst} ulp at position {p}, inv_freq {f:e}"
        );
    }

    /// Inputs for the arm tests: the edges, both signed zeros, NaN, and a
    /// sweep of bit patterns over every binade of both signs.
    fn exp_inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -104.0,
            -103.9,
            88.72284,
            89.0,
            f32::MAX,
            f32::MIN,
        ];
        xs.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        xs.extend((-2000..2000).map(|i| i as f32 * 0.0625));
        xs
    }

    /// The lane contract, per arm: every arm this CPU has (the dispatcher
    /// only ever reaches the widest) gives [`exp`]'s bits for every
    /// element, whole vectors and the loop's remainder alike. Prints the
    /// arms it ran.
    #[test]
    fn exp_lanes_every_arm_is_bitwise_exp() {
        let xs = exp_inputs();
        let arms = hnlpu_model::arm::available();
        println!("lane arms on this CPU: {arms:?}");
        for &arm in arms {
            for len in [xs.len(), 5, 16, 23] {
                let mut got = xs[..len].to_vec();
                exp_lanes_on(arm, &mut got);
                for (&x, &g) in xs.iter().zip(&got) {
                    let want = exp(x);
                    assert!(
                        g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                        "{arm:?}: exp({x:e}) = {g:e}, scalar {want:e}"
                    );
                }
            }
        }
        let mut dispatched = xs.clone();
        exp_lanes(&mut dispatched);
        for (&x, &g) in xs.iter().zip(&dispatched) {
            assert!(g.to_bits() == exp(x).to_bits() || g.is_nan() && x.is_nan());
        }
    }

    #[test]
    fn rmsnorm_produces_unit_rms() {
        let y = rmsnorm(&[3.0, -4.0, 12.0, 0.0]);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / y.len() as f32).sqrt();
        assert!((rms - 1.0).abs() < 1e-3, "rms = {rms}");
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 3.0, 2.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[1] > p[2] && p[2] > p[0]);
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    /// SiLU, scalar: what `swiglu_in_place` applies to the gate at lane
    /// width.
    fn silu(x: f32) -> f32 {
        x / (1.0 + exp(-x))
    }

    #[test]
    fn silu_properties() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(10.0) > 9.9);
        assert!(silu(-10.0) > -0.01 && silu(-10.0) < 0.0);
        // SwiGLU is `silu(gate) ⊙ up`, element by element.
        let (gate, up) = (
            [-3.0f32, -0.5, 0.0, 0.7, 9.0],
            [2.0f32, -1.0, 4.0, 0.5, 1.0],
        );
        let want: Vec<f32> = gate.iter().zip(&up).map(|(&g, &u)| silu(g) * u).collect();
        assert_eq!(swiglu(&gate, &up), want);
    }

    #[test]
    fn rope_preserves_norm_and_position_zero_is_identity() {
        let mut h = vec![0.3f32, -0.7, 1.1, 0.2];
        let orig = h.clone();
        rope(&mut h, 0);
        assert_eq!(h, orig);
        rope(&mut h, 7);
        let n0: f32 = orig.iter().map(|v| v * v).sum();
        let n1: f32 = h.iter().map(|v| v * v).sum();
        assert!((n0 - n1).abs() < 1e-4);
        assert_ne!(h, orig);
    }

    #[test]
    fn topk_selects_and_breaks_ties_low_index() {
        assert_eq!(topk(&[0.1, 0.9, 0.5, 0.9], 2), vec![1, 3]);
        assert_eq!(topk(&[1.0, 1.0, 1.0], 2), vec![0, 1]);
        let nan = f32::NAN;
        assert_eq!(topk(&[nan, 1.0, nan, -0.0, 0.0], 5), vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn empty_inputs() {
        assert!(softmax(&[]).is_empty());
        assert!(topk(&[], 3).is_empty());
        assert!(topk(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn in_place_variants_match_allocating_ones() {
        let x = [0.3f32, -1.2, 4.0, 0.0, 2.5];
        let mut n = [0.0f32; 5];
        rmsnorm_into(&x, &mut n);
        assert_eq!(n.to_vec(), rmsnorm(&x));
        let mut s = x;
        softmax_in_place(&mut s);
        assert_eq!(s.to_vec(), softmax(&x));
        let up = [1.0f32, -2.0, 0.5, 3.0, 1.5];
        let mut g = x;
        swiglu_in_place(&mut g, &up);
        assert_eq!(g.to_vec(), swiglu(&x, &up));
    }

    /// The pre-optimization `topk`, a full sort of all candidate indices,
    /// spelled independently of the comparator: the numbers by descending
    /// value (the stable sort keeps ties, `±0` included, in index order),
    /// then the NaNs in index order.
    fn topk_full_sort(x: &[f32], k: usize) -> Vec<usize> {
        let (mut idx, nans): (Vec<usize>, Vec<usize>) = (0..x.len()).partition(|&i| !x[i].is_nan());
        idx.sort_by(|&a, &b| x[b].partial_cmp(&x[a]).expect("no NaN left"));
        idx.extend(nans);
        idx.truncate(k);
        idx
    }

    proptest! {
        #[test]
        fn softmax_is_distribution(xs in prop::collection::vec(-50f32..50.0, 1..64)) {
            let p = softmax(&xs);
            prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn topk_returns_k_distinct(xs in prop::collection::vec(-5f32..5.0, 1..64), k in 1usize..8) {
            let k = k.min(xs.len());
            let ids = topk(&xs, k);
            prop_assert_eq!(ids.len(), k);
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k);
        }

        /// Partial selection must be indistinguishable from the old full
        /// sort, including order and tie-breaks. Values are drawn from a
        /// tiny lattice with `-0.0` and NaN in it, so ties (`±0` included)
        /// and NaNs are common — and no sort's comparator check panics.
        #[test]
        fn topk_matches_full_sort_oracle(
            xs in prop::collection::vec(-3i32..4, 1..96),
            k in 0usize..12,
        ) {
            let xs: Vec<f32> = xs
                .into_iter()
                .map(|v| match v {
                    3 => f32::NAN,
                    -3 => -0.0,
                    v => v as f32 * 0.5,
                })
                .collect();
            prop_assert_eq!(topk(&xs, k), topk_full_sort(&xs, k));
        }
    }
}
