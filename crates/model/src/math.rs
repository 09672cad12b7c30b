//! Transcendentals from IEEE-754 basic operations.
//!
//! The synthetic weights' Box–Muller draws need a logarithm, a sine and a
//! cosine, and the rotary embedding a sine and a cosine. The host's libm
//! rounds those differently on glibc, musl, macOS and aarch64, so they are
//! written here as fixed sequences of `+ − × ÷ √` and exact integer ↔ float
//! conversions: no fused multiply-add and no libm call. Every bit is a
//! property of the source, on any host. The weight sampler inlines them
//! into a loop compiled once per lane arm of [`crate::arm::arm`]; the arm
//! changes only how many lanes the loop runs at a time, never a bit.
//! (`hnlpu-llm`'s `ops::exp` is the exponential in the same style.)
//!
//! The polynomials are the classic single-precision ones: the logarithm's
//! from Sun's fdlibm `e_logf.c`, the sine's and cosine's from Moshier's
//! Cephes `sinf.c` / `cosf.c`.

/// `√2` rounded to `f32`: the renormalisation threshold of [`ln`].
const SQRT_2: f32 = std::f32::consts::SQRT_2;
/// Cody–Waite split of `ln 2`: `LN2_HI` has 16 significant bits, so
/// `k × LN2_HI` is exact for every exponent `k` an `f32` has.
const LN2_HI: f32 = 6.931_381e-1;
const LN2_LO: f32 = 9.058_001e-6;
/// Minimax coefficients of `(ln(1 + s) − ln(1 − s) − 2s) / s` in `z = s²`
/// on `|s| ≤ 3 − 2√2` (fdlibm's `Lg1`–`Lg4`).
const LG: [f32; 4] = [0.666_666_6, 0.400_009_72, 0.284_987_87, 0.242_790_79];
/// Coefficients of `(sin r − r) / r³` in `z = r²` on `|r| ≤ π/4`, highest
/// degree first.
const SIN: [f32; 3] = [-1.951_529_6e-4, 8.332_161e-3, -1.666_665_5e-1];
/// Coefficients of `(cos r − 1 + r²/2) / r⁴` in `z = r²` on `|r| ≤ π/4`,
/// highest degree first.
const COS: [f32; 3] = [2.443_315_7e-5, -1.388_731_6e-3, 4.166_664_6e-2];
/// One step of a 24-bit turn, `2π / 2²⁴`, rounded to `f32`.
const TURN_STEP: f32 = std::f32::consts::TAU / 16_777_216.0;
/// `1.5 × 2⁵²`: adding it rounds any `|v| < 2⁵¹` to an integer.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// Cody–Waite split of `π/2` (fdlibm's `pio2_1`, `pio2_2`): 33
/// significant bits each, so `n × PIO2_1` and `n × PIO2_2` are exact for
/// every `|n| ≤ 2²⁰`, and their sum is `π/2` to within 2⁻⁶⁸.
const PIO2_1: f64 = 1.570_796_326_734_125_6;
const PIO2_2: f64 = 6.077_100_506_303_966e-11;

/// `ln x` for a positive normal `x`: `x = 2^k · m` split from the bits,
/// `m` renormalised into `(√2/2, √2]`, and `ln m` from an odd polynomial in
/// `s = (m − 1)/(m + 1)`, with `k ln 2` added last in two parts.
/// `ln_is_within_one_ulp_on_every_uniform` checks every input the normal
/// sampler passes, `(0, 1]` in steps of 2⁻²⁴; `ln(1) == 0`. Zero,
/// subnormals, negatives, infinities and NaN give unspecified values.
#[inline(always)]
pub(crate) fn ln(x: f32) -> f32 {
    let bits = x.to_bits();
    let m = f32::from_bits(bits & 0x007F_FFFF | 0x3F80_0000);
    let k = (bits >> 23) as i32 - 127;
    let big = m > SQRT_2;
    let m = if big { m * 0.5 } else { m };
    let k = if big { k + 1 } else { k };
    let k = k as f32;
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG[0] + w * LG[2]) + w * (LG[1] + w * LG[3]);
    let half_f2 = 0.5 * f * f;
    s * (half_f2 + r) + k * LN2_LO - half_f2 + f + k * LN2_HI
}

/// `(sin, cos)` of `q · π/2 + r` for `|r|` at most a little over `π/4`:
/// one short polynomial each for `sin r` and `cos r`, then the quadrant's
/// swap and signs as selects.
#[inline(always)]
fn sin_cos_quadrant(q: u32, r: f32) -> (f32, f32) {
    let z = r * r;
    let s = ((SIN[0] * z + SIN[1]) * z + SIN[2]) * z * r + r;
    let c = ((COS[0] * z + COS[1]) * z + COS[2]) * z * z - 0.5 * z + 1.0;
    let (s, c) = if q & 1 == 0 { (s, c) } else { (c, s) };
    let sin = if q & 2 == 0 { s } else { -s };
    let cos = if q.wrapping_add(1) & 2 == 0 { c } else { -c };
    (sin, cos)
}

/// `(sin, cos)` of `2π · b / 2²⁴`, the Box–Muller angle of a 24-bit
/// uniform `b < 2²⁴`. The quarter turn nearest `b` is found in integers
/// and subtracted exactly, leaving at most an eighth of a turn for the
/// polynomials. `sin_cos_turn_is_within_two_ulp_on_every_uniform` checks
/// every `b`.
#[inline(always)]
pub(crate) fn sin_cos_turn(b: u32) -> (f32, f32) {
    let n = (b + (1 << 21)) >> 22;
    let r = (b as i32 - (n << 22) as i32) as f32 * TURN_STEP;
    sin_cos_quadrant(n & 3, r)
}

/// `(sin θ, cos θ)` rounded to `f32`, for the rotary embedding's angles.
///
/// `θ` is reduced by the multiple `n` of `π/2` nearest it in `f64`, with
/// `π/2` in two parts, so for every `|θ| ≤ 2²⁰ · π/2` the remainder is off
/// by less than 2⁻⁴⁸ before it is rounded to `f32` for the same
/// polynomials as the Box–Muller angle. Larger angles give the same bits
/// on every host, only less accurate ones. `rope_angles_are_accurate_*`
/// in `hnlpu-llm` bound the error on every angle the engines use.
pub fn sin_cos(theta: f64) -> (f32, f32) {
    let n = theta * std::f64::consts::FRAC_2_PI + ROUND - ROUND;
    let r = theta - n * PIO2_1 - n * PIO2_2;
    sin_cos_quadrant((n as i64 & 3) as u32, r as f32)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the oracles are the host libm's f64 functions"
)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    /// Distance in `f32` ulps from `got` to `want` (an `f64` oracle), with
    /// the ulp of `want`'s binade.
    fn ulps(got: f32, want: f64) -> f64 {
        let binade = want.abs().max(f64::from(f32::MIN_POSITIVE)).log2().floor();
        (f64::from(got) - want).abs() / (binade - 23.0).exp2()
    }

    /// The largest ulp error of `f` over `0..n`, dealt over the host's
    /// cores.
    fn max_ulps(n: u32, f: impl Fn(u32) -> f64 + Sync) -> f64 {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        let span = n.div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let f = &f;
                    s.spawn(move || {
                        (w * span..((w + 1) * span).min(n)).fold(0.0f64, |worst, i| worst.max(f(i)))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold(0.0, f64::max)
        })
    }

    /// Every `u1 = (a + 1) · 2⁻²⁴` the sampler draws, `a < 2²⁴`: within one
    /// ulp of `ln` in `f64`.
    #[test]
    fn ln_is_within_one_ulp_on_every_uniform() {
        let worst = max_ulps(1 << 24, |a| {
            let u1 = (a + 1) as f32 / 16_777_216.0;
            ulps(ln(u1), f64::from(u1).ln())
        });
        println!("ln: {worst:.4} ulp at worst over 2^24 inputs");
        assert!(worst <= 1.0, "ln is {worst} ulp off");
        assert_eq!(ln(1.0).to_bits(), 0);
    }

    /// `sin` of `2π · b / 2²⁴` in `f64`, from a half-turn reflection only
    /// (so it shares no reduction with the code under test), exact at the
    /// zeros `b = 0` and `2²³`.
    fn sin_turn(b: u32) -> f64 {
        let (b, sign) = if b < 1 << 23 {
            (b, 1.0)
        } else {
            (b - (1 << 23), -1.0)
        };
        sign * (TAU * f64::from(b) / 16_777_216.0).sin()
    }

    /// Every `b < 2²⁴` the sampler draws: sine and cosine each within two
    /// ulps of `f64`, with exact zeros and signs at the quarter turns.
    #[test]
    fn sin_cos_turn_is_within_two_ulp_on_every_uniform() {
        let worst = max_ulps(1 << 24, |b| {
            let (sin, cos) = sin_cos_turn(b);
            let cos_want = sin_turn((b + (1 << 22)) & 0xFF_FFFF);
            ulps(sin, sin_turn(b)).max(ulps(cos, cos_want))
        });
        println!("sin_cos_turn: {worst:.4} ulp at worst over 2^24 inputs");
        assert!(worst <= 2.0, "sin_cos_turn is {worst} ulp off");
        for (b, sin, cos) in [
            (0, 0.0f32, 1.0f32),
            (1 << 22, 1.0, -0.0),
            (1 << 23, -0.0, -1.0),
            (3 << 22, -1.0, 0.0),
        ] {
            let got = sin_cos_turn(b);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (sin.to_bits(), cos.to_bits())
            );
        }
    }

    #[test]
    fn pi_over_two_splits_into_exact_parts() {
        // 33 significant bits each: the low 20 bits of the 52 are zero.
        for part in [PIO2_1, PIO2_2] {
            assert_eq!(part.to_bits() & 0xF_FFFF, 0, "{part:e}");
        }
        assert_eq!(PIO2_1 + PIO2_2, std::f64::consts::FRAC_PI_2);
        // fdlibm's single-precision constants, bit for bit.
        assert_eq!(
            [LN2_HI, LN2_LO].map(f32::to_bits),
            [0x3F31_7180, 0x3717_F7D1]
        );
        assert_eq!(
            LG.map(f32::to_bits),
            [0x3F2A_AAAA, 0x3ECC_CE13, 0x3E91_E9EE, 0x3E78_9E26]
        );
    }

    #[test]
    fn sin_cos_reduces_by_quarter_turns() {
        use std::f64::consts::{FRAC_PI_2, PI};
        for (theta, sin, cos) in [
            (0.0, 0.0, 1.0),
            (FRAC_PI_2, 1.0, 0.0),
            (PI, 0.0, -1.0),
            (-FRAC_PI_2, -1.0, 0.0),
            (1000.0 * PI, 0.0, 1.0),
        ] {
            let (s, c) = sin_cos(theta);
            assert!(
                (s - sin).abs() < 1e-6 && (c - cos).abs() < 1e-6,
                "{theta}: {s} {c}"
            );
        }
    }
}
