//! The FP4 (E2M1) number format.
//!
//! gpt-oss 120 B ships 4-bit weights. E2M1 has 1 sign bit, 2 exponent bits
//! (bias 1) and 1 mantissa bit, yielding 16 encodings over 8 magnitudes:
//! `{0, 0.5, 1, 1.5, 2, 3, 4, 6}` (±). The Hardwired-Neuron architecture
//! allocates one POPCNT accumulator region per *unique weight value*, so the
//! 16-point value lattice here is exactly the "16 regions" of Figure 4.
//!
//! gpt-oss stores them as MXFP4, which attaches a shared power-of-two scale
//! (E8M0) to each block of 32 elements; the scale multiplies the region
//! outputs and does not change the wire topology, so only the E2M1 codes
//! are modelled.

use std::fmt;

/// Number of distinct FP4 encodings (and thus POPCNT regions per neuron).
pub const NUM_CODES: usize = 16;

/// An FP4 (E2M1) value, stored as its 4-bit code.
///
/// # Example
///
/// ```
/// use hnlpu_model::Fp4;
/// let x = Fp4::from_f32(1.4);
/// assert_eq!(x.to_f32(), 1.5); // nearest representable
/// assert_eq!(Fp4::from_f32(100.0).to_f32(), 6.0); // saturates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp4(u8);

/// The eight representable magnitudes of E2M1, indexed by `code & 0b0111`.
///
/// This lattice is the combine stage of region accumulation: a kernel (or a
/// Hardwired Neuron) sums the inputs routed to each of the 16 code regions
/// and then weights the per-region sums by these magnitudes.
pub const MAGNITUDES: [f32; 8] = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0];

/// Signed half-unit value of every code: `HALF_UNITS[code] == 2 * value`.
///
/// All 16 FP4 values are exact multiples of 0.5, so this table is the
/// integer constant-multiplier bank a Hardwired Neuron wires per region; a
/// software kernel multiplies by it and folds the trailing ×0.5 into the
/// per-matrix norm.
pub const HALF_UNITS: [i8; 16] = [0, 1, 2, 3, 4, 6, 8, 12, 0, -1, -2, -3, -4, -6, -8, -12];

impl Fp4 {
    /// Positive zero.
    pub const ZERO: Fp4 = Fp4(0);
    /// Largest positive value (+6.0).
    pub const MAX: Fp4 = Fp4(0b0111);
    /// Most negative value (−6.0).
    pub const MIN: Fp4 = Fp4(0b1111);

    /// Construct from a raw 4-bit code.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 16`.
    pub fn from_code(code: u8) -> Self {
        assert!(code < 16, "FP4 code must be 4 bits, got {code}");
        Fp4(code)
    }

    /// The raw 4-bit code (sign in bit 3).
    pub fn code(self) -> u8 {
        self.0
    }

    /// Round-to-nearest-even conversion from `f32`, saturating at ±6.
    ///
    /// Seven threshold compares on the magnitude, one per midpoint of the
    /// lattice, with no branch: `>` at the midpoints whose lower neighbour
    /// has the even code (0.25, 1.25, 2.5, 5.0) and `>=` where the upper
    /// one does (0.75, 1.75, 3.5), so every tie goes to the even code. The
    /// sign is the sign bit (−0 is code 8); NaN of either sign is code 0.
    #[inline(always)]
    pub fn from_f32(x: f32) -> Self {
        let m = x.abs();
        let magnitude = u8::from(m > 0.25)
            + u8::from(m >= 0.75)
            + u8::from(m > 1.25)
            + u8::from(m >= 1.75)
            + u8::from(m > 2.5)
            + u8::from(m >= 3.5)
            + u8::from(m > 5.0);
        let sign = u8::from(x.is_sign_negative() & !x.is_nan()) << 3;
        Fp4(sign | magnitude)
    }

    /// Exact conversion to `f32`.
    pub fn to_f32(self) -> f32 {
        let m = MAGNITUDES[(self.0 & 0b0111) as usize];
        if self.0 & 0b1000 != 0 {
            -m
        } else {
            m
        }
    }

    /// The value as an exact multiple of 0.5 (range −12..=12), i.e. the
    /// integer the hardware multiplies by before the final ×0.5 shift.
    ///
    /// The constant-multiplier bank in a Hardwired-Neuron implements exactly
    /// these 16 integer scalings.
    pub fn as_half_units(self) -> i32 {
        (self.to_f32() * 2.0) as i32
    }
}

impl fmt::Display for Fp4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<Fp4> for f32 {
    fn from(v: Fp4) -> f32 {
        v.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_codes() -> impl Iterator<Item = Fp4> {
        (0u8..16).map(Fp4)
    }

    #[test]
    fn all_sixteen_codes_roundtrip() {
        for c in all_codes() {
            let back = Fp4::from_f32(c.to_f32());
            // Both zeros come back as a zero; everything else is exact.
            if c.to_f32() == 0.0 {
                assert_eq!(back.to_f32(), 0.0);
            } else {
                assert_eq!(back, c, "code {:#06b}", c.code());
            }
        }
    }

    #[test]
    fn magnitude_lattice_matches_e2m1() {
        let mags: Vec<f32> = (0u8..8).map(|c| Fp4::from_code(c).to_f32()).collect();
        assert_eq!(mags, vec![0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn negative_values() {
        assert_eq!(Fp4::from_code(0b1010).to_f32(), -1.0);
        assert_eq!(Fp4::MIN.to_f32(), -6.0);
        assert_eq!(Fp4::MAX.to_f32(), 6.0);
    }

    #[test]
    fn saturation() {
        assert_eq!(Fp4::from_f32(1e9).to_f32(), 6.0);
        assert_eq!(Fp4::from_f32(-1e9).to_f32(), -6.0);
    }

    #[test]
    fn nan_maps_to_zero() {
        assert_eq!(Fp4::from_f32(f32::NAN), Fp4::ZERO);
    }

    #[test]
    fn rounding_nearest() {
        assert_eq!(Fp4::from_f32(0.74).to_f32(), 0.5);
        assert_eq!(Fp4::from_f32(0.76).to_f32(), 1.0);
        assert_eq!(Fp4::from_f32(5.1).to_f32(), 6.0);
        assert_eq!(Fp4::from_f32(4.4).to_f32(), 4.0);
    }

    /// The conversion as it was first written: the nearest of the eight
    /// magnitudes by linear search, ties to the even code, saturating at 6.
    fn from_f32_search(x: f32) -> Fp4 {
        if x.is_nan() {
            return Fp4::ZERO;
        }
        let sign = if x.is_sign_negative() { 0b1000 } else { 0 };
        let mag = x.abs();
        let mut best = 0usize;
        let mut best_err = f32::INFINITY;
        for (i, &m) in MAGNITUDES.iter().enumerate() {
            let err = (mag - m).abs();
            if err < best_err || (err == best_err && i % 2 == 0) {
                best_err = err;
                best = i;
            }
        }
        if mag >= MAGNITUDES[7] {
            best = 7;
        }
        Fp4(sign | best as u8)
    }

    /// Each midpoint of the lattice, exactly and one ulp either side, with
    /// both signs: `(midpoint, code below, code at, code above)`.
    #[test]
    fn ties_go_to_the_even_code() {
        let midpoints = [
            (0.25f32, 0u8, 0u8, 1u8),
            (0.75, 1, 2, 2),
            (1.25, 2, 2, 3),
            (1.75, 3, 4, 4),
            (2.5, 4, 4, 5),
            (3.5, 5, 6, 6),
            (5.0, 6, 6, 7),
        ];
        for (mid, below, at, above) in midpoints {
            let bits = mid.to_bits();
            for (x, code) in [
                (f32::from_bits(bits - 1), below),
                (mid, at),
                (f32::from_bits(bits + 1), above),
            ] {
                assert_eq!(Fp4::from_f32(x).code(), code, "x = {x:e}");
                assert_eq!(Fp4::from_f32(-x).code(), code | 0b1000, "x = {:e}", -x);
                assert_eq!(Fp4::from_f32(x), from_f32_search(x), "x = {x:e}");
                assert_eq!(Fp4::from_f32(-x), from_f32_search(-x), "x = {:e}", -x);
            }
        }
    }

    #[test]
    fn zeros_infinities_subnormals_and_signed_nan() {
        let largest_subnormal = f32::from_bits(0x007f_ffff);
        let negative_nan = f32::from_bits(0xffc0_0000);
        assert!(negative_nan.is_nan() && negative_nan.is_sign_negative());
        for (x, code) in [
            (0.0f32, 0u8),
            (-0.0, 8),
            (f32::INFINITY, 7),
            (f32::NEG_INFINITY, 15),
            (largest_subnormal, 0),
            (-largest_subnormal, 8),
            (f32::NAN, 0),
            (negative_nan, 0),
        ] {
            assert_eq!(Fp4::from_f32(x).code(), code, "x = {x:e}");
            assert_eq!(from_f32_search(x).code(), code, "x = {x:e}");
        }
    }

    /// The compares against the search over every `f32` bit pattern,
    /// dealt over the host's cores; prints the mismatch count.
    /// `cargo test --release -p hnlpu-model from_f32_matches_the_search_exhaustive
    /// -- --ignored --nocapture`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn from_f32_matches_the_search_exhaustive() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(workers);
        let mismatches: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let (lo, hi) = (w * span, ((w + 1) * span).min(1 << 32));
                        (lo..hi)
                            .filter(|&bits| {
                                let x = f32::from_bits(bits as u32);
                                Fp4::from_f32(x) != from_f32_search(x)
                            })
                            .count() as u64
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        println!("from_f32: {mismatches} mismatches against the search over 2^32 inputs");
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn half_units_are_exact_integers() {
        for c in all_codes() {
            let hu = c.as_half_units();
            assert!((-12..=12).contains(&hu));
            assert!((hu as f32 * 0.5 - c.to_f32()).abs() < 1e-9);
        }
    }

    #[test]
    fn half_unit_table_matches_values() {
        for c in all_codes() {
            assert_eq!(i32::from(HALF_UNITS[c.code() as usize]), c.as_half_units());
            assert_eq!(f32::from(HALF_UNITS[c.code() as usize]) * 0.5, c.to_f32());
        }
    }

    #[test]
    fn num_codes_is_sixteen() {
        assert_eq!(NUM_CODES, 16);
        assert_eq!(HALF_UNITS.len(), NUM_CODES);
    }
}
