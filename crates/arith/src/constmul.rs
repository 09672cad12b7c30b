//! Multiply-by-constant units via canonical-signed-digit (CSD) recoding.
//!
//! "Weight constancy" (§3.1) turns general multipliers into shift-add
//! networks: an FP4 constant needs at most two nonzero CSD digits, which is
//! why a constant multiplier is ~6× smaller than a general FP4 multiplier.

use crate::gates::GateBudget;

/// Canonical signed-digit recoding of a (non-negative) integer: returns the
/// digits in `{-1, 0, +1}` LSB-first, guaranteeing no two adjacent nonzeros.
pub(crate) fn csd_digits(mut n: u64) -> Vec<i8> {
    let mut out = Vec::new();
    while n != 0 {
        if n & 1 == 1 {
            // Look at the next bit to decide between +1 and -1 (choose the
            // representation that zeroes a run of ones).
            let d: i8 = if n & 2 != 0 { -1 } else { 1 };
            out.push(d);
            n = (n as i64 - d as i64) as u64;
        } else {
            out.push(0);
        }
        n >>= 1;
    }
    if out.is_empty() {
        out.push(0);
    }
    out
}

/// A hardwired multiply-by-constant unit for `input_bits`-wide operands.
///
/// # Example
///
/// ```
/// use hnlpu_arith::constmul::ConstMultiplier;
/// let m = ConstMultiplier::new(12, 8);
/// assert_eq!(m.multiply(-7), -84);
/// // 12 = 0b1100 has two nonzero CSD digits -> one adder stage.
/// assert_eq!(m.adder_stages(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstMultiplier {
    constant: i64,
    input_bits: u32,
    stages: u32,
    budget: GateBudget,
}

impl ConstMultiplier {
    /// Build a multiplier by `constant` for `input_bits`-wide signed inputs.
    pub fn new(constant: i64, input_bits: u32) -> Self {
        let digits = csd_digits(constant.unsigned_abs());
        let nonzero = digits.iter().filter(|&&d| d != 0).count() as u32;
        // k nonzero digits need k-1 add/sub stages; shifts are free wires.
        let stages = nonzero.saturating_sub(1);
        let out_bits = input_bits + 64 - constant.unsigned_abs().leading_zeros().min(63);
        let budget = GateBudget::fa(stages as u64 * out_bits as u64);
        ConstMultiplier {
            constant,
            input_bits,
            stages,
            budget,
        }
    }

    /// Number of adder stages in the shift-add network.
    pub fn adder_stages(&self) -> u32 {
        self.stages
    }

    /// Structural cost.
    pub fn budget(&self) -> GateBudget {
        self.budget
    }

    /// Multiply exactly.
    pub fn multiply(&self, x: i64) -> i64 {
        // Functionally identical to `x * constant`; evaluated through the
        // CSD network to mirror the hardware structure.
        let digits = csd_digits(self.constant.unsigned_abs());
        let mut acc = 0i64;
        for (shift, &d) in digits.iter().enumerate() {
            acc += (d as i64) * (x << shift);
        }
        if self.constant < 0 {
            -acc
        } else {
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn csd_has_no_adjacent_nonzeros() {
        for n in 0u64..512 {
            let d = csd_digits(n);
            for w in d.windows(2) {
                assert!(!(w[0] != 0 && w[1] != 0), "n={n} digits={d:?}");
            }
            // Digits reconstruct n.
            let val: i64 = d.iter().enumerate().map(|(i, &x)| (x as i64) << i).sum();
            assert_eq!(val, n as i64);
        }
    }

    #[test]
    fn fp4_constants_need_at_most_one_stage() {
        // FP4 half-unit magnitudes: 0..=12; all have <= 2 nonzero CSD digits.
        for hu in [0i64, 1, 2, 3, 4, 6, 8, 12] {
            let m = ConstMultiplier::new(hu, 8);
            assert!(m.adder_stages() <= 1, "c={hu} stages={}", m.adder_stages());
        }
    }

    #[test]
    fn multiply_by_zero_and_one() {
        assert_eq!(ConstMultiplier::new(0, 8).multiply(123), 0);
        assert_eq!(ConstMultiplier::new(1, 8).multiply(123), 123);
        assert_eq!(ConstMultiplier::new(1, 8).adder_stages(), 0);
    }

    #[test]
    fn negative_constant() {
        assert_eq!(ConstMultiplier::new(-3, 8).multiply(5), -15);
        assert_eq!(ConstMultiplier::new(-3, 8).multiply(-5), 15);
    }

    proptest! {
        #[test]
        fn multiply_matches_native(c in -100i64..100, x in -10_000i64..10_000) {
            let m = ConstMultiplier::new(c, 16);
            prop_assert_eq!(m.multiply(x), c * x);
        }

        #[test]
        fn csd_reconstructs(n in 0u64..1_000_000) {
            let d = csd_digits(n);
            let val: i64 = d.iter().enumerate().map(|(i, &x)| (x as i64) << i).sum();
            prop_assert_eq!(val, n as i64);
        }
    }
}
