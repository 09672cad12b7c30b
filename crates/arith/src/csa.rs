//! Carry-save adder (3:2 compressor) trees.
//!
//! The paper's Figure 3 (right) unfolds single-cycle accumulation into a
//! multi-cycle tree of carry-save adders, trading time for area. This module
//! models the reduction both functionally (exact sums) and structurally
//! (FA/HA counts and logic depth).

use crate::gates::GateBudget;

/// Result of compressing one full-adder stage: `(sum, carry)` with the carry
/// already shifted one binary place left.
pub(crate) fn compress_3_2(a: i64, b: i64, c: i64) -> (i64, i64) {
    // Bitwise carry-save form: sum = a^b^c, carry = majority << 1.
    let sum = a ^ b ^ c;
    let carry = ((a & b) | (a & c) | (b & c)) << 1;
    (sum, carry)
}

/// A carry-save reduction tree over `n` operands of `width` bits.
///
/// # Example
///
/// ```
/// use hnlpu_arith::csa::CsaTree;
/// let t = CsaTree::new(9, 8);
/// assert_eq!(t.reduce(&[1, 2, 3, 4, 5, 6, 7, 8, 9]), 45);
/// assert!(t.depth() >= 4); // ceil(log_{3/2}) stages plus final CPA
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsaTree {
    operands: usize,
    width: u32,
    depth: u32,
    budget: GateBudget,
}

impl CsaTree {
    /// Plan a tree reducing `operands` values of `width` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `operands == 0` or `width == 0`.
    pub fn new(operands: usize, width: u32) -> Self {
        assert!(operands > 0 && width > 0, "degenerate CSA tree");
        // Wallace-style reduction: each stage maps groups of 3 partial
        // results to 2. Count FA rows until 2 remain, then one carry-
        // propagate adder (modeled as `width` FAs).
        let mut remaining = operands;
        let mut depth = 0u32;
        let mut fa_count = 0u64;
        // Partial results gain roughly one significant bit per reduction
        // level; size each level's compressors at that graded width, capped
        // at the final accumulator width.
        let acc_width = width + (usize::BITS - (operands - 1).leading_zeros());
        while remaining > 2 {
            let groups = remaining / 3;
            let level_width = (width + depth + 1).min(acc_width);
            fa_count += groups as u64 * level_width as u64;
            remaining -= groups; // 3 -> 2 per group
            depth += 1;
        }
        let mut budget = GateBudget::fa(fa_count);
        if operands > 1 {
            // Final carry-propagate adder.
            budget += GateBudget::fa(acc_width as u64);
            depth += 1;
        }
        CsaTree {
            operands,
            width,
            depth,
            budget,
        }
    }

    /// Logic depth in adder stages (including the final carry-propagate add).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Structural cost.
    pub fn budget(&self) -> GateBudget {
        self.budget
    }

    /// Exactly reduce `values` (must match `operands`) using carry-save
    /// arithmetic, returning the arithmetic sum.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.operands()`.
    pub fn reduce(&self, values: &[i64]) -> i64 {
        assert_eq!(values.len(), self.operands, "operand count mismatch");
        let mut layer: Vec<i64> = values.to_vec();
        while layer.len() > 2 {
            let mut next = Vec::with_capacity(layer.len() * 2 / 3 + 2);
            let mut chunks = layer.chunks_exact(3);
            for c in &mut chunks {
                let (s, cy) = compress_3_2(c[0], c[1], c[2]);
                next.push(s);
                next.push(cy);
            }
            next.extend_from_slice(chunks.remainder());
            layer = next;
        }
        layer.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn compressor_is_exact() {
        for (a, b, c) in [(1i64, 2, 3), (7, 7, 7), (0xFF, 0x55, 0xAA)] {
            let (s, cy) = compress_3_2(a, b, c);
            assert_eq!(s + cy, a + b + c);
        }
    }

    #[test]
    fn single_operand() {
        let t = CsaTree::new(1, 8);
        assert_eq!(t.reduce(&[42]), 42);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn two_operands_use_one_cpa() {
        let t = CsaTree::new(2, 8);
        assert_eq!(t.reduce(&[40, 2]), 42);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "operand count mismatch")]
    fn wrong_operand_count_panics() {
        CsaTree::new(3, 8).reduce(&[1, 2]);
    }

    #[test]
    fn depth_grows_logarithmically() {
        let d16 = CsaTree::new(16, 8).depth();
        let d256 = CsaTree::new(256, 8).depth();
        assert!(d256 > d16);
        assert!(d256 <= 16, "depth {d256} should be ~log_1.5(256)+1");
    }

    #[test]
    fn budget_scales_with_operands() {
        let b16 = CsaTree::new(16, 8).budget().full_adders;
        let b64 = CsaTree::new(64, 8).budget().full_adders;
        assert!(b64 > 3 * b16);
    }

    proptest! {
        #[test]
        fn reduce_matches_sum(values in prop::collection::vec(-1000i64..1000, 1..200)) {
            let t = CsaTree::new(values.len(), 16);
            prop_assert_eq!(t.reduce(&values), values.iter().sum::<i64>());
        }
    }
}
