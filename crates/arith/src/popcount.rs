//! Population-count (POPCNT) networks.
//!
//! In a Hardwired-Neuron, every unique FP4 weight value owns a POPCNT
//! accumulator; all input bits wired (through metal) into that region are
//! counted each cycle (Figure 4 ❷, step 2). This module plans the counter
//! network as a tree of full/half adders and evaluates it exactly.

use crate::gates::GateBudget;

/// A population counter over `capacity` 1-bit inputs.
///
/// The structure is a standard counter tree: at every binary weight, groups
/// of 3 bits feed a full adder (1 sum bit + 1 carry at the next weight) and
/// leftover pairs feed half adders, until one bit remains per weight.
///
/// # Example
///
/// ```
/// use hnlpu_arith::PopcountTree;
/// let p = PopcountTree::new(10);
/// assert_eq!(p.count(&[true, false, true, true, false, true, false, false, true, true]), 6);
/// assert!(p.budget().full_adders > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopcountTree {
    capacity: usize,
    budget: GateBudget,
    depth: u32,
    out_bits: u32,
}

impl PopcountTree {
    /// Plan a counter for up to `capacity` inputs.
    pub fn new(capacity: usize) -> Self {
        let out_bits = if capacity == 0 {
            1
        } else {
            usize::BITS - capacity.leading_zeros()
        };
        // Simulate the reduction structurally to count adders exactly.
        let mut fa = 0u64;
        let mut ha = 0u64;
        let mut depth = 0u32;
        // bits[w] = number of live bits at binary weight w
        let mut bits = vec![capacity as u64];
        while bits.iter().any(|&b| b > 1) {
            let mut next = vec![0u64; bits.len() + 1];
            for (w, &n) in bits.iter().enumerate() {
                let full = n / 3;
                let rem = n % 3;
                fa += full;
                next[w] += full; // sum bits stay at weight w
                next[w + 1] += full; // carries move up
                if rem == 2 {
                    ha += 1;
                    next[w] += 1;
                    next[w + 1] += 1;
                } else {
                    next[w] += rem;
                }
            }
            while next.last() == Some(&0) {
                next.pop();
            }
            bits = next;
            depth += 1;
        }
        PopcountTree {
            capacity,
            budget: GateBudget {
                full_adders: fa,
                half_adders: ha,
                ..GateBudget::default()
            },
            depth,
            out_bits,
        }
    }

    /// Width of the count output in bits.
    pub(crate) fn output_bits(&self) -> u32 {
        self.out_bits
    }

    /// Adder-tree logic depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Structural cost.
    pub fn budget(&self) -> GateBudget {
        self.budget
    }

    /// Count the set inputs. Inputs beyond `capacity` are rejected; missing
    /// trailing inputs count as wired-to-ground zeros (the paper grounds
    /// unused accumulator ports).
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity` inputs are supplied.
    pub fn count(&self, inputs: &[bool]) -> u32 {
        assert!(
            inputs.len() <= self.capacity,
            "{} inputs exceed capacity {}",
            inputs.len(),
            self.capacity
        );
        inputs.iter().filter(|&&b| b).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_capacity() {
        let p = PopcountTree::new(0);
        assert_eq!(p.count(&[]), 0);
        assert_eq!(p.budget(), GateBudget::new());
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn adder_count_is_near_n() {
        // A counter over n bits needs close to n adders (n - O(log n)).
        for n in [7usize, 64, 777, 2880] {
            let p = PopcountTree::new(n);
            let adders = (p.budget().full_adders + p.budget().half_adders) as usize;
            // Our level-by-level construction carries ~15% structural
            // overhead versus the theoretical minimum of n - popcount(n).
            assert!(
                adders <= n + n / 4 + 8 && adders + 64 >= n,
                "n={n} adders={adders}"
            );
        }
    }

    #[test]
    fn output_bits_cover_capacity() {
        assert_eq!(PopcountTree::new(1).output_bits(), 1);
        assert_eq!(PopcountTree::new(7).output_bits(), 3);
        assert_eq!(PopcountTree::new(8).output_bits(), 4);
        assert_eq!(PopcountTree::new(2880).output_bits(), 12);
    }

    #[test]
    fn depth_is_logarithmic() {
        let p = PopcountTree::new(2880);
        assert!(p.depth() >= 12 && p.depth() <= 32, "depth={}", p.depth());
    }

    #[test]
    #[should_panic(expected = "exceed capacity")]
    fn overflow_panics() {
        PopcountTree::new(2).count(&[true, true, true]);
    }

    #[test]
    fn grounded_inputs_count_zero() {
        let p = PopcountTree::new(16);
        assert_eq!(p.count(&[true, true]), 2);
    }

    proptest! {
        #[test]
        fn count_matches_naive(bits in prop::collection::vec(any::<bool>(), 0..500)) {
            let p = PopcountTree::new(bits.len());
            prop_assert_eq!(p.count(&bits) as usize, bits.iter().filter(|&&b| b).count());
        }
    }
}
