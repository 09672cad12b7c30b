//! The three embedding-methodology arithmetic units of the paper, bit-exact.
//!
//! * [`HardwiredNeuron`] — Metal-Embedding (Figure 4 ❷): inputs are wired
//!   by weight *value* into one of 16 POPCNT regions, counted per serialized
//!   bit-plane, multiplied by 16 shared constant multipliers, and summed by
//!   a small 16-operand adder tree. Weights live purely in the wire
//!   topology; the silicon is weight-independent.
//! * [`CellEmbeddingNeuron`] — Cell-Embedding (Figure 4 ❶): one constant
//!   multiplier per weight followed by a wide adder tree. Weights live in
//!   the silicon cells.
//! * [`MacArray`] — the conventional SRAM + MAC-array baseline that fetches
//!   weights every use.
//!
//! All three compute the identical integer dot product
//! `Σ wᵢ·xᵢ` where weights are FP4 expressed in half-units (so results are
//! exact integers in half-units).

use crate::bitserial;
use crate::constmul::ConstMultiplier;
use crate::csa::CsaTree;
use crate::gates::GateBudget;
use crate::popcount::PopcountTree;
use hnlpu_model::fp4::{Fp4, NUM_CODES};

/// Result of evaluating a neuron: the exact dot product (in half-units,
/// i.e. `2 · Σ wᵢxᵢ` for FP4 weights) and the cycles the unit occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeuronOutput {
    /// Exact dot product in half-units.
    pub value_half_units: i64,
    /// Cycles from first input bit to result availability.
    pub cycles: u64,
}

/// Reference dot product in half-units: the ground truth all units match.
pub fn reference_dot(weights: &[Fp4], activations: &[i32]) -> i64 {
    assert_eq!(weights.len(), activations.len(), "length mismatch");
    weights
        .iter()
        .zip(activations.iter())
        .map(|(&w, &x)| w.as_half_units() as i64 * x as i64)
        .sum()
}

/// A Metal-Embedding Hardwired-Neuron.
#[derive(Debug, Clone)]
pub struct HardwiredNeuron {
    /// For each of the 16 FP4 codes, the input indices wired to its region.
    regions: Vec<Vec<usize>>,
    fan_in: usize,
    slack: f64,
    popcounts: Vec<PopcountTree>,
    multipliers: Vec<ConstMultiplier>,
    tree: CsaTree,
    activation_bits: u32,
}

/// Default activation bit-width for the HN array datapath (the VEX unit
/// quantizes activations to 12-bit fixed point before serialization).
pub(crate) const DEFAULT_ACTIVATION_BITS: u32 = 12;

impl HardwiredNeuron {
    /// Wire a neuron for `weights`, provisioning each POPCNT region with a
    /// `slack` (≥ 1.0) head-room factor over the *uniform* share — the
    /// prefabricated accumulator slices are weight-independent, so they are
    /// sized before the weights are known.
    ///
    /// # Panics
    ///
    /// Panics if `slack < 1.0` or `weights` is empty.
    pub fn build(weights: &[Fp4], slack: f64) -> Self {
        Self::build_with_bits(weights, slack, DEFAULT_ACTIVATION_BITS)
    }

    /// As [`build`](Self::build) with an explicit activation bit-width.
    pub fn build_with_bits(weights: &[Fp4], slack: f64, activation_bits: u32) -> Self {
        assert!(slack >= 1.0, "slack must be >= 1.0, got {slack}");
        assert!(!weights.is_empty(), "a neuron needs at least one weight");
        let mut regions: Vec<Vec<usize>> = vec![Vec::new(); NUM_CODES];
        for (i, w) in weights.iter().enumerate() {
            regions[w.code() as usize].push(i);
        }
        // Popcount capacity per region: the larger of the prefab (uniform ×
        // slack) provision and what this weight vector actually needs —
        // region slices are reconfigurable through metal (§3.1), so heavy
        // regions borrow slices from light ones; total capacity is bounded
        // in `budget()` by fan_in × slack.
        let uniform = (weights.len() as f64 * slack / NUM_CODES as f64).ceil() as usize;
        let popcounts: Vec<PopcountTree> = regions
            .iter()
            .map(|r| PopcountTree::new(r.len().max(uniform)))
            .collect();
        let multipliers = (0..NUM_CODES)
            .map(|c| {
                ConstMultiplier::new(
                    Fp4::from_code(c as u8).as_half_units() as i64,
                    popcounts[c].output_bits() + activation_bits,
                )
            })
            .collect();
        HardwiredNeuron {
            regions,
            fan_in: weights.len(),
            slack,
            popcounts,
            multipliers,
            tree: CsaTree::new(NUM_CODES, activation_bits + 16),
            activation_bits,
        }
    }

    /// Evaluate the neuron on `activations`, exactly mirroring the hardware
    /// schedule: serialize LSB-first, POPCNT each region per bit-plane,
    /// accumulate plane sums with their binary weights, multiply each region
    /// total by its constant, and reduce through the adder tree.
    ///
    /// # Panics
    ///
    /// Panics if `activations.len() != self.fan_in()` or an activation does
    /// not fit in the configured bit-width.
    pub fn eval(&self, activations: &[i32]) -> NeuronOutput {
        assert_eq!(activations.len(), self.fan_in, "fan-in mismatch");
        let bits = self.activation_bits;
        let planes = bitserial::serialize(activations, bits);
        // Per-region accumulation over bit planes.
        let mut region_sums = [0i64; NUM_CODES];
        for (b, plane) in planes.iter().enumerate() {
            let pw = bitserial::plane_weight(b as u32, bits) as i64;
            for (code, region) in self.regions.iter().enumerate() {
                if region.is_empty() {
                    continue;
                }
                let routed: Vec<bool> = region.iter().map(|&i| plane[i]).collect();
                let cnt = self.popcounts[code].count(&routed) as i64;
                region_sums[code] += pw * cnt;
            }
        }
        // Multiply-by-constant per region, then final accumulate.
        let products: Vec<i64> = region_sums
            .iter()
            .enumerate()
            .map(|(code, &s)| self.multipliers[code].multiply(s))
            .collect();
        let value = self.tree.reduce(&products);
        // Timing: one cycle per bit-plane through the pipelined popcount,
        // then the popcount, multiplier, and tree pipeline drains.
        let max_pop_depth = self.popcounts.iter().map(|p| p.depth()).max().unwrap_or(0);
        let mul_depth = self
            .multipliers
            .iter()
            .map(|m| m.adder_stages())
            .max()
            .unwrap_or(0);
        let cycles =
            bits as u64 + max_pop_depth as u64 + mul_depth as u64 + self.tree.depth() as u64;
        NeuronOutput {
            value_half_units: value,
            cycles,
        }
    }

    /// Structural cost of the weight-independent silicon: POPCNT slices for
    /// `fan_in × slack` total inputs, 16 constant multipliers, the 16-operand
    /// adder tree, and the per-region plane accumulators.
    pub fn budget(&self) -> GateBudget {
        // The prefab provisions capacity fan_in × slack spread over slices;
        // use one popcount network over that capacity as the canonical cost
        // (slice reconfiguration only moves wires, not cells).
        let capacity = (self.fan_in as f64 * self.slack).ceil() as usize;
        let mut b = PopcountTree::new(capacity).budget();
        for m in &self.multipliers {
            b += m.budget();
        }
        b += self.tree.budget();
        // Plane accumulators: one (activation_bits + count_bits)-wide
        // register + adder per region.
        let acc_width = (self.activation_bits + PopcountTree::new(capacity).output_bits()) as u64;
        b += GateBudget {
            full_adders: NUM_CODES as u64 * acc_width,
            flops: NUM_CODES as u64 * acc_width,
            ..GateBudget::default()
        };
        b
    }
}

/// A conventional Cell-Embedding neuron (Figure 4 ❶): one constant
/// multiplier per weight, a wide parallel adder tree.
#[derive(Debug, Clone)]
pub struct CellEmbeddingNeuron {
    multipliers: Vec<ConstMultiplier>,
    tree: CsaTree,
    activation_bits: u32,
}

impl CellEmbeddingNeuron {
    /// Build multipliers for every weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn build(weights: &[Fp4], activation_bits: u32) -> Self {
        assert!(!weights.is_empty(), "a neuron needs at least one weight");
        let multipliers = weights
            .iter()
            .map(|w| ConstMultiplier::new(w.as_half_units() as i64, activation_bits))
            .collect::<Vec<_>>();
        let tree = CsaTree::new(multipliers.len(), activation_bits + 4);
        CellEmbeddingNeuron {
            multipliers,
            tree,
            activation_bits,
        }
    }

    /// Fan-in.
    pub(crate) fn fan_in(&self) -> usize {
        self.multipliers.len()
    }

    /// Evaluate: all products in parallel, one pass through the adder tree.
    ///
    /// # Panics
    ///
    /// Panics if `activations.len() != self.fan_in()`.
    pub fn eval(&self, activations: &[i32]) -> NeuronOutput {
        assert_eq!(activations.len(), self.fan_in(), "fan-in mismatch");
        let products: Vec<i64> = self
            .multipliers
            .iter()
            .zip(activations.iter())
            .map(|(m, &x)| m.multiply(x as i64))
            .collect();
        let value = self.tree.reduce(&products);
        let mul_depth = self
            .multipliers
            .iter()
            .map(|m| m.adder_stages())
            .max()
            .unwrap_or(0);
        NeuronOutput {
            value_half_units: value,
            cycles: 1 + mul_depth as u64 + self.tree.depth() as u64,
        }
    }

    /// Structural cost: every multiplier plus the wide tree (the Figure-4 ❶
    /// unit is combinational: products feed the tree directly, and only the
    /// neuron output is registered).
    pub fn budget(&self) -> GateBudget {
        let mut b: GateBudget = self.multipliers.iter().map(|m| m.budget()).sum();
        b += self.tree.budget();
        b += GateBudget::dff(self.activation_bits as u64 + 16);
        b
    }
}

/// A time-multiplexed MAC array with SRAM-resident weights (the `MA`
/// baseline of §6.3): `lanes` general multipliers shared across the fan-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacArray {
    lanes: usize,
    activation_bits: u32,
}

impl MacArray {
    /// An array of `lanes` general FP4×fixed multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize, activation_bits: u32) -> Self {
        assert!(lanes > 0, "a MAC array needs at least one lane");
        MacArray {
            lanes,
            activation_bits,
        }
    }

    /// Evaluate a dot product, `lanes` elements per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != activations.len()`.
    pub fn eval(&self, weights: &[Fp4], activations: &[i32]) -> NeuronOutput {
        let value = reference_dot(weights, activations);
        let n = weights.len() as u64;
        let per_pass = self.lanes as u64;
        // One SRAM fetch + MAC issue per group of `lanes`, plus a small
        // pipeline drain for the accumulator reduction.
        let cycles = n.div_ceil(per_pass) + 4;
        NeuronOutput {
            value_half_units: value,
            cycles,
        }
    }

    /// Structural cost of the lanes only (the companion SRAM is costed by
    /// the circuit crate's memory model).
    pub fn budget(&self) -> GateBudget {
        // A general 4b×12b signed multiplier: 4 partial-product rows into a
        // small CSA tree, ~6× the cells of a constant multiplier, plus a
        // 24-bit accumulator per lane.
        let w = self.activation_bits as u64 + 4;
        let per_lane = GateBudget {
            full_adders: 4 * w + 24,
            flops: 24,
            simple_gates: 4 * w, // partial-product AND gates
            ..GateBudget::default()
        };
        per_lane * self.lanes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(seed: u64, n: usize) -> (Vec<Fp4>, Vec<i32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = (0..n)
            .map(|_| Fp4::from_code(rng.gen_range(0..16)))
            .collect();
        let acts = (0..n).map(|_| rng.gen_range(-2048..2048)).collect();
        (weights, acts)
    }

    #[test]
    fn hn_matches_reference() {
        for seed in 0..8 {
            let (w, x) = random_case(seed, 300);
            let hn = HardwiredNeuron::build(&w, 1.25);
            assert_eq!(hn.eval(&x).value_half_units, reference_dot(&w, &x));
        }
    }

    #[test]
    fn ce_matches_reference() {
        for seed in 0..8 {
            let (w, x) = random_case(seed, 300);
            let ce = CellEmbeddingNeuron::build(&w, 12);
            assert_eq!(ce.eval(&x).value_half_units, reference_dot(&w, &x));
        }
    }

    #[test]
    fn ma_matches_reference() {
        let (w, x) = random_case(9, 300);
        let ma = MacArray::new(32, 12);
        assert_eq!(ma.eval(&w, &x).value_half_units, reference_dot(&w, &x));
    }

    #[test]
    fn all_three_agree() {
        let (w, x) = random_case(42, 512);
        let hn = HardwiredNeuron::build(&w, 1.25).eval(&x);
        let ce = CellEmbeddingNeuron::build(&w, 12).eval(&x);
        let ma = MacArray::new(64, 12).eval(&w, &x);
        assert_eq!(hn.value_half_units, ce.value_half_units);
        assert_eq!(ce.value_half_units, ma.value_half_units);
    }

    #[test]
    fn region_sizes_partition_fan_in() {
        let (w, _) = random_case(3, 777);
        let hn = HardwiredNeuron::build(&w, 1.25);
        assert_eq!(hn.regions.len(), NUM_CODES);
        assert_eq!(hn.regions.iter().map(Vec::len).sum::<usize>(), 777);
        assert_eq!(hn.fan_in, 777);
    }

    #[test]
    fn hn_is_much_smaller_than_ce() {
        // The density claim at neuron granularity: ME needs roughly an
        // order of magnitude fewer transistors than CE at gpt-oss fan-in.
        let (w, _) = random_case(5, 2880);
        let hn = HardwiredNeuron::build(&w, 1.25).budget().transistor_count();
        let ce = CellEmbeddingNeuron::build(&w, 12)
            .budget()
            .transistor_count();
        assert!(
            ce as f64 / hn as f64 > 4.0,
            "CE/ME transistor ratio only {:.2} (ce={ce} hn={hn})",
            ce as f64 / hn as f64
        );
    }

    #[test]
    fn ma_is_slow() {
        // Figure 13's shape: a MAC array that shares its lanes across the
        // 128 outputs of the benchmark GEMV (1024 MACs / 128 neurons = 8
        // lanes per neuron) takes far longer than a fully-parallel HN.
        let (w, x) = random_case(6, 1024);
        let ma = MacArray::new(8, 12).eval(&w, &x);
        let hn = HardwiredNeuron::build(&w, 1.25).eval(&x);
        assert!(
            ma.cycles > 3 * hn.cycles,
            "ma={} hn={}",
            ma.cycles,
            hn.cycles
        );
    }

    #[test]
    fn mac_cycles_scale_with_lanes() {
        let (w, x) = random_case(7, 1024);
        let slow = MacArray::new(8, 12).eval(&w, &x).cycles;
        let fast = MacArray::new(256, 12).eval(&w, &x).cycles;
        assert!(slow > 10 * fast / 2, "slow={slow} fast={fast}");
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn slack_below_one_rejected() {
        HardwiredNeuron::build(&[Fp4::ZERO], 0.5);
    }

    #[test]
    #[should_panic(expected = "fan-in mismatch")]
    fn wrong_activation_count_panics() {
        let hn = HardwiredNeuron::build(&[Fp4::ZERO, Fp4::MAX], 1.25);
        hn.eval(&[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn hn_exactness(
            codes in prop::collection::vec(0u8..16, 1..200),
            seed in 0u64..1000,
        ) {
            let weights: Vec<Fp4> = codes.iter().map(|&c| Fp4::from_code(c)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let acts: Vec<i32> = (0..weights.len()).map(|_| rng.gen_range(-2048..2047)).collect();
            let hn = HardwiredNeuron::build(&weights, 1.25);
            prop_assert_eq!(hn.eval(&acts).value_half_units, reference_dot(&weights, &acts));
        }

        #[test]
        fn ce_exactness(
            codes in prop::collection::vec(0u8..16, 1..200),
            seed in 0u64..1000,
        ) {
            let weights: Vec<Fp4> = codes.iter().map(|&c| Fp4::from_code(c)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let acts: Vec<i32> = (0..weights.len()).map(|_| rng.gen_range(-2048..2047)).collect();
            let ce = CellEmbeddingNeuron::build(&weights, 12);
            prop_assert_eq!(ce.eval(&acts).value_half_units, reference_dot(&weights, &acts));
        }
    }
}
