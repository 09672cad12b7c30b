//! Weight-precision model for Metal-Embedding (the ABL-PRECISION table).
//!
//! ME allocates one POPCNT region per *unique weight value*: `2^bits`
//! regions. §2.2 notes gpt-oss "is already FP4" — this module quantifies
//! why that matters: region count (and the multiplier/tree finalizer) grows
//! exponentially with weight bits while the per-weight wire cost stays
//! flat, so ME's density advantage erodes at higher precisions.

use crate::array::MeNeuronParams;
use hnlpu_arith::csa::CsaTree;
use hnlpu_arith::popcount::PopcountTree;
use hnlpu_arith::GateBudget;

/// One precision point of the ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionPoint {
    /// Weight bits.
    pub weight_bits: u32,
    /// POPCNT regions (`2^bits`).
    pub regions: u32,
    /// Transistors per weight at gpt-oss fan-in.
    pub transistors_per_weight: f64,
}

/// Structural cost of a generalized ME neuron with `2^weight_bits` regions.
///
/// # Panics
///
/// Panics if `weight_bits` is outside `2..=8` (beyond that the region
/// finalizer dwarfs everything and the comparison is meaningless) or
/// `fan_in == 0`.
pub(crate) fn me_neuron_budget_at_precision(
    fan_in: usize,
    weight_bits: u32,
    p: &MeNeuronParams,
) -> GateBudget {
    assert!((2..=8).contains(&weight_bits), "weight bits out of range");
    assert!(fan_in > 0, "fan_in must be positive");
    let regions = 1u64 << weight_bits;
    let capacity = (fan_in as f64 * p.slack).ceil() as u64;
    let per_region_cap = capacity.div_ceil(regions) as usize;
    let compressor_width = per_region_cap.max(1).div_ceil(p.scan_factor as usize);
    let count_bits = (usize::BITS - per_region_cap.max(1).leading_zeros()).max(1);

    let mut b = GateBudget {
        scan_ports: capacity,
        ..GateBudget::default()
    };
    let compressor = PopcountTree::new(compressor_width).budget();
    let region_acc = GateBudget {
        full_adders: count_bits as u64,
        flops: count_bits as u64,
        ..GateBudget::default()
    };
    b += (compressor + region_acc) * regions;
    // Constant multipliers widen with the value lattice (up to
    // `weight_bits` CSD stages) and the tree fans in over all regions.
    let mul_width = (count_bits + weight_bits) as u64;
    b += GateBudget::fa(mul_width * weight_bits as u64 / 2) * regions;
    b += CsaTree::new(regions as usize, count_bits + weight_bits).budget();
    let acc_bits = (p.activation_bits + count_bits + weight_bits + 1) as u64;
    b += GateBudget {
        full_adders: acc_bits,
        flops: acc_bits,
        ..GateBudget::default()
    };
    b
}

/// Sweep weight precision at gpt-oss fan-in (2,880).
pub fn precision_sweep(p: &MeNeuronParams) -> Vec<PrecisionPoint> {
    (2u32..=8)
        .map(|bits| {
            let budget = me_neuron_budget_at_precision(2880, bits, p);
            PrecisionPoint {
                weight_bits: bits,
                regions: 1 << bits,
                transistors_per_weight: budget.transistor_count() as f64 / 2880.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MeNeuronParams {
        MeNeuronParams::array_default()
    }

    #[test]
    fn four_bit_point_matches_the_production_budget() {
        // The generalized model at 4 bits must track the production
        // `me_neuron_budget` within a few percent (they share structure).
        let general = me_neuron_budget_at_precision(2880, 4, &params()).transistor_count();
        let production = crate::array::me_neuron_budget(2880, &params()).transistor_count();
        let ratio = general as f64 / production as f64;
        assert!((0.85..1.25).contains(&ratio), "ratio = {ratio:.3}");
    }

    #[test]
    fn cost_grows_with_precision() {
        let sweep = precision_sweep(&params());
        for w in sweep.windows(2) {
            assert!(
                w[1].transistors_per_weight > w[0].transistors_per_weight * 0.99,
                "{w:?}"
            );
        }
        // FP8 costs several times FP4 per weight: the paper's implicit
        // argument for 4-bit deployment.
        let fp4 = &sweep[2];
        let fp8 = &sweep[6];
        assert_eq!(fp4.weight_bits, 4);
        assert_eq!(fp8.weight_bits, 8);
        assert!(
            fp8.transistors_per_weight > 2.0 * fp4.transistors_per_weight,
            "fp4 {:.1} vs fp8 {:.1}",
            fp4.transistors_per_weight,
            fp8.transistors_per_weight
        );
    }

    #[test]
    fn two_bit_is_cheapest_but_region_poor() {
        let sweep = precision_sweep(&params());
        assert_eq!(sweep[0].regions, 4);
        assert!(sweep[0].transistors_per_weight < sweep[2].transistors_per_weight);
    }

    #[test]
    #[should_panic(expected = "weight bits out of range")]
    fn nine_bits_rejected() {
        me_neuron_budget_at_precision(2880, 9, &params());
    }
}
