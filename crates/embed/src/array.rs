//! Full-chip HN-array planning.
//!
//! The physical Hardwired-Neuron in the Sea-of-Neurons fabric is the
//! *time-multiplexed* variant of the Figure-4 unit: region input ports are
//! scanned `scan_factor` ports per compressor input over subcycles, so a
//! bit-plane of `n` inputs is counted in `scan_factor` cycles by a
//! compressor only `n / scan_factor` wide. This is how the paper's
//! bit-serial "trading time for area" (§3.1) reaches its published density:
//! silicon scales with `n / scan_factor`; only pass-gate ports and metal
//! wires scale with `n`.
//!
//! The functional model (`hnlpu_arith::HardwiredNeuron`) is scan-factor
//! agnostic — scanning changes *when* bits are counted, never *what* the
//! count is — so bit-exactness carries over unchanged.

use hnlpu_arith::csa::CsaTree;
use hnlpu_arith::popcount::PopcountTree;
use hnlpu_arith::GateBudget;
use hnlpu_circuit::power::{block_power, SwitchingActivity};
use hnlpu_circuit::{logic_area_mm2, TechNode};
use hnlpu_model::fp4::NUM_CODES;
use hnlpu_model::TransformerConfig;

/// Physical parameters of an ME neuron instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeNeuronParams {
    /// Activation bit-width fed by the serializers.
    pub activation_bits: u32,
    /// POPCNT provisioning head-room over the fan-in.
    pub slack: f64,
    /// Input ports scanned per compressor input (1 = fully parallel).
    pub scan_factor: u32,
    /// Inputs per prefabricated accumulator slice.
    pub slice_inputs: usize,
}

impl MeNeuronParams {
    /// The full-chip HN-array operating point (calibrated to Table 1).
    pub fn array_default() -> Self {
        MeNeuronParams {
            activation_bits: 12,
            slack: 1.25,
            scan_factor: 10,
            slice_inputs: 64,
        }
    }

    /// The §6.3 benchmark-tile operating point (calibrated to Figure 12/13).
    pub(crate) fn tile_default() -> Self {
        MeNeuronParams {
            activation_bits: 8,
            slack: 1.25,
            scan_factor: 2,
            slice_inputs: 64,
        }
    }
}

/// Structural cost of one time-multiplexed ME neuron of `fan_in` weights.
pub fn me_neuron_budget(fan_in: usize, p: &MeNeuronParams) -> GateBudget {
    assert!(fan_in > 0, "fan_in must be positive");
    let capacity = (fan_in as f64 * p.slack).ceil() as u64;
    let per_region_cap = capacity.div_ceil(NUM_CODES as u64) as usize;
    let compressor_width = per_region_cap.div_ceil(p.scan_factor as usize);
    let count_bits = (usize::BITS - per_region_cap.leading_zeros()).max(1);

    let mut b = GateBudget {
        scan_ports: capacity,
        ..GateBudget::default()
    };
    // 16 region compressors + count accumulators.
    let compressor = PopcountTree::new(compressor_width).budget();
    let region_acc = GateBudget {
        full_adders: count_bits as u64,
        flops: count_bits as u64,
        ..GateBudget::default()
    };
    b += (compressor + region_acc) * NUM_CODES as u64;
    // 16 constant multipliers on the final counts (FP4 constants need at
    // most one adder stage) and the 16-operand tree.
    let mul_width = (count_bits + 4) as u64;
    b += GateBudget::fa(mul_width) * NUM_CODES as u64;
    b += CsaTree::new(NUM_CODES, count_bits + 4).budget();
    // One plane (shift) accumulator per neuron.
    let acc_bits = (p.activation_bits + count_bits + 5) as u64;
    b += GateBudget {
        full_adders: acc_bits,
        flops: acc_bits,
        ..GateBudget::default()
    };
    b
}

/// Cycles for one ME dot product: one subcycle per scanned port group per
/// bit-plane, plus pipeline drain.
pub(crate) fn me_neuron_cycles(p: &MeNeuronParams, fan_in: usize) -> u64 {
    let capacity = (fan_in as f64 * p.slack).ceil() as usize;
    let compressor_width = capacity
        .div_ceil(NUM_CODES)
        .div_ceil(p.scan_factor as usize);
    let drain = PopcountTree::new(compressor_width).depth() as u64
        + 1 // constant multiply
        + CsaTree::new(NUM_CODES, 16).depth() as u64;
    p.activation_bits as u64 * p.scan_factor as u64 + drain
}

/// The planned HN array of one HNLPU chip.
#[derive(Debug, Clone, PartialEq)]
pub struct HnArrayPlan {
    /// Weights hardwired on this chip.
    pub weights_per_chip: u64,
    /// Average neuron fan-in.
    pub avg_fan_in: usize,
    /// Neuron physical parameters.
    pub params: MeNeuronParams,
    /// Aggregate gate budget of the array.
    pub budget: GateBudget,
    /// Fraction of the array switching for any one token (MoE sparsity).
    pub active_fraction: f64,
    /// Number of chips the model is split across.
    pub num_chips: u32,
}

impl HnArrayPlan {
    /// Plan the array for `cfg` split over `num_chips` chips.
    ///
    /// The array hardwires every transformer-block matrix (attention,
    /// router, experts); embedding/unembedding tables stream from HBM
    /// through the VEX unit.
    ///
    /// # Panics
    ///
    /// Panics if `num_chips == 0`.
    pub fn plan(cfg: &TransformerConfig, num_chips: u32, params: MeNeuronParams) -> Self {
        assert!(num_chips > 0, "need at least one chip");
        let mut weights: u64 = 0;
        let mut neurons: u64 = 0;
        let mut budget = GateBudget::default();
        for m in cfg.layer_matrices() {
            // Matrices are partitioned across chips along rows or columns
            // (§5); either way each chip instantiates cols/chips neurons of
            // full fan-in or cols neurons of fan_in/chips — the budget is
            // identical at aggregate level. Model as per-chip share of
            // neurons with full fan-in.
            let per_chip_cols = (m.cols as u64).div_ceil(num_chips as u64);
            let nb = me_neuron_budget(m.rows, &params);
            budget += nb * per_chip_cols;
            neurons += per_chip_cols;
            weights += (m.len() as u64).div_ceil(num_chips as u64);
        }
        budget = budget * cfg.num_layers as u64;
        weights *= cfg.num_layers as u64;
        neurons *= cfg.num_layers as u64;
        // Activity: attention + router always active; experts top-k of E.
        let attn = cfg.attention_params()
            + (cfg.hidden_size * cfg.moe.num_experts * cfg.num_layers) as u64;
        let moe =
            cfg.moe_params() - (cfg.hidden_size * cfg.moe.num_experts * cfg.num_layers) as u64;
        let active = attn as f64 + moe as f64 * cfg.moe.activity_fraction();
        let active_fraction = active / (attn + moe) as f64;
        HnArrayPlan {
            weights_per_chip: weights,
            avg_fan_in: (weights / neurons.max(1)) as usize,
            params,
            budget,
            active_fraction,
            num_chips,
        }
    }

    /// Silicon area of the array on one chip, mm².
    pub fn area_mm2(&self, tech: &TechNode) -> f64 {
        logic_area_mm2(&self.budget, tech, true)
    }

    /// Steady-state array power on one chip, watts, at full pipeline
    /// utilization.
    pub fn power_w(&self, tech: &TechNode) -> f64 {
        block_power(
            &self.budget,
            tech,
            SwitchingActivity {
                toggle_rate: 0.50,
                active_fraction: self.active_fraction,
            },
        )
        .total_w()
    }

    /// Cycles for one projection through an average neuron.
    pub fn projection_cycles(&self) -> u64 {
        me_neuron_cycles(&self.params, self.avg_fan_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_model::zoo;

    fn gpt_oss_plan() -> HnArrayPlan {
        HnArrayPlan::plan(
            &zoo::gpt_oss_120b().config,
            16,
            MeNeuronParams::array_default(),
        )
    }

    #[test]
    fn per_chip_weights_near_one_sixteenth() {
        let plan = gpt_oss_plan();
        let cfg = zoo::gpt_oss_120b().config;
        let hardwired = cfg.total_params() - cfg.embedding_params();
        let expect = hardwired / 16;
        let ratio = plan.weights_per_chip as f64 / expect as f64;
        assert!((0.95..1.1).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn area_matches_table1() {
        // Table 1: HN Array = 573.16 mm² per chip.
        let area = gpt_oss_plan().area_mm2(&TechNode::n5());
        assert!(
            (area - 573.16).abs() / 573.16 < 0.10,
            "HN array area = {area:.2} mm²"
        );
    }

    #[test]
    fn power_matches_table1() {
        // Table 1: HN Array = 76.92 W per chip.
        let p = gpt_oss_plan().power_w(&TechNode::n5());
        assert!(
            (p - 76.92).abs() / 76.92 < 0.15,
            "HN array power = {p:.2} W"
        );
    }

    #[test]
    fn moe_sparsity_drives_low_activity() {
        let plan = gpt_oss_plan();
        assert!(
            plan.active_fraction < 0.08,
            "active fraction = {}",
            plan.active_fraction
        );
    }

    #[test]
    fn projection_cycles_track_scan_factor() {
        let cfg = zoo::gpt_oss_120b().config;
        let mut p = MeNeuronParams::array_default();
        let slow = HnArrayPlan::plan(&cfg, 16, p).projection_cycles();
        p.scan_factor = 1;
        let fast = HnArrayPlan::plan(&cfg, 16, p).projection_cycles();
        assert!(slow > 3 * fast, "slow={slow} fast={fast}");
    }

    #[test]
    fn more_chips_less_area_each() {
        let cfg = zoo::gpt_oss_120b().config;
        let p = MeNeuronParams::array_default();
        let a16 = HnArrayPlan::plan(&cfg, 16, p).area_mm2(&TechNode::n5());
        let a32 = HnArrayPlan::plan(&cfg, 32, p).area_mm2(&TechNode::n5());
        assert!(a32 < a16 * 0.65, "a16={a16} a32={a32}");
    }
}
