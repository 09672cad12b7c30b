//! Dynamic-energy, leakage, and power-density estimation.
//!
//! Mirrors what PrimeTime PX does with a SAIF file: dynamic power is
//! per-cell energy × toggles × activity, static power is leakage over the
//! instantiated transistors.

use crate::tech::TechNode;
use hnlpu_arith::GateBudget;

/// Switching-activity annotation for a block (the SAIF-file stand-in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingActivity {
    /// Fraction of cells that toggle in an average cycle (0..=1).
    pub toggle_rate: f64,
    /// Fraction of the block that is architecturally active at all —
    /// e.g. 4/128 for the MoE expert region of the HN array (§7.1).
    pub active_fraction: f64,
}

impl SwitchingActivity {
    /// Uniform activity (every cell toggles with `toggle_rate`).
    pub fn uniform(toggle_rate: f64) -> Self {
        SwitchingActivity {
            toggle_rate,
            active_fraction: 1.0,
        }
    }

    /// Effective activity product.
    pub(crate) fn effective(&self) -> f64 {
        self.toggle_rate * self.active_fraction
    }
}

impl Default for SwitchingActivity {
    fn default() -> Self {
        SwitchingActivity::uniform(0.2)
    }
}

/// Power estimate for a block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerEstimate {
    /// Dynamic power, watts.
    pub dynamic_w: f64,
    /// Leakage power, watts.
    pub leakage_w: f64,
}

impl PowerEstimate {
    /// Total power.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w + self.leakage_w
    }
}

/// Energy of one full evaluation pass through a gate budget, in joules.
pub fn dynamic_energy_j(budget: &GateBudget, tech: &TechNode, activity: f64) -> f64 {
    let adders = (budget.full_adders + budget.half_adders) as f64 * tech.fa_energy_fj;
    let flops = budget.flops as f64 * tech.dff_energy_fj;
    let rest = (budget.muxes + budget.simple_gates) as f64 * tech.fa_energy_fj * 0.3;
    (adders + flops + rest) * activity * 1e-15
}

/// Steady-state power of a clocked block.
pub fn block_power(
    budget: &GateBudget,
    tech: &TechNode,
    activity: SwitchingActivity,
) -> PowerEstimate {
    let energy_per_cycle = dynamic_energy_j(budget, tech, activity.effective());
    PowerEstimate {
        dynamic_w: energy_per_cycle * tech.clock_hz,
        leakage_w: budget.transistor_count() as f64 / 1e6 * tech.leakage_w_per_mtr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energy_scales_with_activity() {
        let t = TechNode::n5();
        let b = GateBudget::fa(1000);
        let e_half = dynamic_energy_j(&b, &t, 0.5);
        let e_full = dynamic_energy_j(&b, &t, 1.0);
        assert!((e_full - 2.0 * e_half).abs() < 1e-18);
    }

    #[test]
    fn moe_sparsity_cuts_dynamic_power() {
        let t = TechNode::n5();
        let b = GateBudget::fa(1_000_000);
        let dense = block_power(&b, &t, SwitchingActivity::uniform(0.2));
        let sparse = block_power(
            &b,
            &t,
            SwitchingActivity {
                toggle_rate: 0.2,
                active_fraction: 4.0 / 128.0,
            },
        );
        assert!(sparse.dynamic_w < dense.dynamic_w / 20.0);
        // Leakage is unaffected by activity.
        assert_eq!(sparse.leakage_w, dense.leakage_w);
    }

    #[test]
    fn leakage_scales_with_transistors() {
        let t = TechNode::n5();
        let p1 = block_power(&GateBudget::fa(1000), &t, SwitchingActivity::default());
        let p2 = block_power(&GateBudget::fa(2000), &t, SwitchingActivity::default());
        assert!((p2.leakage_w - 2.0 * p1.leakage_w).abs() < 1e-12);
    }

    #[test]
    fn total_sums_components() {
        let p = PowerEstimate {
            dynamic_w: 1.5,
            leakage_w: 0.5,
        };
        assert_eq!(p.total_w(), 2.0);
    }
}
