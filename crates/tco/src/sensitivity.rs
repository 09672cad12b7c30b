//! Sensitivity analysis over the Appendix-B assumptions.
//!
//! The paper quotes optimistic–pessimistic ranges precisely because the TCO
//! conclusion must survive assumption drift. This module sweeps the
//! assumptions the conclusion could plausibly hinge on — electricity price,
//! PUE, H100 node price, maintenance rate — and reports how the high-volume
//! TCO advantage moves.

use crate::assumptions::Assumptions;
use crate::scenario::{DeploymentScale, Table3, UpdatePolicy};

/// One sensitivity sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityPoint {
    /// Parameter label.
    pub parameter: String,
    /// Multiplier applied to the baseline value.
    pub multiplier: f64,
    /// Resulting TCO advantage `(low, high)` bounds, annual updates,
    /// high volume.
    pub advantage: (f64, f64),
}

/// Which assumption a sweep perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// $/kWh.
    ElectricityPrice,
    /// Facility PUE (clamped at ≥ 1.0).
    Pue,
    /// H100 maintenance fraction per year.
    MaintenanceRate,
    /// Embodied carbon per module (affects the carbon factor, not TCO).
    EmbodiedCarbon,
}

/// Sweep `knob` over `multipliers` at high volume with annual updates.
pub fn sweep(knob: Knob, multipliers: &[f64]) -> Vec<SensitivityPoint> {
    multipliers
        .iter()
        .map(|&m| {
            let mut a = Assumptions::paper();
            let label = match knob {
                Knob::ElectricityPrice => {
                    a.electricity_usd_per_kwh *= m;
                    "electricity $/kWh"
                }
                Knob::Pue => {
                    a.pue = (a.pue * m).max(1.0);
                    "PUE"
                }
                Knob::MaintenanceRate => {
                    a.hw_maintenance_frac_per_year *= m;
                    "maintenance %/yr"
                }
                Knob::EmbodiedCarbon => {
                    a.embodied_kg_per_module *= m;
                    "embodied kgCO2e"
                }
            };
            let t = Table3::build(DeploymentScale::High, &a, 308.39);
            SensitivityPoint {
                parameter: label.to_string(),
                multiplier: m,
                advantage: t.tco_advantage(UpdatePolicy::AnnualUpdates),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_multiplier_reproduces_table3() {
        let p = &sweep(Knob::ElectricityPrice, &[1.0])[0];
        assert!((p.advantage.0 - 41.7).abs() < 1.0, "{:?}", p.advantage);
        assert!((p.advantage.1 - 80.4).abs() < 1.0);
    }

    #[test]
    fn pricier_electricity_helps_hnlpu() {
        // H100's OpEx is electricity-heavy; HNLPU's is not.
        let pts = sweep(Knob::ElectricityPrice, &[0.5, 1.0, 2.0]);
        assert!(pts[2].advantage.0 > pts[0].advantage.0);
    }

    #[test]
    fn maintenance_rate_moves_the_needle() {
        let pts = sweep(Knob::MaintenanceRate, &[0.0, 1.0, 2.0]);
        assert!(pts[2].advantage.0 > pts[0].advantage.0);
    }

    #[test]
    fn embodied_carbon_does_not_change_tco() {
        let pts = sweep(Knob::EmbodiedCarbon, &[0.5, 2.0]);
        assert!((pts[0].advantage.0 - pts[1].advantage.0).abs() < 1e-9);
    }

    #[test]
    fn conclusion_survives_half_to_150_percent_swings() {
        // The paper's qualitative claim ("orders of magnitude cheaper")
        // must not hinge on any single Appendix-B knob: across ±50% swings
        // on every knob, the high-volume TCO advantage stays above 25×.
        let mut floor = f64::INFINITY;
        for knob in [
            Knob::ElectricityPrice,
            Knob::Pue,
            Knob::MaintenanceRate,
            Knob::EmbodiedCarbon,
        ] {
            for p in sweep(knob, &[0.5, 1.0, 1.5]) {
                floor = floor.min(p.advantage.0);
            }
        }
        assert!(floor > 25.0, "advantage floor = {floor:.1}");
    }
}
