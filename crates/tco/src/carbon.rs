//! Carbon footprint: embodied manufacturing plus operational emissions
//! (Appendix B note 8).

use crate::assumptions::Assumptions;

/// Total emissions of a deployment over the horizon, tCO2e.
///
/// `modules` counts H100 cards or HNLPU chip modules, including spares;
/// `respin_modules` counts modules re-manufactured by weight-update
/// re-spins under the dynamic policy.
pub(crate) fn total_tco2e(
    facility_w: f64,
    modules: u32,
    respin_modules: u32,
    a: &Assumptions,
) -> f64 {
    let embodied = (modules + respin_modules) as f64 * a.embodied_kg_per_module / 1000.0;
    embodied + a.operational_tco2e(facility_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_low_volume_matches_table3() {
        // Table 3: 36,600 tCO2e for 2,000 GPUs at 3.64 MW.
        let c = total_tco2e(3.64e6, 2000, 0, &Assumptions::paper());
        assert!((c - 36_600.0).abs() / 36_600.0 < 0.01, "c = {c}");
    }

    #[test]
    fn h100_high_volume_matches_table3() {
        // Table 3: 1,830,000 tCO2e for 100,000 GPUs at 182 MW.
        let c = total_tco2e(182.0e6, 100_000, 0, &Assumptions::paper());
        assert!((c - 1_830_000.0).abs() / 1_830_000.0 < 0.01, "c = {c}");
    }

    #[test]
    fn hnlpu_low_volume_matches_table3() {
        // Table 3: 102.0 static / 106.0 dynamic for one node (+1 spare)
        // at ~10 kW facility power.
        let a = Assumptions::paper();
        let stat = total_tco2e(10_000.0, 17, 0, &a);
        assert!((stat - 102.0).abs() < 3.0, "static = {stat}");
        let dynamic = total_tco2e(10_000.0, 17, 32, &a);
        assert!((dynamic - 106.0).abs() < 3.0, "dynamic = {dynamic}");
    }

    #[test]
    fn hnlpu_high_volume_matches_table3() {
        // Table 3: 4,924 static / 5,124 dynamic for 50 nodes + 5 spares.
        let a = Assumptions::paper();
        let stat = total_tco2e(483_000.0, 805, 0, &a);
        assert!((stat - 4_924.0).abs() / 4_924.0 < 0.02, "static = {stat}");
        let dynamic = total_tco2e(483_000.0, 805, 1600, &a);
        assert!(
            (dynamic - 5_124.0).abs() / 5_124.0 < 0.02,
            "dynamic = {dynamic}"
        );
    }

    #[test]
    fn carbon_reduction_factor_is_357x() {
        // §7.5: HNLPU is ~357x lower than the H100 cluster (dynamic).
        let a = Assumptions::paper();
        let h100 = total_tco2e(3.64e6, 2000, 0, &a);
        let hnlpu = total_tco2e(10_000.0, 17, 32, &a);
        let factor = h100 / hnlpu;
        assert!(
            (factor - 357.0).abs() / 357.0 < 0.05,
            "factor = {factor:.0}"
        );
    }
}
