//! Operational expenditure: electricity and maintenance & support.

use crate::assumptions::Assumptions;
use hnlpu_litho::CostRange;

/// H100 maintenance & support over the horizon: software licenses plus a
/// fraction of total CapEx per year (Appendix B note 7).
pub(crate) fn h100_maintenance_usd(gpus: u32, total_capex_usd: f64, a: &Assumptions) -> f64 {
    let sw = gpus as f64 * a.sw_license_usd_per_gpu_year * a.years;
    let hw = total_capex_usd * a.hw_maintenance_frac_per_year * a.years;
    sw + hw
}

/// HNLPU maintenance: spare nodes at the recurring per-chip cost
/// (Appendix B note 7: 1 spare low-volume, 5 high-volume).
pub(crate) fn hnlpu_maintenance(
    spares: u32,
    chips_per_system: u32,
    recurring_per_chip: CostRange,
) -> CostRange {
    recurring_per_chip * (spares * chips_per_system) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_low_volume_maintenance_matches_table3() {
        // Table 3: $47.24M for 2,000 GPUs on $134.9M CapEx.
        let a = Assumptions::paper();
        let m = h100_maintenance_usd(2000, 134.9e6, &a);
        assert!((m - 47.24e6).abs() / 47.24e6 < 0.01, "m = {m}");
    }

    #[test]
    fn h100_high_volume_maintenance_matches_table3() {
        // Table 3: $2,362M for 100,000 GPUs on $6,747M CapEx.
        let a = Assumptions::paper();
        let m = h100_maintenance_usd(100_000, 6_747.0e6, &a);
        assert!((m - 2_362.0e6).abs() / 2_362.0e6 < 0.005, "m = {m}");
    }

    #[test]
    fn hnlpu_spares_match_table3() {
        // Table 3: $0.0730M–$0.1353M (one spare 16-chip node).
        let per_chip = CostRange::new(4_560.0, 8_454.0);
        let m = hnlpu_maintenance(1, 16, per_chip);
        assert!((m.low - 0.073e6).abs() / 0.073e6 < 0.01);
        assert!((m.high - 0.1353e6).abs() / 0.1353e6 < 0.01);
        // High volume: 5 spares.
        let m5 = hnlpu_maintenance(5, 16, per_chip);
        assert!((m5.low - 0.365e6).abs() / 0.365e6 < 0.01);
        assert!((m5.high - 0.6765e6).abs() / 0.6765e6 < 0.01);
    }
}
