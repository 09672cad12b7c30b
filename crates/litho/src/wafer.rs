//! Wafer-level recurring costs (Appendix B, Table 5 "Recurring Cost").

use crate::cost::CostRange;
use hnlpu_circuit::yield_model::good_dies_per_wafer;

/// Wafer and assembly pricing for a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferPricing {
    /// Processed-wafer price, USD (5 nm: $16,988).
    pub wafer_usd: f64,
    /// Wafer diameter, mm.
    pub wafer_diameter_mm: f64,
    /// Defect density for Murphy yield, defects/cm².
    pub d0_per_cm2: f64,
    /// Packaging + test per wafer (2.5D integration), USD range.
    pub package_test_per_wafer: CostRange,
    /// HBM price per GB, USD range.
    pub hbm_per_gb: CostRange,
    /// System integration per chip (chassis, board, cooling, CXL), USD range.
    pub system_integration_per_chip: CostRange,
}

impl WaferPricing {
    /// The paper's 5 nm anchors.
    pub fn n5() -> Self {
        WaferPricing {
            wafer_usd: 16_988.0,
            wafer_diameter_mm: 300.0,
            d0_per_cm2: 0.11,
            package_test_per_wafer: CostRange::new(3_000.0, 5_000.0),
            hbm_per_gb: CostRange::new(10.0, 20.0),
            system_integration_per_chip: CostRange::new(1_900.0, 3_800.0),
        }
    }

    /// Good dies per wafer for a `die_area_mm2` die.
    pub(crate) fn good_dies(&self, die_area_mm2: f64) -> u32 {
        good_dies_per_wafer(die_area_mm2, self.wafer_diameter_mm, self.d0_per_cm2)
    }

    /// Silicon cost per good die.
    pub(crate) fn silicon_per_die(&self, die_area_mm2: f64) -> f64 {
        self.wafer_usd / self.good_dies(die_area_mm2).max(1) as f64
    }

    /// Full recurring cost of one packaged HNLPU chip with `hbm_gb` of HBM.
    pub fn recurring_per_chip(&self, die_area_mm2: f64, hbm_gb: f64) -> RecurringCosts {
        let good = self.good_dies(die_area_mm2).max(1);
        RecurringCosts {
            wafer: CostRange::exact(self.silicon_per_die(die_area_mm2)),
            package_test: self.package_test_per_wafer / good as f64,
            hbm: self.hbm_per_gb * hbm_gb,
            system_integration: self.system_integration_per_chip,
        }
    }
}

impl Default for WaferPricing {
    fn default() -> Self {
        WaferPricing::n5()
    }
}

/// Per-chip recurring cost breakdown (Table 5 top section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecurringCosts {
    /// Silicon (wafer share) per good die.
    pub wafer: CostRange,
    /// Packaging and test share.
    pub package_test: CostRange,
    /// HBM stacks.
    pub hbm: CostRange,
    /// System integration share.
    pub system_integration: CostRange,
}

impl RecurringCosts {
    /// Total recurring cost per chip.
    pub fn total(&self) -> CostRange {
        self.wafer + self.package_test + self.hbm + self.system_integration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_circuit::yield_model::dies_per_wafer;

    /// The paper's chip: 827.08 mm², 192 GB HBM (8 × 24 GB).
    fn paper_chip() -> RecurringCosts {
        WaferPricing::n5().recurring_per_chip(827.08, 192.0)
    }

    #[test]
    fn wafer_cost_is_629_per_die() {
        // Table 5: Wafer $629/chip.
        let w = paper_chip().wafer.mid();
        assert!((w - 629.0).abs() < 35.0, "wafer = {w:.0}");
    }

    #[test]
    fn package_test_matches_table5() {
        // Table 5: $111 – $185.
        let p = paper_chip().package_test;
        assert!((p.low - 111.0).abs() < 10.0, "low = {}", p.low);
        assert!((p.high - 185.0).abs() < 15.0, "high = {}", p.high);
    }

    #[test]
    fn hbm_matches_table5() {
        // Table 5: $1,920 – $3,840.
        let h = paper_chip().hbm;
        assert_eq!(h.low, 1_920.0);
        assert_eq!(h.high, 3_840.0);
    }

    #[test]
    fn total_recurring_per_chip() {
        // Appendix B: $4,560 – $8,454 per chip.
        let t = paper_chip().total();
        assert!((t.low - 4_560.0).abs() / 4_560.0 < 0.02, "low = {}", t.low);
        assert!(
            (t.high - 8_454.0).abs() / 8_454.0 < 0.02,
            "high = {}",
            t.high
        );
    }

    #[test]
    fn sixteen_chips_fit_one_wafer_by_gross_count() {
        let p = WaferPricing::n5();
        assert!(dies_per_wafer(827.08, p.wafer_diameter_mm) >= 16);
        // After yield, one wafer still gives ~27 good dies: a 16-chip
        // system needs a single wafer.
        assert!(p.good_dies(827.08) >= 16);
    }

    #[test]
    fn yield_penalty_grows_with_die() {
        let p = WaferPricing::n5();
        assert!(p.silicon_per_die(200.0) < p.silicon_per_die(827.08));
    }
}
