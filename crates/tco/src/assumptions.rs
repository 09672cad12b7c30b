//! Every Appendix-B constant, with its provenance note.

/// The paper's TCO/carbon assumptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assumptions {
    /// Analysis horizon, years (3-year lifecycle).
    pub years: f64,
    /// Hours per year used in the paper's energy arithmetic (8,760).
    pub hours_per_year: f64,
    /// Industrial electricity, USD/kWh (note 6: $0.095).
    pub electricity_usd_per_kwh: f64,
    /// Facility PUE (note 2: 1.4).
    pub pue: f64,
    /// Facility construction, USD per MW of critical IT load
    /// (note 4: $12 M/MW).
    pub facility_usd_per_mw: f64,
    /// Inter-node networking per H100 node (note 4: ~$45 K/node;
    /// HNLPU networking scales per chip at the same per-device rate).
    pub network_usd_per_gpu: f64,
    /// NVIDIA AI Enterprise software, USD per GPU per year (note 7).
    pub sw_license_usd_per_gpu_year: f64,
    /// Hardware maintenance as a fraction of CapEx per year (note 7: 5%).
    pub hw_maintenance_frac_per_year: f64,
    /// Embodied manufacturing emissions per H100 card or HNLPU module,
    /// kgCO2e (note 8: 124.9).
    pub embodied_kg_per_module: f64,
    /// Grid carbon intensity, kgCO2e/kWh (note 8: 0.38).
    pub grid_kg_per_kwh: f64,
    /// Spare HNLPU nodes provisioned for maintenance: low volume (note 7).
    pub hnlpu_spares_low: u32,
    /// Spare HNLPU nodes provisioned for maintenance: high volume.
    pub hnlpu_spares_high: u32,
}

impl Assumptions {
    /// The paper's values.
    pub fn paper() -> Self {
        Assumptions {
            years: 3.0,
            hours_per_year: 8_760.0,
            electricity_usd_per_kwh: 0.095,
            pue: 1.4,
            facility_usd_per_mw: 12.0e6,
            network_usd_per_gpu: 45_000.0 / 8.0,
            sw_license_usd_per_gpu_year: 4_500.0,
            hw_maintenance_frac_per_year: 0.05,
            embodied_kg_per_module: 124.9,
            grid_kg_per_kwh: 0.38,
            hnlpu_spares_low: 1,
            hnlpu_spares_high: 5,
        }
    }

    /// Hours in the full horizon.
    pub(crate) fn horizon_hours(&self) -> f64 {
        self.years * self.hours_per_year
    }

    /// Electricity cost of `facility_w` watts over the horizon, USD.
    pub(crate) fn electricity_usd(&self, facility_w: f64) -> f64 {
        facility_w / 1000.0 * self.horizon_hours() * self.electricity_usd_per_kwh
    }

    /// Operational carbon of `facility_w` watts over the horizon, tCO2e.
    pub(crate) fn operational_tco2e(&self, facility_w: f64) -> f64 {
        facility_w / 1000.0 * self.horizon_hours() * self.grid_kg_per_kwh / 1000.0
    }
}

impl Default for Assumptions {
    fn default() -> Self {
        Assumptions::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_is_three_years() {
        assert_eq!(Assumptions::paper().horizon_hours(), 26_280.0);
    }

    #[test]
    fn electricity_anchor_364mw() {
        // Table 3: 3.64 MW for 3 years = $9.088M.
        let e = Assumptions::paper().electricity_usd(3.64e6);
        assert!((e - 9.088e6).abs() / 9.088e6 < 0.005, "e = {e}");
    }

    #[test]
    fn operational_carbon_anchor() {
        // 3.64 MW over 3 years at 0.38 kg/kWh ≈ 36,356 tCO2e.
        let c = Assumptions::paper().operational_tco2e(3.64e6);
        assert!((c - 36_356.0).abs() < 100.0, "c = {c}");
    }
}
