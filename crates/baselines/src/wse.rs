//! The Cerebras WSE-3 baseline (§6.3: public-cloud measurement plus
//! published system reports).

use crate::SystemRow;

/// A Cerebras CS-3 / WSE-3 system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wse3 {
    /// Wafer-scale die area, mm² (46,225 mm²).
    pub wafer_mm2: f64,
    /// On-wafer SRAM, bytes (44 GB).
    pub sram_bytes: u64,
    /// System power under load, watts (published reports: 23 kW).
    pub system_power_w: f64,
    /// Measured gpt-oss 120 B throughput on the public cloud, tokens/s.
    pub measured_tokens_per_s: f64,
    /// Rack units.
    pub rack_units: f64,
}

impl Wse3 {
    /// The paper's WSE-3 figures.
    pub fn paper() -> Self {
        Wse3 {
            wafer_mm2: 46_225.0,
            sram_bytes: 44 * 1024 * 1024 * 1024,
            system_power_w: 23_000.0,
            measured_tokens_per_s: 2_940.0,
            rack_units: 16.0,
        }
    }

    /// The Table 2 row.
    pub fn table2_row(&self) -> SystemRow {
        SystemRow {
            name: "WSE-3",
            throughput_tokens_per_s: self.measured_tokens_per_s,
            silicon_mm2: self.wafer_mm2,
            power_w: self.system_power_w,
            rack_units: self.rack_units,
        }
    }
}

impl Default for Wse3 {
    fn default() -> Self {
        Wse3::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_model::zoo;

    #[test]
    fn paper_anchors() {
        let w = Wse3::paper();
        assert_eq!(w.measured_tokens_per_s, 2940.0);
        assert_eq!(w.table2_row().rack_units, 16.0);
    }

    #[test]
    fn gpt_oss_does_not_fit_one_wafer_sram() {
        // 58.5 GB of FP4 weights vs 44 GB SRAM: the cloud shards across
        // wafers, which is part of why WSE trails HNLPU so far.
        let w = Wse3::paper();
        assert!(zoo::gpt_oss_120b().weight_bytes() > w.sram_bytes);
        assert!(zoo::llama3_8b().weight_bytes() <= w.sram_bytes);
    }
}
