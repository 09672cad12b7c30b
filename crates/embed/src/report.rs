//! Single-chip area/power breakdown (Table 1).
//!
//! The two dominant blocks — the HN Array (69% of area) and the Attention
//! Buffer (17%) — are computed bottom-up from the gate/SRAM models. The
//! remaining blocks (VEX, Interconnect Engine, HBM PHY, Control Unit) are
//! standard IP whose internals the paper does not disclose; they are modeled
//! as parameterized IP blocks with the paper's published characteristics as
//! defaults, scaled by link/lane counts when the system geometry changes.

use crate::array::{HnArrayPlan, MeNeuronParams};
use hnlpu_circuit::{attention_buffer, TechNode};
use hnlpu_model::TransformerConfig;

/// One row of the Table 1 breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockReport {
    /// Block name as in Table 1.
    pub name: &'static str,
    /// Area, mm².
    pub area_mm2: f64,
    /// Power, watts.
    pub power_w: f64,
}

/// Per-lane / per-link IP characteristics (5 nm, paper-anchored).
mod ip {
    /// VEX area per KV-head processing lane, mm² (32 lanes ≙ 27.87 mm²:
    /// fp16 GEMV slice, nonlinear units, operand collectors).
    pub(crate) const VEX_AREA_PER_LANE_MM2: f64 = 27.87 / 32.0;
    /// VEX power per lane at full streaming rate, W.
    pub(crate) const VEX_POWER_PER_LANE_W: f64 = 33.09 / 32.0;
    /// Interconnect Engine area per CXL ×16 link, mm² (6 links per chip in
    /// the 4×4 row-column fabric).
    pub(crate) const IE_AREA_PER_LINK_MM2: f64 = 37.92 / 6.0;
    /// Interconnect Engine power per link, W.
    pub(crate) const IE_POWER_PER_LINK_W: f64 = 49.65 / 6.0;
    /// HBM PHY area per stack, mm² (8 stacks per module).
    pub(crate) const HBM_PHY_AREA_PER_STACK_MM2: f64 = 52.0 / 8.0;
    /// HBM PHY power per stack, W.
    pub(crate) const HBM_PHY_POWER_PER_STACK_W: f64 = 63.0 / 8.0;
    /// Control unit (scheduling + pipeline sequencing).
    pub(crate) const CONTROL_AREA_MM2: f64 = 0.02;
    /// Control unit power.
    pub(crate) const CONTROL_POWER_W: f64 = 0.005;
}

/// The full single-chip report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Per-block rows, Table 1 order.
    pub blocks: Vec<BlockReport>,
    /// Number of chips in the system this chip belongs to.
    pub num_chips: u32,
}

impl ChipReport {
    /// Plan one HNLPU chip for `cfg` split across `num_chips` chips, with
    /// `kv_lanes` VEX lanes, `links` CXL links, and `hbm_stacks` HBM stacks.
    pub fn plan(
        cfg: &TransformerConfig,
        num_chips: u32,
        tech: &TechNode,
        kv_lanes: u32,
        links: u32,
        hbm_stacks: u32,
    ) -> Self {
        let array = HnArrayPlan::plan(cfg, num_chips, MeNeuronParams::array_default());
        let buffer = attention_buffer();
        // The buffer streams K and V for `kv_lanes` heads per cycle.
        let kv_bytes_per_s = kv_lanes as f64 * 64.0 * 2.0 * tech.clock_hz;
        let blocks = vec![
            BlockReport {
                name: "HN Array",
                area_mm2: array.area_mm2(tech),
                power_w: array.power_w(tech),
            },
            BlockReport {
                name: "VEX",
                area_mm2: ip::VEX_AREA_PER_LANE_MM2 * kv_lanes as f64,
                power_w: ip::VEX_POWER_PER_LANE_W * kv_lanes as f64,
            },
            BlockReport {
                name: "Control Unit",
                area_mm2: ip::CONTROL_AREA_MM2,
                power_w: ip::CONTROL_POWER_W,
            },
            BlockReport {
                name: "Attention Buffer",
                area_mm2: buffer.area_mm2(tech),
                power_w: buffer.power_w(kv_bytes_per_s, tech),
            },
            BlockReport {
                name: "Interconnect Engine",
                area_mm2: ip::IE_AREA_PER_LINK_MM2 * links as f64,
                power_w: ip::IE_POWER_PER_LINK_W * links as f64,
            },
            BlockReport {
                name: "HBM PHY",
                area_mm2: ip::HBM_PHY_AREA_PER_STACK_MM2 * hbm_stacks as f64,
                power_w: ip::HBM_PHY_POWER_PER_STACK_W * hbm_stacks as f64,
            },
        ];
        ChipReport { blocks, num_chips }
    }

    /// Total chip area, mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.blocks.iter().map(|b| b.area_mm2).sum()
    }

    /// Total chip power, W.
    pub fn total_power_w(&self) -> f64 {
        self.blocks.iter().map(|b| b.power_w).sum()
    }

    /// Total silicon area of the whole multi-chip system, mm².
    pub fn system_area_mm2(&self) -> f64 {
        self.total_area_mm2() * self.num_chips as f64
    }

    /// Total power of all chips, W (chip power only; add HBM devices and
    /// system overheads at the TCO layer).
    pub fn system_chip_power_w(&self) -> f64 {
        self.total_power_w() * self.num_chips as f64
    }

    /// Look up a block by name.
    pub fn block(&self, name: &str) -> Option<&BlockReport> {
        self.blocks.iter().find(|b| b.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_model::zoo;

    fn paper_report() -> ChipReport {
        // The paper's configuration: 16 chips, 32 KV lanes, 6 links, 8 stacks.
        ChipReport::plan(&zoo::gpt_oss_120b().config, 16, &TechNode::n5(), 32, 6, 8)
    }

    #[test]
    fn total_area_matches_table1() {
        // Table 1: 827.08 mm² per chip.
        let a = paper_report().total_area_mm2();
        assert!((a - 827.08).abs() / 827.08 < 0.05, "total area = {a:.2}");
    }

    #[test]
    fn total_power_matches_table1() {
        // Table 1: 308.39 W per chip.
        let p = paper_report().total_power_w();
        assert!((p - 308.39).abs() / 308.39 < 0.05, "total power = {p:.2}");
    }

    #[test]
    fn system_area_matches_table2() {
        // Table 2: 13,232 mm² total silicon over 16 chips.
        let a = paper_report().system_area_mm2();
        assert!(
            (a - 13_232.0).abs() / 13_232.0 < 0.05,
            "system area = {a:.0}"
        );
    }

    #[test]
    fn hn_array_share_is_dominant() {
        // Table 1: HN Array is 69.3% of chip area.
        let r = paper_report();
        let share = r.block("HN Array").unwrap().area_mm2 / r.total_area_mm2();
        assert!((share - 0.693).abs() < 0.04, "share = {share:.3}");
    }

    #[test]
    fn buffer_power_share() {
        // Table 1: Attention Buffer is ~27.8% of chip power.
        let r = paper_report();
        let share = r.block("Attention Buffer").unwrap().power_w / r.total_power_w();
        assert!((share - 0.278).abs() < 0.05, "share = {share:.3}");
    }

    #[test]
    fn block_lookup() {
        let r = paper_report();
        assert!(r.block("VEX").is_some());
        assert!(r.block("GPU").is_none());
    }

    #[test]
    fn scaling_lanes_scales_vex() {
        let cfg = zoo::gpt_oss_120b().config;
        let t = TechNode::n5();
        let small = ChipReport::plan(&cfg, 16, &t, 16, 6, 8);
        let big = ChipReport::plan(&cfg, 16, &t, 64, 6, 8);
        let v_small = small.block("VEX").unwrap().area_mm2;
        let v_big = big.block("VEX").unwrap().area_mm2;
        assert!((v_big / v_small - 4.0).abs() < 1e-9);
    }
}
