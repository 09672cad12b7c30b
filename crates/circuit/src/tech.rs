//! Technology-node calibration.
//!
//! Every number here is either a public 5 nm figure cited by the paper or a
//! calibration chosen so the analytical flow reproduces the paper's
//! published post-layout results (Table 1, Figure 12). EXPERIMENTS.md lists
//! the anchors next to measured outputs.

/// A semiconductor technology node with the constants the modeling flow
/// needs.
///
/// # Example
///
/// ```
/// use hnlpu_circuit::TechNode;
/// let n5 = TechNode::n5();
/// assert_eq!(n5.name, "N5");
/// assert!((n5.mtr_per_mm2 - 138.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TechNode {
    /// Human-readable name ("N5").
    pub name: &'static str,
    /// Logic transistor density in millions of transistors per mm²
    /// (138 MTr/mm² for high-density 5 nm, the paper's §2.2 anchor).
    pub mtr_per_mm2: f64,
    /// Effective area of one SRAM bit including array periphery, in µm².
    /// (5 nm HD 6T bit cell ≈ 0.021 µm²; the Attention Buffer's 1W1R banks
    /// use 8T cells, ≈ 0.05 µm²/bit with periphery — calibrated to Table 1's
    /// 136.11 mm² for 320 MB.)
    pub sram_bit_um2: f64,
    /// Fraction of theoretical logic density achieved after placement and
    /// routing of datapath-heavy logic (EDA utilization × routing overhead).
    pub layout_efficiency: f64,
    /// Bit-serial datapath packing advantage: post-synthesis optimization of
    /// the HN popcount fabric (wire-dominated, regular, low-activity) packs
    /// denser than random logic. Calibrated so the HN array reproduces the
    /// paper's 573.16 mm²/chip (Table 1).
    pub regular_fabric_density_boost: f64,
    /// Dynamic energy per full-adder evaluation, femtojoules.
    pub fa_energy_fj: f64,
    /// Dynamic energy per flip-flop toggle, femtojoules.
    pub dff_energy_fj: f64,
    /// SRAM read energy per byte, picojoules (per-access array energy; bank
    /// clock/periphery overhead is separate).
    pub sram_read_pj_per_byte: f64,
    /// Static + clock overhead per active SRAM bank, watts (calibrated so
    /// the 20,000-bank Attention Buffer reproduces Table 1's 85.73 W).
    pub sram_bank_overhead_w: f64,
    /// Leakage power per million transistors, watts.
    pub leakage_w_per_mtr: f64,
    /// Nominal clock frequency, Hz (1.0 GHz signoff per §7.1).
    pub clock_hz: f64,
    /// Gate delay per adder stage at the worst-case corner, picoseconds
    /// (used by the timing check: depth × delay ≤ period).
    pub stage_delay_ps: f64,
    /// Wire resistance per micrometre on ME layers, ohms (thin 40 nm
    /// half-pitch copper runs ~10 Ω/µm).
    pub wire_ohm_per_um: f64,
    /// Wire capacitance per micrometre on ME layers, femtofarads.
    pub wire_ff_per_um: f64,
}

impl TechNode {
    /// The 5 nm-class node the paper evaluates at.
    pub fn n5() -> Self {
        TechNode {
            name: "N5",
            mtr_per_mm2: 138.0,
            sram_bit_um2: 0.05,
            layout_efficiency: 0.62,
            regular_fabric_density_boost: 2.05,
            fa_energy_fj: 1.1,
            dff_energy_fj: 1.8,
            sram_read_pj_per_byte: 0.15,
            sram_bank_overhead_w: 0.00422,
            leakage_w_per_mtr: 1.1e-4,
            clock_hz: 1.0e9,
            stage_delay_ps: 22.0,
            wire_ohm_per_um: 10.25,
            wire_ff_per_um: 0.49,
        }
    }

    /// Clock period in picoseconds.
    pub(crate) fn period_ps(&self) -> f64 {
        1e12 / self.clock_hz
    }

    /// Effective placed density in transistors per mm² for random logic.
    pub(crate) fn effective_tr_per_mm2(&self) -> f64 {
        self.mtr_per_mm2 * 1e6 * self.layout_efficiency
    }

    /// Effective placed density for regular bit-serial fabrics (HN arrays).
    pub(crate) fn regular_fabric_tr_per_mm2(&self) -> f64 {
        self.effective_tr_per_mm2() * self.regular_fabric_density_boost
    }
}

impl Default for TechNode {
    fn default() -> Self {
        TechNode::n5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n5_anchors() {
        let t = TechNode::n5();
        assert_eq!(t.clock_hz, 1.0e9);
        assert_eq!(t.period_ps(), 1000.0);
        assert!(t.effective_tr_per_mm2() > 5e7);
    }

    #[test]
    fn default_is_n5() {
        assert_eq!(TechNode::default(), TechNode::n5());
    }

    #[test]
    fn regular_fabric_density_exceeds_random_logic() {
        let t = TechNode::n5();
        assert!(t.regular_fabric_tr_per_mm2() > t.effective_tr_per_mm2());
    }
}
