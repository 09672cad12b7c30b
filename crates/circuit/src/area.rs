//! Gate-budget → silicon-area conversion and SRAM macro models.

use crate::tech::TechNode;
use hnlpu_arith::GateBudget;

/// Area of a logic block in mm².
///
/// `regular_fabric` selects the higher packed density achieved by the
/// regular, wire-dominated HN popcount fabric (see [`TechNode`]); leave it
/// `false` for control/VEX-style random logic.
///
/// # Example
///
/// ```
/// use hnlpu_arith::GateBudget;
/// use hnlpu_circuit::{logic_area_mm2, TechNode};
/// let area = logic_area_mm2(&GateBudget::fa(1_000_000), &TechNode::n5(), false);
/// assert!(area > 0.0 && area < 1.0);
/// ```
pub fn logic_area_mm2(budget: &GateBudget, tech: &TechNode, regular_fabric: bool) -> f64 {
    let density = if regular_fabric {
        tech.regular_fabric_tr_per_mm2()
    } else {
        tech.effective_tr_per_mm2()
    };
    budget.transistor_count() as f64 / density
}

/// An on-chip SRAM macro (the paper's Attention Buffer is 20 000 banks of
/// 16 KB, 1W1R, 32-bit ports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Number of independently-ported banks.
    pub banks: u32,
    /// Access width per bank in bits.
    pub port_bits: u32,
}

impl SramMacro {
    /// Silicon area in mm² at `tech` (bit cells + periphery).
    pub fn area_mm2(&self, tech: &TechNode) -> f64 {
        self.bytes as f64 * 8.0 * tech.sram_bit_um2 / 1e6
    }

    /// Energy of reading `bytes` from the macro, in joules.
    pub fn read_energy_j(&self, bytes: u64, tech: &TechNode) -> f64 {
        bytes as f64 * tech.sram_read_pj_per_byte * 1e-12
    }

    /// Steady-state power at a sustained access rate of `bytes_per_s`:
    /// bank clock/periphery overhead plus array access energy.
    pub fn power_w(&self, bytes_per_s: f64, tech: &TechNode) -> f64 {
        self.banks as f64 * tech.sram_bank_overhead_w
            + bytes_per_s * tech.sram_read_pj_per_byte * 1e-12
    }
}

/// Build the SRAM macro with the paper's Attention Buffer geometry scaled to
/// `bytes` (16 KB banks, 32-bit 1W1R ports).
pub fn sram_macro(bytes: u64) -> SramMacro {
    let bank_bytes = 16 * 1024;
    SramMacro {
        bytes,
        banks: bytes.div_ceil(bank_bytes) as u32,
        port_bits: 32,
    }
}

/// The paper's Attention Buffer exactly as §4.3 describes it: 20,000 banks
/// of 16 KB ("320 MB" after rounding), 1W1R, 32-bit ports.
pub fn attention_buffer() -> SramMacro {
    SramMacro {
        bytes: 20_000 * 16 * 1024,
        banks: 20_000,
        port_bits: 32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_buffer_geometry() {
        // "320 MB" buffer => 20,000 banks of 16 KB (§4.3).
        let m = attention_buffer();
        assert_eq!(m.banks, 20_000);
        assert!((m.bytes as f64 - 320e6).abs() / 320e6 < 0.05);
    }

    #[test]
    fn attention_buffer_bandwidth_hits_80_tbps() {
        // §7.1: the buffer sustains 80 TB/s: every bank streams its port
        // width each cycle.
        let m = attention_buffer();
        let bw = m.banks as f64 * (m.port_bits as f64 / 8.0) * TechNode::n5().clock_hz;
        assert!(bw >= 79e12, "bw = {bw:.3e}");
    }

    #[test]
    fn attention_buffer_area_near_paper() {
        // Table 1: Attention Buffer = 136.11 mm².
        let m = attention_buffer();
        let area = m.area_mm2(&TechNode::n5());
        assert!(
            (area - 136.11).abs() / 136.11 < 0.05,
            "area = {area:.2} mm²"
        );
    }

    #[test]
    fn logic_area_monotone_in_budget() {
        let t = TechNode::n5();
        let a1 = logic_area_mm2(&GateBudget::fa(1000), &t, false);
        let a2 = logic_area_mm2(&GateBudget::fa(2000), &t, false);
        assert!(a2 > a1);
    }

    #[test]
    fn regular_fabric_is_denser() {
        let t = TechNode::n5();
        let b = GateBudget::fa(1_000_000);
        assert!(logic_area_mm2(&b, &t, true) < logic_area_mm2(&b, &t, false));
    }

    #[test]
    fn attention_buffer_power_near_paper() {
        // Table 1: Attention Buffer = 85.73 W. The VEX streams 32 KV heads
        // per cycle (~4 KB/cycle = 4 TB/s).
        let m = attention_buffer();
        let p = m.power_w(4.0e12, &TechNode::n5());
        assert!((p - 85.73).abs() / 85.73 < 0.05, "power = {p:.2} W");
    }

    #[test]
    fn read_energy_scales_linearly() {
        let m = sram_macro(1024 * 1024);
        let t = TechNode::n5();
        let e1 = m.read_energy_j(100, &t);
        let e2 = m.read_energy_j(200, &t);
        assert!((e2 - 2.0 * e1).abs() < 1e-18);
    }
}
