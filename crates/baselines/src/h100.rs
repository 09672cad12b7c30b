//! The NVIDIA H100 baseline (§6.3: direct measurement, TensorRT-LLM).

use crate::SystemRow;

/// An H100 SXM device with its measured serving anchors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct H100 {
    /// Die size, mm².
    pub die_mm2: f64,
    /// Board+host power under inference load, watts (the paper's Table 2
    /// quotes 1.3 kW for the serving configuration).
    pub system_power_w: f64,
    /// Measured gpt-oss 120 B decode throughput in the paper's Table 2
    /// configuration (2 K context, tuned), tokens/s.
    pub measured_tokens_per_s: f64,
    /// Average per-GPU throughput in the distributed high-concurrency
    /// deployment used for TCO normalization (Appendix B note 1:
    /// 1.08 K tokens/s at concurrency 50).
    pub distributed_tokens_per_s: f64,
}

impl H100 {
    /// The paper's measured H100.
    pub fn paper() -> Self {
        H100 {
            die_mm2: 814.0,
            system_power_w: 1_300.0,
            measured_tokens_per_s: 45.0,
            distributed_tokens_per_s: 1_080.0,
        }
    }

    /// The Table 2 row.
    pub fn table2_row(&self) -> SystemRow {
        SystemRow {
            name: "H100",
            throughput_tokens_per_s: self.measured_tokens_per_s,
            silicon_mm2: self.die_mm2,
            power_w: self.system_power_w,
            rack_units: 1.0,
        }
    }
}

impl Default for H100 {
    fn default() -> Self {
        H100::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_anchors() {
        let r = H100::paper().table2_row();
        assert_eq!(r.throughput_tokens_per_s, 45.0);
        assert_eq!(r.silicon_mm2, 814.0);
        assert_eq!(r.power_w, 1300.0);
    }
}
