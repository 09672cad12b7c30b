//! Baseline systems the paper compares against (§6.3).
//!
//! The paper's baselines are *measurements* — a TensorRT-LLM H100 server
//! and the public Cerebras cloud — not systems under design. This crate
//! models them the same way: each is its measured anchors.
//!
//! * `h100` — NVIDIA H100 under TensorRT-LLM.
//! * `wse` — Cerebras WSE-3 via the public inference cloud.
//! * `cluster` — H100 cluster scaling used by the TCO comparison.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
mod cluster;
mod h100;
mod wse;

pub use cluster::H100Cluster;
pub use h100::H100;
pub use wse::Wse3;

/// A Table-2 row: the characteristics every compared system reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRow {
    /// System name.
    pub name: &'static str,
    /// Decode throughput on gpt-oss 120 B at 2 K context, tokens/s.
    pub throughput_tokens_per_s: f64,
    /// Total silicon area, mm².
    pub silicon_mm2: f64,
    /// Total system power, watts.
    pub power_w: f64,
    /// Rack units occupied.
    pub rack_units: f64,
}

impl SystemRow {
    /// Energy efficiency, tokens per kilojoule.
    pub fn tokens_per_kj(&self) -> f64 {
        self.throughput_tokens_per_s / self.power_w * 1000.0
    }

    /// Area efficiency, tokens/(s·mm²).
    pub fn tokens_per_s_mm2(&self) -> f64 {
        self.throughput_tokens_per_s / self.silicon_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_derived_metrics() {
        let h100 = H100::paper().table2_row();
        // Table 2: H100 34.6 tokens/kJ, 0.055 tokens/(s·mm²).
        assert!((h100.tokens_per_kj() - 34.6).abs() < 1.0);
        assert!((h100.tokens_per_s_mm2() - 0.055).abs() < 0.005);
        let wse = Wse3::paper().table2_row();
        // Table 2: WSE-3 127.8 tokens/kJ, 0.064 tokens/(s·mm²).
        assert!((wse.tokens_per_kj() - 127.8).abs() < 2.0);
        assert!((wse.tokens_per_s_mm2() - 0.064).abs() < 0.005);
    }
}
