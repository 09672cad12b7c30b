//! The simulated machine description: the paper's machine constants and
//! the hardwired model's shape, from which the collectives and KV derive.

use crate::pipeline;
use hnlpu_model::{zoo, TransformerConfig};

/// CXL 3.0 link parameters (§4.2: <100 ns latency, 128 GB/s per ×16 link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlParams {
    /// Port-to-port PHY latency, nanoseconds.
    pub latency_ns: f64,
    /// Per-message protocol/flit-packing overhead, nanoseconds (CNSim-style
    /// protocol modeling; calibrated so a 4-chip all-reduce of a 2 KB
    /// payload costs ~0.6 µs).
    pub protocol_ns: f64,
    /// Link bandwidth, bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl Default for CxlParams {
    fn default() -> Self {
        CxlParams {
            latency_ns: 100.0,
            protocol_ns: 190.0,
            bandwidth_bytes_per_s: 128.0e9,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Clock frequency, Hz.
    pub clock_hz: f64,
    /// The hardwired model's shape (collective payloads, KV geometry).
    pub model: TransformerConfig,
    /// Pipeline depth in layers (the model's layer count; tests shrink it).
    pub num_layers: u32,
    /// Pipeline stages per layer (6, Figure 11).
    pub stages_per_layer: u32,
    /// Cycles for one HN-array projection (bit-serial scan; from the
    /// embed crate's array plan — 135 at the calibrated operating point).
    pub projection_cycles: u64,
    /// Projections per layer that lie on the token's critical path
    /// (QKV, Xo, router, up/gate in parallel, down = 5).
    pub projections_per_layer: u32,
    /// VEX nonlinear cycles per layer (RMSNorm + softmax + SwiGLU + misc).
    pub nonlinear_cycles: u64,
    /// Cached KV heads the VEX processes per cycle (§4.3: 32).
    pub vex_kv_heads_per_cycle: u32,
    /// Fraction of attention compute hidden under communication by
    /// double-buffered overlap (the breakdown reports exposed time only).
    pub attention_overlap: f64,
    /// KV bytes per token per layer per chip (2 KV heads × 64 dims ×
    /// (K + V) × fp8 = 256 B for gpt-oss on 4 columns).
    pub kv_bytes_per_token_layer_chip: u64,
    /// Attention-buffer capacity, bytes (320 MB).
    pub buffer_bytes: u64,
    /// HBM capacity per module, bytes (192 GB).
    pub hbm_bytes: u64,
    /// Link parameters.
    pub cxl: CxlParams,
}

impl SimConfig {
    /// The paper's HNLPU for gpt-oss 120 B.
    pub fn paper_default() -> Self {
        Self::for_model(&zoo::gpt_oss_120b().config, 135)
    }

    /// The paper's machine hardwiring `model` (pipeline depth and KV
    /// geometry from `model`, projection cycles supplied by the array plan).
    pub fn for_model(model: &TransformerConfig, projection_cycles: u64) -> Self {
        SimConfig {
            clock_hz: 1.0e9,
            model: *model,
            num_layers: model.num_layers as u32,
            stages_per_layer: 6,
            projection_cycles,
            projections_per_layer: 5,
            nonlinear_cycles: 135,
            vex_kv_heads_per_cycle: 32,
            attention_overlap: 0.58,
            kv_bytes_per_token_layer_chip: (pipeline::kv_heads_per_col(model)
                * model.attention.head_dim
                * 2) as u64,
            buffer_bytes: 20_000 * 16 * 1024,
            hbm_bytes: 192 * 1024 * 1024 * 1024,
            cxl: CxlParams::default(),
        }
    }

    /// Pipeline slots = stages × layers (216 for gpt-oss: the paper's
    /// maximum batch size).
    pub fn pipeline_slots(&self) -> u32 {
        self.stages_per_layer * self.num_layers
    }

    /// Convert nanoseconds to clock cycles.
    pub(crate) fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.clock_hz / 1e9
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_model::zoo;

    #[test]
    fn sixteen_chips() {
        // The paper default's collectives are priced on the 4×4 chip grid.
        assert_eq!(crate::pipeline::GRID * crate::pipeline::GRID, 16);
    }

    #[test]
    fn paper_slots_are_216() {
        assert_eq!(SimConfig::paper_default().pipeline_slots(), 216);
    }

    #[test]
    fn ns_conversion_at_1ghz() {
        let c = SimConfig::paper_default();
        assert_eq!(c.ns_to_cycles(100.0), 100.0);
    }

    #[test]
    fn for_model_picks_up_layers_and_kv() {
        let cfg = zoo::gpt_oss_120b().config;
        let c = SimConfig::for_model(&cfg, 135);
        assert_eq!(c.num_layers, 36);
        // 2 KV heads per column x 64 dims x 2 bytes (K and V planes).
        assert_eq!(c.kv_bytes_per_token_layer_chip, 256);
    }
}
