//! The top-level simulated HNLPU.

use crate::config::SimConfig;
use crate::pipeline::{self, Breakdown};

/// A simulated HNLPU system.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HnlpuEngine {
    /// Machine description.
    pub config: SimConfig,
}

impl HnlpuEngine {
    /// The paper's gpt-oss HNLPU.
    pub fn paper_default() -> Self {
        HnlpuEngine {
            config: SimConfig::paper_default(),
        }
    }

    /// Build from an explicit config.
    pub fn new(config: SimConfig) -> Self {
        HnlpuEngine { config }
    }

    /// Steady-state decode throughput at `context`, tokens/s.
    pub fn decode_throughput(&self, context: u64) -> f64 {
        pipeline::decode_throughput(&self.config, context)
    }

    /// Figure-14 breakdown sweep.
    pub fn breakdown_sweep(&self) -> Vec<Breakdown> {
        Breakdown::figure14(&self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_at_2k() {
        let e = HnlpuEngine::paper_default();
        let slots = e.config.pipeline_slots();
        assert_eq!(slots, 216);
        let tput = e.decode_throughput(2048);
        assert!(tput > 200_000.0, "throughput = {tput:.0}");
        // Each of the 216 in-flight sequences gets an equal share.
        let per_sequence = tput / slots as f64;
        assert!((per_sequence * 216.0 - tput).abs() < 1.0);
    }

    #[test]
    fn energy_efficiency_matches_table2() {
        // Table 2: 36,226 tokens/kJ at 6.9 kW total system power.
        let e = HnlpuEngine::paper_default();
        let tpj = e.decode_throughput(2048) / 6_900.0;
        assert!((tpj - 36.2).abs() / 36.2 < 0.06, "tokens/J = {tpj:.1}");
    }

    #[test]
    fn area_efficiency_matches_table2() {
        // Table 2: 18.89 tokens/(s·mm²) over 13,232 mm².
        let e = HnlpuEngine::paper_default();
        let eff = e.decode_throughput(2048) / 13_232.0;
        assert!((eff - 18.89).abs() / 18.89 < 0.06, "eff = {eff:.2}");
    }

    #[test]
    fn breakdown_sweep_has_six_points() {
        assert_eq!(HnlpuEngine::paper_default().breakdown_sweep().len(), 6);
    }
}
