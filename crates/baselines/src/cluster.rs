//! H100 cluster scaling for the TCO comparison (Appendix B).

/// An H100 serving cluster of HGX nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct H100Cluster {
    /// Total GPUs.
    pub gpus: u32,
    /// GPUs per HGX node.
    pub gpus_per_node: u32,
    /// Node price including server, intra-node networking, 3-year warranty
    /// (Appendix B: $320 K per 8-GPU HGX platform).
    pub node_price_usd: f64,
    /// Node wall power under inference load, watts.
    pub node_power_w: f64,
    /// Facility power-usage effectiveness.
    pub pue: f64,
}

impl H100Cluster {
    /// A cluster of `gpus` H100s at the paper's anchors.
    ///
    /// Node power is set so 250 nodes draw the paper's 3.64 MW facility
    /// figure at PUE 1.4 (≈10.4 kW per node).
    pub fn new(gpus: u32) -> Self {
        H100Cluster {
            gpus,
            gpus_per_node: 8,
            node_price_usd: 320_000.0,
            node_power_w: 10_400.0,
            pue: 1.4,
        }
    }

    /// Node count.
    pub(crate) fn nodes(&self) -> u32 {
        self.gpus.div_ceil(self.gpus_per_node)
    }

    /// Cluster hardware price.
    pub fn hardware_usd(&self) -> f64 {
        self.nodes() as f64 * self.node_price_usd
    }

    /// IT (critical) power, watts.
    pub(crate) fn it_power_w(&self) -> f64 {
        self.nodes() as f64 * self.node_power_w
    }

    /// Facility power including PUE, watts.
    pub fn facility_power_w(&self) -> f64 {
        self.it_power_w() * self.pue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h100::H100;

    #[test]
    fn two_thousand_gpus_match_one_hnlpu() {
        // Appendix B note 1: one HNLPU (~2M tokens/s under the TCO
        // workload) ≙ ~2,000 H100s at 1.08K tokens/s each.
        assert_eq!(2000.0 * H100::paper().distributed_tokens_per_s, 2.16e6);
    }

    #[test]
    fn facility_power_anchor() {
        // 2,000 GPUs = 250 nodes -> 3.64 MW at PUE 1.4.
        let c = H100Cluster::new(2000);
        assert_eq!(c.nodes(), 250);
        assert!((c.facility_power_w() - 3.64e6).abs() / 3.64e6 < 0.01);
    }

    #[test]
    fn hardware_price_anchor() {
        // 250 nodes x $320K = $80M (Table 3 "H100 Node Price" low volume).
        let c = H100Cluster::new(2000);
        assert!((c.hardware_usd() - 80.0e6).abs() < 1.0);
    }
}
