//! Capital expenditure: nodes plus datacenter infrastructure.

use crate::assumptions::Assumptions;

/// Datacenter infrastructure cost: inter-node networking (scaled per
/// device) plus facility construction (scaled per MW of total datacenter
/// power — the basis the paper's Table 3 numbers use).
pub(crate) fn infrastructure_usd(devices: u32, facility_power_w: f64, a: &Assumptions) -> f64 {
    devices as f64 * a.network_usd_per_gpu + facility_power_w / 1e6 * a.facility_usd_per_mw
}

/// H100 cluster CapEx: hardware + infrastructure.
pub(crate) fn h100_capex_usd(
    cluster: &hnlpu_baselines::H100Cluster,
    a: &Assumptions,
) -> (f64, f64) {
    let hw = cluster.hardware_usd();
    let infra = infrastructure_usd(cluster.gpus, cluster.facility_power_w(), a);
    (hw, infra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_baselines::H100Cluster;

    #[test]
    fn h100_low_volume_infra_matches_table3() {
        // Table 3: $54.93M for the 2,000-GPU cluster.
        let a = Assumptions::paper();
        let (_, infra) = h100_capex_usd(&H100Cluster::new(2000), &a);
        assert!((infra - 54.93e6).abs() / 54.93e6 < 0.01, "infra = {infra}");
    }

    #[test]
    fn h100_high_volume_infra_matches_table3() {
        // Table 3: $2,747M for 100,000 GPUs.
        let a = Assumptions::paper();
        let (hw, infra) = h100_capex_usd(&H100Cluster::new(100_000), &a);
        assert!((hw - 4_000.0e6).abs() < 1.0);
        assert!(
            (infra - 2_747.0e6).abs() / 2_747.0e6 < 0.01,
            "infra = {infra}"
        );
    }

    #[test]
    fn hnlpu_low_volume_infra_matches_table3() {
        // Table 3: $0.21M for one 16-chip node at ~9.7 kW IT load.
        let a = Assumptions::paper();
        let infra = infrastructure_usd(16, 9_660.0, &a);
        assert!((infra - 0.21e6).abs() / 0.21e6 < 0.05, "infra = {infra}");
    }

    #[test]
    fn hnlpu_high_volume_infra_matches_table3() {
        // Table 3: $10.30M for 50 nodes (800 chips, 483 kW).
        let a = Assumptions::paper();
        let infra = infrastructure_usd(800, 483_000.0, &a);
        assert!((infra - 10.30e6).abs() / 10.30e6 < 0.01, "infra = {infra}");
    }
}
