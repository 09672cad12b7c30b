//! The full Table 3: 3-year TCO, HNLPU vs equivalently-provisioned H100
//! cluster, at low (1 node / 2,000 GPUs) and high (50 nodes / 100,000 GPUs)
//! deployment volume, under static and annually-updated model policies.

use crate::assumptions::Assumptions;
use crate::capex::{h100_capex_usd, infrastructure_usd};
use crate::carbon::total_tco2e;
use crate::opex::{h100_maintenance_usd, hnlpu_maintenance};
use hnlpu_baselines::H100Cluster;
use hnlpu_litho::nre::{NreScenario, NreSummary};
use hnlpu_litho::{CostRange, WaferPricing};

/// Deployment volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentScale {
    /// One HNLPU node ≙ 2,000 H100s.
    Low,
    /// OpenAI-scale: 50 HNLPU nodes ≙ 100,000 H100s.
    High,
}

impl DeploymentScale {
    /// HNLPU systems at this scale.
    pub(crate) fn hnlpu_systems(self) -> u32 {
        match self {
            DeploymentScale::Low => 1,
            DeploymentScale::High => 50,
        }
    }

    /// Equivalent-throughput H100 count (Appendix B note 1).
    pub(crate) fn h100_gpus(self) -> u32 {
        match self {
            DeploymentScale::Low => 2_000,
            DeploymentScale::High => 100_000,
        }
    }
}

/// Weight-update policy over the 3-year horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// No updates (static model).
    Static,
    /// Annual updates: two re-spins within the horizon.
    AnnualUpdates,
}

impl UpdatePolicy {
    /// Re-spins incurred.
    pub(crate) fn respins(self) -> u32 {
        match self {
            UpdatePolicy::Static => 0,
            UpdatePolicy::AnnualUpdates => 2,
        }
    }
}

/// One system's TCO summary (a Table 3 column).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemTco {
    /// System label.
    pub name: &'static str,
    /// Facility power, watts.
    pub facility_power_w: f64,
    /// Node/hardware price.
    pub node_price: CostRange,
    /// Datacenter infrastructure.
    pub infrastructure: CostRange,
    /// Update re-spin cost (dynamic policy total).
    pub respin_cost: CostRange,
    /// Electricity over the horizon.
    pub electricity: CostRange,
    /// Maintenance & support over the horizon.
    pub maintenance: CostRange,
    /// Total emissions, tCO2e (static policy).
    pub tco2e_static: f64,
    /// Total emissions, tCO2e (with annual updates).
    pub tco2e_dynamic: f64,
}

impl SystemTco {
    /// Initial CapEx (node + infrastructure).
    pub fn initial_capex(&self) -> CostRange {
        self.node_price + self.infrastructure
    }

    /// 3-year TCO under `policy`.
    pub fn tco(&self, policy: UpdatePolicy) -> CostRange {
        let mut t = self.initial_capex() + self.electricity + self.maintenance;
        if policy == UpdatePolicy::AnnualUpdates {
            t += self.respin_cost;
        }
        t
    }

    /// Emissions under `policy`.
    pub fn tco2e(&self, policy: UpdatePolicy) -> f64 {
        match policy {
            UpdatePolicy::Static => self.tco2e_static,
            UpdatePolicy::AnnualUpdates => self.tco2e_dynamic,
        }
    }
}

/// The assembled Table 3 at one deployment scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// Scale analyzed.
    pub scale: DeploymentScale,
    /// HNLPU column.
    pub hnlpu: SystemTco,
    /// H100 column.
    pub h100: SystemTco,
}

impl Table3 {
    /// Build Table 3 with the paper's assumptions. `hnlpu_chip_power_w` is
    /// the per-chip power from the Table 1 model (308.39 W).
    pub fn paper(scale: DeploymentScale) -> Self {
        Self::build(scale, &Assumptions::paper(), 308.39)
    }

    /// Build with explicit assumptions.
    pub fn build(scale: DeploymentScale, a: &Assumptions, hnlpu_chip_power_w: f64) -> Self {
        let systems = scale.hnlpu_systems();
        let chips = systems * 16;

        // --- HNLPU column ---
        let nre = NreSummary::price(NreScenario::gpt_oss(systems));
        // Chip power plus module overhead (HBM devices, VRs, fans) gives
        // the 6.9 kW Table 2 system power; PUE gives the 0.010 MW Table 3
        // datacenter power.
        let it_power_w = chips as f64 * hnlpu_chip_power_w * 1.4;
        let facility_w = it_power_w * a.pue;
        let infra = infrastructure_usd(chips, facility_w, a);
        let recurring_per_chip = WaferPricing::n5().recurring_per_chip(827.08, 192.0).total();
        let spares = match scale {
            DeploymentScale::Low => a.hnlpu_spares_low,
            DeploymentScale::High => a.hnlpu_spares_high,
        };
        let maintenance = hnlpu_maintenance(spares, 16, recurring_per_chip);
        let respins = UpdatePolicy::AnnualUpdates.respins();
        let modules = chips + spares * 16;
        let hnlpu = SystemTco {
            name: "HNLPU",
            facility_power_w: facility_w,
            node_price: nre.initial_build(),
            infrastructure: CostRange::exact(infra),
            respin_cost: nre.respin() * respins as f64,
            electricity: CostRange::exact(a.electricity_usd(facility_w)),
            maintenance,
            tco2e_static: total_tco2e(facility_w, modules, 0, a),
            tco2e_dynamic: total_tco2e(facility_w, modules, respins * chips, a),
        };

        // --- H100 column ---
        let cluster = H100Cluster::new(scale.h100_gpus());
        let (hw, infra) = h100_capex_usd(&cluster, a);
        let facility_w = cluster.facility_power_w();
        let capex_total = hw + infra;
        let h100 = SystemTco {
            name: "H100",
            facility_power_w: facility_w,
            node_price: CostRange::exact(hw),
            infrastructure: CostRange::exact(infra),
            respin_cost: CostRange::zero(),
            electricity: CostRange::exact(a.electricity_usd(facility_w)),
            maintenance: CostRange::exact(h100_maintenance_usd(cluster.gpus, capex_total, a)),
            tco2e_static: total_tco2e(facility_w, cluster.gpus, 0, a),
            tco2e_dynamic: total_tco2e(facility_w, cluster.gpus, 0, a),
        };

        Table3 { scale, hnlpu, h100 }
    }

    /// TCO advantage of HNLPU over H100 under `policy`: `(low, high)`
    /// reduction factors (H100 mid ÷ HNLPU bounds, as the paper quotes).
    pub fn tco_advantage(&self, policy: UpdatePolicy) -> (f64, f64) {
        let h = self.h100.tco(policy).mid();
        let n = self.hnlpu.tco(policy);
        (h / n.high, h / n.low)
    }

    /// Carbon advantage under `policy`.
    pub fn carbon_advantage(&self, policy: UpdatePolicy) -> f64 {
        self.h100.tco2e(policy) / self.hnlpu.tco2e(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_volume_hnlpu_capex_matches_table3() {
        // Table 3: total initial CapEx $59.46M – $123.5M.
        let t = Table3::paper(DeploymentScale::Low);
        let c = t.hnlpu.initial_capex();
        assert!((c.low - 59.46e6).abs() / 59.46e6 < 0.01, "low = {}", c.low);
        assert!(
            (c.high - 123.5e6).abs() / 123.5e6 < 0.01,
            "high = {}",
            c.high
        );
    }

    #[test]
    fn high_volume_hnlpu_capex_matches_table3() {
        // Table 3: $73.13M – $140.2M.
        let t = Table3::paper(DeploymentScale::High);
        let c = t.hnlpu.initial_capex();
        assert!((c.low - 73.13e6).abs() / 73.13e6 < 0.01, "low = {}", c.low);
        assert!(
            (c.high - 140.2e6).abs() / 140.2e6 < 0.01,
            "high = {}",
            c.high
        );
    }

    #[test]
    fn h100_tco_matches_table3() {
        let low = Table3::paper(DeploymentScale::Low);
        let t = low.h100.tco(UpdatePolicy::Static);
        assert!(
            (t.mid() - 191.2e6).abs() / 191.2e6 < 0.01,
            "low = {}",
            t.mid()
        );
        let high = Table3::paper(DeploymentScale::High);
        let t = high.h100.tco(UpdatePolicy::Static);
        assert!(
            (t.mid() - 9_563.0e6).abs() / 9_563.0e6 < 0.01,
            "high = {}",
            t.mid()
        );
    }

    #[test]
    fn hnlpu_static_tco_matches_table3() {
        // Table 3: low $59.56M–$123.7M; high $74.70M–$142.1M.
        let low = Table3::paper(DeploymentScale::Low)
            .hnlpu
            .tco(UpdatePolicy::Static);
        assert!((low.low - 59.56e6).abs() / 59.56e6 < 0.01, "{}", low.low);
        assert!((low.high - 123.7e6).abs() / 123.7e6 < 0.01, "{}", low.high);
        let high = Table3::paper(DeploymentScale::High)
            .hnlpu
            .tco(UpdatePolicy::Static);
        assert!((high.low - 74.70e6).abs() / 74.70e6 < 0.02, "{}", high.low);
        assert!(
            (high.high - 142.1e6).abs() / 142.1e6 < 0.02,
            "{}",
            high.high
        );
    }

    #[test]
    fn hnlpu_dynamic_tco_matches_table3() {
        // Table 3: low $96.62M–$197.8M; high $118.9M–$229.4M.
        let low = Table3::paper(DeploymentScale::Low)
            .hnlpu
            .tco(UpdatePolicy::AnnualUpdates);
        assert!((low.low - 96.62e6).abs() / 96.62e6 < 0.01, "{}", low.low);
        assert!((low.high - 197.8e6).abs() / 197.8e6 < 0.01, "{}", low.high);
        let high = Table3::paper(DeploymentScale::High)
            .hnlpu
            .tco(UpdatePolicy::AnnualUpdates);
        assert!((high.low - 118.9e6).abs() / 118.9e6 < 0.02, "{}", high.low);
        assert!(
            (high.high - 229.4e6).abs() / 229.4e6 < 0.02,
            "{}",
            high.high
        );
    }

    #[test]
    fn high_volume_tco_advantage_is_41_to_80x() {
        // Abstract / §7.5: 41.7x – 80.4x with annual updates.
        let t = Table3::paper(DeploymentScale::High);
        let (lo, hi) = t.tco_advantage(UpdatePolicy::AnnualUpdates);
        assert!((lo - 41.7).abs() / 41.7 < 0.05, "lo = {lo:.1}");
        assert!((hi - 80.4).abs() / 80.4 < 0.05, "hi = {hi:.1}");
    }

    #[test]
    fn carbon_advantage_is_357x() {
        let t = Table3::paper(DeploymentScale::Low);
        let f = t.carbon_advantage(UpdatePolicy::AnnualUpdates);
        assert!((f - 357.0).abs() / 357.0 < 0.06, "f = {f:.0}");
    }

    #[test]
    fn facility_power_anchors() {
        let low = Table3::paper(DeploymentScale::Low);
        assert!((low.hnlpu.facility_power_w - 10_000.0).abs() < 1_000.0);
        assert!((low.h100.facility_power_w - 3.64e6).abs() / 3.64e6 < 0.01);
        let high = Table3::paper(DeploymentScale::High);
        assert!((high.hnlpu.facility_power_w - 483_000.0).abs() / 483_000.0 < 0.1);
        assert!((high.h100.facility_power_w - 182.0e6).abs() / 182.0e6 < 0.01);
    }

    #[test]
    fn electricity_matches_table3() {
        let low = Table3::paper(DeploymentScale::Low);
        assert!((low.hnlpu.electricity.mid() - 0.025e6).abs() / 0.025e6 < 0.1);
        assert!((low.h100.electricity.mid() - 9.088e6).abs() / 9.088e6 < 0.01);
        let high = Table3::paper(DeploymentScale::High);
        assert!((high.hnlpu.electricity.mid() - 1.206e6).abs() / 1.206e6 < 0.1);
        assert!((high.h100.electricity.mid() - 454.4e6).abs() / 454.4e6 < 0.01);
    }
}
