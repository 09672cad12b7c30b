//! The [`HnlpuSystem`] façade: design a complete HNLPU for a model card.

use hnlpu_baselines::{SystemRow, Wse3, H100};
use hnlpu_circuit::TechNode;
use hnlpu_embed::array::MeNeuronParams;
use hnlpu_embed::{ChipReport, HnArrayPlan};
use hnlpu_litho::nre::{chips_for_model, NreScenario, NreSummary};
use hnlpu_model::zoo::ModelCard;
use hnlpu_sim::{Breakdown, HnlpuEngine, SimConfig};
use hnlpu_tco::{DeploymentScale, Table3};

/// A fully designed HNLPU: physical plan, performance model, economics.
#[derive(Debug, Clone)]
pub struct HnlpuSystem {
    card: ModelCard,
    tech: TechNode,
    chips: u32,
    array: HnArrayPlan,
    chip_report: ChipReport,
    engine: HnlpuEngine,
}

impl HnlpuSystem {
    /// Design the machine for `card` at 5 nm with the paper's operating
    /// point.
    pub fn design(card: ModelCard) -> Self {
        Self::design_at(card, TechNode::n5())
    }

    /// Design at an explicit technology node.
    pub(crate) fn design_at(card: ModelCard, tech: TechNode) -> Self {
        let chips = chips_for_model(&card).max(16);
        let params = MeNeuronParams::array_default();
        let array = HnArrayPlan::plan(&card.config, chips, params);
        let chip_report = ChipReport::plan(&card.config, chips, &tech, 32, 6, 8);
        let sim_cfg = SimConfig::for_model(&card.config, array.projection_cycles());
        HnlpuSystem {
            card,
            tech,
            chips,
            array,
            chip_report,
            engine: HnlpuEngine::new(sim_cfg),
        }
    }

    /// The model this machine hardwires.
    pub fn model(&self) -> &ModelCard {
        &self.card
    }

    /// The technology node.
    pub fn tech(&self) -> &TechNode {
        &self.tech
    }

    /// Chip count.
    pub fn num_chips(&self) -> u32 {
        self.chips
    }

    /// The HN-array physical plan.
    pub fn array_plan(&self) -> &HnArrayPlan {
        &self.array
    }

    /// The Table-1-style chip report.
    pub fn chip_report(&self) -> &ChipReport {
        &self.chip_report
    }

    /// The cycle-level engine.
    pub fn engine(&self) -> &HnlpuEngine {
        &self.engine
    }

    /// Decode throughput at `context`, tokens/s.
    pub fn decode_throughput(&self, context: u64) -> f64 {
        self.engine.decode_throughput(context)
    }

    /// Total system power in watts (chips × module overhead, the Table 2
    /// "Total System Power" basis).
    pub fn system_power_w(&self) -> f64 {
        self.chip_report.system_chip_power_w() * 1.4
    }

    /// Total silicon area, mm².
    pub fn silicon_mm2(&self) -> f64 {
        self.chip_report.system_area_mm2()
    }

    /// The HNLPU row of Table 2.
    pub(crate) fn table2_row(&self, context: u64) -> SystemRow {
        SystemRow {
            name: "HNLPU",
            throughput_tokens_per_s: self.decode_throughput(context),
            silicon_mm2: self.silicon_mm2(),
            power_w: self.system_power_w(),
            rack_units: 4.0,
        }
    }

    /// All three Table 2 rows (HNLPU, H100, WSE-3).
    pub fn table2(&self, context: u64) -> Vec<SystemRow> {
        vec![
            self.table2_row(context),
            H100::paper().table2_row(),
            Wse3::paper().table2_row(),
        ]
    }

    /// The Figure-14 breakdown sweep.
    pub fn figure14(&self) -> Vec<Breakdown> {
        self.engine.breakdown_sweep()
    }

    /// NRE pricing for building `systems` machines.
    pub fn nre(&self, systems: u32) -> NreSummary {
        NreSummary::price(NreScenario {
            chips_per_system: self.chips,
            systems,
            die_area_mm2_x100: (self.chip_report.total_area_mm2() * 100.0) as u32,
            hbm_gb: 192,
        })
    }

    /// The Table 3 TCO comparison at `scale`.
    pub fn table3(&self, scale: DeploymentScale) -> Table3 {
        Table3::build(
            scale,
            &hnlpu_tco::Assumptions::paper(),
            self.chip_report.total_power_w(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_model::zoo;

    #[test]
    fn paper_system_headlines() {
        let s = HnlpuSystem::design(zoo::gpt_oss_120b());
        assert_eq!(s.num_chips(), 16);
        // Table 2 anchors within 6%.
        let row = s.table2_row(2048);
        assert!(
            (row.throughput_tokens_per_s - 249_960.0).abs() / 249_960.0 < 0.06,
            "tput = {}",
            row.throughput_tokens_per_s
        );
        assert!((row.silicon_mm2 - 13_232.0).abs() / 13_232.0 < 0.05);
        assert!(
            (row.power_w - 6_900.0).abs() / 6_900.0 < 0.06,
            "p = {}",
            row.power_w
        );
    }

    #[test]
    fn speedup_factors_match_abstract() {
        // 5,555x over H100 and 85x over WSE-3 in throughput;
        // 1,047x / 283x in energy efficiency.
        let s = HnlpuSystem::design(zoo::gpt_oss_120b());
        let rows = s.table2(2048);
        let (hn, h100, wse) = (&rows[0], &rows[1], &rows[2]);
        let tput_vs_gpu = hn.throughput_tokens_per_s / h100.throughput_tokens_per_s;
        let tput_vs_wse = hn.throughput_tokens_per_s / wse.throughput_tokens_per_s;
        assert!(
            (tput_vs_gpu - 5_555.0).abs() / 5_555.0 < 0.07,
            "{tput_vs_gpu:.0}"
        );
        assert!((tput_vs_wse - 85.0).abs() / 85.0 < 0.07, "{tput_vs_wse:.0}");
        let ee_vs_gpu = hn.tokens_per_kj() / h100.tokens_per_kj();
        let ee_vs_wse = hn.tokens_per_kj() / wse.tokens_per_kj();
        assert!(
            (ee_vs_gpu - 1_047.0).abs() / 1_047.0 < 0.10,
            "{ee_vs_gpu:.0}"
        );
        assert!((ee_vs_wse - 283.0).abs() / 283.0 < 0.10, "{ee_vs_wse:.0}");
    }

    #[test]
    fn bigger_models_get_more_chips() {
        let k2 = HnlpuSystem::design(zoo::kimi_k2());
        assert!(k2.num_chips() > 100);
    }

    #[test]
    fn power_model_reproduces_table2_efficiency() {
        let s = HnlpuSystem::design(zoo::gpt_oss_120b());
        let tpj = s.decode_throughput(2048) / s.system_power_w();
        assert!((tpj - 36.0).abs() < 2.5, "tokens/J = {tpj:.1}");
    }

    #[test]
    fn nre_flows_through() {
        let s = HnlpuSystem::design(zoo::gpt_oss_120b());
        let nre = s.nre(1);
        assert!(nre.initial_build().low > 50.0e6);
    }

    #[test]
    fn table3_flows_through() {
        let s = HnlpuSystem::design(zoo::gpt_oss_120b());
        let t3 = s.table3(DeploymentScale::High);
        let (lo, hi) = t3.tco_advantage(hnlpu_tco::UpdatePolicy::AnnualUpdates);
        assert!(lo > 30.0 && hi < 100.0, "({lo:.1}, {hi:.1})");
    }
}
