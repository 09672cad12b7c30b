//! Sea-of-Neurons mask-sharing accounting (§3.2, Figure 8).
//!
//! The prefabricated HN array shares one 60-mask set (including every EUV
//! mask) across all chips and all future weight updates; only the 10 DUV
//! metal-embedding masks differ per chip and per re-spin. This module
//! computes the headline savings: −86.5% for the initial tapeout, −92.3%
//! for a parameter-only re-spin, and the ~112× total photomask-cost
//! reduction against straightforwardly hardwiring the model in CMAC cells
//! (the "$6 B" Figure-2 scenario).

use crate::cost::CostRange;
use crate::mask_cost::MaskPricing;

/// The mask plan for an n-chip Sea-of-Neurons system.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskPlan {
    /// Shared prefab mask cost (one set for all chips, reused on re-spins).
    pub homogeneous: CostRange,
    /// Embedding masks, all chips (initial or one re-spin).
    pub embedding: CostRange,
    /// Chips in the system.
    pub num_chips: u32,
}

impl MaskPlan {
    /// Total photomask cost of the initial tapeout.
    pub(crate) fn initial(&self) -> CostRange {
        self.homogeneous + self.embedding
    }

    /// Photomask cost of a parameter-only update re-spin (prefab masks are
    /// reused).
    pub(crate) fn respin(&self) -> CostRange {
        self.embedding
    }
}

/// The Sea-of-Neurons cost calculator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeaOfNeurons {
    /// Mask pricing in effect.
    pub pricing: MaskPricing,
}

impl SeaOfNeurons {
    /// Calculator at the paper's 5 nm pricing.
    pub fn n5() -> Self {
        Self::default()
    }

    /// Mask plan for `num_chips` chips.
    pub(crate) fn plan(&self, num_chips: u32) -> MaskPlan {
        MaskPlan {
            homogeneous: self.pricing.homogeneous(),
            embedding: self.pricing.embedding_per_variant() * num_chips as f64,
            num_chips,
        }
    }

    /// Mask cost of hardwiring WITHOUT Sea-of-Neurons: every chip needs its
    /// own full heterogeneous set.
    pub(crate) fn naive_full_sets(&self, num_chips: u32) -> CostRange {
        self.pricing.full_set * num_chips as f64
    }

    /// The §2.2 "$6 B" scenario: straightforward Cell-Embedding hardwiring.
    /// `ce_area_mm2` is the CMAC-array area (176,000 mm² for gpt-oss at
    /// 5 nm), `reticle_mm2` the maximum die per mask set.
    pub fn straightforward_scenario(&self, ce_area_mm2: f64, reticle_mm2: f64) -> CostRange {
        let chips = (ce_area_mm2 / reticle_mm2).ceil();
        // Headline narrative uses the full-set figure per heterogeneous chip.
        CostRange::exact(self.pricing.headline_full_set()) * chips
    }

    /// Initial-tapeout saving vs per-chip full sets, as a fraction
    /// (paper: −86.5% for 16 chips).
    pub fn initial_saving(&self, num_chips: u32) -> f64 {
        let plan = self.plan(num_chips);
        1.0 - plan.initial().mid() / self.naive_full_sets(num_chips).mid()
    }

    /// Re-spin saving vs per-chip full sets (paper: −92.3%).
    pub fn respin_saving(&self, num_chips: u32) -> f64 {
        let plan = self.plan(num_chips);
        1.0 - plan.respin().mid() / self.naive_full_sets(num_chips).mid()
    }

    /// Total photomask-cost reduction factor of HNLPU (ME + Sea-of-Neurons)
    /// against the straightforward CE hardwiring of the same model
    /// (paper abstract: 112×).
    pub fn total_reduction_factor(
        &self,
        ce_area_mm2: f64,
        reticle_mm2: f64,
        num_chips: u32,
    ) -> f64 {
        let naive = self.straightforward_scenario(ce_area_mm2, reticle_mm2);
        let ours = self.plan(num_chips).initial();
        naive.mid() / ours.mid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CE_AREA_MM2: f64 = 176_000.0;
    /// Max die per reticle/mask-set in the §2.2 narrative ("200+ chips").
    const RETICLE_MM2: f64 = 830.0;

    #[test]
    fn initial_saving_is_86_5_percent() {
        let s = SeaOfNeurons::n5();
        let saving = s.initial_saving(16);
        assert!((saving - 0.865).abs() < 0.01, "saving = {saving:.4}");
    }

    #[test]
    fn respin_saving_is_92_3_percent() {
        let s = SeaOfNeurons::n5();
        let saving = s.respin_saving(16);
        assert!((saving - 0.923).abs() < 0.005, "saving = {saving:.4}");
    }

    #[test]
    fn six_billion_dollar_scenario() {
        // §2.2: 176,000 mm² -> 200+ chips -> $30M × 200+ ≈ $6B.
        let s = SeaOfNeurons::n5();
        let naive = s.straightforward_scenario(CE_AREA_MM2, RETICLE_MM2);
        assert!(
            naive.mid() > 6.0e9 && naive.mid() < 6.8e9,
            "naive = {naive}"
        );
    }

    #[test]
    fn total_reduction_is_about_112x() {
        let s = SeaOfNeurons::n5();
        let f = s.total_reduction_factor(CE_AREA_MM2, RETICLE_MM2, 16);
        assert!((f - 112.0).abs() / 112.0 < 0.25, "factor = {f:.1}");
    }

    #[test]
    fn sixteen_chip_plan_matches_figure8() {
        // Figure 8: $27.7M prefab (pessimistic) + $2.3M per chip -> $65M;
        // re-spin $37M.
        let plan = SeaOfNeurons::n5().plan(16);
        assert!((plan.initial().high - 64.6e6).abs() / 64.6e6 < 0.02);
        assert!((plan.respin().high - 36.92e6).abs() / 36.92e6 < 0.01);
    }

    #[test]
    fn respin_cheaper_than_initial() {
        let plan = SeaOfNeurons::n5().plan(16);
        let (respin, initial) = (plan.respin(), plan.initial());
        assert!(respin.low < initial.low && respin.high < initial.high);
    }

    #[test]
    fn savings_grow_with_chip_count() {
        let s = SeaOfNeurons::n5();
        assert!(s.initial_saving(32) > s.initial_saving(16));
        assert!(s.initial_saving(16) > s.initial_saving(4));
    }
}
