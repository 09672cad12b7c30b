//! Photomask-set pricing over the normalized-DUV-unit model (Appendix B).

use crate::cost::CostRange;
use hnlpu_circuit::MetalStack;

/// Pricing for one technology's photomask sets.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskPricing {
    /// Cost of the complete mask set (all layers), optimistic–pessimistic.
    /// Appendix B anchors 5 nm at $15 M–$30 M.
    pub full_set: CostRange,
    /// The stack being priced.
    pub stack: MetalStack,
}

impl MaskPricing {
    /// The paper's 5 nm pricing.
    pub(crate) fn n5() -> Self {
        MaskPricing {
            full_set: CostRange::new(15.0e6, 30.0e6),
            stack: MetalStack::n5(),
        }
    }

    /// Cost per normalized DUV unit.
    pub(crate) fn per_duv_unit(&self) -> CostRange {
        self.full_set / self.stack.normalized_duv_units()
    }

    /// Cost of the homogeneous (shared) portion of the set — everything
    /// except the metal-embedding masks.
    pub(crate) fn homogeneous(&self) -> CostRange {
        let units = self.stack.normalized_duv_units() - self.stack.embedding_masks() as f64;
        self.per_duv_unit() * units
    }

    /// Cost of one chip variant's metal-embedding masks (all plain DUV).
    pub(crate) fn embedding_per_variant(&self) -> CostRange {
        self.per_duv_unit() * self.stack.embedding_masks() as f64
    }

    /// The single-number "full mask set" figure used in the paper's §2.2
    /// narrative ($30 M at 5 nm) — the pessimistic bound.
    pub(crate) fn headline_full_set(&self) -> f64 {
        self.full_set.high
    }
}

impl Default for MaskPricing {
    fn default() -> Self {
        MaskPricing::n5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_matches_table5() {
        // Table 5: Homogeneous Mask $13.85M – $27.69M.
        let p = MaskPricing::n5();
        let h = p.homogeneous();
        assert!((h.low - 13.85e6).abs() / 13.85e6 < 0.01, "low = {}", h.low);
        assert!(
            (h.high - 27.69e6).abs() / 27.69e6 < 0.01,
            "high = {}",
            h.high
        );
    }

    #[test]
    fn embedding_variant_matches_appendix_b() {
        // Appendix B: $1.15M – $2.31M per chip variant.
        let p = MaskPricing::n5();
        let e = p.embedding_per_variant();
        assert!((e.low - 1.154e6).abs() / 1.154e6 < 0.01, "low = {}", e.low);
        assert!(
            (e.high - 2.308e6).abs() / 2.308e6 < 0.01,
            "high = {}",
            e.high
        );
    }

    #[test]
    fn sixteen_variants_match_table5() {
        // Table 5: Metal-Embedding Mask $18.46M – $36.92M for 16 chips.
        let p = MaskPricing::n5();
        let e = p.embedding_per_variant() * 16.0;
        assert!((e.low - 18.46e6).abs() / 18.46e6 < 0.01);
        assert!((e.high - 36.92e6).abs() / 36.92e6 < 0.01);
    }

    #[test]
    fn embedding_fraction_is_7_7_percent() {
        let p = MaskPricing::n5();
        let frac = p.embedding_per_variant().mid() / p.full_set.mid();
        assert!((frac - 0.077).abs() < 0.001, "frac = {frac}");
    }

    #[test]
    fn homogeneous_plus_embedding_is_full_set() {
        let p = MaskPricing::n5();
        let sum = p.homogeneous() + p.embedding_per_variant();
        assert!((sum.low - p.full_set.low).abs() < 1.0);
        assert!((sum.high - p.full_set.high).abs() < 1.0);
    }
}
