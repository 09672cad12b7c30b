//! The back-end-of-line metal stack (Figure 7 / §3.2).
//!
//! Each layer carries a half-pitch and the lithography class needed to
//! pattern it; the class determines both photomask cost (litho crate) and
//! routing capacity (route module). The Sea-of-Neurons architecture reserves
//! M8–M11 as the metal-embedding layers: cheap 193i DUV patterning, above
//! the weight-independent prefabricated cells, below the power grid.

/// Lithographic patterning class of one mask layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LithoClass {
    /// Extreme ultraviolet, single exposure.
    EuvSe,
    /// 193 nm immersion, self-aligned quadruple patterning.
    Saqp193i,
    /// 193 nm immersion, self-aligned double patterning (or LELE).
    Sadp193i,
    /// 193 nm immersion, single exposure.
    Se193i,
}

impl LithoClass {
    /// Relative mask cost in "DUV single-exposure units" (EUV reticles cost
    /// ~6× a standard 193i reticle; multi-patterning uses multiple masks but
    /// each is a standard DUV reticle — the *count* is handled by
    /// `masks_per_layer`).
    pub(crate) fn cost_weight(self) -> f64 {
        match self {
            LithoClass::EuvSe => 6.0,
            _ => 1.0,
        }
    }

    /// Photomasks needed to pattern one such layer.
    pub(crate) fn masks_per_layer(self) -> u32 {
        match self {
            LithoClass::EuvSe => 1,
            LithoClass::Saqp193i => 4,
            LithoClass::Sadp193i => 2,
            LithoClass::Se193i => 1,
        }
    }
}

/// One metal (or device/contact) patterning level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetalLayer {
    /// Name ("M8", "VIA7", …).
    pub name: &'static str,
    /// Half-pitch in nanometres (wire width = space = half-pitch).
    pub half_pitch_nm: f64,
    /// Patterning class.
    pub litho: LithoClass,
    /// True for the M8–M11 metal-embedding levels.
    pub metal_embedding: bool,
}

impl MetalLayer {
    /// Routing tracks available per millimetre of die width on this layer.
    pub fn tracks_per_mm(&self) -> f64 {
        1e6 / (2.0 * self.half_pitch_nm)
    }
}

/// The full per-chip mask stack.
#[derive(Debug, Clone, PartialEq)]
pub struct MetalStack {
    layers: Vec<MetalLayer>,
    feol_euv_masks: u32,
    feol_duv_masks: u32,
}

impl MetalStack {
    /// The 5 nm stack the paper describes: FEOL devices/contacts (EUV +
    /// DUV multipatterning), M0–M3 at ~20 nm half-pitch (SAQP/EUV), M4–M9 at
    /// ~40 nm (SADP), M10–M11 at ~60 nm (193i SE), M12+ power/IO.
    ///
    /// Mask totals are calibrated to the paper's Appendix B accounting:
    /// 12 EUV + 58 DUV masks = 70 masks ≙ 130 normalized DUV units, with the
    /// metal-embedding portion = 10 DUV masks (VIA7, M8 mandrel/cut, VIA8,
    /// M9 mandrel/cut, VIA9, M10, VIA10, M11).
    pub fn n5() -> Self {
        let mut layers = Vec::new();
        // Lower metals (not embedding):
        for (name, hp, litho) in [
            ("M0", 20.0, LithoClass::EuvSe),
            ("M1", 20.0, LithoClass::EuvSe),
            ("M2", 20.0, LithoClass::Saqp193i),
            ("M3", 20.0, LithoClass::Saqp193i),
            ("M4", 40.0, LithoClass::Sadp193i),
            ("M5", 40.0, LithoClass::Sadp193i),
            ("M6", 40.0, LithoClass::Sadp193i),
            ("M7", 40.0, LithoClass::Sadp193i),
        ] {
            layers.push(MetalLayer {
                name,
                half_pitch_nm: hp,
                litho,
                metal_embedding: false,
            });
        }
        // Metal-embedding levels M8-M11 (+ their vias), all plain DUV:
        for (name, hp, litho) in [
            ("VIA7", 40.0, LithoClass::Se193i),
            ("M8", 40.0, LithoClass::Sadp193i),
            ("VIA8", 40.0, LithoClass::Se193i),
            ("M9", 40.0, LithoClass::Sadp193i),
            ("VIA9", 48.0, LithoClass::Se193i),
            ("M10", 60.0, LithoClass::Se193i),
            ("VIA10", 60.0, LithoClass::Se193i),
            ("M11", 60.0, LithoClass::Se193i),
        ] {
            layers.push(MetalLayer {
                name,
                half_pitch_nm: hp,
                litho,
                metal_embedding: true,
            });
        }
        // Top power/clock/IO metals:
        for name in ["M12", "M13", "M14", "M15", "TM0"] {
            layers.push(MetalLayer {
                name,
                half_pitch_nm: 200.0,
                litho: LithoClass::Se193i,
                metal_embedding: false,
            });
        }
        MetalStack {
            layers,
            feol_euv_masks: 10,
            feol_duv_masks: 27,
        }
    }

    /// All patterning levels, bottom-up.
    pub fn layers(&self) -> &[MetalLayer] {
        &self.layers
    }

    /// The metal-embedding levels only.
    pub(crate) fn embedding_layers(&self) -> impl Iterator<Item = &MetalLayer> {
        self.layers.iter().filter(|l| l.metal_embedding)
    }

    /// Total photomask count: FEOL + one per BEOL patterning exposure.
    pub(crate) fn total_masks(&self) -> u32 {
        self.feol_euv_masks
            + self.feol_duv_masks
            + self
                .layers
                .iter()
                .map(|l| l.litho.masks_per_layer())
                .sum::<u32>()
    }

    /// EUV photomask count (FEOL EUV + EUV-patterned metals).
    pub(crate) fn euv_masks(&self) -> u32 {
        self.feol_euv_masks
            + self
                .layers
                .iter()
                .filter(|l| l.litho == LithoClass::EuvSe)
                .map(|l| l.litho.masks_per_layer())
                .sum::<u32>()
    }

    /// DUV photomask count.
    pub(crate) fn duv_masks(&self) -> u32 {
        self.total_masks() - self.euv_masks()
    }

    /// Masks belonging to the metal-embedding levels (all DUV).
    pub fn embedding_masks(&self) -> u32 {
        self.embedding_layers()
            .map(|l| l.litho.masks_per_layer())
            .sum()
    }

    /// Total mask-set value in normalized DUV units (EUV weighted 6×).
    pub fn normalized_duv_units(&self) -> f64 {
        self.euv_masks() as f64 * LithoClass::EuvSe.cost_weight() + self.duv_masks() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_mask_accounting_matches_appendix_b() {
        let s = MetalStack::n5();
        assert_eq!(s.euv_masks(), 12, "12 EUV masks");
        assert_eq!(s.duv_masks(), 58, "58 DUV masks");
        assert_eq!(s.total_masks(), 70, "70-mask 5nm stack");
        assert_eq!(s.normalized_duv_units(), 130.0, "58 + 12*6 = 130 units");
    }

    #[test]
    fn embedding_is_ten_duv_masks() {
        let s = MetalStack::n5();
        assert_eq!(s.embedding_masks(), 10);
        // Sea-of-Neurons shares everything but the embedding levels.
        assert_eq!(
            s.total_masks() - s.embedding_masks(),
            60,
            "60 of 70 masks shared"
        );
        // All embedding masks are plain DUV (no EUV to re-spin).
        assert!(s.embedding_layers().all(|l| l.litho != LithoClass::EuvSe));
    }

    #[test]
    fn embedding_fraction_is_7_7_percent() {
        let s = MetalStack::n5();
        let frac = s.embedding_masks() as f64 / s.normalized_duv_units();
        assert!((frac - 0.077).abs() < 0.001, "frac = {frac:.4}");
    }

    #[test]
    fn tracks_per_mm() {
        let m10 = MetalLayer {
            name: "M10",
            half_pitch_nm: 60.0,
            litho: LithoClass::Se193i,
            metal_embedding: true,
        };
        assert!((m10.tracks_per_mm() - 8333.3).abs() < 1.0);
    }

    #[test]
    fn litho_mask_multiplicity() {
        assert_eq!(LithoClass::Saqp193i.masks_per_layer(), 4);
        assert_eq!(LithoClass::Sadp193i.masks_per_layer(), 2);
        assert_eq!(LithoClass::EuvSe.masks_per_layer(), 1);
    }

    #[test]
    fn euv_masks_are_never_embedding() {
        // The headline Sea-of-Neurons property: every EUV mask is shared.
        let s = MetalStack::n5();
        for l in s.layers() {
            if l.litho == LithoClass::EuvSe {
                assert!(!l.metal_embedding, "{} is EUV and embedding", l.name);
            }
        }
    }
}
