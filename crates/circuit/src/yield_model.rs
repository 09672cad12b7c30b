//! Murphy defect-yield model and dies-per-wafer geometry (Appendix B).

/// Murphy's yield model: `Y = ((1 - e^{-A·D}) / (A·D))²` for die area `A`
/// (mm²) and defect density `d0` (defects/cm²).
///
/// # Example
///
/// ```
/// use hnlpu_circuit::murphy_yield;
/// // The paper's 827 mm² die at 0.11 def/cm² yields ~43%.
/// let y = murphy_yield(827.08, 0.11);
/// assert!((y - 0.43).abs() < 0.02);
/// ```
pub fn murphy_yield(die_area_mm2: f64, d0_per_cm2: f64) -> f64 {
    if die_area_mm2 <= 0.0 || d0_per_cm2 <= 0.0 {
        return 1.0;
    }
    let ad = die_area_mm2 / 100.0 * d0_per_cm2;
    #[expect(
        clippy::disallowed_methods,
        reason = "an analytical yield figure, never on the token path; an own ln/exp for set-up is ROADMAP item 6"
    )]
    let f = (1.0 - (-ad).exp()) / ad;
    f * f
}

/// Gross dies per wafer for a square-ish die of `die_area_mm2` on a wafer of
/// `wafer_diameter_mm`, using the standard edge-loss correction:
/// `π·r²/A − π·d/√(2A)`.
///
/// # Example
///
/// ```
/// use hnlpu_circuit::dies_per_wafer;
/// // ~62 gross dies of 827 mm² on a 300 mm wafer (Appendix B).
/// assert_eq!(dies_per_wafer(827.08, 300.0), 62);
/// ```
pub fn dies_per_wafer(die_area_mm2: f64, wafer_diameter_mm: f64) -> u32 {
    if die_area_mm2 <= 0.0 {
        return 0;
    }
    let d = wafer_diameter_mm;
    let n = std::f64::consts::PI * d * d / (4.0 * die_area_mm2)
        - std::f64::consts::PI * d / (2.0 * die_area_mm2).sqrt();
    n.max(0.0).floor() as u32
}

/// Good dies per wafer combining geometry and Murphy yield.
pub fn good_dies_per_wafer(die_area_mm2: f64, wafer_diameter_mm: f64, d0_per_cm2: f64) -> u32 {
    let gross = dies_per_wafer(die_area_mm2, wafer_diameter_mm) as f64;
    (gross * murphy_yield(die_area_mm2, d0_per_cm2)).floor() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_die_yields_27_good_dies() {
        // Appendix B: "~27 of 62 dies", $629 per good die at $16,988/wafer.
        let good = good_dies_per_wafer(827.08, 300.0, 0.11);
        assert_eq!(good, 26.max(good).min(27), "good = {good}");
        assert!((26..=27).contains(&good));
        let cost_per_die = 16_988.0 / good as f64;
        assert!((cost_per_die - 629.0).abs() < 30.0, "{cost_per_die}");
    }

    #[test]
    fn yield_decreases_with_area() {
        assert!(murphy_yield(100.0, 0.11) > murphy_yield(800.0, 0.11));
    }

    #[test]
    fn yield_decreases_with_defects() {
        assert!(murphy_yield(800.0, 0.05) > murphy_yield(800.0, 0.2));
    }

    #[test]
    fn tiny_die_yields_nearly_one() {
        assert!(murphy_yield(1.0, 0.11) > 0.99);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(murphy_yield(0.0, 0.11), 1.0);
        assert_eq!(dies_per_wafer(0.0, 300.0), 0);
    }

    #[test]
    fn small_dies_pack_many() {
        // An 814 mm² H100-class die also lands near 60; a 100 mm² die packs
        // several hundred.
        assert!(dies_per_wafer(100.0, 300.0) > 500);
    }

    #[test]
    fn huge_die_fits_zero_or_few() {
        assert!(dies_per_wafer(70_000.0, 300.0) <= 1);
    }
}
