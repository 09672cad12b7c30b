//! Steady-state thermal model for the 2.5D module with direct-to-chip
//! liquid cooling (§4.2 "Thermal Management", §7.1 power-density check).
//!
//! A one-dimensional thermal-resistance stack: junction → die → TIM →
//! cold plate → coolant. Block power densities map to junction
//! temperatures; §7.1's claim is that 0.3 W/mm² average / 1.4 W/mm² peak
//! stays "well within the cooling limits".

/// The thermal stack of one cooled module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalStack {
    /// Coolant supply temperature, °C (facility water loop).
    pub coolant_c: f64,
    /// Junction-to-case resistance, °C·mm²/W (silicon + BEOL spread).
    pub r_junction_case: f64,
    /// Thermal-interface-material resistance, °C·mm²/W.
    pub r_tim: f64,
    /// Cold-plate convective resistance, °C·mm²/W.
    pub r_cold_plate: f64,
    /// Maximum allowed junction temperature, °C.
    pub t_junction_max_c: f64,
}

impl ThermalStack {
    /// A direct-to-chip liquid-cooling stack of the DGX-class kind the
    /// paper cites.
    pub fn dlc() -> Self {
        ThermalStack {
            coolant_c: 35.0,
            r_junction_case: 8.0,
            r_tim: 10.0,
            r_cold_plate: 15.0,
            t_junction_max_c: 105.0,
        }
    }

    /// Total stack resistance, °C·mm²/W.
    pub(crate) fn total_r(&self) -> f64 {
        self.r_junction_case + self.r_tim + self.r_cold_plate
    }

    /// Steady-state junction temperature at a local power density,
    /// °C.
    pub(crate) fn junction_c(&self, density_w_per_mm2: f64) -> f64 {
        self.coolant_c + density_w_per_mm2 * self.total_r()
    }
}

/// Thermal verdict for one chip's power map.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalReport {
    /// Junction temperature at the average density, °C.
    pub t_avg_c: f64,
    /// Margin at the peak, °C.
    pub peak_margin_c: f64,
    /// Whether the whole die stays under the junction limit.
    pub ok: bool,
}

/// Evaluate a chip's `(avg, peak)` power densities against `stack`.
pub fn evaluate(avg_w_per_mm2: f64, peak_w_per_mm2: f64, stack: &ThermalStack) -> ThermalReport {
    let t_avg = stack.junction_c(avg_w_per_mm2);
    let t_peak = stack.junction_c(peak_w_per_mm2);
    ThermalReport {
        t_avg_c: t_avg,
        peak_margin_c: stack.t_junction_max_c - t_peak,
        ok: t_peak <= stack.t_junction_max_c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An air-cooled heatsink stack for comparison (≈3× the convective
    /// resistance).
    fn air() -> ThermalStack {
        ThermalStack {
            coolant_c: 45.0, // inlet air in a hot aisle
            r_junction_case: 8.0,
            r_tim: 10.0,
            r_cold_plate: 95.0,
            t_junction_max_c: 105.0,
        }
    }

    #[test]
    fn paper_densities_are_cool_under_dlc() {
        // §7.1: avg 0.3 W/mm², peak 1.4 W/mm² is "well within" DLC limits.
        let rep = evaluate(0.3, 1.4, &ThermalStack::dlc());
        assert!(rep.ok, "{rep:?}");
        assert!(rep.peak_margin_c > 5.0, "margin = {}", rep.peak_margin_c);
        assert!(rep.t_avg_c < 55.0);
    }

    #[test]
    fn dlc_cools_more_than_air() {
        let dlc = ThermalStack::dlc();
        let air = air();
        assert!(dlc.junction_c(1.0) < air.junction_c(1.0));
    }

    #[test]
    fn gpu_class_hotspots_would_strain_air_cooling() {
        // An H100-class hotspot (~2 W/mm²) exceeds the air stack's limit
        // but stays coolable under DLC — the §4.2 motivation.
        let air = evaluate(0.9, 2.0, &air());
        assert!(!air.ok);
        let dlc = evaluate(0.9, 2.0, &ThermalStack::dlc());
        assert!(dlc.ok);
    }

    #[test]
    fn junction_scales_linearly_with_density() {
        let s = ThermalStack::dlc();
        let t1 = s.junction_c(0.5);
        let t2 = s.junction_c(1.0);
        assert!((t2 - t1 - 0.5 * s.total_r()).abs() < 1e-9);
    }

    #[test]
    fn margin_goes_negative_past_limit() {
        let s = ThermalStack::dlc();
        let limit = (s.t_junction_max_c - s.coolant_c) / s.total_r();
        let rep = evaluate(limit * 0.9, limit * 1.2, &s);
        assert!(rep.peak_margin_c < 0.0 && !rep.ok, "{rep:?}");
    }
}
