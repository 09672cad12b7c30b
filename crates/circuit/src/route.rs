//! Routing-demand and congestion estimation for the metal-embedding layers.
//!
//! §7.1 reports that ME-layer (M8–M11) routing density stays below 70%,
//! validating that every weight wire fits. This module reproduces that
//! check: demand = total wirelength per layer, supply = tracks × die span.

use crate::metal::MetalStack;
use crate::netlist::Netlist;

/// Per-layer routing utilization report.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteReport {
    /// `(layer name, utilization in 0..)` for every routed layer.
    pub utilization: Vec<(&'static str, f64)>,
    /// Maximum utilization across routed layers.
    pub peak_utilization: f64,
    /// Whether all layers are below the congestion limit.
    pub congestion_free: bool,
    /// Overflowed layers (utilization above the limit).
    pub overflows: Vec<&'static str>,
}

/// A global router over a rectangular die.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    die_width_mm: f64,
    die_height_mm: f64,
    /// Utilization above which a layer counts as congested (paper: 0.7).
    pub congestion_limit: f64,
}

impl Router {
    /// A router for a `width × height` mm die.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is non-positive.
    pub fn new(die_width_mm: f64, die_height_mm: f64) -> Self {
        assert!(
            die_width_mm > 0.0 && die_height_mm > 0.0,
            "die must have positive dimensions"
        );
        Router {
            die_width_mm,
            die_height_mm,
            congestion_limit: 0.7,
        }
    }

    /// Routing supply of one layer in micrometres of track length:
    /// tracks-per-mm × die width × die height (all tracks run the die span).
    fn supply_um(&self, tracks_per_mm: f64) -> f64 {
        tracks_per_mm * self.die_width_mm * self.die_height_mm * 1000.0
    }

    /// Evaluate utilization of `netlist` against the stack's layers.
    ///
    /// Nets whose `layer` index falls outside the stack are counted against
    /// the topmost routed layer (defensive: the compiler should never emit
    /// them).
    pub fn route(&self, netlist: &Netlist, stack: &MetalStack) -> RouteReport {
        let layers = stack.layers();
        let by_layer = netlist.wirelength_by_layer();
        let mut utilization = Vec::new();
        let mut peak = 0.0f64;
        let mut overflows = Vec::new();
        for (idx, layer) in layers.iter().enumerate() {
            let mut demand = by_layer.get(&idx).copied().unwrap_or(0.0);
            if idx == layers.len() - 1 {
                // Fold out-of-range nets into the top layer.
                demand += by_layer.range(layers.len()..).map(|(_, &v)| v).sum::<f64>();
            }
            if demand == 0.0 {
                continue;
            }
            let util = demand / self.supply_um(layer.tracks_per_mm());
            utilization.push((layer.name, util));
            peak = peak.max(util);
            if util > self.congestion_limit {
                overflows.push(layer.name);
            }
        }
        RouteReport {
            congestion_free: overflows.is_empty(),
            peak_utilization: peak,
            utilization,
            overflows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me_layer_index(stack: &MetalStack, name: &str) -> usize {
        stack
            .layers()
            .iter()
            .position(|l| l.name == name)
            .expect("layer exists")
    }

    #[test]
    fn empty_netlist_is_congestion_free() {
        let r = Router::new(28.0, 29.5);
        let rep = r.route(&Netlist::new(), &MetalStack::n5());
        assert!(rep.congestion_free);
        assert_eq!(rep.peak_utilization, 0.0);
    }

    #[test]
    fn moderate_demand_fits() {
        let stack = MetalStack::n5();
        let r = Router::new(28.0, 29.5);
        let m8 = me_layer_index(&stack, "M8");
        let mut nl = Netlist::new();
        // 1M wires of 1mm each on M8: demand 1e9 um; supply at 40nm hp:
        // 12,500 tracks/mm * 28 * 29.5 * 1000 um ≈ 1.03e10 um -> ~10%.
        for _ in 0..1000 {
            nl.add_net(m8, 1_000_000.0);
        }
        let rep = r.route(&nl, &stack);
        assert!(rep.congestion_free, "peak={}", rep.peak_utilization);
        assert!(rep.peak_utilization > 0.05 && rep.peak_utilization < 0.2);
    }

    #[test]
    fn overload_is_flagged() {
        let stack = MetalStack::n5();
        let r = Router::new(1.0, 1.0);
        let m10 = me_layer_index(&stack, "M10");
        let mut nl = Netlist::new();
        // Supply on 1mm² M10: 8333 tracks * 1mm = 8.3e6 um.
        nl.add_net(m10, 9.0e6);
        let rep = r.route(&nl, &stack);
        assert!(!rep.congestion_free);
        assert_eq!(rep.overflows, vec!["M10"]);
    }

    #[test]
    fn out_of_range_layer_folds_to_top() {
        let stack = MetalStack::n5();
        let r = Router::new(10.0, 10.0);
        let mut nl = Netlist::new();
        nl.add_net(999, 100.0);
        let rep = r.route(&nl, &stack);
        assert_eq!(rep.utilization.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive dimensions")]
    fn zero_die_rejected() {
        Router::new(0.0, 1.0);
    }
}
