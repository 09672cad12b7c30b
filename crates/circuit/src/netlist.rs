//! A minimal wire list.
//!
//! The metal-embedding compiler records its wire demand here, one net per
//! metal layer, and the router reads it back as wirelength per layer: the
//! one structural question the paper's "<70% ME-layer density" check asks.

use std::collections::BTreeMap;

/// One routed metal connection.
#[derive(Debug)]
struct Net {
    /// Metal layer index (into the owning stack's layer list) this net is
    /// routed on.
    layer: usize,
    /// Estimated routed length in micrometres.
    length_um: f64,
}

/// A growing netlist.
///
/// # Example
///
/// ```
/// use hnlpu_circuit::netlist::Netlist;
/// use hnlpu_circuit::{MetalStack, Router};
/// let mut nl = Netlist::new();
/// nl.add_net(9, 120.0);
/// let report = Router::new(1.0, 1.0).route(&nl, &MetalStack::n5());
/// assert_eq!(report.utilization.len(), 1);
/// assert!(report.congestion_free);
/// ```
#[derive(Debug, Default)]
pub struct Netlist {
    nets: Vec<Net>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a net of `length_um` micrometres on metal layer `layer`.
    pub fn add_net(&mut self, layer: usize, length_um: f64) {
        self.nets.push(Net { layer, length_um });
    }

    /// Wirelength aggregated per layer index.
    pub(crate) fn wirelength_by_layer(&self) -> BTreeMap<usize, f64> {
        let mut m = BTreeMap::new();
        for n in &self.nets {
            *m.entry(n.layer).or_insert(0.0) += n.length_um;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wirelength_aggregation() {
        let mut nl = Netlist::new();
        assert!(nl.wirelength_by_layer().is_empty());
        nl.add_net(8, 50.0);
        nl.add_net(8, 25.0);
        nl.add_net(10, 100.0);
        let by = nl.wirelength_by_layer();
        assert_eq!(by.len(), 2);
        assert_eq!(by[&8], 75.0);
        assert_eq!(by[&10], 100.0);
    }
}
