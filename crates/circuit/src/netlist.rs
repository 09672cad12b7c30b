//! A minimal cell/net graph.
//!
//! The metal-embedding compiler emits one net per hardwired weight
//! (input signal → POPCNT region port). This module stores that netlist and
//! answers the structural questions sign-off needs: wire counts per layer,
//! total wirelength, fan-out distributions.

use std::collections::BTreeMap;

/// Identifier of a cell (port) in the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Identifier of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// A point-to-multipoint metal connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Driven cells.
    pub sinks: Vec<CellId>,
    /// Metal layer index (into the owning stack's layer list) this net is
    /// routed on.
    pub layer: usize,
    /// Estimated routed length in micrometres.
    pub length_um: f64,
}

/// A growing netlist.
///
/// # Example
///
/// ```
/// use hnlpu_circuit::netlist::{CellId, Netlist};
/// let mut nl = Netlist::new();
/// let n = nl.add_net(vec![CellId(1), CellId(2)], 9, 120.0);
/// assert_eq!(nl.net(n).unwrap().sinks.len(), 2);
/// assert_eq!(nl.wirelength_um(), 120.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    nets: Vec<Net>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a net; returns its id.
    pub fn add_net(&mut self, sinks: Vec<CellId>, layer: usize, length_um: f64) -> NetId {
        self.nets.push(Net {
            sinks,
            layer,
            length_um,
        });
        NetId(self.nets.len() as u32 - 1)
    }

    /// Look up a net.
    pub fn net(&self, id: NetId) -> Option<&Net> {
        self.nets.get(id.0 as usize)
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// True when no nets exist.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Total routed wirelength.
    pub fn wirelength_um(&self) -> f64 {
        self.nets.iter().map(|n| n.length_um).sum()
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

impl Extend<Net> for Netlist {
    fn extend<T: IntoIterator<Item = Net>>(&mut self, iter: T) {
        self.nets.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut nl = Netlist::new();
        assert!(nl.is_empty());
        let a = nl.add_net(vec![CellId(1)], 8, 50.0);
        let b = nl.add_net(vec![CellId(3), CellId(4)], 9, 70.0);
        assert_eq!(nl.len(), 2);
        assert_eq!(nl.net(a).unwrap().layer, 8);
        assert_eq!(nl.net(b).unwrap().sinks.len(), 2);
        assert!(nl.net(NetId(99)).is_none());
    }

    #[test]
    fn wirelength_aggregation() {
        let mut nl = Netlist::new();
        nl.add_net(vec![CellId(1)], 8, 50.0);
        nl.add_net(vec![CellId(3)], 8, 25.0);
        nl.add_net(vec![CellId(5)], 10, 100.0);
        assert_eq!(nl.wirelength_um(), 175.0);
        let by = nl.wirelength_by_layer();
        assert_eq!(by[&8], 75.0);
        assert_eq!(by[&10], 100.0);
    }

    #[test]
    fn extend_trait() {
        let mut nl = Netlist::new();
        nl.extend(vec![Net {
            sinks: vec![CellId(1)],
            layer: 9,
            length_um: 3.0,
        }]);
        assert_eq!(nl.len(), 1);
    }
}
