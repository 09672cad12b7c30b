//! Structural gate/cell budgets.
//!
//! Arithmetic structures report what they are *made of*; converting the
//! budget into silicon area, power, and energy is the circuit crate's job
//! (the conversion is where technology calibration lives).

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// A bag of standard cells.
///
/// The categories follow what dominates the HNLPU datapath: adders (in CSA
/// trees and popcount networks), storage (bit-serial accumulators and
/// pipeline registers), and steering logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct GateBudget {
    /// Full adders (3:2 compressors).
    pub full_adders: u64,
    /// Half adders (2:2 compressors).
    pub half_adders: u64,
    /// D flip-flops (pipeline/accumulator state).
    pub flops: u64,
    /// 2:1 multiplexers.
    pub muxes: u64,
    /// Simple 2-input gates (AND/OR/XOR used outside adders).
    pub simple_gates: u64,
    /// Pass-transistor scan ports: the time-multiplexed input taps that feed
    /// region compressors in the dense HN-array fabric (one transmission
    /// gate plus an amortized share of the scan chain, ~3 T each).
    pub scan_ports: u64,
}

/// Transistor counts per cell in a conventional static-CMOS library.
/// (Mirrored-adder FA = 28 T, HA = 14 T, DFF = 24 T, MUX2 = 12 T, NAND2 = 4 T.)
pub mod transistors {
    /// Full adder.
    pub(crate) const FULL_ADDER: u64 = 28;
    /// Half adder.
    pub(crate) const HALF_ADDER: u64 = 14;
    /// D flip-flop.
    pub const DFF: u64 = 24;
    /// 2:1 mux.
    pub(crate) const MUX2: u64 = 12;
    /// Generic 2-input gate.
    pub(crate) const SIMPLE: u64 = 6;
    /// Pass-transistor scan port.
    pub(crate) const SCAN_PORT: u64 = 3;
}

impl GateBudget {
    /// An empty budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// A budget of only full adders.
    pub fn fa(n: u64) -> Self {
        GateBudget {
            full_adders: n,
            ..Self::default()
        }
    }

    /// A budget of only flops.
    pub(crate) fn dff(n: u64) -> Self {
        GateBudget {
            flops: n,
            ..Self::default()
        }
    }

    /// Total transistor count under the static-CMOS library above.
    pub fn transistor_count(&self) -> u64 {
        self.full_adders * transistors::FULL_ADDER
            + self.half_adders * transistors::HALF_ADDER
            + self.flops * transistors::DFF
            + self.muxes * transistors::MUX2
            + self.simple_gates * transistors::SIMPLE
            + self.scan_ports * transistors::SCAN_PORT
    }
}

impl Add for GateBudget {
    type Output = GateBudget;
    fn add(self, rhs: GateBudget) -> GateBudget {
        GateBudget {
            full_adders: self.full_adders + rhs.full_adders,
            half_adders: self.half_adders + rhs.half_adders,
            flops: self.flops + rhs.flops,
            muxes: self.muxes + rhs.muxes,
            simple_gates: self.simple_gates + rhs.simple_gates,
            scan_ports: self.scan_ports + rhs.scan_ports,
        }
    }
}

impl AddAssign for GateBudget {
    fn add_assign(&mut self, rhs: GateBudget) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for GateBudget {
    type Output = GateBudget;
    fn mul(self, k: u64) -> GateBudget {
        GateBudget {
            full_adders: self.full_adders * k,
            half_adders: self.half_adders * k,
            flops: self.flops * k,
            muxes: self.muxes * k,
            simple_gates: self.simple_gates * k,
            scan_ports: self.scan_ports * k,
        }
    }
}

impl Sum for GateBudget {
    fn sum<I: Iterator<Item = GateBudget>>(iter: I) -> GateBudget {
        iter.fold(GateBudget::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transistor_accounting() {
        let b = GateBudget {
            full_adders: 2,
            half_adders: 1,
            flops: 3,
            muxes: 1,
            simple_gates: 5,
            scan_ports: 10,
        };
        assert_eq!(
            b.transistor_count(),
            2 * 28 + 14 + 3 * 24 + 12 + 5 * 6 + 10 * 3
        );
    }

    #[test]
    fn add_and_scale() {
        let b = GateBudget::fa(3) + GateBudget::dff(2);
        let c = b * 10;
        assert_eq!(c.full_adders, 30);
        assert_eq!(c.flops, 20);
    }

    #[test]
    fn sum_over_iterator() {
        let total: GateBudget = (0..4).map(|_| GateBudget::fa(5)).sum();
        assert_eq!(total.full_adders, 20);
    }
}
