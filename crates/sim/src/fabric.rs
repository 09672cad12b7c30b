//! Collective-communication timing over the router-less row/column
//! fully-connected CXL fabric (§4.2).
//!
//! Each chip has direct links to its 3 row peers and 3 column peers. A
//! collective decomposes into *rounds*; each round is one message exchange:
//! `latency + protocol + payload/bandwidth`.

use crate::config::{CxlParams, SimConfig};

/// Collective operations the Interconnect Engine supports (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Distribute identical data to a group.
    Broadcast,
    /// Aggregate partial sums to one member.
    Reduce,
    /// Reduce + redistribute (reduce round then broadcast round).
    AllReduce,
    /// Concatenate per-chip fragments on every member.
    AllGather,
    /// Distribute distinct fragments.
    Scatter,
}

impl CollectiveKind {
    /// Exchange rounds on a fully-connected group (direct links make each
    /// phase a single simultaneous exchange).
    pub(crate) fn rounds(self) -> u32 {
        match self {
            CollectiveKind::Broadcast
            | CollectiveKind::Reduce
            | CollectiveKind::AllGather
            | CollectiveKind::Scatter => 1,
            CollectiveKind::AllReduce => 2,
        }
    }
}

/// Time of one collective over a fully-connected group, nanoseconds.
///
/// `bytes` is the per-chip payload. In each round every chip streams its
/// payload to the `group - 1` peers over independent links; serialization is
/// therefore one payload per link.
pub(crate) fn collective_ns(kind: CollectiveKind, bytes: u64, cxl: &CxlParams) -> f64 {
    let per_round =
        cxl.latency_ns + cxl.protocol_ns + bytes as f64 / cxl.bandwidth_bytes_per_s * 1e9;
    kind.rounds() as f64 * per_round
}

/// Collective time in clock cycles.
pub(crate) fn collective_cycles(kind: CollectiveKind, bytes: u64, cfg: &SimConfig) -> f64 {
    cfg.ns_to_cycles(collective_ns(kind, bytes, &cfg.cxl))
}

/// An all-chip (16-way) all-reduce = row all-reduce then column all-reduce.
pub(crate) fn all_chip_all_reduce_cycles(bytes: u64, cfg: &SimConfig) -> f64 {
    2.0 * collective_cycles(CollectiveKind::AllReduce, bytes, cfg)
}

/// Round-time stretch when a transient link fault forces `retries`
/// link-layer retransmissions: each retry replays the exchange, doubling
/// the effective round time (`2^retries`).
///
/// `retries == 0` returns exactly `1.0` — a fault-free round's timing is
/// bit-identical with or without the fault machinery in the loop, which
/// the serving differential harness depends on. Retries are clamped at 32
/// to keep the factor finite for absurd plans.
pub fn retry_round_factor(retries: u32) -> f64 {
    (1u64 << retries.min(32)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reduce_is_two_rounds() {
        assert_eq!(CollectiveKind::AllReduce.rounds(), 2);
        assert_eq!(CollectiveKind::Broadcast.rounds(), 1);
    }

    #[test]
    fn small_allreduce_costs_about_600ns() {
        // Calibration anchor: 2 KB col-group all-reduce ~0.6 µs.
        let ns = collective_ns(CollectiveKind::AllReduce, 2048, &CxlParams::default());
        assert!((550.0..680.0).contains(&ns), "ns = {ns}");
    }

    #[test]
    fn payload_grows_time_linearly() {
        let cxl = CxlParams::default();
        let small = collective_ns(CollectiveKind::Reduce, 1024, &cxl);
        let big = collective_ns(CollectiveKind::Reduce, 1024 + 128 * 1024, &cxl);
        let delta = big - small;
        assert!(
            (delta - 128.0 * 1024.0 / 128e9 * 1e9).abs() < 1.0,
            "delta = {delta}"
        );
    }

    #[test]
    fn sixteen_way_allreduce_is_two_phases() {
        let cfg = SimConfig::paper_default();
        let one = collective_cycles(CollectiveKind::AllReduce, 4096, &cfg);
        let all = all_chip_all_reduce_cycles(4096, &cfg);
        assert!((all - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn zero_retries_is_exactly_unity() {
        // The fault-free differential invariant: stretching by the retry
        // factor at 0 retries must be a bit-exact no-op.
        assert_eq!(retry_round_factor(0).to_bits(), 1.0f64.to_bits());
        let plain = collective_ns(CollectiveKind::AllReduce, 2048, &CxlParams::default());
        assert_eq!((plain * retry_round_factor(0)).to_bits(), plain.to_bits());
    }

    #[test]
    fn retries_double_per_retransmission_and_clamp() {
        assert_eq!(retry_round_factor(1), 2.0);
        assert_eq!(retry_round_factor(3), 8.0);
        assert_eq!(retry_round_factor(40), retry_round_factor(32));
    }

    #[test]
    fn latency_floor_dominates_tiny_payloads() {
        let cxl = CxlParams::default();
        let a = collective_ns(CollectiveKind::Reduce, 1, &cxl);
        let b = collective_ns(CollectiveKind::Reduce, 512, &cxl);
        assert!((b - a) / a < 0.05);
    }
}
