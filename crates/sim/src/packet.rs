//! Packet-level discrete-event simulation of the 4×4 CXL fabric and the
//! 6-stage × N-layer pipeline.
//!
//! The paper evaluates inter-chip communication with CNSim, a cycle-
//! accurate packet-parallel simulator (§6.1). This module is that layer's
//! analog: collectives decompose into point-to-point messages that contend
//! for physical links with busy-until booking, and the full pipeline runs
//! as a discrete-event simulation with per-stage resources. The analytical
//! model in [`crate::pipeline`] is *validated* against this simulator
//! (tests at the bottom assert they agree).

use crate::config::SimConfig;
use crate::fabric::CollectiveKind;
use crate::pipeline::{layer_collectives, Group};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Chip identifier in the 4×4 grid (row-major: `id = row * 4 + col`).
pub(crate) type ChipId = u8;

/// Grid dimension.
const GRID: u8 = 4;

/// Chips in `col`'s column group.
pub(crate) fn column_group(col: u8) -> [ChipId; 4] {
    [col, col + 4, col + 8, col + 12]
}

/// Chips in `row`'s row group.
pub(crate) fn row_group(row: u8) -> [ChipId; 4] {
    [row * 4, row * 4 + 1, row * 4 + 2, row * 4 + 3]
}

/// The link-level fabric: every ordered pair of row/column peers has a
/// dedicated point-to-point link with a busy-until time.
#[derive(Debug, Clone, Default)]
pub(crate) struct PacketFabric {
    busy_until_ns: BTreeMap<(ChipId, ChipId), f64>,
    /// Messages delivered so far.
    pub messages: u64,
    /// Payload bytes moved so far.
    pub bytes: u64,
}

impl PacketFabric {
    /// A fresh, idle fabric.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether `src` and `dst` share a direct link (same row or column).
    pub(crate) fn connected(src: ChipId, dst: ChipId) -> bool {
        src != dst && (src / GRID == dst / GRID || src % GRID == dst % GRID)
    }

    /// Send `bytes` from `src` to `dst` no earlier than `ready_ns`;
    /// returns the delivery time.
    ///
    /// # Panics
    ///
    /// Panics if the chips are not directly connected (the router-less
    /// fabric never forwards).
    pub(crate) fn send(
        &mut self,
        cfg: &SimConfig,
        src: ChipId,
        dst: ChipId,
        bytes: u64,
        ready_ns: f64,
    ) -> f64 {
        assert!(
            Self::connected(src, dst),
            "no direct link between chip {src} and chip {dst}"
        );
        let link = self.busy_until_ns.entry((src, dst)).or_insert(0.0);
        let start = ready_ns.max(*link);
        // The link is occupied only for wire serialization; protocol
        // processing and PHY latency pipeline behind it (which is what
        // lets 36 layers share 6 links — see EXPERIMENTS.md).
        let occupancy = bytes as f64 / cfg.cxl.bandwidth_bytes_per_s * 1e9;
        *link = start + occupancy;
        self.messages += 1;
        self.bytes += bytes;
        start + occupancy + cfg.cxl.protocol_ns + cfg.cxl.latency_ns
    }

    /// Reduce-to-root over a fully-connected group: every member sends its
    /// payload directly to `root`; completion when the last arrives.
    pub(crate) fn reduce(
        &mut self,
        cfg: &SimConfig,
        group: &[ChipId],
        root: ChipId,
        bytes: u64,
        ready_ns: f64,
    ) -> f64 {
        let mut done = ready_ns;
        for &m in group {
            if m != root {
                done = done.max(self.send(cfg, m, root, bytes, ready_ns));
            }
        }
        done
    }

    /// Broadcast from `root` to the group over the direct links.
    pub(crate) fn broadcast(
        &mut self,
        cfg: &SimConfig,
        group: &[ChipId],
        root: ChipId,
        bytes: u64,
        ready_ns: f64,
    ) -> f64 {
        let mut done = ready_ns;
        for &m in group {
            if m != root {
                done = done.max(self.send(cfg, root, m, bytes, ready_ns));
            }
        }
        done
    }

    /// All-reduce = reduce round + broadcast round (the Interconnect
    /// Engine's §4.3 algorithm; matches the analytical 2-round model).
    pub(crate) fn all_reduce(
        &mut self,
        cfg: &SimConfig,
        group: &[ChipId],
        bytes: u64,
        ready_ns: f64,
    ) -> f64 {
        let root = group[0];
        let reduced = self.reduce(cfg, group, root, bytes, ready_ns);
        self.broadcast(cfg, group, root, bytes, reduced)
    }

    /// All-gather: every member broadcasts its fragment (1 round on the
    /// fully-connected group).
    pub(crate) fn all_gather(
        &mut self,
        cfg: &SimConfig,
        group: &[ChipId],
        bytes_per_member: u64,
        ready_ns: f64,
    ) -> f64 {
        let mut done = ready_ns;
        for &m in group {
            done = done.max(self.broadcast(cfg, group, m, bytes_per_member, ready_ns));
        }
        done
    }

    /// 16-chip all-reduce: row-group all-reduce then column-group
    /// all-reduce.
    pub(crate) fn all_chip_all_reduce(
        &mut self,
        cfg: &SimConfig,
        bytes: u64,
        ready_ns: f64,
    ) -> f64 {
        let mut after_rows = ready_ns;
        for r in 0..GRID {
            after_rows = after_rows.max(self.all_reduce(cfg, &row_group(r), bytes, ready_ns));
        }
        let mut done = after_rows;
        for c in 0..GRID {
            done = done.max(self.all_reduce(cfg, &column_group(c), bytes, after_rows));
        }
        done
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time_ns: f64,
    token: u32,
    layer: u32,
    stage: u8,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on time (BinaryHeap is a max-heap).
        other
            .time_ns
            .partial_cmp(&self.time_ns)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.token.cmp(&self.token))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a packet-level pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSimReport {
    /// Simulated time, nanoseconds.
    pub elapsed_ns: f64,
    /// Steady-state throughput, tokens/s (measured over the second half of
    /// the run to exclude pipeline fill).
    pub throughput_tokens_per_s: f64,
    /// Total messages exchanged.
    pub messages: u64,
    /// Total bytes moved.
    pub bytes: u64,
}

/// The packet-level pipeline simulator.
#[derive(Debug, Clone)]
pub struct PacketSim {
    cfg: SimConfig,
    context: u64,
}

impl PacketSim {
    /// A simulator at `cfg` and a fixed decode context.
    pub fn new(cfg: SimConfig, context: u64) -> Self {
        PacketSim { cfg, context }
    }

    /// Per-stage compute time (ns at 1 cycle/ns), mirroring the analytical
    /// decomposition.
    fn stage_compute_ns(&self, stage: u8) -> f64 {
        let proj = self.cfg.projection_cycles as f64;
        let nonlin = self.cfg.nonlinear_cycles as f64 / 3.0;
        let attn = crate::pipeline::attention_raw_cycles(&self.cfg, self.context) / 2.0;
        match stage {
            0 => proj,                // HN-QKV
            1 => attn + nonlin,       // attention pass 1 + softmax share
            2 => attn,                // attention pass 2
            3 => proj,                // HN-Xo
            4 => 2.0 * proj + nonlin, // router + up/gate + SwiGLU
            _ => proj,                // HN-DOWN
        }
    }

    /// Issue the stage's entries of the model's [`layer_collectives`] on
    /// the fabric, each on every instance of its group once the previous
    /// one completed; returns completion.
    fn stage_comm(&self, fabric: &mut PacketFabric, stage: u8, ready_ns: f64) -> f64 {
        let cfg = &self.cfg;
        let schedule = layer_collectives(&cfg.model);
        let stage_collectives = schedule.iter().filter(|c| c.0 == stage);
        stage_collectives.fold(ready_ns, |ready, &(_, kind, group, bytes)| {
            if group == Group::AllChips {
                return fabric.all_chip_all_reduce(cfg, bytes, ready);
            }
            (0..GRID).fold(ready, |done, i| {
                let members = if group == Group::Row {
                    row_group(i)
                } else {
                    column_group(i)
                };
                done.max(match kind {
                    CollectiveKind::AllGather => fabric.all_gather(cfg, &members, bytes, ready),
                    _ => fabric.all_reduce(cfg, &members, bytes, ready),
                })
            })
        })
    }

    /// Steady-state throughput via the marginal method: the extra time to
    /// retire the second half of a doubled batch is pure steady-state
    /// operation (pipeline fill cancels out).
    pub fn steady_state_throughput(&self, tokens: u32) -> f64 {
        let half = self.run(tokens / 2);
        let full = self.run(tokens);
        let extra = (tokens - tokens / 2) as f64;
        extra / (full.elapsed_ns - half.elapsed_ns) * 1e9
    }

    /// Run `tokens` decode tokens through the full pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `tokens == 0`.
    pub fn run(&self, tokens: u32) -> PacketSimReport {
        assert!(tokens > 0, "need at least one token");
        let layers = self.cfg.num_layers;
        let stages = self.cfg.stages_per_layer as u8;
        let mut fabric = PacketFabric::new();
        // Per-(layer, stage) resource: busy-until.
        let mut stage_free = vec![0.0f64; (layers * stages as u32) as usize];
        // The VEX attention engine is one physical unit per chip, shared by
        // every layer's attention stages (the analytical model's dominant
        // long-context resource).
        let mut vex_free = 0.0f64;
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut retire_times = vec![0.0f64; tokens as usize];
        for t in 0..tokens {
            heap.push(Event {
                time_ns: 0.0,
                token: t,
                layer: 0,
                stage: 0,
            });
        }
        while let Some(ev) = heap.pop() {
            let idx = (ev.layer * stages as u32 + ev.stage as u32) as usize;
            // Causality: if the stage is still busy, requeue the event at
            // the stage-free time so fabric bookings happen in true time
            // order (booking from the pop with a far-future start would
            // wrongly block earlier-time requests on the same links).
            let is_attention = ev.stage == 1 || ev.stage == 2;
            let gate = if is_attention {
                stage_free[idx].max(vex_free)
            } else {
                stage_free[idx]
            };
            if ev.time_ns < gate {
                heap.push(Event {
                    time_ns: gate,
                    ..ev
                });
                continue;
            }
            let start = ev.time_ns;
            let compute_done = start + self.stage_compute_ns(ev.stage);
            if is_attention {
                vex_free =
                    start + crate::pipeline::attention_raw_cycles(&self.cfg, self.context) / 2.0;
            }
            let comm_done = self.stage_comm(&mut fabric, ev.stage, compute_done);
            stage_free[idx] = comm_done.max(compute_done);
            // Advance the token.
            if ev.stage + 1 < stages {
                heap.push(Event {
                    time_ns: comm_done,
                    token: ev.token,
                    layer: ev.layer,
                    stage: ev.stage + 1,
                });
            } else if ev.layer + 1 < layers {
                heap.push(Event {
                    time_ns: comm_done,
                    token: ev.token,
                    layer: ev.layer + 1,
                    stage: 0,
                });
            } else {
                retire_times[ev.token as usize] = comm_done;
            }
        }
        let elapsed = retire_times.iter().copied().fold(0.0, f64::max);
        // Steady-state rate over the last quarter of retirements (the
        // fabric backlog takes a while to reach equilibrium).
        let mut sorted = retire_times.clone();
        sorted.sort_by(f64::total_cmp);
        let lo = sorted.len() * 3 / 4;
        let throughput = if sorted.len() >= 8 {
            let n = (sorted.len() - lo - 1) as f64;
            n / (sorted[sorted.len() - 1] - sorted[lo]) * 1e9
        } else {
            tokens as f64 / elapsed * 1e9
        };
        PacketSimReport {
            elapsed_ns: elapsed,
            throughput_tokens_per_s: throughput,
            messages: fabric.messages,
            bytes: fabric.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{collective_ns, CollectiveKind};
    use crate::pipeline;

    fn cfg() -> SimConfig {
        SimConfig::paper_default()
    }

    #[test]
    fn grid_topology() {
        assert!(PacketFabric::connected(0, 1)); // same row
        assert!(PacketFabric::connected(0, 4)); // same column
        assert!(!PacketFabric::connected(0, 5)); // diagonal
        assert_eq!(column_group(2), [2, 6, 10, 14]);
        assert_eq!(row_group(3), [12, 13, 14, 15]);
    }

    #[test]
    #[should_panic(expected = "no direct link")]
    fn diagonal_send_rejected() {
        PacketFabric::new().send(&cfg(), 0, 5, 64, 0.0);
    }

    #[test]
    fn uncontended_all_reduce_matches_analytical() {
        let cfg = cfg();
        let mut f = PacketFabric::new();
        let t = f.all_reduce(&cfg, &column_group(0), 2048, 0.0);
        let analytical = collective_ns(CollectiveKind::AllReduce, 2048, &cfg.cxl);
        assert!(
            (t - analytical).abs() / analytical < 0.02,
            "packet {t:.0} vs analytical {analytical:.0}"
        );
    }

    #[test]
    fn contention_serializes_on_links() {
        let cfg = cfg();
        let mut f = PacketFabric::new();
        let first = f.send(&cfg, 0, 1, 4096, 0.0);
        let second = f.send(&cfg, 0, 1, 4096, 0.0);
        assert!(second > first, "same link must serialize");
        // Different link: no contention.
        let other = f.send(&cfg, 2, 3, 4096, 0.0);
        assert!(other < second);
    }

    #[test]
    fn pipeline_throughput_validates_analytical_model() {
        // The headline cross-check: the packet-level DES and the analytical
        // occupancy model agree on steady-state decode throughput at 2K.
        // (The DES bottleneck is the busiest link's serialization; the
        // analytical model prices the 13-round latency chain — the design
        // point sits where they coincide, see EXPERIMENTS.md.)
        let cfg = cfg();
        let des = PacketSim::new(cfg.clone(), 2048).steady_state_throughput(700);
        let analytical = pipeline::decode_throughput(&cfg, 2048);
        let ratio = des / analytical;
        assert!(
            (0.85..1.25).contains(&ratio),
            "DES {des:.0} vs analytical {analytical:.0} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn long_context_des_matches_vex_occupancy_model() {
        // At 256K context the VEX is the bottleneck in both models.
        let cfg = cfg();
        let des = PacketSim::new(cfg.clone(), 262_144).steady_state_throughput(80);
        let analytical = pipeline::decode_throughput(&cfg, 262_144);
        let ratio = des / analytical;
        assert!(
            (0.85..1.25).contains(&ratio),
            "DES {des:.0} vs analytical {analytical:.0} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn message_accounting_is_exact() {
        // Per token-layer: stage0 4 cols x AR(2 rounds x 3 msgs) = 24,
        // stage1 24, stage2 24, stage3 rows 24 + AG 4x12 = 48 + ... the
        // totals must scale exactly linearly in tokens x layers.
        let cfg = cfg();
        let one = PacketSim::new(cfg.clone(), 2048).run(1);
        let two = PacketSim::new(cfg, 2048).run(2);
        assert_eq!(two.messages, 2 * one.messages);
        assert_eq!(two.bytes, 2 * one.bytes);
    }

    #[test]
    fn longer_context_lowers_des_throughput() {
        let cfg = cfg();
        let short = PacketSim::new(cfg.clone(), 2048).steady_state_throughput(300);
        let long = PacketSim::new(cfg, 262_144).steady_state_throughput(60);
        assert!(long < short / 10.0, "short={short:.0} long={long:.0}");
    }

    #[test]
    fn all_gather_is_single_round() {
        let cfg = cfg();
        let mut f = PacketFabric::new();
        let ag = f.all_gather(&cfg, &column_group(1), 1024, 0.0);
        let mut f2 = PacketFabric::new();
        let ar = f2.all_reduce(&cfg, &column_group(1), 1024, 0.0);
        assert!(
            ag < ar,
            "all-gather {ag:.0} should beat 2-round all-reduce {ar:.0}"
        );
    }
}
