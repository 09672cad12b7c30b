//! Per-layer timing, pipeline advance interval, throughput, and the
//! Figure-14 execution-time breakdown.
//!
//! Model recap (derived in EXPERIMENTS.md):
//!
//! * All 36 layers live on the same 16 chips. HN arrays are per-layer
//!   dedicated silicon, but the CXL links, the VEX attention engine, and
//!   the nonlinear units are shared by every pipeline slot, so the pipeline
//!   advance interval is set by the most-occupied shared resource.
//! * Per layer, a token performs 13 collective rounds (QKV all-reduce,
//!   two attention all-reduces, the Xo row-all-reduce + column-all-gather,
//!   and the final 16-chip Y all-reduce) — ~4 µs of link occupancy, which
//!   dominates at short contexts (Figure 14's 82.9% at 2 K). That schedule
//!   is [`layer_collectives`], derived from the model's shape: priced here,
//!   issued by [`crate::packet::PacketSim`], counted by `hnlpu-llm`'s grid.
//! * Attention streams the chip's KV slice through the VEX at 32 KV heads
//!   per cycle; 58% of that streaming hides under the adjacent collectives,
//!   so the breakdown exposes 42% of it.
//! * Past ~400 K context the KV prefetch staging within the double-buffer
//!   horizon no longer fits the 320 MB Attention Buffer and the shortfall
//!   streams from HBM — the Figure-14 "stall" component.

use crate::config::SimConfig;
use crate::fabric::{all_chip_all_reduce_cycles, collective_cycles, CollectiveKind};
use crate::hbm::KvCacheModel;
use hnlpu_model::TransformerConfig;
use CollectiveKind::{AllGather, AllReduce};
use Group::{AllChips, Column, Row};

/// Per-token, per-layer execution-time components, in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTiming {
    /// Inter-chip CXL communication.
    pub comm: f64,
    /// HN-array projections (QKV, Xo, router, up/gate, down).
    pub projection: f64,
    /// Nonlinear operations (RMSNorm, softmax, SwiGLU, sampling share).
    pub nonlinear: f64,
    /// Exposed attention computation on the VEX.
    pub attention: f64,
    /// Memory-access stall (KV spill to HBM).
    pub stall: f64,
}

impl LayerTiming {
    /// Compute the layer timing at `context` tokens.
    pub fn compute(cfg: &SimConfig, context: u64) -> Self {
        LayerTiming {
            comm: per_layer_comm_cycles(cfg),
            projection: (cfg.projections_per_layer as u64 * cfg.projection_cycles) as f64,
            nonlinear: cfg.nonlinear_cycles as f64,
            attention: attention_raw_cycles(cfg, context) * (1.0 - cfg.attention_overlap),
            stall: stall_cycles(cfg, context),
        }
    }

    /// Total exposed cycles per token per layer.
    pub fn total(&self) -> f64 {
        self.comm + self.projection + self.nonlinear + self.attention + self.stall
    }
}

/// Chip-grid dimension: the 4×4 fabric's rows and columns.
pub const GRID: usize = 4;

/// The chips one instance of a per-layer collective spans: each column,
/// each row, or all 16 (a row all-reduce, then a column all-reduce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// One instance per grid column.
    Column,
    /// One instance per grid row.
    Row,
    /// One instance over all 16 chips.
    AllChips,
}

/// A per-layer collective: (pipeline stage, kind, group, per-chip fp16 bytes).
pub type Collective = (u8, CollectiveKind, Group, u64);

/// KV heads a column's chips hold: a quarter of `model`'s, at least one.
pub(crate) fn kv_heads_per_col(model: &TransformerConfig) -> usize {
    (model.attention.num_kv_heads / GRID).max(1)
}

/// One layer's collectives of `model` in issue order, with per-chip fp16
/// payloads on the fixed 4×4 [`GRID`], whatever chip count a design plans:
/// the fused QKV partials (K and V at `kv_heads_per_col` heads), the two
/// flash-attention partials (the first with a max and a sum per query
/// head), Xo (h / 4 per chip: row all-reduce, column all-gather) and the
/// layer output Y. The replicated router (stage 4) communicates nothing.
pub fn layer_collectives(model: &TransformerConfig) -> [Collective; 6] {
    let fp16 = |values: usize| 2 * values as u64;
    let q = fp16(model.attention.q_width() / GRID);
    let kv = fp16(kv_heads_per_col(model) * model.attention.head_dim);
    let stats = 2 * fp16(model.attention.num_query_heads / GRID);
    let slice = fp16(model.hidden_size / GRID);
    [
        (0, AllReduce, Column, q + 2 * kv),
        (1, AllReduce, Column, q + stats),
        (2, AllReduce, Column, q),
        (3, AllReduce, Row, slice),
        (3, AllGather, Column, slice),
        (5, AllReduce, AllChips, fp16(model.hidden_size)),
    ]
}

/// The 13 collective rounds of one transformer layer: the model's
/// [`layer_collectives`] priced in issue order.
pub(crate) fn per_layer_comm_cycles(cfg: &SimConfig) -> f64 {
    layer_collectives(&cfg.model)
        .iter()
        .fold(0.0, |sum, &(_, kind, group, bytes)| {
            sum + match group {
                AllChips => all_chip_all_reduce_cycles(bytes, cfg),
                Column | Row => collective_cycles(kind, bytes, cfg),
            }
        })
}

/// Raw (pre-overlap) VEX attention cycles for one token of one layer:
/// the chip's context slice × its column's KV heads × two passes (QKᵀ
/// and ZV), streamed at `vex_kv_heads_per_cycle`.
pub(crate) fn attention_raw_cycles(cfg: &SimConfig, context: u64) -> f64 {
    let per_chip_context = context as f64 / GRID as f64;
    2.0 * per_chip_context * kv_heads_per_col(&cfg.model) as f64 / cfg.vex_kv_heads_per_cycle as f64
}

/// KV-spill stall cycles (see [`KvCacheModel`]).
pub(crate) fn stall_cycles(cfg: &SimConfig, context: u64) -> f64 {
    let kv = KvCacheModel::new(cfg);
    let exposed = attention_raw_cycles(cfg, context) * (1.0 - cfg.attention_overlap);
    exposed * kv.spill_fraction(context)
}

/// The Figure-14 per-token breakdown at one context length.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Context length in tokens.
    pub context: u64,
    /// Per-layer timing.
    pub layer: LayerTiming,
    /// Percentage shares `(comm, projection, nonlinear, attention, stall)`.
    pub shares: [f64; 5],
}

impl Breakdown {
    /// Compute the breakdown at `context`.
    pub fn at(cfg: &SimConfig, context: u64) -> Self {
        let layer = LayerTiming::compute(cfg, context);
        let t = layer.total();
        Breakdown {
            context,
            layer,
            shares: [
                layer.comm / t * 100.0,
                layer.projection / t * 100.0,
                layer.nonlinear / t * 100.0,
                layer.attention / t * 100.0,
                layer.stall / t * 100.0,
            ],
        }
    }

    /// The paper's Figure-14 sweep: 2 K – 512 K.
    pub(crate) fn figure14(cfg: &SimConfig) -> Vec<Breakdown> {
        [2048u64, 8192, 65_536, 131_072, 262_144, 524_288]
            .into_iter()
            .map(|c| Breakdown::at(cfg, c))
            .collect()
    }

    /// Render a sweep as an ASCII stacked-bar chart (one row per context).
    pub fn render_ascii(sweep: &[Breakdown]) -> String {
        let mut s = String::from(
            "Execution-time breakdown per token (C=CXL comm, P=projection, n=nonlinear, A=attention, S=stall)\n",
        );
        for b in sweep {
            let label = if b.context >= 1024 {
                format!("{:>4}K", b.context / 1024)
            } else {
                format!("{:>5}", b.context)
            };
            let mut bar = String::new();
            for (share, ch) in b.shares.iter().zip(['C', 'P', 'n', 'A', 'S']) {
                let cells = (share / 2.0).round() as usize;
                bar.extend(std::iter::repeat_n(ch, cells));
            }
            s.push_str(&format!("{label} |{bar:<50}| 100%\n"));
        }
        s
    }
}

/// Pipeline advance interval in cycles: the most-occupied shared resource.
pub(crate) fn advance_interval_cycles(cfg: &SimConfig, context: u64) -> f64 {
    let comm = per_layer_comm_cycles(cfg);
    // VEX attention engine: every layer contributes one token's raw
    // attention per interval.
    let vex = cfg.num_layers as f64 * attention_raw_cycles(cfg, context);
    // Dedicated nonlinear modules (RMSNorm / softmax / SwiGLU run on
    // separate units): each sees a third of the nonlinear work per layer.
    let nonlin = cfg.num_layers as f64 * cfg.nonlinear_cycles as f64 / 3.0;
    // HN arrays are per-layer silicon: a projection only needs to finish
    // within the interval, never aggregates across layers.
    let proj = (cfg.projections_per_layer as u64 * cfg.projection_cycles) as f64
        / cfg.projections_per_layer as f64;
    comm.max(vex).max(nonlin).max(proj)
}

/// Steady-state decode throughput, tokens per second, at full batch.
pub fn decode_throughput(cfg: &SimConfig, context: u64) -> f64 {
    cfg.clock_hz / advance_interval_cycles(cfg, context)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::paper_default()
    }

    #[test]
    fn throughput_at_2k_matches_table2() {
        // Table 2: 249,960 tokens/s.
        let t = decode_throughput(&cfg(), 2048);
        assert!(
            (t - 249_960.0).abs() / 249_960.0 < 0.05,
            "throughput = {t:.0}"
        );
    }

    #[test]
    fn comm_dominates_at_short_context() {
        let b = Breakdown::at(&cfg(), 2048);
        assert!(
            (b.shares[0] - 82.9).abs() < 2.0,
            "comm share = {}",
            b.shares[0]
        );
        assert!(
            (b.shares[1] - 13.8).abs() < 1.5,
            "proj share = {}",
            b.shares[1]
        );
    }

    #[test]
    fn figure14_shares_match_paper() {
        // Paper Figure 14: (context, comm%, proj%, attention%).
        let expect = [
            (2048u64, 82.9, 13.8, 0.0),
            (8192, 81.5, 13.6, 0.0),
            (65_536, 70.8, 11.8, 15.1),
            (131_072, 61.5, 10.2, 26.2),
            (262_144, 48.7, 8.1, 41.6),
            (524_288, 30.7, 5.1, 52.4),
        ];
        for (ctx, comm, proj, attn) in expect {
            let b = Breakdown::at(&cfg(), ctx);
            assert!(
                (b.shares[0] - comm).abs() < 2.0,
                "ctx {ctx}: comm {} vs {comm}",
                b.shares[0]
            );
            assert!(
                (b.shares[1] - proj).abs() < 1.5,
                "ctx {ctx}: proj {} vs {proj}",
                b.shares[1]
            );
            if attn > 0.0 {
                assert!(
                    (b.shares[3] - attn).abs() < 2.5,
                    "ctx {ctx}: attn {} vs {attn}",
                    b.shares[3]
                );
            }
        }
    }

    #[test]
    fn stall_appears_only_past_256k() {
        let c = cfg();
        assert_eq!(LayerTiming::compute(&c, 262_144).stall, 0.0);
        let b = Breakdown::at(&c, 524_288);
        assert!(
            (b.shares[4] - 10.7).abs() < 3.0,
            "stall share at 512K = {}",
            b.shares[4]
        );
    }

    #[test]
    fn attention_becomes_dominant_at_512k() {
        let b = Breakdown::at(&cfg(), 524_288);
        assert!(
            b.shares[3] > b.shares[0],
            "attention should dominate: {b:?}"
        );
    }

    #[test]
    fn throughput_degrades_at_long_context() {
        let c = cfg();
        let short = decode_throughput(&c, 2048);
        let long = decode_throughput(&c, 524_288);
        assert!(long < short / 10.0, "short={short:.0} long={long:.0}");
    }

    #[test]
    fn latency_is_breakdown_times_layers() {
        let c = cfg();
        let b = Breakdown::at(&c, 2048);
        let lat = c.num_layers as f64 * b.layer.total() / c.clock_hz;
        let per_layer = LayerTiming::compute(&c, 2048).total();
        assert!((lat - 36.0 * per_layer / 1e9).abs() < 1e-12);
        // ~170 µs per token through 36 layers at 2 K.
        assert!(lat > 50e-6 && lat < 500e-6, "latency = {lat}");
    }

    #[test]
    fn gpt_oss_schedule_is_the_thirteen_paper_rounds() {
        // Figure 10/11's payloads worked by hand at gpt-oss shapes: h =
        // 2880, 64 query / 8 KV heads of 64 dims, 4 columns.
        let by_hand = [
            (0, AllReduce, Column, 2 * (1024 + 128 + 128)),
            (1, AllReduce, Column, 2 * (2 * 8 * 64) + 64),
            (2, AllReduce, Column, 2 * (2 * 8 * 64)),
            (3, AllReduce, Row, 2 * (2880 / 4)),
            (3, AllGather, Column, 2 * (2880 / 4)),
            (5, AllReduce, AllChips, 2 * 2880),
        ];
        let schedule = layer_collectives(&cfg().model);
        assert_eq!(schedule, by_hand);
        // An all-chip all-reduce is a row all-reduce, then a column one.
        let rounds: u32 = schedule
            .iter()
            .map(|&(_, kind, group, _)| kind.rounds() * if group == AllChips { 2 } else { 1 })
            .sum();
        assert_eq!(rounds, 13);
    }

    #[test]
    fn for_model_prices_the_models_own_payloads() {
        let gpt_oss = per_layer_comm_cycles(&cfg());
        let kimi = SimConfig::for_model(&hnlpu_model::zoo::kimi_k2().config, 135);
        let got = per_layer_comm_cycles(&kimi);
        // Kimi-K2 by hand: h = 7168, 64 query / 8 KV heads of 128 dims.
        // Per chip: Q 2048 + K 256 + V 256 values, 16 query heads, h / 4 =
        // 1792; fp16. A round is 100 ns PHY + 190 ns protocol + bytes at
        // 128 GB/s, at 1 cycle per ns.
        let round = |bytes: f64| 100.0 + 190.0 + bytes / 128.0;
        let want = 2.0 * round(2.0 * 2560.0) // QKV all-reduce
            + 2.0 * round(2.0 * 2048.0 + 64.0) // attention partials + stats
            + 2.0 * round(2.0 * 2048.0) // attention partials
            + 2.0 * round(2.0 * 1792.0) // Xo row all-reduce
            + round(2.0 * 1792.0) // Xo column all-gather
            + 4.0 * round(2.0 * 7168.0); // Y: row then column all-reduce
        assert!(
            (got - want).abs() < 1e-9,
            "kimi-k2 {got} vs hand count {want}"
        );
        assert!(got > gpt_oss, "kimi-k2 {got} vs gpt-oss {gpt_oss}");

        // test-tiny has 2 KV heads on 4 columns: each column holds one
        // whole head of 16 dims, so K and V are 16 fp16 values apiece,
        // the same head the KV-cache model stores per chip.
        let tiny = SimConfig::for_model(&hnlpu_model::zoo::test_model().config, 135);
        let (_, _, _, qkv) = layer_collectives(&tiny.model)[0];
        assert_eq!(qkv, 2 * (16 + 16 + 16));
        assert_eq!(qkv, 2 * 16 + 2 * tiny.kv_bytes_per_token_layer_chip);
        for c in [cfg(), kimi] {
            let (_, _, _, qkv) = layer_collectives(&c.model)[0];
            let q = 2 * (c.model.attention.q_width() / GRID) as u64;
            assert_eq!(qkv, q + 2 * c.kv_bytes_per_token_layer_chip);
        }
    }

    #[test]
    fn shares_sum_to_100() {
        for b in Breakdown::figure14(&cfg()) {
            let sum: f64 = b.shares.iter().sum();
            assert!((sum - 100.0).abs() < 1e-6, "ctx {}: sum {sum}", b.context);
        }
    }
}
