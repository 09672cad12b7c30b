//! The 4×4-chip HNLPU dataflow executor (Figure 10 / Appendix A).
//!
//! Every tensor is computed the way the machine computes it: chips hold
//! weight *slices*, produce partial sums, and exchange them through the
//! collectives of `hnlpu-sim`'s [`layer_collectives`], the one schedule the
//! timing model prices and the [`CommCounters`] count. Attention follows
//! the FlashAttention-style flow (§4.3): each chip reduces its quarter of
//! the context with running max/sum statistics, and the column group
//! combines the partials exactly. A block of up to 16 queries is
//! scored against tiles of key positions (`tensor::score_lanes`), each key
//! and value read once per block rather than once per query (a prefill
//! panel's rows share their sequence's shards), and every score, and so
//! every output bit, is what a lone row computes.
//!
//! [`DataflowExecutor`] is the shared driver ([`Engine`]) over the [`Grid`]
//! placement; this module holds what the grid means — the sharded
//! [`DataflowState`], the block body with its partial sums and fixed-order
//! reductions, the [`CommCounters`] it charges, and the [`GridHealth`]
//! survivor set. Weight slices stay in their resident packed-FP4 form: a
//! chip's partial product is a `kernels::matmul_block_into` over
//! its block of the packed matrix, so nothing is ever dequantized.
//!
//! The executor is verified token-for-token against
//! [`crate::reference::Transformer`].

use crate::engine::{Engine, PanelRows, Placement};
use crate::kernels::matmul_block_into;
use crate::kv_cache::{KvCache, PagePool, PageRef, BLOCK_POSITIONS, PAGE_SLOTS};
use crate::ops::{exp_lanes, rmsnorm_into};
use crate::reference::stage_experts;
use crate::sampler::Sampler;
use crate::scratch::{Scratch, MAX_PREFILL_PANEL};
use crate::telemetry::{self, Stage};
use crate::tensor::{add_assign, score_lanes, weigh_lanes, Lanes, LANES};
use hnlpu_model::{PackedFp4Matrix, TransformerConfig};
pub use hnlpu_sim::pipeline::GRID;
use hnlpu_sim::pipeline::{layer_collectives, Collective, Group};
use hnlpu_sim::CollectiveKind;
use std::array::from_fn;
use std::ops::Range;

/// Collective-communication counters, per executor run: each layer charges
/// each row its [`layer_collectives`] once, counting a collective once per
/// group instance ([`GRID`] for a column or row entry, one for all chips).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommCounters {
    /// Column- or row-group all-reduce instances.
    pub all_reduces: u64,
    /// All-chip (16-way) all-reduces.
    pub all_chip_all_reduces: u64,
    /// Column-group all-gather instances, plus one vocabulary gather per
    /// unembedded row.
    pub all_gathers: u64,
    /// Payload bytes: each charged entry's per-chip fp16 payload as the
    /// timing model prices it, plus each vocabulary gather's fp32 logits.
    pub bytes: u64,
}

impl CommCounters {
    /// One row's charge for the entries of `schedule`.
    fn of(schedule: &[Collective]) -> Self {
        let mut one = CommCounters::default();
        for &(_, kind, group, bytes) in schedule {
            match (group, kind) {
                (Group::AllChips, _) => one.all_chip_all_reduces += 1,
                (_, CollectiveKind::AllGather) => one.all_gathers += GRID as u64,
                _ => one.all_reduces += GRID as u64,
            }
            one.bytes += bytes;
        }
        one
    }
}

impl std::ops::Add for CommCounters {
    type Output = CommCounters;

    fn add(mut self, rhs: CommCounters) -> CommCounters {
        self += rhs;
        self
    }
}

impl std::ops::AddAssign for CommCounters {
    fn add_assign(&mut self, rhs: CommCounters) {
        self.all_reduces += rhs.all_reduces;
        self.all_chip_all_reduces += rhs.all_chip_all_reduces;
        self.all_gathers += rhs.all_gathers;
        self.bytes += rhs.bytes;
    }
}

impl std::iter::Sum for CommCounters {
    fn sum<I: Iterator<Item = CommCounters>>(iter: I) -> CommCounters {
        iter.fold(CommCounters::default(), |a, b| a + b)
    }
}

/// Liveness of the 16 hardwired chips, as a bitmask (chip `r * GRID + c`
/// is bit `r * GRID + c`). Hardwired chips cannot be repaired, so bits
/// only ever clear.
///
/// A dead chip costs capacity (`effective_slots`),
/// never numerics: whichever survivor computes a row-partition, the column
/// projection reduces the four logical partials in fixed logical block
/// order, so a degraded grid's projections are bit-identical to the
/// healthy grid's (`degraded_hosting_is_bit_exact` pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridHealth {
    alive: u16,
}

impl GridHealth {
    /// All 16 chips alive.
    pub(crate) fn full() -> Self {
        GridHealth { alive: u16::MAX }
    }

    /// Mark `chip` dead. Returns `true` when this changed the grid
    /// (false for an already-dead or out-of-range chip).
    pub(crate) fn fail(&mut self, chip: usize) -> bool {
        if chip >= GRID * GRID || !self.is_alive(chip) {
            return false;
        }
        self.alive &= !(1u16 << chip);
        true
    }

    /// Is `chip` alive? Out-of-range chips are dead.
    pub(crate) fn is_alive(&self, chip: usize) -> bool {
        chip < GRID * GRID && self.alive & (1u16 << chip) != 0
    }

    /// Live chips remaining.
    pub(crate) fn survivors(&self) -> usize {
        self.alive.count_ones() as usize
    }

    /// True once any chip has died.
    pub(crate) fn is_degraded(&self) -> bool {
        self.alive != u16::MAX
    }

    /// Concurrent-sequence capacity of a `slots`-slot machine scaled to the
    /// surviving compute: `slots * survivors / 16`, floored, but never
    /// below one (a single surviving chip still serves, slowly).
    pub(crate) fn effective_slots(&self, slots: usize) -> usize {
        (slots * self.survivors() / (GRID * GRID)).max(1)
    }
}

/// Mutable per-sequence execution state.
#[derive(Debug, Clone)]
pub struct DataflowState {
    /// `kv[col][chip_in_col]`: KV cache shard holding positions
    /// `p % 4 == chip_in_col` of the column's KV heads.
    kv: Vec<Vec<KvCache>>,
    /// Communication counters.
    pub comm: CommCounters,
}

impl DataflowState {
    /// Tokens consumed so far: the positions striped across a column's
    /// four shards (every column holds the same positions).
    pub fn position(&self) -> usize {
        self.kv[0].iter().map(KvCache::len).sum()
    }

    /// The KV shard held by chip `chip_in_col` of column `col` (positions
    /// `p % 4 == chip_in_col`).
    #[cfg(test)]
    pub fn kv_shard(&self, col: usize, chip_in_col: usize) -> &KvCache {
        &self.kv[col][chip_in_col]
    }

    /// Total KV-cache footprint across all 16 shards at fp16 storage.
    pub fn kv_bytes_fp16(&self) -> u64 {
        self.kv
            .iter()
            .flat_map(|col| col.iter())
            .map(KvCache::bytes_fp16)
            .sum()
    }

    /// Forget every cached position and rewind to position zero, keeping
    /// the KV allocations — the fault-recovery path re-prefills an
    /// evicted sequence's history into the same buffers. Communication
    /// counters are zeroed too; the caller harvests them before the
    /// reset.
    pub(crate) fn reset_context(&mut self) {
        for col in &mut self.kv {
            for shard in col {
                shard.clear();
            }
        }
        self.comm = CommCounters::default();
    }

    /// Pre-size every KV shard for sequences up to `positions` tokens
    /// (positions stripe `p % 4` across a column's shards), so
    /// steady-state decode appends without reallocating — held by the
    /// zero-allocation sentinel in `tests/tests/zero_alloc_decode.rs`.
    pub fn reserve_context(&mut self, positions: usize) {
        let per_shard = positions.div_ceil(GRID);
        for col in &mut self.kv {
            for shard in col {
                shard.reserve(per_shard);
            }
        }
    }

    /// Physically private KV bytes across all shards — pages shared
    /// through a `PagePool` are charged once to the pool, so the gap
    /// between this and [`kv_bytes_fp16`](Self::kv_bytes_fp16) is the
    /// effective capacity gained by prefix reuse.
    pub fn kv_owned_bytes_fp16(&self) -> u64 {
        self.kv
            .iter()
            .flat_map(|col| col.iter())
            .map(KvCache::owned_bytes_fp16)
            .fold(0u64, u64::saturating_add)
    }

    /// Attach a matched prompt prefix of `matched` global positions so
    /// they are read through shared pages instead of being re-prefilled.
    ///
    /// `blocks[b]` holds the pool page ids of global block `b` in shard
    /// order `col * GRID + chip_in_col`; when `matched` ends mid-block,
    /// the final set is the copy-on-write boundary — each shard with
    /// positions in the partial block takes a private copy of that page,
    /// so divergent appends never touch the committed original.
    ///
    /// # Panics
    ///
    /// Panics if the state is not fresh or `blocks` does not cover
    /// `matched` positions.
    pub fn attach_prefix(&mut self, matched: usize, blocks: &[Box<[u32]>], pool: &PagePool) {
        assert_eq!(self.position(), 0, "attach_prefix requires a fresh state");
        assert_eq!(
            blocks.len(),
            matched.div_ceil(BLOCK_POSITIONS),
            "covering blocks"
        );
        let full = matched / BLOCK_POSITIONS;
        for (c, col) in self.kv.iter_mut().enumerate() {
            for (chip, shard) in col.iter_mut().enumerate() {
                let idx = c * GRID + chip;
                // Positions `p < matched` with `p % 4 == chip`.
                let local_len = (matched + GRID - 1 - chip) / GRID;
                let shared: Vec<PageRef> = blocks[..full]
                    .iter()
                    .map(|b| std::sync::Arc::clone(pool.page(b[idx])))
                    .collect();
                let boundary_slots = local_len.saturating_sub(full * PAGE_SLOTS);
                let boundary = if boundary_slots > 0 {
                    Some(pool.page(blocks[full][idx]))
                } else {
                    None
                };
                shard.attach_shared(&shared, boundary, local_len);
            }
        }
    }

    /// Freeze global block `block` across all 16 shards and hand out
    /// its pages in shard order `col * GRID + chip_in_col`, ready to
    /// commit into a shared prefix tree. Owned pages are handed over
    /// without copying the floats; the state keeps reading them through
    /// the shared handles.
    pub fn share_block(&mut self, block: usize) -> Vec<PageRef> {
        let mut out = Vec::with_capacity(GRID * GRID);
        for col in &mut self.kv {
            for shard in col {
                out.push(shard.share_page(block));
            }
        }
        out
    }
}

impl PanelRows<'_, '_, DataflowState> {
    /// Charge every row `one`.
    fn charge(&mut self, one: CommCounters) {
        for tt in 0..self.len() {
            self.state(tt).comm += one;
        }
    }

    /// The panel's rows in attention order, cut into runs that share lane
    /// blocks: `runs[..n]` are `(start, len)` spans of `order`, and `n` is
    /// returned. A prefill panel is one run, its rows in order. In a
    /// decode step each run is the first row not yet placed plus, in row
    /// order, every later row whose shards start on the same shared page
    /// (page identity, never address order), so rows attached to one
    /// committed prefix fill a block's lanes; a row on no shared page runs
    /// alone.
    fn lane_runs(&self, order: &mut [usize], runs: &mut [(usize, usize)]) -> usize {
        let t = self.len();
        if let PanelRows::Prefill { .. } = self {
            order[..t].iter_mut().enumerate().for_each(|(i, o)| *o = i);
            runs[0] = (0, t);
            return 1;
        }
        let mut first = [None; MAX_PREFILL_PANEL];
        for (tt, page) in first[..t].iter_mut().enumerate() {
            *page = self.get(tt).kv[0][0].first_shared_page();
        }
        let mut placed = [false; MAX_PREFILL_PANEL];
        let (mut n, mut count) = (0, 0);
        for i in 0..t {
            if placed[i] {
                continue;
            }
            let start = n;
            for j in i..t {
                let joins = match (first[i], first[j]) {
                    (Some(a), Some(b)) => std::ptr::eq(a, b),
                    _ => j == i,
                };
                if joins && !placed[j] {
                    placed[j] = true;
                    order[n] = j;
                    n += 1;
                }
            }
            runs[count] = (start, n - start);
            count += 1;
        }
        count
    }
}

/// The 4×4-chip placement: chip `(r, c)` holds row-partition `r` of column
/// `c`'s weight slices and the KV shard of positions `p % 4 == r` of
/// column `c`'s heads; experts are spread sixteen ways.
#[derive(Debug, Clone, Copy)]
pub struct Grid;

/// The dataflow executor.
pub type DataflowExecutor = Engine<Grid>;

impl DataflowExecutor {
    /// Generate and return the communication counters alongside the tokens.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate_with_report(
        &self,
        prompt: &[u32],
        n: usize,
        sampler: &mut Sampler,
    ) -> (Vec<u32>, CommCounters) {
        let mut state = self.new_state();
        let out = self.generate_in(prompt, n, sampler, &mut state);
        (out, state.comm)
    }
}

impl Placement for Grid {
    type State = DataflowState;

    fn validate(c: &TransformerConfig) {
        assert!(
            c.hidden_size.is_multiple_of(GRID),
            "hidden size must split 4 ways"
        );
        // Every chip's column group (a quarter of the hidden, query or KV
        // width) starts on a whole packed byte, as the matmul requires.
        let widths = [c.hidden_size, c.attention.q_width(), c.attention.kv_width()];
        assert!(
            widths.iter().all(|w| w.is_multiple_of(2 * GRID)),
            "column groups must start on a packed byte"
        );
        assert!(
            c.attention.num_kv_heads.is_multiple_of(GRID),
            "KV heads must split across 4 columns"
        );
        assert!(
            c.attention.num_query_heads.is_multiple_of(GRID),
            "query heads must split across 4 columns"
        );
        assert!(
            c.moe.num_experts.is_multiple_of(GRID * GRID),
            "experts must split across 16 chips"
        );
        assert!(
            (1 + GRID) * LANES * c.attention.head_dim <= MAX_PREFILL_PANEL * c.hidden_size,
            "an attention lane block must fit the post-attention panel"
        );
    }

    fn new_state(c: &TransformerConfig) -> DataflowState {
        let kv_heads_per_col = c.attention.num_kv_heads / GRID;
        DataflowState {
            kv: (0..GRID)
                .map(|_| {
                    (0..GRID)
                        .map(|_| KvCache::new(c.num_layers, kv_heads_per_col, c.attention.head_dim))
                        .collect()
                })
                .collect(),
            comm: CommCounters::default(),
        }
    }

    fn position(state: &DataflowState) -> usize {
        state.position()
    }

    /// Each chip dots its vocabulary shard of the replicated table, and
    /// the 16 shards are all-gathered.
    fn charge_unembed(c: &TransformerConfig, state: &mut DataflowState) {
        state.comm += CommCounters {
            all_gathers: 1,
            bytes: c.vocab_size as u64 * 4,
            ..CommCounters::default()
        };
    }

    /// One transformer block over an activation panel whose rows are
    /// described by `rows` (consecutive positions of one sequence, or the
    /// next position of several) — the only function that walks a layer,
    /// for a single decode step, a batched one and a prefill chunk alike.
    /// Each chip's partial product goes through the matmul kernels, whose
    /// every output row is independent of the panel width; the column
    /// reductions add partials in chip order; RoPE/attention/MoE math runs
    /// per row against that row's own position and KV shards — so KV
    /// shards and residuals are bit-equal for every chunking and every
    /// grouping. Each row is charged the model's [`layer_collectives`] once,
    /// at the end of the block.
    fn panel_block(
        engine: &DataflowExecutor,
        layer: usize,
        positions: &[usize],
        rows: &mut PanelRows<'_, '_, DataflowState>,
        scratch: &mut Scratch,
    ) {
        let t = rows.len();
        let c = *engine.config();
        let w = &engine.weights.layers[layer];
        let h = c.hidden_size;
        let hd = c.attention.head_dim;
        let qw = c.attention.q_width();
        let kvw = c.attention.kv_width();
        let q_per_col = qw / GRID;
        let kv_per_col = kvw / GRID;
        let kv_heads_per_col = c.attention.num_kv_heads / GRID;
        let q_heads_per_col = c.attention.num_query_heads / GRID;
        let group = c.attention.group_size();
        let row_slice = h / GRID;
        let Scratch {
            scores,
            rope,
            xp,
            xnp,
            xop,
            qp,
            kp,
            vp,
            attnp,
            partp,
            spans,
            ..
        } = &mut *scratch;

        let span = telemetry::start();
        for tt in 0..t {
            rmsnorm_into(&xp[tt * h..(tt + 1) * h], &mut xnp[tt * h..(tt + 1) * h]);
        }

        // (II) Projections: chip (r, col) runs one T-wide matmul over its
        // row slice of the panel, and the column adds the four partials in
        // chip order — per token, one fused QKV all-reduce per column.
        for col in 0..GRID {
            col_project_panel(xnp, h, t, &w.wq, col, q_per_col, row_slice, partp, qp, qw);
        }
        for col in 0..GRID {
            col_project_panel(xnp, h, t, &w.wk, col, kv_per_col, row_slice, partp, kp, kvw);
            col_project_panel(xnp, h, t, &w.wv, col, kv_per_col, row_slice, partp, vp, kvw);
        }

        // (III) RoPE + KV landing: a row at `position` lands on chip
        // (position mod 4) of each column of its own sequence's shards.
        for tt in 0..t {
            let position = positions[tt];
            let kv = &mut rows.state(tt).kv;
            rope.prepare(position);
            for col in 0..GRID {
                for head in 0..q_heads_per_col {
                    rope.apply(&mut qp[tt * qw + col * q_per_col + head * hd..][..hd]);
                }
                for head in 0..kv_heads_per_col {
                    rope.apply(&mut kp[tt * kvw + col * kv_per_col + head * hd..][..hd]);
                }
                kv[col][position % GRID].append(
                    layer,
                    &kp[tt * kvw + col * kv_per_col..][..kv_per_col],
                    &vp[tt * kvw + col * kv_per_col..][..kv_per_col],
                );
            }
        }

        let span = spans.close(Stage::Projections, span);

        // (IV, V) Attention. The rows of a prefill panel read one
        // sequence's shards, so each column scores all of them in one pass
        // over its keys; decode rows whose shards start with the same
        // shared pages score those pages in one pass too, and the rest of
        // their context row by row. The panel's whole KV is cached by now,
        // so each row masks itself to its causal prefix via its position.
        // The post-attention panel is dead until the output projection: it
        // hosts the lane block.
        let mut order = [0usize; MAX_PREFILL_PANEL];
        let mut runs = [(0usize, 0usize); MAX_PREFILL_PANEL];
        let n_runs = rows.lane_runs(&mut order, &mut runs);
        for &(start, len) in &runs[..n_runs] {
            for col in 0..GRID {
                column_attention(
                    &qp[col * q_per_col..],
                    &mut attnp[col * q_per_col..],
                    qw,
                    &order[start..start + len],
                    positions,
                    |tt| &rows.get(tt).kv[col],
                    layer,
                    (q_heads_per_col, group, hd),
                    xop,
                    scores,
                );
            }
        }
        // Each column combines its chips' flash partials: attention's two all-reduces.

        let span = spans.close(Stage::Attention, span);

        // (VI) Output projection: per token, each grid row all-reduces its
        // slice in column order, then each column all-gathers the slices.
        for r in 0..GRID {
            for tt in 0..t {
                xop[tt * h + r * row_slice..][..row_slice].fill(0.0);
            }
            let part = &mut partp[..t * row_slice];
            for col in 0..GRID {
                matmul_block_into(
                    &attnp[col * q_per_col..],
                    qw,
                    t,
                    &w.wo,
                    col * q_per_col,
                    q_per_col,
                    r * row_slice..(r + 1) * row_slice,
                    part,
                    row_slice,
                );
                for tt in 0..t {
                    add_assign(
                        &mut xop[tt * h + r * row_slice..][..row_slice],
                        &part[tt * row_slice..(tt + 1) * row_slice],
                    );
                }
            }
        }
        for tt in 0..t {
            // first residual (local on every chip)
            add_assign(&mut xop[tt * h..(tt + 1) * h], &xp[tt * h..(tt + 1) * h]);
        }
        spans.close(Stage::Projections, span);

        // (VII, VIII) Router (weights replicated on all chips, no
        // communication) and experts, grouped so the owning chip runs
        // three matmuls per touched expert.
        stage_experts(&engine.weights, layer, t, scratch);
        let n_experts = c.moe.num_experts;
        let k_experts = c.moe.experts_per_token;
        let Scratch {
            y,
            xp,
            xop,
            chosenp,
            expertwp,
            stagep,
            spans,
            ..
        } = scratch;
        let span = telemetry::start();
        // (IX) Replay each token's mixture in chip order (chip i owns
        // experts [i*E/16, (i+1)*E/16)), slot order within a chip —
        // the exact accumulation order of the per-token all-chip
        // all-reduce, bit for bit.
        let experts_per_chip = n_experts / (GRID * GRID);
        for tt in 0..t {
            y.fill(0.0);
            for chip in 0..GRID * GRID {
                let lo = chip * experts_per_chip;
                let hi = lo + experts_per_chip;
                for s in 0..k_experts {
                    let slot = tt * k_experts + s;
                    let e = chosenp[slot];
                    if e < lo || e >= hi {
                        continue;
                    }
                    let ew = expertwp[slot];
                    for (yo, &d) in y.iter_mut().zip(stagep[slot * h..(slot + 1) * h].iter()) {
                        *yo += ew * d;
                    }
                }
            }
            add_assign(y, &xop[tt * h..(tt + 1) * h]); // second residual
            xp[tt * h..(tt + 1) * h].copy_from_slice(y);
        }
        spans.close(Stage::ExpertMatmuls, span);
        // (IX) is the all-chip Y all-reduce; the replicated router sends
        // nothing. Nothing reads a row's counters inside a block, so the
        // layer's whole schedule is charged here, once per row.
        rows.charge(CommCounters::of(&layer_collectives(&c)));
    }
}

/// Column projection with partial sums: chip `(r, col)` runs one T-wide
/// matmul over its row slice of the `t`-row panel against its block of the
/// packed matrix, and each token's four partial rows are summed into a
/// zeroed accumulator in chip order — the column's part of the fused QKV
/// all-reduce. The 4-way split and the in-order reduction are numerics, not
/// scheduling: they fix every output bit whichever chip hosts a partition.
#[allow(clippy::too_many_arguments)]
fn col_project_panel(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    col: usize,
    per_col: usize,
    row_slice: usize,
    partp: &mut [f32],
    outs: &mut [f32],
    out_stride: usize,
) {
    for tt in 0..t {
        outs[tt * out_stride + col * per_col..tt * out_stride + (col + 1) * per_col].fill(0.0);
    }
    let part = &mut partp[..t * per_col];
    for r in 0..GRID {
        matmul_block_into(
            &xs[r * row_slice..],
            x_stride,
            t,
            m,
            r * row_slice,
            row_slice,
            col * per_col..(col + 1) * per_col,
            part,
            per_col,
        );
        for tt in 0..t {
            add_assign(
                &mut outs[tt * out_stride + col * per_col..][..per_col],
                &part[tt * per_col..(tt + 1) * per_col],
            );
        }
    }
}

hnlpu_model::arm::per_arm! {
    /// Flash-style column attention for the panel rows `rows`, row `tt`
    /// reading the column's shards `kv(tt)`: each chip reduces its quarter
    /// of a row's context with max/sum statistics into a flash accumulator,
    /// and the column all-reduce combines them exactly, in chip order.
    /// `heads` is (query heads per column, GQA group size, head dim); row
    /// `tt`'s queries sit at `q[tt * stride..]`, its outputs go to `out[tt
    /// * stride..]`, and it sees context positions `0 ..= positions[tt]`,
    /// `ceil((ctx - chip) / 4)` of them on chip `chip` (`p % 4 == chip`).
    ///
    /// Per KV head, the group's query heads of every row form blocks of up
    /// to [`LANES`] queries, and each query gets one score row with the key
    /// positions in the lanes: chip by chip, the positions every row of the
    /// block reads from the same bytes as its first row (all of them for
    /// one sequence's rows, the common shared prefix pages for decode rows
    /// attached to one committed prompt), then chip by chip each row's own
    /// positions after those. One [`score_lanes`] call scores the common
    /// positions of all four chips, each key tile transposed once for the
    /// block, and per chip one [`weigh_lanes`] call weighs them, each value
    /// read once for the block; each row's own positions get calls of their
    /// own, after. Every score is `tensor::dot`'s chain times the scale, and
    /// each query runs a lone row's per-chip max (the same in any order),
    /// `exp` (one [`exp_lanes`] pass over the block's rows, one more for
    /// the combine's chip weights), sum and value accumulation in position
    /// order over its own positions only. Compiled once per lane arm.
    fn column_attention, column_attention_on<V>['k](q: &[f32], out: &mut [f32], stride: usize,
        rows: &[usize], positions: &[usize], kv: impl Fn(usize) -> &'k [KvCache], layer: usize,
        heads: (usize, usize, usize), lanes: &mut [f32], scores: &mut Vec<f32>) {
        // SAFETY: `V` is the lane vector of the arm this body runs on.
        unsafe {
            column_attention_lanes::<V>(
                q, out, stride, rows, positions, kv, layer, heads, lanes, scores,
            )
        }
    }
}

/// The body of [`column_attention`].
///
/// # Safety
///
/// The CPU must support `V`'s arm ([`Lanes`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn column_attention_lanes<'k, V: Lanes>(
    q: &[f32],
    out: &mut [f32],
    stride: usize,
    rows: &[usize],
    positions: &[usize],
    kv: impl Fn(usize) -> &'k [KvCache],
    layer: usize,
    heads: (usize, usize, usize),
    lanes: &mut [f32],
    scores: &mut Vec<f32>,
) {
    let (q_heads, group, hd) = heads;
    let scale = 1.0 / (hd as f32).sqrt();
    // The key tile, then per (chip, lane) the value accumulator: element
    // `i` of lane `l` at `flash_acc[(chip * live + l) * hd + i]`.
    let (tile, flash_acc) = lanes.split_at_mut(LANES * hd);
    let flash_acc = &mut flash_acc[..GRID * LANES * hd];
    // Panel row `tt`'s positions on chip `chip`.
    let own = |tt: usize, chip: usize| (positions[tt] + 1).saturating_sub(chip).div_ceil(GRID);
    let count = rows.len() * group;
    for kv_head in 0..q_heads / group {
        for first in (0..count).step_by(LANES) {
            let live = (count - first).min(LANES);
            // The block's members (panel row, first lane, lane count), and
            // where each lane's query sits: query `j` of this KV head is
            // query head `kv_head * group + j % group` of panel row
            // `rows[j / group]`.
            let (mut members, mut at) = ([(0, 0, 0); LANES], [0; LANES]);
            let member_rows = first / group..(first + live - 1) / group + 1;
            let members = &mut members[..member_rows.len()];
            for (m, r) in members.iter_mut().zip(member_rows) {
                let lo = (r * group).max(first) - first;
                let n = ((r + 1) * group).min(first + live) - first - lo;
                for (l, at) in at[lo..lo + n].iter_mut().enumerate() {
                    *at = rows[r] * stride + (kv_head * group + first + lo + l - r * group) * hd;
                }
                *m = (rows[r], lo, n);
            }
            let queries: [&[f32]; LANES] =
                from_fn(|l| if l < live { &q[at[l]..][..hd] } else { &[] });

            // Per chip, the most positions a member sees (`span`) and the
            // leading ones all read through the first member's shard
            // (`common`), at score-row positions `shared_at[chip]..`; then
            // member `m`'s own positions past them, chip by chip, at
            // `tails[m][chip]..tails[m][chip + 1]`.
            let lead = kv(members[0].0);
            let (mut span, mut common, mut shared_at) = ([0; GRID], [0; GRID], [0; GRID + 1]);
            for chip in 0..GRID {
                span[chip] = members
                    .iter()
                    .fold(0, |span, &(tt, ..)| span.max(own(tt, chip)));
                // The lead reads all its own positions; only others cut in.
                common[chip] = members[1..].iter().fold(span[chip], |common, &(tt, ..)| {
                    common.min(lead[chip].common_positions(&kv(tt)[chip]))
                });
                shared_at[chip + 1] = shared_at[chip] + common[chip];
            }
            let mut tails = [[shared_at[GRID]; GRID + 1]; LANES];
            for (t, &(tt, ..)) in tails.iter_mut().zip(&*members) {
                for chip in 0..GRID {
                    t[chip + 1] = t[chip] + own(tt, chip).saturating_sub(common[chip]);
                }
            }
            // One score row per query, padded to whole vectors.
            let row = tails.iter().fold(0, |row, t| row.max(t[GRID]));
            let row = row.next_multiple_of(LANES);
            let need = live * row;
            if scores.len() < need {
                // Grown to the longest context the arena (one per worker,
                // not per sequence) has scored.
                scores.resize(need, 0.0);
            }
            let s = &mut scores[..need];
            // The chip whose segment of `at` holds score-row position `v`.
            let chip_of =
                |at: &[usize; GRID + 1], v| at[1..GRID].iter().filter(|&&a| a <= v).count();
            let key = |v: usize| {
                let chip = chip_of(&shared_at, v);
                lead[chip].key(layer, v - shared_at[chip], kv_head)
            };
            score_lanes::<V>(tile, key, 0..shared_at[GRID], &queries[..live], s, row);
            for (&(tt, lo, n), t) in members.iter().zip(&tails) {
                let cache = kv(tt);
                let key = |v: usize| {
                    let chip = chip_of(t, v);
                    cache[chip].key(layer, common[chip] + v - t[chip], kv_head)
                };
                let (rows, queries) = (&mut s[lo * row..], &queries[lo..lo + n]);
                score_lanes::<V>(tile, key, t[0]..t[GRID], queries, rows, row);
            }

            // Each query's scores times the scale, then its max over each
            // chip's positions it sees, which are shifted by it; the rest of
            // its row holds scores it must not see, whose `exp` is computed
            // and never read.
            let mut ms = [[f32::NEG_INFINITY; GRID]; LANES];
            for (&(tt, lo, n), t) in members.iter().zip(&tails) {
                for (ms, r) in ms[lo..lo + n]
                    .iter_mut()
                    .zip(s[lo * row..].chunks_exact_mut(row))
                {
                    r[..t[GRID]].iter_mut().for_each(|x| *x *= scale);
                    for (chip, m) in ms.iter_mut().enumerate() {
                        let end = own(tt, chip).min(common[chip]);
                        let seen = [shared_at[chip]..shared_at[chip] + end, t[chip]..t[chip + 1]];
                        *m = shift_by_max(r, &seen);
                    }
                }
            }
            exp_lanes(s);

            let mut sums = [[0.0f32; LANES]; GRID];
            flash_acc[..GRID * live * hd].fill(0.0);
            for chip in (0..GRID).filter(|&chip| span[chip] > 0) {
                let acc = &mut flash_acc[chip * live * hd..][..live * hd];
                let sum = &mut sums[chip][..live];
                let (at, from) = (shared_at[chip], common[chip]);
                let value = |v: usize| lead[chip].value(layer, v - at, kv_head);
                // The common positions every member sees, then each
                // member's rest of them and its own positions.
                let seen_by_all = members.iter().map(|&(tt, ..)| own(tt, chip)).min();
                let all = seen_by_all.unwrap_or(0).min(from);
                weigh_lanes::<V>(s, row, at..at + all, value, sum, acc);
                for (&(tt, lo, n), t) in members.iter().zip(&tails) {
                    let end = own(tt, chip);
                    let w = &s[lo * row..];
                    let (sum, acc) = (&mut sum[lo..lo + n], &mut acc[lo * hd..][..n * hd]);
                    weigh_lanes::<V>(w, row, at + all..at + end.min(from), value, sum, acc);
                    let (cache, tail) = (&kv(tt)[chip], t[chip]);
                    let value = |v: usize| cache.value(layer, from + v - tail, kv_head);
                    weigh_lanes::<V>(w, row, tail..t[chip + 1], value, sum, acc);
                }
            }

            // Exact combine across the column group, per query in chip
            // order (absent chips hold −∞ max, so they do not move the
            // global max), the block's chip weights in one `exp` pass.
            let mut weights = ms;
            for w in &mut weights[..live] {
                let gm = w.iter().fold(f32::NEG_INFINITY, |g, &m| g.max(m));
                w.iter_mut().for_each(|w| *w -= gm);
            }
            exp_lanes(weights[..live].as_flattened_mut());
            for &(tt, lo, n) in &*members {
                for l in lo..lo + n {
                    let o = &mut out[at[l]..][..hd];
                    o.fill(0.0);
                    let mut denom = 0.0f32;
                    for chip in 0..GRID.min(positions[tt] + 1) {
                        let w = weights[l][chip];
                        denom += sums[chip][l] * w;
                        let acc = &flash_acc[(chip * live + l) * hd..][..hd];
                        for (o, &a) in o.iter_mut().zip(acc) {
                            *o += a * w;
                        }
                    }
                    for o in o.iter_mut() {
                        *o /= denom;
                    }
                }
            }
        }
    }
}

/// Shift the positions `seen` of a score row by their max, and return it
/// (−∞ for none): what a running `f32::max` over them gives in any order.
/// The order can only pick between `+0` and `−0`, which every later `x −
/// max` and `exp` treat alike; a NaN score is skipped as `f32::max` skips
/// it.
#[inline]
fn shift_by_max(row: &mut [f32], seen: &[Range<usize>]) -> f32 {
    let greater = |m: f32, x: f32| if x > m { x } else { m };
    let (mut lanes, mut max, mut whole) = ([f32::NEG_INFINITY; LANES], f32::NEG_INFINITY, false);
    for part in seen {
        let (chunks, rest) = row[part.start..part.end].as_chunks::<LANES>();
        for chunk in chunks {
            lanes = from_fn(|l| greater(lanes[l], chunk[l]));
        }
        whole |= !chunks.is_empty();
        max = rest.iter().fold(max, |m, &x| greater(m, x));
    }
    // Halve the lanes until one is left.
    let mut width = LANES;
    while whole && width > 1 {
        width /= 2;
        let (low, high) = lanes.split_at_mut(width);
        low.iter_mut()
            .zip(&*high)
            .for_each(|(m, &x)| *m = greater(*m, x));
    }
    let max = greater(max, lanes[0]);
    for part in seen {
        row[part.start..part.end].iter_mut().for_each(|x| *x -= max);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests as driver;
    use crate::ops::exp;
    use crate::reference::Transformer;
    use crate::tensor::dot;
    use hnlpu_model::{zoo, ModelWeights, WeightGenerator};

    fn weights() -> ModelWeights {
        let card = zoo::dataflow_test_model();
        ModelWeights::materialize(&card.config, &WeightGenerator::new(2026))
    }

    impl driver::Probe for Grid {
        fn engine() -> DataflowExecutor {
            DataflowExecutor::new(weights())
        }

        /// The 16 shards, column-major.
        fn caches(state: &DataflowState) -> Vec<&KvCache> {
            state.kv.iter().flatten().collect()
        }

        fn comm(state: &DataflowState) -> CommCounters {
            state.comm
        }

        /// Every state reads its first `depth` positions through the same
        /// shared pages: a donor commits `shared`'s two blocks once and
        /// each state attaches a match of its depth, so a depth off a block
        /// boundary leaves it a private copy of the boundary page.
        fn shared_states(
            hnlpu: &DataflowExecutor,
            shared: &[u32],
            depths: &[usize],
        ) -> Vec<DataflowState> {
            let mut donor = hnlpu.new_state();
            hnlpu.prefill_with(shared, &mut donor, &mut hnlpu.new_scratch(), false);
            let mut pool = PagePool::default();
            let blocks: Vec<Box<[u32]>> = (0..2)
                .map(|b| {
                    let pages = donor.share_block(b).into_iter();
                    pages.map(|r| pool.register(r)).collect()
                })
                .collect();
            let attached = |&depth: &usize| {
                let mut state = hnlpu.new_state();
                let covering = &blocks[..depth.div_ceil(BLOCK_POSITIONS)];
                state.attach_prefix(depth, covering, &pool);
                state
            };
            depths.iter().map(attached).collect()
        }
    }

    driver::placement_tests!(Grid);

    /// The oracle of the lane-block attention: the per-row column
    /// attention the grid ran before its scores went through lane kernels,
    /// unchanged — for one row, per query head and chip a scalar `dot` per
    /// position, then the running max, `exp`, value accumulation and the
    /// chip-order combine.
    #[allow(clippy::too_many_arguments)]
    fn oracle_column_attention(
        q_col: &[f32],
        layer: usize,
        col_kv: &[KvCache],
        ctx: usize,
        q_heads_per_col: usize,
        group: usize,
        hd: usize,
        scores: &mut Vec<f32>,
        flash_acc: &mut [f32],
        numer: &mut [f32],
        out: &mut [f32],
    ) {
        let scale = 1.0 / (hd as f32).sqrt();
        for head in 0..q_heads_per_col {
            let kv_head = head / group; // within the column's head block
            let qv = &q_col[head * hd..(head + 1) * hd];
            // Per-chip flash partials (running max, exp-sum, value accumulator).
            let mut ms = [f32::NEG_INFINITY; GRID];
            let mut sums = [0.0f32; GRID];
            let mut present = [false; GRID];
            for (chip, cache) in col_kv.iter().enumerate() {
                let positions = if ctx > chip {
                    (ctx - chip).div_ceil(GRID)
                } else {
                    0
                };
                debug_assert!(positions <= cache.len());
                if positions == 0 {
                    continue;
                }
                present[chip] = true;
                let mut m = f32::NEG_INFINITY;
                scores.clear();
                for p in 0..positions {
                    let s = dot(qv, cache.key(layer, p, kv_head)) * scale;
                    m = m.max(s);
                    scores.push(s);
                }
                let mut sum = 0.0f32;
                let acc = &mut flash_acc[chip * hd..(chip + 1) * hd];
                acc.fill(0.0);
                for (p, &s) in scores.iter().enumerate() {
                    let e = exp(s - m);
                    sum += e;
                    let v = cache.value(layer, p, kv_head);
                    for (a, &vv) in acc.iter_mut().zip(v.iter()) {
                        *a += e * vv;
                    }
                }
                ms[chip] = m;
                sums[chip] = sum;
            }
            // Exact combine across the column group, in chip order (absent
            // chips hold −∞ max, so they do not move the global max).
            let gm = ms.iter().fold(f32::NEG_INFINITY, |a, &m| a.max(m));
            let mut denom = 0.0f32;
            numer.fill(0.0);
            for chip in 0..GRID {
                if !present[chip] {
                    continue;
                }
                let w = exp(ms[chip] - gm);
                denom += sums[chip] * w;
                for (n, &a) in numer
                    .iter_mut()
                    .zip(flash_acc[chip * hd..(chip + 1) * hd].iter())
                {
                    *n += a * w;
                }
            }
            let o = &mut out[head * hd..(head + 1) * hd];
            for (oo, &n) in o.iter_mut().zip(numer.iter()) {
                *oo = n / denom;
            }
        }
    }

    /// Column shards holding positions `0..len`
    /// 4`) of `kv_heads` heads for [`ORACLE_LAYERS`] layers, keys and
    /// values from `value` offset by `salt`. With a donor, each shard first
    /// reads up to `attach` local positions through the donor shard's
    /// pages: the full pages shared, a partial one as the private
    /// copy-on-write boundary, whose slots past the match hold the donor's
    /// values until the reader's own appends replace them.
    fn column_shards(
        len: usize,
        (kv_heads, hd): (usize, usize),
        salt: usize,
        donor: Option<(&mut [KvCache], usize)>,
        value: &impl Fn(usize) -> f32,
    ) -> Vec<KvCache> {
        let width = kv_heads * hd;
        let append = |cache: &mut KvCache, p: usize| {
            for layer in 0..ORACLE_LAYERS {
                let at = |side: usize, i: usize| {
                    value(((p * ORACLE_LAYERS + layer) * 2 + side) * width + i + salt)
                };
                let k: Vec<f32> = (0..width).map(|i| at(0, i)).collect();
                let v: Vec<f32> = (0..width).map(|i| at(1, i)).collect();
                cache.append(layer, &k, &v);
            }
        };
        let (mut donor, attach) = donor.map_or((None, 0), |(d, a)| (Some(d), a));
        (0..GRID)
            .map(|chip| {
                let local = (len + GRID - 1 - chip) / GRID;
                let mut shard = KvCache::new(ORACLE_LAYERS, kv_heads, hd);
                let mut attached = 0;
                if let Some(donor) = donor.as_deref_mut() {
                    attached = attach.min(local);
                    let full = attached / PAGE_SLOTS;
                    let pages: Vec<PageRef> =
                        (0..full).map(|i| donor[chip].share_page(i)).collect();
                    let boundary = (!attached.is_multiple_of(PAGE_SLOTS))
                        .then(|| donor[chip].share_page(full));
                    if attached > 0 {
                        shard.attach_shared(&pages, boundary.as_ref(), attached);
                    }
                }
                for j in attached..local {
                    append(&mut shard, j * GRID + chip);
                }
                shard
            })
            .collect()
    }

    /// Layers of the oracle's shards; the attention reads the last.
    const ORACLE_LAYERS: usize = 2;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Lane-block attention is bitwise the per-row oracle: a panel of
        /// `t` rows at positions `start..start + t` scored in one pass
        /// (prefill), each row alone at its own position (decode), or `t`
        /// sequences' decode rows — each reading a prefix of one of two
        /// donors' pages at its own depth, on and off a page boundary (a
        /// private copy-on-write boundary page), or no donor's — grouped
        /// as a batched step groups them (by donor in row order, unshared
        /// rows alone) or all in one mixed call: every output bit of every
        /// lane arm the CPU has, each called directly, is what the oracle
        /// writes row by row — over panels of 1..=64 rows
        /// starting on and off a multiple of 4, contexts shorter than the
        /// grid (chips with no position) and up to four score tiles per
        /// chip, GQA groups of 1, 2 and 8 at head dims 8, 16, 24, 32 and 64
        /// (vector tails in the transpose and the value pass), one or two
        /// KV heads per column, and values with mixed signs and signed
        /// zeros.
        #[test]
        fn lane_attention_is_bitwise_the_per_row_oracle(
            t in 1usize..=64,
            start in 0usize..192,
            shape in 0usize..15,
            kv_heads in 1usize..=2,
            shared in 0usize..12,
            mode in 0usize..4,
            seed in 0u64..1000,
        ) {
            let group = [1, 2, 8][shape % 3];
            let hd = [8, 16, 24, 32, 64][shape / 3];
            // Every third case starts at position 0, so short contexts
            // leave chips empty.
            let start = if start % 3 == 0 { 0 } else { start };
            let value = crate::tensor::tests::signed_values(seed);
            let q_heads = kv_heads * group;
            let stride = q_heads * hd + 5;
            let positions: Vec<usize> = (start..start + t).collect();
            let qs: Vec<f32> = (0..t * stride).map(|i| value(i * 11 + 4)).collect();
            let layer = ORACLE_LAYERS - 1;

            // Two donors of 16 positions per chip. Modes 0 and 1 read one
            // sequence's shards, attached to the first donor; modes 2 and 3
            // give every row its own, on donor 0, donor 1 or none.
            let mut donors: Vec<Vec<KvCache>> = (1..=2)
                .map(|d| column_shards(64, (kv_heads, hd), 7_777 * d, None, &value))
                .collect();
            let donor_of = |tt: usize| (tt + seed as usize) % 3;
            let (sets, set_of): (Vec<Vec<KvCache>>, Vec<usize>) = if mode < 2 {
                let donor = Some((donors[0].as_mut_slice(), shared));
                let set = column_shards(start + t, (kv_heads, hd), 0, donor, &value);
                (vec![set], vec![0; t])
            } else {
                let sets = (0..t)
                    .map(|tt| {
                        let attach = (shared + 5 * tt) % 13;
                        let donor = donors.get_mut(donor_of(tt)).map(|d| (d.as_mut_slice(), attach));
                        let salt = 1_000 * (tt + 1);
                        column_shards(positions[tt] + 1, (kv_heads, hd), salt, donor, &value)
                    })
                    .collect();
                (sets, (0..t).collect())
            };
            let kv = |tt: usize| sets[set_of[tt]].as_slice();

            let mut want = vec![f32::NAN; t * stride];
            let mut scores = Vec::new();
            let (mut flash_acc, mut numer) = (vec![0.0; GRID * hd], vec![0.0; hd]);
            for tt in 0..t {
                oracle_column_attention(
                    &qs[tt * stride..][..q_heads * hd],
                    layer,
                    kv(tt),
                    positions[tt] + 1,
                    q_heads,
                    group,
                    hd,
                    &mut scores,
                    &mut flash_acc,
                    &mut numer,
                    &mut want[tt * stride..][..q_heads * hd],
                );
            }

            let calls: Vec<Vec<usize>> = match mode {
                1 => (0..t).map(|tt| vec![tt]).collect(),
                2 => {
                    let on = |d: usize| (0..t).filter(|&tt| donor_of(tt) == d).collect::<Vec<_>>();
                    let mut calls = vec![on(0), on(1)];
                    calls.extend(on(2).into_iter().map(|tt| vec![tt]));
                    calls.retain(|rows| !rows.is_empty());
                    calls
                }
                _ => vec![(0..t).collect()],
            };
            for &arm in hnlpu_model::arm::available() {
                let mut lanes = vec![f32::NAN; (1 + GRID) * LANES * hd];
                let mut got = vec![f32::NAN; t * stride];
                for rows in &calls {
                    let (o, heads, l, s) = (&mut got, (q_heads, group, hd), &mut lanes, &mut scores);
                    column_attention_on(arm, &qs, o, stride, rows, &positions, kv, layer, heads, l, s);
                }
                for tt in 0..t {
                    for i in 0..q_heads * hd {
                        let (g, w) = (got[tt * stride + i], want[tt * stride + i]);
                        proptest::prop_assert_eq!(g.to_bits(), w.to_bits(),
                            "{:?} row {} (position {}) head {} element {}: {} vs {}",
                            arm, tt, positions[tt], i / hd, i % hd, g, w);
                    }
                    proptest::prop_assert!(got[tt * stride + q_heads * hd..][..5].iter().all(|v| v.is_nan()),
                        "{:?} row {} wrote into the row padding", arm, tt);
                }
            }
        }
    }

    #[test]
    fn logits_match_reference_within_tolerance() {
        let w = weights();
        let reference = Transformer::new(w.clone());
        let hnlpu = DataflowExecutor::new(w);
        let mut rc = reference.new_cache();
        let mut ds = hnlpu.new_state();
        for &t in &[1u32, 9, 17, 33] {
            let lr = reference.step(t, &mut rc);
            let ld = hnlpu.step(t, &mut ds);
            assert_eq!(lr.len(), ld.len());
            for (i, (&a, &b)) in lr.iter().zip(ld.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + a.abs()),
                    "token {t} logit {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn greedy_tokens_match_reference() {
        let w = weights();
        let reference = Transformer::new(w.clone());
        let hnlpu = DataflowExecutor::new(w);
        for prompt in [[1u32, 5, 9].as_slice(), &[100, 2], &[64]] {
            assert_eq!(
                reference.generate_greedy(prompt, 12),
                hnlpu.generate_greedy(prompt, 12),
                "prompt {prompt:?}"
            );
        }
    }

    #[test]
    fn comm_counters_match_dataflow_schedule() {
        let w = weights();
        let hnlpu = DataflowExecutor::new(w);
        let (_, comm) = hnlpu.generate_with_report(&[1], 1, &mut Sampler::Greedy);
        // One token through the test model's 3 layers (h = 64, 8 query / 4
        // KV heads of 16 dims; per chip Q 32, K 16 and V 16 values, 2 query
        // heads, h / 4 = 16), then one unembedding. Per layer: a fused QKV
        // all-reduce, two attention all-reduces and an Xo row all-reduce,
        // 4 instances each; an Xo column all-gather, 4 instances; one
        // all-chip Y all-reduce. Payloads, fp16 per chip: QKV 2 × 64 = 128,
        // attention 2 × 32 + 2 × 2 × 2 stats = 72 and 64, Xo 32 and 32, Y
        // 128; the vocabulary gather moves 128 fp32 logits.
        assert_eq!(comm.all_reduces, 3 * 16);
        assert_eq!(comm.all_gathers, 3 * 4 + 1);
        assert_eq!(comm.all_chip_all_reduces, 3);
        assert_eq!(comm.bytes, 3 * (128 + 72 + 64 + 32 + 32 + 128) + 128 * 4);
    }

    #[test]
    fn every_row_is_charged_the_layer_schedule_once_per_layer() {
        let hnlpu = DataflowExecutor::new(weights());
        let c = *hnlpu.config();
        let per_layer = CommCounters::of(&layer_collectives(&c));
        let gather = CommCounters {
            all_gathers: 1,
            bytes: c.vocab_size as u64 * 4,
            ..CommCounters::default()
        };
        let tokens = |n: usize| {
            (0..n * c.num_layers)
                .map(|_| per_layer)
                .sum::<CommCounters>()
        };

        // A prefill panel: each of its 5 rows, then the last row's gather.
        let mut prefilled = hnlpu.new_state();
        let prompt = [3, 1, 4, 1, 5];
        hnlpu.prefill_with(&prompt, &mut prefilled, &mut hnlpu.new_scratch(), true);
        assert_eq!(prefilled.comm, tokens(prompt.len()) + gather);

        // A batched decode step: each row of the panel once, on its own
        // sequence's counters.
        let mut states: Vec<DataflowState> = (0..3).map(|_| hnlpu.new_state()).collect();
        let mut logits = vec![vec![0.0; c.vocab_size]; states.len()];
        let mut refs: Vec<&mut DataflowState> = states.iter_mut().collect();
        let mut outs: Vec<&mut [f32]> = logits.iter_mut().map(Vec::as_mut_slice).collect();
        hnlpu.step_batch_with(&[7, 8, 9], &mut refs, &mut hnlpu.new_scratch(), &mut outs);
        for state in &states {
            assert_eq!(state.comm, tokens(1) + gather);
        }
    }

    #[test]
    fn kv_shards_by_position_mod_4() {
        let w = weights();
        let hnlpu = DataflowExecutor::new(w);
        let mut state = hnlpu.new_state();
        for t in 0..6 {
            hnlpu.step(t, &mut state);
        }
        // Positions 0..6: chips 0,1 in each column hold 2; chips 2,3 hold 1.
        for col in 0..GRID {
            assert_eq!(state.kv[col][0].len(), 2);
            assert_eq!(state.kv[col][1].len(), 2);
            assert_eq!(state.kv[col][2].len(), 1);
            assert_eq!(state.kv[col][3].len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "KV heads must split")]
    fn unmappable_model_rejected() {
        // Hidden 36 splits 4 ways, but grid rows 1 and 3 of the output
        // projection would start on odd columns.
        let mut odd = zoo::dataflow_test_model().config;
        odd.hidden_size = 36;
        let w = ModelWeights::materialize(&odd, &WeightGenerator::new(1));
        let panic = std::panic::catch_unwind(|| DataflowExecutor::new(w)).err();
        let message = panic.as_ref().and_then(|p| p.downcast_ref::<&str>());
        assert_eq!(
            message,
            Some(&"column groups must start on a packed byte"),
            "hidden 36"
        );
        let card = zoo::test_model(); // 2 KV heads: not divisible by 4
        let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(1));
        DataflowExecutor::new(w);
    }

    #[test]
    fn sequence_scoring_matches_reference() {
        let w = weights();
        let reference = Transformer::new(w.clone());
        let hnlpu = DataflowExecutor::new(w);
        let seq = [1u32, 5, 9, 2, 40];
        let a = reference.score_sequence(&seq);
        let b = hnlpu.score_sequence(&seq);
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn text_embedding_matches_reference() {
        let w = weights();
        let reference = Transformer::new(w.clone());
        let hnlpu = DataflowExecutor::new(w);
        let a = reference.text_embedding(&[3, 1, 4, 1, 5]);
        let b = hnlpu.text_embedding(&[3, 1, 4, 1, 5]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn effective_slots_scale_with_every_survivor_set() {
        // Exhaustive over all 2^16 - 1 non-empty survivor sets: capacity
        // scales with survivors but never reaches zero.
        for alive_mask in 1u32..(1 << (GRID * GRID)) {
            let mut health = GridHealth::full();
            for chip in 0..GRID * GRID {
                if alive_mask & (1 << chip) == 0 {
                    assert!(health.fail(chip));
                }
            }
            assert_eq!(health.survivors() as u32, alive_mask.count_ones());
            assert!(health.effective_slots(216) >= 1);
            assert_eq!(
                health.effective_slots(216),
                (216 * health.survivors() / (GRID * GRID)).max(1)
            );
        }
        let mut health = GridHealth::full();
        assert!(!health.is_degraded());
        assert_eq!(health.effective_slots(216), 216);
        assert!(health.fail(GRID + 2));
        assert!(!health.fail(GRID + 2), "double-kill is a no-op");
        assert_eq!(health.survivors(), GRID * GRID - 1);
    }

    /// The bit-exactness argument for degraded grids, pinned: the four
    /// row-partition partials of the column projection are reduced in
    /// fixed logical block order, independent of which host computes
    /// them, so relocating a dead chip's partition changes hosting and
    /// accounting only — every projection stays bit-identical to the
    /// healthy grid's.
    #[test]
    fn degraded_hosting_is_bit_exact() {
        use crate::kernels::matvec_block_into;
        let hnlpu = DataflowExecutor::new(weights());
        let w = &hnlpu.weights.layers[0].wq;
        let rows = w.rows();
        let x: Vec<f32> = (0..rows)
            .map(|i| ((i * 7 + 3) % 13) as f32 * 0.25 - 1.5)
            .collect();
        let per_col = w.cols() / GRID;
        let mut healthy = vec![0.0f32; per_col];
        col_project_panel(
            &x,
            rows,
            1,
            w,
            0,
            per_col,
            rows / GRID,
            &mut vec![0.0f32; per_col],
            &mut healthy,
            per_col,
        );
        // "Degraded execution": compute the same four logical partials in
        // an arbitrary hosting order (survivors pick up dead chips'
        // partitions), then reduce in logical order — bitwise equal.
        for hosting_order in [[3usize, 1, 0, 2], [2, 3, 1, 0], [1, 1, 1, 1]] {
            let mut parts = vec![0.0f32; GRID * per_col];
            for &s in &hosting_order {
                // Host assignment does not appear anywhere in the math:
                // each logical split s writes its own partial block.
                matvec_block_into(
                    &x[s * rows / GRID..(s + 1) * rows / GRID],
                    w,
                    s * rows / GRID,
                    0..per_col,
                    &mut parts[s * per_col..(s + 1) * per_col],
                );
            }
            // Splits absent from a hosting order (e.g. all-host-1) are
            // recomputed by the fallback host.
            for s in 0..GRID {
                if !hosting_order.contains(&s) {
                    matvec_block_into(
                        &x[s * rows / GRID..(s + 1) * rows / GRID],
                        w,
                        s * rows / GRID,
                        0..per_col,
                        &mut parts[s * per_col..(s + 1) * per_col],
                    );
                }
            }
            let mut degraded = vec![0.0f32; per_col];
            for s in 0..GRID {
                add_assign(&mut degraded, &parts[s * per_col..(s + 1) * per_col]);
            }
            assert_eq!(healthy, degraded, "order {hosting_order:?}");
        }
    }

    #[test]
    fn reset_context_forgets_positions_and_counters() {
        let hnlpu = DataflowExecutor::new(weights());
        let mut state = hnlpu.new_state();
        let mut scratch = hnlpu.new_scratch();
        for t in [5u32, 9, 2] {
            hnlpu.step_with(t, &mut state, &mut scratch);
        }
        assert!(state.kv_bytes_fp16() > 0);
        state.reset_context();
        assert_eq!(state.position(), 0);
        assert_eq!(state.kv_bytes_fp16(), 0);
        assert_eq!(state.comm, CommCounters::default());
        // A reset state replays a fresh one bit-for-bit.
        let mut fresh = hnlpu.new_state();
        let mut fresh_scratch = hnlpu.new_scratch();
        for t in [8u32, 1] {
            hnlpu.step_with(t, &mut state, &mut scratch);
            hnlpu.step_with(t, &mut fresh, &mut fresh_scratch);
        }
        assert_eq!(scratch.logits(), fresh_scratch.logits());
    }

    #[test]
    fn multinomial_paths_agree_given_same_seed() {
        let w = weights();
        let reference = Transformer::new(w.clone());
        let hnlpu = DataflowExecutor::new(w);
        let mut s1 = Sampler::multinomial(0.7, 99);
        let mut s2 = Sampler::multinomial(0.7, 99);
        let a = reference.generate(&[3, 1, 4], 10, &mut s1);
        let (b, _) = hnlpu.generate_with_report(&[3, 1, 4], 10, &mut s2);
        assert_eq!(a, b);
    }

    /// Prefill a donor state, freeze its prompt blocks into a pool, and
    /// attach them to a fresh state: the attached sequence must produce
    /// bit-identical logits and decode tokens while skipping the
    /// matched prefill entirely — for both a block-aligned match and a
    /// mid-block (copy-on-write boundary) match.
    #[test]
    fn attached_prefix_decodes_bit_identically() {
        let w = weights();
        let hnlpu = DataflowExecutor::new(w);
        let vocab = hnlpu.config().vocab_size as u32;
        let prompt: Vec<u32> = (0..37u32).map(|i| (i * 13 + 5) % vocab).collect();

        // Donor: full prefill, then freeze the two full prompt blocks.
        let mut donor = hnlpu.new_state();
        let mut scratch = hnlpu.new_scratch();
        for &t in &prompt {
            hnlpu.step_with(t, &mut donor, &mut scratch);
        }
        let mut pool = PagePool::default();
        let blocks: Vec<Box<[u32]>> = (0..2)
            .map(|b| {
                donor
                    .share_block(b)
                    .into_iter()
                    .map(|r| pool.register(r))
                    .collect()
            })
            .collect();

        for matched in [32usize, 30] {
            // Baseline: a fresh state prefilled token by token.
            let mut base = hnlpu.new_state();
            let mut base_scratch = hnlpu.new_scratch();
            for &t in &prompt {
                hnlpu.step_with(t, &mut base, &mut base_scratch);
            }
            let covering = matched.div_ceil(BLOCK_POSITIONS);
            let mut state = hnlpu.new_state();
            let mut s = hnlpu.new_scratch();
            state.attach_prefix(matched, &blocks[..covering], &pool);
            assert_eq!(state.position(), matched);
            assert_eq!(state.kv_bytes_fp16(), {
                let mut probe = hnlpu.new_state();
                for &t in &prompt[..matched] {
                    hnlpu.step_with(t, &mut probe, &mut scratch);
                }
                probe.kv_bytes_fp16()
            });
            // The unmatched suffix is the only prefill work left.
            for &t in &prompt[matched..] {
                hnlpu.step_with(t, &mut state, &mut s);
            }
            assert_eq!(
                s.logits(),
                base_scratch.logits(),
                "matched {matched}: prompt logits"
            );
            // Greedy decode stays bit-identical for a while.
            let mut a = state.clone();
            let mut b = base.clone();
            let mut tok_a = Sampler::Greedy.sample(s.logits());
            let mut tok_b = tok_a;
            for step in 0..8 {
                hnlpu.step_with(tok_a, &mut a, &mut s);
                hnlpu.step_with(tok_b, &mut b, &mut base_scratch);
                assert_eq!(s.logits(), base_scratch.logits(), "step {step}");
                tok_a = Sampler::Greedy.sample(s.logits());
                tok_b = Sampler::Greedy.sample(base_scratch.logits());
            }
        }

        // Shared pages mean most of the attached KV is not privately
        // owned: a fully attached 32-position prefix charges less
        // physical memory than the same fill prefilled densely.
        let mut dense = hnlpu.new_state();
        for &t in &prompt[..32] {
            hnlpu.step_with(t, &mut dense, &mut scratch);
        }
        let mut shared_state = hnlpu.new_state();
        shared_state.attach_prefix(32, &blocks, &pool);
        assert!(shared_state.kv_owned_bytes_fp16() < dense.kv_owned_bytes_fp16());
    }
}
