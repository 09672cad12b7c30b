//! The 4×4-chip HNLPU dataflow executor (Figure 10 / Appendix A).
//!
//! Every tensor is computed the way the machine computes it: chips hold
//! weight *slices*, produce partial sums, and exchange them through explicit
//! collectives whose invocations and byte counts are recorded. Attention
//! follows the FlashAttention-style flow (§4.3): each chip reduces its
//! quarter of the context with running max/sum statistics, and the column
//! group combines the partials exactly.
//!
//! [`DataflowExecutor`] is the shared driver ([`Engine`]) over the [`Grid`]
//! placement; this module holds what the grid means — the sharded
//! [`DataflowState`], the block body with its partial sums and fixed-order
//! reductions, the [`CommCounters`] it charges, and [`DegradedLayout`]
//! re-hosting. Weight slices stay in their resident packed-FP4 form: a
//! chip's partial product is a [`crate::kernels::matmul_block_into`] over
//! its block of the packed matrix, so nothing is ever dequantized.
//!
//! The executor is verified token-for-token against
//! [`crate::reference::Transformer`].

use crate::engine::{Engine, PanelRows, Placement};
use crate::kernels::matmul_block_into;
use crate::kv_cache::{KvCache, PagePool, PageRef, BLOCK_POSITIONS, PAGE_SLOTS};
use crate::ops::rmsnorm_into;
use crate::reference::stage_experts;
use crate::sampler::Sampler;
use crate::scratch::Scratch;
use crate::tensor::{add_assign, dot};
use hnlpu_model::{PackedFp4Matrix, TransformerConfig};

/// Chip-grid dimension (the paper's 4×4 fabric).
pub const GRID: usize = 4;

/// Collective-communication counters, per executor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommCounters {
    /// Column- or row-group all-reduces.
    pub all_reduces: u64,
    /// All-chip (16-way) all-reduces.
    pub all_chip_all_reduces: u64,
    /// Reduces to a single chip.
    pub reduces: u64,
    /// All-gathers.
    pub all_gathers: u64,
    /// Total payload bytes exchanged (fp32 accounting).
    pub bytes: u64,
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
        self.reduces += rhs.reduces;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridHealth {
    alive: u16,
}

impl GridHealth {
    /// All 16 chips alive.
    pub fn full() -> Self {
        GridHealth { alive: u16::MAX }
    }

    /// Mark `chip` dead. Returns `true` when this changed the grid
    /// (false for an already-dead or out-of-range chip).
    pub fn fail(&mut self, chip: usize) -> bool {
        if chip >= GRID * GRID || !self.is_alive(chip) {
            return false;
        }
        self.alive &= !(1u16 << chip);
        true
    }

    /// Is `chip` alive? Out-of-range chips are dead.
    pub fn is_alive(&self, chip: usize) -> bool {
        chip < GRID * GRID && self.alive & (1u16 << chip) != 0
    }

    /// Live chips remaining.
    pub fn survivors(&self) -> usize {
        self.alive.count_ones() as usize
    }

    /// True once any chip has died.
    pub fn is_degraded(&self) -> bool {
        self.alive != u16::MAX
    }
}

impl Default for GridHealth {
    fn default() -> Self {
        GridHealth::full()
    }
}

/// A degraded grid has no survivors left to host work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// Every chip is dead.
    NoSurvivors,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::NoSurvivors => write!(f, "no surviving chips to host the grid's work"),
        }
    }
}

impl std::error::Error for GridError {}

/// Hosting map for a degraded grid: logical shard `r` of column `c`
/// (its home is chip `r * GRID + c`) → the surviving physical chip that
/// hosts its row-partition and KV shard.
///
/// Relocation changes *hosting only*, never numerics: the column
/// projection (`col_project_panel`) always computes the four logical
/// row-partition partials — whichever chip hosts each one — and sums
/// them into a zeroed accumulator in fixed logical block order. The
/// reduction order is a property of the logical shard index, not of the
/// hosting chip, so a degraded layout's results are bit-identical for
/// *any* survivor set (`degraded_hosting_is_bit_exact` below pins this).
///
/// Placement policy, deterministic: prefer the same column (cyclically
/// next live row, keeping the relocated KV shard inside the column
/// group that consumes it), else the first live chip scanning row-major
/// from the home chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedLayout {
    /// `host[col * GRID + shard]` = physical chip hosting that shard.
    host: [u8; GRID * GRID],
    survivors: usize,
}

impl DegradedLayout {
    /// Compute the hosting map for `health`.
    ///
    /// # Errors
    ///
    /// [`GridError::NoSurvivors`] when every chip is dead.
    pub fn for_health(health: &GridHealth) -> Result<Self, GridError> {
        if health.survivors() == 0 {
            return Err(GridError::NoSurvivors);
        }
        let mut host = [0u8; GRID * GRID];
        for col in 0..GRID {
            for shard in 0..GRID {
                let home = shard * GRID + col;
                let same_col = (0..GRID)
                    .map(|dr| ((shard + dr) % GRID) * GRID + col)
                    .find(|&c| health.is_alive(c));
                let anywhere = || {
                    (0..GRID * GRID)
                        .map(|d| (home + d) % (GRID * GRID))
                        .find(|&c| health.is_alive(c))
                };
                match same_col.or_else(anywhere) {
                    Some(chip) => host[col * GRID + shard] = chip as u8,
                    None => return Err(GridError::NoSurvivors),
                }
            }
        }
        Ok(DegradedLayout {
            host,
            survivors: health.survivors(),
        })
    }

    /// The physical chip hosting logical shard `shard` of column `col`.
    pub fn host_of(&self, col: usize, shard: usize) -> usize {
        self.host[col * GRID + shard] as usize
    }

    /// Live chips underlying this layout.
    pub fn survivors(&self) -> usize {
        self.survivors
    }

    /// Shards hosted away from their home chip.
    pub fn relocated(&self) -> usize {
        (0..GRID * GRID)
            .filter(|&i| {
                let (col, shard) = (i / GRID, i % GRID);
                self.host[i] as usize != shard * GRID + col
            })
            .count()
    }

    /// True when every shard sits on its home chip (healthy grid).
    pub fn is_identity(&self) -> bool {
        self.relocated() == 0
    }

    /// Concurrent-sequence capacity scaled to the surviving compute:
    /// `slots * survivors / 16`, floored, but never below one (a single
    /// surviving chip still serves, slowly).
    pub fn effective_slots(&self, slots: usize) -> usize {
        (slots * self.survivors / (GRID * GRID)).max(1)
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
    pub fn reset_context(&mut self) {
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
    /// through a [`PagePool`] are charged once to the pool, so the gap
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
    /// Charge every row one instance of a collective.
    fn charge(&mut self, one: CommCounters) {
        for tt in 0..self.len() {
            self.state(tt).comm += one;
        }
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
    /// grouping. Each row's communication counters advance by the
    /// per-token schedule.
    // analyze: hot
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
            flash_acc,
            numer,
            delta,
            lora_hidden,
            rope,
            xp,
            xnp,
            xop,
            qp,
            kp,
            vp,
            attnp,
            partp,
            ..
        } = &mut *scratch;

        for tt in 0..t {
            rmsnorm_into(&xp[tt * h..(tt + 1) * h], &mut xnp[tt * h..(tt + 1) * h]);
        }

        // (II) Projections: chip (r, col) runs one T-wide matmul over its
        // row slice of the panel; per token the column all-reduces the
        // four partials in chip order.
        for col in 0..GRID {
            col_project_panel(
                xnp, h, rows, &w.wq, col, q_per_col, row_slice, partp, qp, qw,
            );
        }
        if let Some(adapter) = &engine.q_adapters[layer] {
            // Field-programmable side-channel: the rank-r delta is computed
            // once per token (every chip would hold the identical value)
            // and each column adds its slice — no extra communication.
            for tt in 0..t {
                adapter.delta_into(&xnp[tt * h..(tt + 1) * h], lora_hidden, delta);
                add_assign(&mut qp[tt * qw..(tt + 1) * qw], delta);
            }
        }
        for col in 0..GRID {
            col_project_panel(
                xnp, h, rows, &w.wk, col, kv_per_col, row_slice, partp, kp, kvw,
            );
            col_project_panel(
                xnp, h, rows, &w.wv, col, kv_per_col, row_slice, partp, vp, kvw,
            );
        }

        // (III) RoPE + KV landing: a row at `position` lands on chip
        // (position mod 4) of each column of its own sequence's shards.
        for tt in 0..t {
            let position = positions[tt];
            let DataflowState { kv, comm } = rows.state(tt);
            rope.prepare(position);
            for col in 0..GRID {
                comm.reduces += 2;
                comm.bytes += 2 * (kv_per_col as u64) * 4;
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

        // (IV, V) Attention against the row's own shards. A prefill
        // panel's whole KV is cached by now, so each row masks itself to
        // its causal prefix via `ctx`.
        for tt in 0..t {
            let position = positions[tt];
            let DataflowState { kv, comm } = rows.state(tt);
            for col in 0..GRID {
                column_attention(
                    &qp[tt * qw + col * q_per_col..][..q_per_col],
                    layer,
                    &kv[col],
                    position + 1,
                    q_heads_per_col,
                    group,
                    hd,
                    scores,
                    flash_acc,
                    numer,
                    &mut attnp[tt * qw + col * q_per_col..][..q_per_col],
                    comm,
                );
            }
        }

        // (VI) Output projection: per token, row all-reduces in chip
        // order then a column all-gather — the per-token schedule × t.
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
            rows.charge(CommCounters {
                all_reduces: 1,
                bytes: row_slice as u64 * 4,
                ..CommCounters::default()
            });
        }
        rows.charge(CommCounters {
            all_gathers: 1,
            bytes: h as u64 * 4,
            ..CommCounters::default()
        });
        for tt in 0..t {
            // first residual (local on every chip)
            add_assign(&mut xop[tt * h..(tt + 1) * h], &xp[tt * h..(tt + 1) * h]);
        }

        // (VII, VIII) Router (weights replicated on all chips, no
        // communication) and experts, grouped so the owning chip runs
        // three matmuls per touched expert.
        stage_experts(w, &c, t, scratch);
        let n_experts = c.moe.num_experts;
        let k_experts = c.moe.experts_per_token;
        let Scratch {
            y,
            xp,
            xop,
            chosenp,
            expertwp,
            stagep,
            ..
        } = scratch;
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
        rows.charge(CommCounters {
            all_chip_all_reduces: 1,
            bytes: h as u64 * 4,
            ..CommCounters::default()
        });
    }
}

/// Column projection with partial sums: chip `(r, col)` runs one T-wide
/// matmul over its row slice of the activation panel against its block of
/// the packed matrix, and each token's four partial rows are summed into a
/// zeroed accumulator in chip order — the column all-reduce. The 4-way
/// split and the in-order reduction are numerics, not scheduling: they fix
/// every output bit whichever chip hosts a partition.
// analyze: hot
#[allow(clippy::too_many_arguments)]
fn col_project_panel(
    xs: &[f32],
    x_stride: usize,
    rows: &mut PanelRows<'_, '_, DataflowState>,
    m: &PackedFp4Matrix,
    col: usize,
    per_col: usize,
    row_slice: usize,
    partp: &mut [f32],
    outs: &mut [f32],
    out_stride: usize,
) {
    let t = rows.len();
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
    rows.charge(CommCounters {
        all_reduces: 1,
        bytes: per_col as u64 * 4,
        ..CommCounters::default()
    });
}

/// Flash-style column attention: each chip computes running-max statistics
/// over its quarter of the context into its `flash_acc` block; the column
/// all-reduce combines them exactly, in chip order.
///
/// `ctx` is the number of context positions the query may see (causal:
/// `position + 1`). Chip `chip` holds positions `p % 4 == chip`, so it
/// contributes `ceil((ctx - chip) / 4)` of them — during panel prefill
/// the whole panel's KV is already cached, and `ctx` is what masks each
/// token down to its causal prefix.
// analyze: hot
#[allow(clippy::too_many_arguments)]
fn column_attention(
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
    comm: &mut CommCounters,
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
                let e = (s - m).exp();
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
            let w = (ms[chip] - gm).exp();
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
    comm.all_reduces += 1;
    comm.bytes += (q_heads_per_col * hd) as u64 * 4;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests as driver;
    use crate::reference::Transformer;
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

        /// Row 0 reads its 30 positions through shared pages: a donor
        /// commits `shared`'s two blocks and the row attaches a mid-block
        /// match, so its boundary page is a private copy.
        fn row0_state(hnlpu: &DataflowExecutor, shared: &[u32]) -> DataflowState {
            let mut donor = hnlpu.new_state();
            hnlpu.prefill_with(shared, &mut donor, &mut hnlpu.new_scratch(), false);
            let mut pool = PagePool::default();
            let blocks: Vec<Box<[u32]>> = (0..2)
                .map(|b| {
                    let pages = donor.share_block(b).into_iter();
                    pages.map(|r| pool.register(r)).collect()
                })
                .collect();
            let mut state = hnlpu.new_state();
            state.attach_prefix(30, &blocks, &pool);
            state
        }
    }

    driver::placement_tests!(Grid);

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
        let layers = w.config.num_layers as u64;
        let hnlpu = DataflowExecutor::new(w);
        let (_, comm) = hnlpu.generate_with_report(&[1], 1, &mut Sampler::Greedy);
        // One step: per layer per column group: 3 projection ARs + 1
        // attention AR + (per row) 4 Wo row-ARs; 2 KV reduces per column;
        // 1 Xo all-gather; 1 all-chip Y all-reduce; plus the final
        // unembedding all-gather.
        let per_layer_ar = 4 * 3 + 4 + 4; // 4 cols x (q,k,v) + 4 attn + 4 wo rows
        assert_eq!(comm.all_reduces, layers * per_layer_ar);
        assert_eq!(comm.reduces, layers * 8);
        assert_eq!(comm.all_gathers, layers + 1);
        assert_eq!(comm.all_chip_all_reduces, layers);
        assert!(comm.bytes > 0);
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
    fn lora_adapted_machines_agree() {
        use crate::lora::LoraAdapter;
        let w = weights();
        let c = w.config;
        let adapter = LoraAdapter::seeded(c.hidden_size, c.attention.q_width(), 4, 6.0, 5);
        let mut reference = Transformer::new(w.clone());
        let mut hnlpu = DataflowExecutor::new(w);
        for layer in 0..c.num_layers {
            reference.set_q_adapter(layer, adapter.clone());
            hnlpu.set_q_adapter(layer, adapter.clone());
        }
        let a = reference.generate_greedy(&[7, 11], 10);
        let b = hnlpu.generate_greedy(&[7, 11], 10);
        assert_eq!(a, b, "LoRA-adapted machines must still agree");
    }

    #[test]
    fn healthy_grid_layout_is_identity() {
        let health = GridHealth::full();
        assert_eq!(health.survivors(), GRID * GRID);
        assert!(!health.is_degraded());
        let layout = DegradedLayout::for_health(&health).expect("survivors exist");
        assert!(layout.is_identity());
        assert_eq!(layout.relocated(), 0);
        assert_eq!(layout.effective_slots(216), 216);
        for col in 0..GRID {
            for shard in 0..GRID {
                assert_eq!(layout.host_of(col, shard), shard * GRID + col);
            }
        }
    }

    #[test]
    fn every_survivor_set_hosts_every_shard_on_a_live_chip() {
        // Exhaustive over all 2^16 - 1 non-empty survivor sets: every
        // logical shard lands on a live chip, dead-chip shards relocate,
        // and capacity scales with survivors but never reaches zero.
        for alive_mask in 1u32..(1 << (GRID * GRID)) {
            let mut health = GridHealth::full();
            for chip in 0..GRID * GRID {
                if alive_mask & (1 << chip) == 0 {
                    health.fail(chip);
                }
            }
            let layout = DegradedLayout::for_health(&health).expect("non-empty survivor set");
            for col in 0..GRID {
                for shard in 0..GRID {
                    assert!(
                        health.is_alive(layout.host_of(col, shard)),
                        "mask {alive_mask:#06x}: shard ({col},{shard}) hosted on a dead chip"
                    );
                }
            }
            assert_eq!(layout.relocated(), GRID * GRID - health.survivors());
            assert!(layout.effective_slots(216) >= 1);
            assert_eq!(
                layout.effective_slots(216),
                (216 * health.survivors() / (GRID * GRID)).max(1)
            );
        }
    }

    #[test]
    fn single_failure_relocates_within_the_column() {
        // Chip (r=1, c=2) dies: its shard moves to the next live row of
        // column 2, keeping the relocated KV inside the column group.
        let mut health = GridHealth::full();
        assert!(health.fail(GRID + 2));
        assert!(!health.fail(GRID + 2), "double-kill is a no-op");
        let layout = DegradedLayout::for_health(&health).expect("15 survivors");
        assert_eq!(layout.host_of(2, 1), 2 * GRID + 2);
        assert_eq!(layout.relocated(), 1);
        assert!(!layout.is_identity());
    }

    #[test]
    fn dead_grid_is_a_typed_error() {
        let mut health = GridHealth::full();
        for chip in 0..GRID * GRID {
            health.fail(chip);
        }
        assert_eq!(health.survivors(), 0);
        assert_eq!(
            DegradedLayout::for_health(&health),
            Err(GridError::NoSurvivors)
        );
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
        let mut state = hnlpu.new_state();
        col_project_panel(
            &x,
            rows,
            &mut PanelRows::Prefill {
                state: &mut state,
                t: 1,
            },
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
