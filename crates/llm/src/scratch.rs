//! Reusable scratch memory for the forward-pass hot path.
//!
//! The paper's machine has no heap: every intermediate of Figure 10 lives
//! in a fixed on-chip buffer, and a sequence's only state is its KV.
//! [`Scratch`] is the software analogue — one arena holding every
//! intermediate of one activation panel of up to [`MAX_PREFILL_PANEL`]
//! rows (a prefill chunk, a batched decode step, or the one-row panel a
//! single decode step is), sized once from the [`TransformerConfig`] so
//! the steady-state forward pass performs no allocation at all. Both
//! engines ([`crate::reference::Transformer`] and
//! [`crate::dataflow::DataflowExecutor`]) thread the same arena type. It
//! belongs to whoever runs the panel, not to a sequence: a single-sequence
//! caller keeps one, and the batched engine keeps one per worker and hands
//! each worker's panels the same arena whatever sequences they hold.

use crate::dataflow::GRID;
use crate::help::Board;
use crate::ops::{rope_inv_freq, rope_sin_cos};
use crate::telemetry::StageNanos;
use crate::tensor::LANES;
use hnlpu_model::TransformerConfig;
use std::sync::Arc;

/// Widest activation panel the block runs through the matmul kernels in
/// one pass. Longer prompts are chunked into panels of at most this many
/// tokens and wider decode rounds into groups of at most this many rows;
/// the [`Scratch`] arena sizes its panel buffers to it so both stay
/// allocation-free.
pub const MAX_PREFILL_PANEL: usize = 64;

/// Precomputed rotary-embedding table for one sequence.
///
/// The inverse frequencies `10000^(−2i/d)` depend only on the head
/// dimension, so they are computed once; per step the `d/2` sin/cos pairs
/// for the current position are computed once and shared by all heads.
/// Both come from the owned functions [`crate::ops::rope`] uses
/// (`ops::rope_inv_freq`, `ops::rope_sin_cos`), so rotation is the
/// oracle's bits and no host libm's.
#[derive(Debug, Clone)]
pub(crate) struct RopeTable {
    /// `10000^(−2i/d)` for `i in 0..d/2`.
    inv_freq: Vec<f32>,
    sin: Vec<f32>,
    cos: Vec<f32>,
    /// Position the sin/cos rows currently hold.
    position: Option<usize>,
}

impl RopeTable {
    /// A table for head dimension `head_dim` (must be even).
    ///
    /// # Panics
    ///
    /// Panics if `head_dim` is odd.
    pub(crate) fn new(head_dim: usize) -> Self {
        assert!(head_dim.is_multiple_of(2), "rope needs an even head dim");
        let half = head_dim / 2;
        RopeTable {
            inv_freq: (0..half).map(|i| rope_inv_freq(i, head_dim)).collect(),
            sin: vec![0.0; half],
            cos: vec![0.0; half],
            position: None,
        }
    }

    /// Fill the sin/cos rows for `position` (no-op when already there).
    pub(crate) fn prepare(&mut self, position: usize) {
        if self.position == Some(position) {
            return;
        }
        for i in 0..self.inv_freq.len() {
            let (s, c) = rope_sin_cos(position, self.inv_freq[i]);
            self.sin[i] = s;
            self.cos[i] = c;
        }
        self.position = Some(position);
    }

    /// Rotate one head vector in place using the prepared position.
    ///
    /// # Panics
    ///
    /// Panics if `head` does not match the table's head dimension or
    /// [`prepare`](Self::prepare) was never called.
    pub(crate) fn apply(&self, head: &mut [f32]) {
        assert_eq!(head.len(), 2 * self.inv_freq.len(), "head dimension");
        assert!(self.position.is_some(), "prepare() before apply()");
        for i in 0..self.inv_freq.len() {
            let (sin, cos) = (self.sin[i], self.cos[i]);
            let (a, b) = (head[2 * i], head[2 * i + 1]);
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Scratch arena: every intermediate of one activation panel (`T` =
/// [`MAX_PREFILL_PANEL`] rows), allocated once. See the module docs.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// One row's MoE output accumulator (hidden).
    pub(crate) y: Vec<f32>,
    /// Attention scores, grown with the sequence: one row's context on a
    /// single chip, or on the grid one score row per query of a lane block
    /// of up to [`LANES`] queries, query-major, each row every chip's
    /// positions padded to whole vectors. The grid's lane block keeps its
    /// key tile and flash accumulators in `xop`, dead until the output
    /// projection.
    pub(crate) scores: Vec<f32>,
    /// One row's top-k expert indices (experts_per_token).
    pub(crate) chosen: Vec<usize>,
    /// One row's softmaxed expert weights (experts_per_token).
    pub(crate) expert_w: Vec<f32>,
    /// Shared rotary table.
    pub(crate) rope: RopeTable,
    /// Next-token logits of the most recent single-sequence step
    /// (vocab_size); a batched step writes each row's into the caller's
    /// buffers instead.
    pub(crate) logits: Vec<f32>,
    /// Residual panel (T × hidden).
    pub(crate) xp: Vec<f32>,
    /// Normalized panel (T × hidden); after a step, each row's final
    /// normalized hidden state.
    pub(crate) xnp: Vec<f32>,
    /// Post-attention residual panel (T × hidden).
    pub(crate) xop: Vec<f32>,
    /// Query panel (T × q_width).
    pub(crate) qp: Vec<f32>,
    /// Key panel (T × kv_width).
    pub(crate) kp: Vec<f32>,
    /// Value panel (T × kv_width).
    pub(crate) vp: Vec<f32>,
    /// Attention-output panel (T × q_width).
    pub(crate) attnp: Vec<f32>,
    /// One chip's partial-product panel (T × max per-chip slice width).
    pub(crate) partp: Vec<f32>,
    /// Router-logit panel (T × num_experts).
    pub(crate) routerp: Vec<f32>,
    /// Top-k expert choices (T × experts_per_token).
    pub(crate) chosenp: Vec<usize>,
    /// Softmaxed expert weights (T × experts_per_token).
    pub(crate) expertwp: Vec<f32>,
    /// Expert-grouped activation gather (≤ T rows × hidden); reused for
    /// the group's down-projection outputs.
    pub(crate) gatherp: Vec<f32>,
    /// Expert-grouped up projections (≤ T rows × intermediate).
    pub(crate) upp: Vec<f32>,
    /// Expert-grouped gate projections (≤ T rows × intermediate).
    pub(crate) gatep: Vec<f32>,
    /// Staged per-(token, chosen-slot) expert outputs (T ×
    /// experts_per_token × hidden), replayed in each token's chosen order.
    pub(crate) stagep: Vec<f32>,
    /// (token × experts_per_token) slot ids of the expert group currently
    /// being gathered (capacity T × experts_per_token).
    pub(crate) gidx: Vec<usize>,
    /// Host nanoseconds per stage spent in this arena (`telemetry`).
    pub(crate) spans: StageNanos,
    /// The join board this arena's worker shares with a batched pool's
    /// other workers (`help`); `None` outside a pool.
    pub(crate) board: Option<Arc<Board>>,
}

impl Scratch {
    /// An arena sized for panels of `config`'s architecture.
    pub(crate) fn new(config: &TransformerConfig) -> Self {
        let h = config.hidden_size;
        let qw = config.attention.q_width();
        let kvw = config.attention.kv_width();
        let hd = config.attention.head_dim;
        // Widest per-chip slice the dataflow engine hands to `partp`.
        let slice = (qw / GRID).max(kvw / GRID).max(h / GRID).max(1);
        let inter = config.moe.intermediate_size;
        let experts = config.moe.num_experts;
        let per_tok = config.moe.experts_per_token;
        let t = MAX_PREFILL_PANEL;
        Scratch {
            y: vec![0.0; h],
            scores: Vec::new(),
            chosen: Vec::with_capacity(per_tok),
            expert_w: Vec::with_capacity(per_tok),
            rope: RopeTable::new(hd),
            logits: vec![0.0; config.vocab_size],
            xp: vec![0.0; t * h],
            xnp: vec![0.0; t * h],
            xop: vec![0.0; t * h],
            qp: vec![0.0; t * qw],
            kp: vec![0.0; t * kvw],
            vp: vec![0.0; t * kvw],
            attnp: vec![0.0; t * qw],
            partp: vec![0.0; t * slice],
            routerp: vec![0.0; t * experts],
            chosenp: vec![0; t * per_tok],
            expertwp: vec![0.0; t * per_tok],
            gatherp: vec![0.0; t * h],
            upp: vec![0.0; t * inter],
            gatep: vec![0.0; t * inter],
            stagep: vec![0.0; t * per_tok * h],
            gidx: Vec::with_capacity(t * per_tok),
            spans: StageNanos::default(),
            board: None,
        }
    }

    /// Pre-size the context-length-dependent buffers for sequences up to
    /// `positions` tokens, so steady-state decode and panel prefill stay
    /// reallocation-free (held by the zero-allocation sentinel in
    /// `tests/tests/zero_alloc_decode.rs`): the scores of a full lane
    /// block, `LANES` rows of at most `ceil(positions / GRID)` positions
    /// on each of the [`GRID`] chips, rounded up to whole vectors, which
    /// also covers one row's `positions` scores on a single chip.
    pub fn reserve_context(&mut self, positions: usize) {
        let want = LANES * (GRID * positions.div_ceil(GRID)).next_multiple_of(LANES);
        self.scores.reserve(want.saturating_sub(self.scores.len()));
    }

    /// Next-token logits produced by the most recent step.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Final normalized hidden state of the most recent single-sequence
    /// step: row 0 of the normalized panel.
    pub fn hidden(&self) -> &[f32] {
        // `y` is one hidden row wide.
        &self.xnp[..self.y.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::rope;
    use hnlpu_model::zoo;

    #[test]
    fn rope_table_matches_seed_formula_bitwise() {
        let mut table = RopeTable::new(16);
        for position in [0usize, 1, 7, 100, 4096] {
            table.prepare(position);
            #[expect(
                clippy::disallowed_methods,
                reason = "test input: both sides read the same values"
            )]
            let mut a: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin()).collect();
            let mut b = a.clone();
            table.apply(&mut a);
            rope(&mut b, position);
            assert_eq!(a, b, "position {position}");
        }
    }

    #[test]
    fn prepare_is_idempotent() {
        let mut t = RopeTable::new(8);
        t.prepare(5);
        let sin = t.sin.clone();
        t.prepare(5);
        assert_eq!(t.sin, sin);
        t.prepare(6);
        assert_ne!(t.sin, sin);
    }

    #[test]
    #[should_panic(expected = "even head dim")]
    fn odd_head_dim_rejected() {
        RopeTable::new(7);
    }

    #[test]
    fn scratch_sizes_follow_config() {
        let c = zoo::dataflow_test_model().config;
        let s = Scratch::new(&c);
        let t = MAX_PREFILL_PANEL;
        assert_eq!(s.hidden().len(), c.hidden_size);
        assert_eq!(s.xp.len(), t * c.hidden_size);
        assert_eq!(s.qp.len(), t * c.attention.q_width());
        assert_eq!(s.logits().len(), c.vocab_size);
        assert_eq!(s.routerp.len(), t * c.moe.num_experts);
    }
}
