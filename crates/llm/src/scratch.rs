//! Reusable per-sequence scratch memory for the forward-pass hot path.
//!
//! The paper's machine has no heap: every intermediate of Figure 10 lives
//! in a fixed on-chip buffer. [`Scratch`] is the software analogue — one
//! arena per resident sequence holding every intermediate of one
//! activation panel of up to [`MAX_PREFILL_PANEL`] rows (a prefill chunk,
//! a batched decode step, or the one-row panel a single decode step is),
//! sized once from the [`TransformerConfig`] so the steady-state forward
//! pass performs no allocation at all. Both engines
//! ([`crate::reference::Transformer`] and
//! [`crate::dataflow::DataflowExecutor`]) thread the same arena type, and
//! the batched engine gives each KV slot its own.

use hnlpu_model::TransformerConfig;

/// Widest activation panel the block runs through the matmul kernels in
/// one pass. Longer prompts are chunked into panels of at most this many
/// tokens and wider decode rounds into groups of at most this many rows;
/// the [`Scratch`] arena sizes its panel buffers to it so both stay
/// allocation-free.
pub const MAX_PREFILL_PANEL: usize = 64;

/// Precomputed rotary-embedding table for one sequence.
///
/// The seed path recomputed `10000^(2i/d)` with `powf` for every head of
/// every layer of every step. The frequencies depend only on the head
/// dimension, so they are computed once; per step the `d/2` sin/cos pairs
/// for the current position are computed once and shared by all heads. The
/// angles are produced by the *same* `position / 10000^(2i/d)` expression
/// as [`crate::ops::rope`], so rotation stays bit-identical to the seed
/// formula.
#[derive(Debug, Clone)]
pub struct RopeTable {
    /// `10000^(2i/d)` for `i in 0..d/2`.
    freq: Vec<f32>,
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
    // analyze: cold — constructor; runs once per sequence, not per token.
    pub fn new(head_dim: usize) -> Self {
        assert!(head_dim.is_multiple_of(2), "rope needs an even head dim");
        let half = head_dim / 2;
        RopeTable {
            freq: (0..half)
                .map(|i| 10_000f32.powf(2.0 * i as f32 / head_dim as f32))
                .collect(),
            sin: vec![0.0; half],
            cos: vec![0.0; half],
            position: None,
        }
    }

    /// Fill the sin/cos rows for `position` (no-op when already there).
    pub fn prepare(&mut self, position: usize) {
        if self.position == Some(position) {
            return;
        }
        for i in 0..self.freq.len() {
            let theta = position as f32 / self.freq[i];
            let (s, c) = theta.sin_cos();
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
    pub fn apply(&self, head: &mut [f32]) {
        assert_eq!(head.len(), 2 * self.freq.len(), "head dimension");
        assert!(self.position.is_some(), "prepare() before apply()");
        for i in 0..self.freq.len() {
            let (sin, cos) = (self.sin[i], self.cos[i]);
            let (a, b) = (head[2 * i], head[2 * i + 1]);
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Per-sequence scratch arena: every intermediate of one activation
/// panel (`T` = [`MAX_PREFILL_PANEL`] rows), allocated once. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Final normalized hidden state of the most recent step (hidden).
    pub(crate) xn: Vec<f32>,
    /// One row's MoE output accumulator (hidden).
    pub(crate) y: Vec<f32>,
    /// Attention scores over the context (grows with the sequence).
    pub(crate) scores: Vec<f32>,
    /// Flash-attention per-chip value accumulators (GRID × head_dim).
    pub(crate) flash_acc: Vec<f32>,
    /// Flash-attention combine numerator (head_dim).
    pub(crate) numer: Vec<f32>,
    /// One row's top-k expert indices (experts_per_token).
    pub(crate) chosen: Vec<usize>,
    /// One row's softmaxed expert weights (experts_per_token).
    pub(crate) expert_w: Vec<f32>,
    /// LoRA side-channel delta (q_width).
    pub(crate) delta: Vec<f32>,
    /// LoRA rank-r intermediate (resized to the adapter's rank on use).
    pub(crate) lora_hidden: Vec<f32>,
    /// Shared rotary table.
    pub(crate) rope: RopeTable,
    /// Next-token logits of the most recent step (vocab_size).
    pub(crate) logits: Vec<f32>,
    /// Residual panel (T × hidden).
    pub(crate) xp: Vec<f32>,
    /// Normalized panel (T × hidden).
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
}

impl Scratch {
    /// An arena sized for one sequence of `config`'s architecture.
    // analyze: cold — the arena is allocated once up front; every
    // forward-pass fn reuses these buffers.
    pub fn new(config: &TransformerConfig) -> Self {
        let h = config.hidden_size;
        let qw = config.attention.q_width();
        let kvw = config.attention.kv_width();
        let hd = config.attention.head_dim;
        let grid = crate::dataflow::GRID;
        // Widest per-chip slice the dataflow engine hands to `partp`.
        let slice = (qw / grid).max(kvw / grid).max(h / grid).max(1);
        let inter = config.moe.intermediate_size;
        let experts = config.moe.num_experts;
        let per_tok = config.moe.experts_per_token;
        let t = MAX_PREFILL_PANEL;
        Scratch {
            xn: vec![0.0; h],
            y: vec![0.0; h],
            scores: Vec::new(),
            flash_acc: vec![0.0; grid * hd],
            numer: vec![0.0; hd],
            chosen: Vec::with_capacity(per_tok),
            expert_w: Vec::with_capacity(per_tok),
            delta: vec![0.0; qw],
            lora_hidden: Vec::new(),
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
        }
    }

    /// Pre-size the context-length-dependent buffers for sequences up to
    /// `positions` tokens, so steady-state decode stays reallocation-free
    /// (held by the zero-allocation sentinel in
    /// `tests/tests/zero_alloc_decode.rs`).
    pub fn reserve_context(&mut self, positions: usize) {
        self.scores
            .reserve(positions.saturating_sub(self.scores.len()));
    }

    /// Next-token logits produced by the most recent step.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Final normalized hidden state of the most recent step.
    pub fn hidden(&self) -> &[f32] {
        &self.xn
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
