//! Transformer architecture configuration and exact parameter accounting.
//!
//! The HNLPU hardwires every weight matrix of a decoder-only MoE transformer.
//! Everything downstream — constant-multiplier counts, metal-embedding wire
//! counts, photomask budgets, chip counts — is a function of the shapes
//! described here, so this module is deliberately precise about which
//! matrices exist and how large each one is.

/// Grouped-Query Attention geometry.
///
/// gpt-oss 120 B uses 64 query heads and 8 KV heads of dimension 64: every
/// group of 8 query heads shares one KV head (Appendix A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttentionConfig {
    /// Number of query heads.
    pub num_query_heads: usize,
    /// Number of key/value heads (GQA groups).
    pub num_kv_heads: usize,
    /// Dimension of each head.
    pub head_dim: usize,
}

impl AttentionConfig {
    /// Total query projection width (`num_query_heads * head_dim`).
    pub fn q_width(&self) -> usize {
        self.num_query_heads * self.head_dim
    }

    /// Total key (or value) projection width (`num_kv_heads * head_dim`).
    pub fn kv_width(&self) -> usize {
        self.num_kv_heads * self.head_dim
    }

    /// Query heads per KV head.
    ///
    /// # Panics
    ///
    /// Panics if `num_kv_heads` does not divide `num_query_heads`; such a
    /// configuration is not a valid GQA geometry.
    pub fn group_size(&self) -> usize {
        assert!(
            self.num_query_heads.is_multiple_of(self.num_kv_heads),
            "query heads ({}) must be a multiple of kv heads ({})",
            self.num_query_heads,
            self.num_kv_heads
        );
        self.num_query_heads / self.num_kv_heads
    }
}

/// Mixture-of-Experts geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoeConfig {
    /// Total expert count per layer (128 for gpt-oss 120 B).
    pub num_experts: usize,
    /// Experts activated per token (4 for gpt-oss 120 B).
    pub experts_per_token: usize,
    /// Expert FFN intermediate size (2 880 for gpt-oss 120 B).
    pub intermediate_size: usize,
}

impl MoeConfig {
    /// Fraction of expert weights active for any one token.
    pub fn activity_fraction(&self) -> f64 {
        self.experts_per_token as f64 / self.num_experts as f64
    }
}

/// A decoder-only MoE transformer configuration.
///
/// # Example
///
/// ```
/// use hnlpu_model::zoo;
/// let cfg = zoo::gpt_oss_120b().config;
/// // The FFN-with-MoE dominates the parameter budget.
/// assert!(cfg.moe_params() > cfg.attention_params());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransformerConfig {
    /// Model (residual-stream) width. 2 880 for gpt-oss 120 B.
    pub hidden_size: usize,
    /// Number of transformer blocks. 36 for gpt-oss 120 B.
    pub num_layers: usize,
    /// Attention geometry.
    pub attention: AttentionConfig,
    /// MoE geometry.
    pub moe: MoeConfig,
    /// Vocabulary size (embedding + unembedding rows). 201 088 for gpt-oss.
    pub vocab_size: usize,
}

impl TransformerConfig {
    /// Parameters in a single layer's attention projections
    /// (`Wq`, `Wk`, `Wv`, `Wo`).
    pub(crate) fn attention_params_per_layer(&self) -> u64 {
        let h = self.hidden_size as u64;
        let q = self.attention.q_width() as u64;
        let kv = self.attention.kv_width() as u64;
        // Wq: h×q, Wk: h×kv, Wv: h×kv, Wo: q×h
        h * q + 2 * h * kv + q * h
    }

    /// Attention parameters across all layers.
    pub fn attention_params(&self) -> u64 {
        self.attention_params_per_layer() * self.num_layers as u64
    }

    /// Parameters in a single layer's MoE FFN (all experts: up, gate, down)
    /// plus the replicated router.
    pub(crate) fn moe_params_per_layer(&self) -> u64 {
        let h = self.hidden_size as u64;
        let i = self.moe.intermediate_size as u64;
        let e = self.moe.num_experts as u64;
        let router = h * e;
        e * (h * i /* up */ + h * i /* gate */ + i * h/* down */) + router
    }

    /// MoE parameters across all layers.
    pub fn moe_params(&self) -> u64 {
        self.moe_params_per_layer() * self.num_layers as u64
    }

    /// Embedding + unembedding parameters.
    pub fn embedding_params(&self) -> u64 {
        2 * self.vocab_size as u64 * self.hidden_size as u64
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        self.attention_params() + self.moe_params() + self.embedding_params()
    }

    /// Enumerate every distinct hardwired weight matrix in one layer.
    pub fn layer_matrices(&self) -> Vec<WeightMatrix> {
        let h = self.hidden_size;
        let mut out = vec![
            WeightMatrix::new(WeightKind::Query, h, self.attention.q_width()),
            WeightMatrix::new(WeightKind::Key, h, self.attention.kv_width()),
            WeightMatrix::new(WeightKind::Value, h, self.attention.kv_width()),
            WeightMatrix::new(WeightKind::Output, self.attention.q_width(), h),
            WeightMatrix::new(WeightKind::Router, h, self.moe.num_experts),
        ];
        for expert in 0..self.moe.num_experts {
            out.push(WeightMatrix::expert(
                WeightKind::ExpertUp { expert },
                h,
                self.moe.intermediate_size,
            ));
            out.push(WeightMatrix::expert(
                WeightKind::ExpertGate { expert },
                h,
                self.moe.intermediate_size,
            ));
            out.push(WeightMatrix::expert(
                WeightKind::ExpertDown { expert },
                self.moe.intermediate_size,
                h,
            ));
        }
        out
    }

    /// Sanity-check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    #[cfg(test)]
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.hidden_size == 0 || self.num_layers == 0 || self.vocab_size == 0 {
            return Err("hidden_size, num_layers and vocab_size must be nonzero".into());
        }
        if !self
            .attention
            .num_query_heads
            .is_multiple_of(self.attention.num_kv_heads)
        {
            return Err(format!(
                "query heads {} not a multiple of kv heads {}",
                self.attention.num_query_heads, self.attention.num_kv_heads
            ));
        }
        if self.moe.experts_per_token > self.moe.num_experts {
            return Err(format!(
                "experts_per_token {} exceeds num_experts {}",
                self.moe.experts_per_token, self.moe.num_experts
            ));
        }
        Ok(())
    }
}

/// Identity of a hardwired weight matrix within one transformer layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightKind {
    /// Query projection `Wq`.
    Query,
    /// Key projection `Wk`.
    Key,
    /// Value projection `Wv`.
    Value,
    /// Attention output projection `Wo`.
    Output,
    /// MoE router `Wrout` (replicated on every chip).
    Router,
    /// Expert up projection `Wup`.
    ExpertUp {
        /// Expert index within the layer.
        expert: usize,
    },
    /// Expert gate projection `Wgate`.
    ExpertGate {
        /// Expert index within the layer.
        expert: usize,
    },
    /// Expert down projection `Wdown`.
    ExpertDown {
        /// Expert index within the layer.
        expert: usize,
    },
}

impl WeightKind {
    /// True for the three expert projection kinds.
    pub(crate) fn is_expert(&self) -> bool {
        matches!(
            self,
            WeightKind::ExpertUp { .. }
                | WeightKind::ExpertGate { .. }
                | WeightKind::ExpertDown { .. }
        )
    }
}

/// A weight matrix: a kind plus its `(rows, cols)` shape, where `rows` is the
/// input dimension (activations enter along rows) and `cols` the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightMatrix {
    /// Which matrix this is.
    pub kind: WeightKind,
    /// Input dimension.
    pub rows: usize,
    /// Output dimension.
    pub cols: usize,
}

impl WeightMatrix {
    /// Construct a non-expert matrix.
    pub fn new(kind: WeightKind, rows: usize, cols: usize) -> Self {
        debug_assert!(!kind.is_expert());
        Self { kind, rows, cols }
    }

    /// Construct an expert matrix.
    pub fn expert(kind: WeightKind, rows: usize, cols: usize) -> Self {
        debug_assert!(kind.is_expert());
        Self { kind, rows, cols }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the matrix is degenerate (zero elements).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn gpt_oss_geometry_matches_paper() {
        let cfg = zoo::gpt_oss_120b().config;
        assert_eq!(cfg.hidden_size, 2880);
        assert_eq!(cfg.num_layers, 36);
        assert_eq!(cfg.attention.q_width(), 4096);
        assert_eq!(cfg.attention.kv_width(), 512);
        assert_eq!(cfg.attention.group_size(), 8);
        assert_eq!(cfg.moe.num_experts, 128);
        assert_eq!(cfg.moe.experts_per_token, 4);
        assert_eq!(cfg.vocab_size, 201_088);
    }

    #[test]
    fn gpt_oss_total_params_near_120b() {
        let cfg = zoo::gpt_oss_120b().config;
        let total = cfg.total_params();
        assert!(
            (110_000_000_000..125_000_000_000).contains(&total),
            "total = {total}"
        );
    }

    #[test]
    fn active_params_much_smaller_than_total() {
        let cfg = zoo::gpt_oss_120b().config;
        let layer = cfg.layer_matrices();
        let params = |expert: bool| -> u64 {
            layer
                .iter()
                .filter(|m| m.kind.is_expert() == expert)
                .map(|m| m.len() as u64)
                .sum()
        };
        let per_expert = params(true) / cfg.moe.num_experts as u64;
        let per_layer = params(false) + cfg.moe.experts_per_token as u64 * per_expert;
        let unembedding = cfg.embedding_params() / 2;
        let active = per_layer * cfg.num_layers as u64 + unembedding;
        let total = cfg.total_params();
        // Top-4 of 128 experts: activity should be well under 10% of total.
        assert!(active * 10 < total, "active={active} total={total}");
    }

    #[test]
    fn router_fraction_is_negligible() {
        // Paper: router weights are ~0.01% of total, so replication is free.
        let cfg = zoo::gpt_oss_120b().config;
        let router: u64 = (cfg.hidden_size * cfg.moe.num_experts * cfg.num_layers) as u64;
        assert!((router as f64) / (cfg.total_params() as f64) < 0.001);
    }

    #[test]
    fn layer_matrices_cover_all_params() {
        let cfg = zoo::gpt_oss_120b().config;
        let sum: u64 = cfg.layer_matrices().iter().map(|m| m.len() as u64).sum();
        assert_eq!(
            sum,
            cfg.attention_params_per_layer() + cfg.moe_params_per_layer()
        );
    }

    #[test]
    fn validate_rejects_bad_gqa() {
        let mut cfg = zoo::gpt_oss_120b().config;
        cfg.attention.num_kv_heads = 7;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_topk() {
        let mut cfg = zoo::gpt_oss_120b().config;
        cfg.moe.experts_per_token = 500;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_accepts_zoo_models() {
        for card in zoo::all_models() {
            card.config.validate().unwrap();
        }
    }

    #[test]
    fn activity_fraction_gpt_oss() {
        let cfg = zoo::gpt_oss_120b().config;
        assert!((cfg.moe.activity_fraction() - 4.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn weight_matrix_len() {
        let m = WeightMatrix::new(WeightKind::Query, 2880, 4096);
        assert_eq!(m.len(), 2880 * 4096);
        assert!(!m.is_empty());
    }
}
