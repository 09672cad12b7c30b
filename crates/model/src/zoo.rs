//! Named model zoo.
//!
//! Table 4 of the paper prices HNLPU chip sets for Kimi-K2, DeepSeek-V3,
//! QwQ-32B and Llama-3 8B in addition to the flagship gpt-oss 120 B. Each
//! [`ModelCard`] pairs a faithful architecture description with the
//! parameter count the paper reports and the weight precision the model
//! ships in.

use crate::config::{AttentionConfig, MoeConfig, TransformerConfig};

/// Storage precision of a model's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 4-bit (E2M1 / MXFP4).
    Fp4,
    /// 8-bit floating point.
    Fp8,
    /// 16-bit floating point.
    Fp16,
}

impl Precision {
    /// Bits per weight.
    pub(crate) fn bits(self) -> u64 {
        match self {
            Precision::Fp4 => 4,
            Precision::Fp8 => 8,
            Precision::Fp16 => 16,
        }
    }
}

/// A named model: architecture, shipped precision, and the headline
/// parameter count used in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCard {
    /// Human-readable name.
    pub name: &'static str,
    /// Architecture description.
    pub config: TransformerConfig,
    /// Weight precision as shipped/deployed.
    pub precision: Precision,
    /// Headline parameter count (e.g. "120 B") used for costing.
    pub reported_params: u64,
}

impl ModelCard {
    /// Total weight storage in bits at the shipped precision, using the
    /// reported parameter count (what a mask-budget planner would quote).
    pub fn weight_bits(&self) -> u64 {
        self.reported_params * self.precision.bits()
    }

    /// Total weight storage in bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bits() / 8
    }
}

/// OpenAI gpt-oss 120 B — the model the HNLPU hardwires.
pub fn gpt_oss_120b() -> ModelCard {
    ModelCard {
        name: "gpt-oss-120b",
        config: TransformerConfig {
            hidden_size: 2880,
            num_layers: 36,
            attention: AttentionConfig {
                num_query_heads: 64,
                num_kv_heads: 8,
                head_dim: 64,
            },
            moe: MoeConfig {
                num_experts: 128,
                experts_per_token: 4,
                intermediate_size: 2880,
            },
            vocab_size: 201_088,
        },
        precision: Precision::Fp4,
        reported_params: 117_000_000_000,
    }
}

/// Kimi-K2 (1 T parameters), per Table 4.
pub fn kimi_k2() -> ModelCard {
    ModelCard {
        name: "kimi-k2",
        config: TransformerConfig {
            hidden_size: 7168,
            num_layers: 61,
            attention: AttentionConfig {
                num_query_heads: 64,
                num_kv_heads: 8,
                head_dim: 128,
            },
            moe: MoeConfig {
                num_experts: 384,
                experts_per_token: 8,
                intermediate_size: 2048,
            },
            vocab_size: 160_000,
        },
        precision: Precision::Fp4,
        reported_params: 1_000_000_000_000,
    }
}

/// DeepSeek-V3 (671 B parameters), per Table 4.
pub fn deepseek_v3() -> ModelCard {
    ModelCard {
        name: "deepseek-v3",
        config: TransformerConfig {
            hidden_size: 7168,
            num_layers: 61,
            attention: AttentionConfig {
                num_query_heads: 128,
                num_kv_heads: 8,
                head_dim: 128,
            },
            moe: MoeConfig {
                num_experts: 256,
                experts_per_token: 8,
                intermediate_size: 2048,
            },
            vocab_size: 129_280,
        },
        precision: Precision::Fp4,
        reported_params: 671_000_000_000,
    }
}

/// QwQ-32B (dense reasoning model), per Table 4. Modeled as a single-expert
/// MoE, which is arithmetically identical to a dense FFN.
pub fn qwq_32b() -> ModelCard {
    ModelCard {
        name: "qwq-32b",
        config: TransformerConfig {
            hidden_size: 5120,
            num_layers: 64,
            attention: AttentionConfig {
                num_query_heads: 40,
                num_kv_heads: 8,
                head_dim: 128,
            },
            moe: MoeConfig {
                num_experts: 1,
                experts_per_token: 1,
                intermediate_size: 27_648,
            },
            vocab_size: 152_064,
        },
        precision: Precision::Fp16,
        reported_params: 32_000_000_000,
    }
}

/// Llama-3 8B, per Table 4. Modeled as a single-expert MoE.
pub fn llama3_8b() -> ModelCard {
    ModelCard {
        name: "llama3-8b",
        config: TransformerConfig {
            hidden_size: 4096,
            num_layers: 32,
            attention: AttentionConfig {
                num_query_heads: 32,
                num_kv_heads: 8,
                head_dim: 128,
            },
            moe: MoeConfig {
                num_experts: 1,
                experts_per_token: 1,
                intermediate_size: 14_336,
            },
            vocab_size: 128_256,
        },
        precision: Precision::Fp16,
        reported_params: 8_000_000_000,
    }
}

/// Mixtral 8x7B — a mid-size open MoE, useful for design-space sweeps
/// between Llama-3 8B and gpt-oss 120 B.
pub fn mixtral_8x7b() -> ModelCard {
    ModelCard {
        name: "mixtral-8x7b",
        config: TransformerConfig {
            hidden_size: 4096,
            num_layers: 32,
            attention: AttentionConfig {
                num_query_heads: 32,
                num_kv_heads: 8,
                head_dim: 128,
            },
            moe: MoeConfig {
                num_experts: 8,
                experts_per_token: 2,
                intermediate_size: 14_336,
            },
            vocab_size: 32_000,
        },
        precision: Precision::Fp16,
        reported_params: 46_700_000_000,
    }
}

/// Qwen3-235B-A22B — a large open MoE for upper-mid design points.
pub fn qwen3_235b() -> ModelCard {
    ModelCard {
        name: "qwen3-235b-a22b",
        config: TransformerConfig {
            hidden_size: 4096,
            num_layers: 94,
            attention: AttentionConfig {
                num_query_heads: 64,
                num_kv_heads: 4,
                head_dim: 128,
            },
            moe: MoeConfig {
                num_experts: 128,
                experts_per_token: 8,
                intermediate_size: 1536,
            },
            vocab_size: 151_936,
        },
        precision: Precision::Fp8,
        reported_params: 235_000_000_000,
    }
}

/// All Table 4 models plus gpt-oss.
pub fn all_models() -> Vec<ModelCard> {
    vec![
        gpt_oss_120b(),
        kimi_k2(),
        deepseek_v3(),
        qwq_32b(),
        llama3_8b(),
    ]
}

/// A miniature configuration for fast functional tests (same topology family
/// as gpt-oss: GQA + MoE + SwiGLU).
pub fn test_model() -> ModelCard {
    ModelCard {
        name: "test-tiny",
        config: TransformerConfig {
            hidden_size: 64,
            num_layers: 2,
            attention: AttentionConfig {
                num_query_heads: 4,
                num_kv_heads: 2,
                head_dim: 16,
            },
            moe: MoeConfig {
                num_experts: 4,
                experts_per_token: 2,
                intermediate_size: 64,
            },
            vocab_size: 256,
        },
        precision: Precision::Fp4,
        reported_params: 0,
    }
}

/// A miniature configuration whose every dimension is divisible the way the
/// 4×4 HNLPU mapping requires (hidden % 4, kv heads % 4, query heads % 4,
/// experts % 16), so the 16-chip dataflow executor can run it.
pub fn dataflow_test_model() -> ModelCard {
    ModelCard {
        name: "test-dataflow",
        config: TransformerConfig {
            hidden_size: 64,
            num_layers: 3,
            attention: AttentionConfig {
                num_query_heads: 8,
                num_kv_heads: 4,
                head_dim: 16,
            },
            moe: MoeConfig {
                num_experts: 16,
                experts_per_token: 4,
                intermediate_size: 32,
            },
            vocab_size: 128,
        },
        precision: Precision::Fp4,
        reported_params: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_params_bracket_computed_params() {
        // Architecture descriptions should land within 20% of the headline
        // parameter counts the paper quotes.
        for card in [
            gpt_oss_120b(),
            kimi_k2(),
            deepseek_v3(),
            qwq_32b(),
            llama3_8b(),
        ] {
            let computed = card.config.total_params() as f64;
            let reported = card.reported_params as f64;
            let ratio = computed / reported;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{}: computed {computed:.3e} vs reported {reported:.3e}",
                card.name
            );
        }
    }

    #[test]
    fn extended_models_validate_and_price() {
        // The community models the design-space sweep adds to Table 4's.
        for card in [mixtral_8x7b(), qwen3_235b()] {
            card.config.validate().unwrap();
            let computed = card.config.total_params() as f64;
            let reported = card.reported_params as f64;
            if reported > 0.0 {
                let ratio = computed / reported;
                assert!(
                    (0.75..1.3).contains(&ratio),
                    "{}: computed {computed:.3e} vs reported {reported:.3e}",
                    card.name
                );
            }
        }
    }

    #[test]
    fn weight_bytes_gpt_oss() {
        // 117 B params at FP4 = 58.5 GB.
        assert_eq!(gpt_oss_120b().weight_bytes(), 58_500_000_000);
    }

    #[test]
    fn precision_bits() {
        assert_eq!(Precision::Fp4.bits(), 4);
        assert_eq!(Precision::Fp8.bits(), 8);
        assert_eq!(Precision::Fp16.bits(), 16);
    }

    #[test]
    fn dataflow_model_divisibility() {
        let cfg = dataflow_test_model().config;
        assert_eq!(cfg.hidden_size % 4, 0);
        assert_eq!(cfg.attention.num_kv_heads % 4, 0);
        assert_eq!(cfg.attention.num_query_heads % 4, 0);
        assert_eq!(cfg.moe.num_experts % 16, 0);
    }

    #[test]
    fn test_models_validate() {
        test_model().config.validate().unwrap();
        dataflow_test_model().config.validate().unwrap();
    }
}
