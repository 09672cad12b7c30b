//! Import model configurations from HuggingFace-style `config.json`.
//!
//! A downstream user pointing the design flow at a real checkpoint only has
//! that file; this module maps its fields onto [`TransformerConfig`],
//! handling both MoE and dense models (a dense FFN is a single-expert MoE,
//! which is arithmetically identical).

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::config::{AttentionConfig, MoeConfig, TransformerConfig};
use crate::zoo::{ModelCard, Precision};
use serde::Deserialize;
use std::error::Error;
use std::fmt;

/// Import failure.
#[derive(Debug)]
pub enum ImportError {
    /// The JSON did not parse.
    Parse(serde_json::Error),
    /// Parsed, but the configuration is not a valid transformer.
    Invalid(String),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Parse(e) => write!(f, "config.json did not parse: {e}"),
            ImportError::Invalid(msg) => write!(f, "invalid model configuration: {msg}"),
        }
    }
}

impl Error for ImportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ImportError::Parse(e) => Some(e),
            ImportError::Invalid(_) => None,
        }
    }
}

/// The subset of HuggingFace `config.json` fields the design flow needs.
#[derive(Debug, Deserialize)]
struct HfConfig {
    hidden_size: usize,
    num_hidden_layers: usize,
    num_attention_heads: usize,
    #[serde(default)]
    num_key_value_heads: Option<usize>,
    #[serde(default)]
    head_dim: Option<usize>,
    intermediate_size: usize,
    vocab_size: usize,
    // MoE fields (absent for dense models).
    #[serde(default, alias = "num_local_experts")]
    num_experts: Option<usize>,
    #[serde(default, alias = "num_experts_per_tok")]
    experts_per_token: Option<usize>,
    #[serde(default, alias = "moe_intermediate_size")]
    expert_intermediate_size: Option<usize>,
    #[serde(default)]
    torch_dtype: Option<String>,
}

/// Parse a HuggingFace-style `config.json` into a [`ModelCard`].
///
/// Dense models import as single-expert MoE. Weight precision comes from
/// `torch_dtype` when present, defaulting to FP16.
///
/// # Errors
///
/// Returns [`ImportError`] if the JSON is malformed or the resulting
/// configuration fails [`TransformerConfig::validate`].
///
/// # Example
///
/// ```
/// use hnlpu_model::import::from_hf_config_json;
/// let card = from_hf_config_json(r#"{
///   "hidden_size": 4096, "num_hidden_layers": 32,
///   "num_attention_heads": 32, "num_key_value_heads": 8,
///   "intermediate_size": 14336, "vocab_size": 128256,
///   "torch_dtype": "bfloat16"
/// }"#, "my-model")?;
/// assert_eq!(card.config.num_layers, 32);
/// # Ok::<(), hnlpu_model::import::ImportError>(())
/// ```
pub fn from_hf_config_json(json: &str, name: &'static str) -> Result<ModelCard, ImportError> {
    let hf: HfConfig = serde_json::from_str(json).map_err(ImportError::Parse)?;
    let kv_heads = hf.num_key_value_heads.unwrap_or(hf.num_attention_heads);
    if kv_heads == 0 || hf.num_attention_heads == 0 {
        return Err(ImportError::Invalid("zero attention heads".into()));
    }
    let head_dim = hf
        .head_dim
        .unwrap_or_else(|| hf.hidden_size / hf.num_attention_heads.max(1));
    let (num_experts, experts_per_token, intermediate) = match hf.num_experts {
        Some(e) if e > 1 => (
            e,
            hf.experts_per_token.unwrap_or(2),
            hf.expert_intermediate_size.unwrap_or(hf.intermediate_size),
        ),
        _ => (1, 1, hf.intermediate_size),
    };
    let config = TransformerConfig {
        hidden_size: hf.hidden_size,
        num_layers: hf.num_hidden_layers,
        attention: AttentionConfig {
            num_query_heads: hf.num_attention_heads,
            num_kv_heads: kv_heads,
            head_dim,
        },
        moe: MoeConfig {
            num_experts,
            experts_per_token,
            intermediate_size: intermediate,
        },
        vocab_size: hf.vocab_size,
    };
    config.validate().map_err(ImportError::Invalid)?;
    let precision = match hf.torch_dtype.as_deref() {
        Some("float16" | "bfloat16") => Precision::Fp16,
        Some(d) if d.contains("fp8") || d.contains("float8") => Precision::Fp8,
        Some(d) if d.contains("fp4") || d.contains("mxfp4") || d.contains("float4") => {
            Precision::Fp4
        }
        _ => Precision::Fp16,
    };
    Ok(ModelCard {
        name,
        config,
        precision,
        reported_params: config.total_params(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    const LLAMA_JSON: &str = r#"{
        "hidden_size": 4096,
        "num_hidden_layers": 32,
        "num_attention_heads": 32,
        "num_key_value_heads": 8,
        "intermediate_size": 14336,
        "vocab_size": 128256,
        "torch_dtype": "bfloat16"
    }"#;

    const MOE_JSON: &str = r#"{
        "hidden_size": 2880,
        "num_hidden_layers": 36,
        "num_attention_heads": 64,
        "num_key_value_heads": 8,
        "head_dim": 64,
        "intermediate_size": 2880,
        "vocab_size": 201088,
        "num_local_experts": 128,
        "num_experts_per_tok": 4,
        "torch_dtype": "mxfp4"
    }"#;

    #[test]
    fn llama_config_round_trips_to_zoo_card() {
        let card = from_hf_config_json(LLAMA_JSON, "llama3-8b-import").unwrap();
        let zoo_card = zoo::llama3_8b();
        assert_eq!(card.config, zoo_card.config);
        assert_eq!(card.precision, Precision::Fp16);
    }

    #[test]
    fn gpt_oss_style_moe_imports() {
        let card = from_hf_config_json(MOE_JSON, "gpt-oss-import").unwrap();
        let zoo_card = zoo::gpt_oss_120b();
        assert_eq!(card.config, zoo_card.config);
        assert_eq!(card.precision, Precision::Fp4);
        // Computed params land near the headline 117B.
        let ratio = card.reported_params as f64 / zoo_card.reported_params as f64;
        assert!((0.95..1.05).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn malformed_json_errors() {
        let err = from_hf_config_json("{not json", "x").unwrap_err();
        assert!(matches!(err, ImportError::Parse(_)));
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn missing_fields_error() {
        let err = from_hf_config_json(r#"{"hidden_size": 64}"#, "x").unwrap_err();
        assert!(matches!(err, ImportError::Parse(_)));
    }

    #[test]
    fn invalid_gqa_rejected() {
        let bad = r#"{
            "hidden_size": 64, "num_hidden_layers": 2,
            "num_attention_heads": 7, "num_key_value_heads": 3,
            "intermediate_size": 64, "vocab_size": 100
        }"#;
        let err = from_hf_config_json(bad, "x").unwrap_err();
        assert!(matches!(err, ImportError::Invalid(_)));
    }

    #[test]
    fn dense_model_becomes_single_expert() {
        let card = from_hf_config_json(LLAMA_JSON, "x").unwrap();
        assert_eq!(card.config.moe.num_experts, 1);
        assert_eq!(card.config.moe.experts_per_token, 1);
    }

    #[test]
    fn head_dim_defaults_from_hidden_size() {
        let json = r#"{
            "hidden_size": 1024, "num_hidden_layers": 4,
            "num_attention_heads": 16, "intermediate_size": 4096,
            "vocab_size": 32000
        }"#;
        let card = from_hf_config_json(json, "x").unwrap();
        assert_eq!(card.config.attention.head_dim, 64);
        // No kv field: MHA (kv == q heads).
        assert_eq!(card.config.attention.num_kv_heads, 16);
    }
}
