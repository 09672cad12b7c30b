//! Model substrate for the HNLPU reproduction.
//!
//! This crate owns everything about the *neural network being hardwired*:
//!
//! * [`arm`] — the one CPU selector: the vector arm this process runs, for
//!   the sampler here and `hnlpu-llm`'s kernels alike.
//! * [`config`] — transformer/MoE architecture descriptions (hidden size,
//!   layer count, GQA geometry, expert counts, vocabulary) together with
//!   exact parameter accounting per weight matrix.
//! * [`fp4`] — the FP4 (E2M1) number format used by gpt-oss 120 B.
//! * [`math`] — `ln`, `sin` and `cos` from IEEE basic operations, so the
//!   synthetic weights and the rotary angles do not depend on the host's
//!   libm.
//! * `packed` — row-major nibble-packed FP4 matrices, the resident format
//!   of every hardwired tensor (8× smaller than dequantized `f32`).
//! * `weights` — deterministic, seeded synthetic weight generation. The
//!   paper hardwires released gpt-oss weights; every published result depends
//!   only on tensor shapes and value distributions, so seeded synthetic
//!   weights preserve the behaviour under study (see DESIGN.md).
//! * [`zoo`] — the named model zoo used by Table 4 (gpt-oss 120 B, Kimi-K2,
//!   DeepSeek-V3, QwQ-32B, Llama-3 8B).
//!
//! # Example
//!
//! ```
//! use hnlpu_model::zoo;
//!
//! let gpt_oss = zoo::gpt_oss_120b();
//! assert_eq!(gpt_oss.config.hidden_size, 2880);
//! assert_eq!(gpt_oss.config.num_layers, 36);
//! // Total parameter count is on the order of 117 B.
//! let total = gpt_oss.config.total_params();
//! assert!(total > 110_000_000_000 && total < 125_000_000_000);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
pub mod arm;
pub mod config;
pub mod fp4;
pub mod math;
mod packed;
mod weights;
pub mod zoo;

pub use config::{AttentionConfig, MoeConfig, TransformerConfig, WeightKind, WeightMatrix};
pub use fp4::Fp4;
pub use packed::PackedFp4Matrix;
pub use weights::{LayerWeights, ModelWeights, WeightGenerator};
