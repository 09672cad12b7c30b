//! # HNLPU — Hardwired-Neuron Language Processing Units
//!
//! A production-quality reproduction of *"Hardwired-Neuron Language
//! Processing Units as General-Purpose Cognitive Substrates"* (ASPLOS
//! 2026): the Metal-Embedding methodology, the Sea-of-Neurons structured
//! ASIC, the 16-chip HNLPU system, its cycle-level performance model, the
//! functional token-in/token-out dataflow, and the full NRE/TCO/carbon
//! economics.
//!
//! This crate is the façade: it re-exports every subsystem and offers
//! [`HnlpuSystem`], which designs a complete machine for a model card and
//! answers the paper's headline questions, plus [`experiments`], which
//! regenerates every table and figure of the evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use hnlpu::HnlpuSystem;
//! use hnlpu::model::zoo;
//!
//! let system = HnlpuSystem::design(zoo::gpt_oss_120b());
//! // Table 2 headline: ~250K tokens/s at 2K context.
//! assert!(system.decode_throughput(2048) > 200_000.0);
//! // Table 1: 16 chips of ~827 mm².
//! assert!((system.chip_report().total_area_mm2() - 827.0).abs() < 50.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`model`] | model zoo, FP4, parameter accounting, weights |
//! | [`arith`] | CSA/popcount/bit-serial/constant-multiplier substrate |
//! | [`circuit`] | technology node, area/power, metal stack, sign-off |
//! | [`embed`] | MA/CE/ME designs, HN-array plan, ME compiler |
//! | [`litho`] | photomask/wafer economics, Sea-of-Neurons, NRE |
//! | [`sim`] | cycle-level multi-chip simulator, continuous batching |
//! | [`llm`] | reference transformer + 16-chip dataflow executor |
//! | [`baselines`] | H100, WSE-3, cluster models |
//! | [`tco`] | 3-year TCO and carbon analysis |

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
pub use hnlpu_arith as arith;
pub use hnlpu_baselines as baselines;
pub use hnlpu_circuit as circuit;
pub use hnlpu_embed as embed;
pub use hnlpu_litho as litho;
pub use hnlpu_llm as llm;
pub use hnlpu_model as model;
pub use hnlpu_sim as sim;
pub use hnlpu_tco as tco;

pub mod experiments;
mod system;

pub use system::HnlpuSystem;
