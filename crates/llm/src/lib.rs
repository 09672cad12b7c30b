//! Functional LLM inference: the reference transformer and the 16-chip
//! HNLPU dataflow executor.
//!
//! The paper's HNLPU is a *complete physical implementation* of gpt-oss
//! 120 B: token ids in, token ids out. This crate validates that the
//! partitioning/dataflow of §5 and Appendix A computes the same function as
//! a straightforward single-device transformer:
//!
//! * [`kernels`] — region-accumulation matvec kernels computing directly
//!   on packed FP4 codes (Figure 4's 16 POPCNT regions in software); both
//!   engines route every projection through them.
//! * [`tensor`] — dot products and the lane kernels behind the
//!   unembedding and the attention.
//! * `ops` — the repo's own exponential (scalar and at lane width),
//!   RMSNorm, softmax, SwiGLU, rotary embedding, top-k routing.
//! * [`scratch`] — the [`Scratch`] activation arena (one per
//!   single-sequence caller, one per worker in the batched engine) +
//!   rotary table that make the steady-state decode step allocation-free.
//! * `kv_cache` — paged per-layer KV storage ([`KvCache`]), and the
//!   radix-tree [`PrefixCache`] whose committed pages sequences share by
//!   reference.
//! * [`sampler`] — greedy, seeded-multinomial and nucleus (top-p) logit
//!   sampling.
//! * [`Engine`] — the one driver both machines share (embedding gather,
//!   layer loop, panel prefill, single and batched decode step,
//!   unembedding, scoring, generation), generic over a [`Placement`] that
//!   supplies the per-sequence state and the transformer block.
//! * `reference` — the single-device placement (GQA + MoE, pre-norm):
//!   [`Transformer`] is `Engine<SingleChip>`.
//! * [`dataflow`] — the 4×4-chip placement with explicit partial sums and
//!   collectives mirroring Figure 10, plus communication counters:
//!   [`DataflowExecutor`] is `Engine<Grid>`.
//! * `batch` — the batched engine, [`BatchedDataflowExecutor`]: a KV-slot
//!   pool with continuous-batching admission/eviction executing
//!   `hnlpu-sim`'s round plans, each round dealt across the host's cores,
//!   one scoped thread per worker; a worker done with its share runs
//!   expert groups the others post (help at the join).
//! * `naive` (tests only) — the pre-optimization dense-`f32`, allocating
//!   decoder: an independent oracle the packed engines' logits and greedy
//!   tokens are held to.
//! * [`serve`] — the online serving frontend: bounded-queue admission,
//!   incremental prefill/decode scheduling on a virtual clock, per-token
//!   streaming, cancellation, and p50/p99 TTFT/TPOT SLO reporting —
//!   bit-identical to offline plan replay by construction.
//! * `telemetry` — in-program stage spans: one [`StageNanos`] accumulator
//!   per worker arena, read through [`OnlineServer::stage_nanos`].
//! * [`fault`] — deterministic chaos: seeded [`FaultPlan`]s (chip kills,
//!   stragglers, link faults, request deadlines) that the server consumes
//!   on its virtual clock, making every degraded-mode run exactly
//!   reproducible; hardwired chips cannot be re-flashed, so a dead chip is
//!   survived, not repaired: capacity shrinks to the survivors' share of
//!   the slots ([`GridHealth`]) and evicted sequences re-prefill.
//!
//! # Example
//!
//! ```
//! use hnlpu_llm::{DataflowExecutor, Transformer};
//! use hnlpu_model::{zoo, ModelWeights, WeightGenerator};
//!
//! let card = zoo::dataflow_test_model();
//! let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(7));
//! let reference = Transformer::new(w.clone());
//! let hnlpu = DataflowExecutor::new(w);
//! let prompt = [1u32, 5, 9];
//! let a = reference.generate_greedy(&prompt, 8);
//! let b = hnlpu.generate_greedy(&prompt, 8);
//! assert_eq!(a, b); // same tokens out of both machines
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
mod batch;
pub mod dataflow;
mod engine;
pub mod fault;
mod help;
pub mod kernels;
mod kv_cache;
#[cfg(test)]
mod naive;
mod ops;
mod reference;
pub mod sampler;
pub mod scratch;
pub mod serve;
mod telemetry;
pub mod tensor;
mod tokenizer;

pub use batch::{BatchRunReport, BatchedDataflowExecutor, SequenceRequest};
pub use dataflow::{CommCounters, DataflowExecutor, GridHealth};
pub use engine::{Engine, Placement};
pub use fault::{ChaosSpec, FaultError, FaultPlan, RecoveryStats};
pub use kv_cache::{KvCache, PageBuf, PrefixCache, PrefixCacheConfig, PrefixStats};
pub use reference::Transformer;
pub use sampler::Sampler;
pub use scratch::Scratch;
pub use serve::{OnlineServer, SeqId, SeqState, ServeError, ServeEvent, SloReport};
pub use telemetry::{Stage, StageNanos};
pub use tokenizer::AsciiTokenizer;
