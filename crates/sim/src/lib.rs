//! Cycle-level HNLPU system simulator.
//!
//! Reproduces the paper's §6.1 performance methodology: a cycle-level
//! single-chip model plus a CNSim-style multi-chip interconnect model,
//! generating Table 2's throughput and Figure 14's execution-time breakdown.
//!
//! * `config` — the simulated machine description (4×4 CXL fabric,
//!   projection/nonlinear timings, VEX attention rate, buffer/HBM rates).
//! * [`fabric`] — collective-communication timing over the row/column
//!   fully-connected CXL fabric.
//! * [`pipeline`] — per-layer/6-stage timing, the pipeline advance interval,
//!   steady-state throughput, and the per-token execution-time breakdown.
//! * `hbm` — KV-cache capacity/bandwidth accounting (attention buffer vs
//!   HBM spill, double buffering).
//! * [`scheduler`] — continuous batching over the 216 pipeline slots.
//! * [`engine`] — the top-level [`engine::HnlpuEngine`] facade.
//!
//! # Example
//!
//! ```
//! use hnlpu_sim::engine::HnlpuEngine;
//! let engine = HnlpuEngine::paper_default();
//! let tput = engine.decode_throughput(2048);
//! // Table 2: 249,960 tokens/s at 2K context.
//! assert!((tput - 249_960.0).abs() / 249_960.0 < 0.05);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
mod config;
pub mod engine;
pub mod fabric;
mod hbm;
mod packet;
pub mod pipeline;
pub mod scheduler;
mod workload;

pub use config::SimConfig;
pub use engine::HnlpuEngine;
pub use fabric::CollectiveKind;
pub use packet::PacketSim;
pub use pipeline::{Breakdown, LayerTiming};
pub use scheduler::{BatchScheduler, RoundPlan, SchedulerReport};
pub use workload::{shared_prefix_tokens, WorkloadKind, WorkloadSpec};
