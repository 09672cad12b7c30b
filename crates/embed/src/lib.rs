//! Embedding methodologies: MAC-array, Cell-Embedding, and Metal-Embedding.
//!
//! This crate turns the arithmetic substrate into *designs* and reproduces
//! the paper's §3 and §6.3/§7.2 artifacts:
//!
//! * `region` — POPCNT accumulator-slice allocation for the prefabricated
//!   Sea-of-Neurons array (slices are weight-independent silicon,
//!   reassigned to weight-value regions through metal).
//! * `tile` — the §6.3 benchmark tile (1×1024 · 1024×128 FP4 GEMV) under
//!   the three methodologies: area (Figure 12), cycles and energy
//!   (Figure 13).
//! * [`mod@array`] — the full-chip HN-array plan: per-chip weight placement,
//!   area, power under MoE sparsity, and projection timing for the
//!   cycle-level simulator.
//! * `compiler` — the Metal-Embedding compiler: weights → M8–M11 wire
//!   netlist with slice allocation, routing-density verification, and a
//!   TCL-like ECO script (the paper's §3.2 flow).
//! * `report` — the single-chip area/power breakdown of Table 1.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
pub mod array;
mod compiler;
mod precision;
mod region;
mod report;
mod tile;

pub use array::HnArrayPlan;
pub use compiler::MeCompiler;
pub use precision::precision_sweep;
pub use report::ChipReport;
pub use tile::{TileComparison, TileDesign, TileMethod};
