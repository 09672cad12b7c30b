//! Benchmark host crate. The [`inference`] module holds the engine-level
//! suite that the `bench_baseline` example runs, records into
//! `BENCH_inference.json` and gates on; `benches/ablations.rs` sweeps the
//! design choices DESIGN.md calls out. The paper's tables and figures are
//! printed by `hnlpu::experiments` (the `generate_reports` example), not
//! here.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

pub mod inference;
