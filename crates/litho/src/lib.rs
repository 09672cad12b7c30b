//! Lithography economics: photomasks, wafers, and Non-Recurring Engineering.
//!
//! Reproduces the paper's §2.2 (economic challenge), §3.2 (Sea-of-Neurons
//! mask sharing), Figure 2, Table 4, and Table 5:
//!
//! * `cost` — the `[optimistic, pessimistic]` cost-range arithmetic every
//!   estimate in the paper is quoted in.
//! * `mask_cost` — photomask-set pricing over the normalized-DUV-unit
//!   model (EUV reticles weighted 6×; full 5 nm set $15 M–30 M).
//! * `wafer` — wafer/packaging/HBM/system recurring costs per good die
//!   (Murphy yield).
//! * `sea_of_neurons` — mask-sharing accounting: homogeneous vs
//!   metal-embedding masks, initial vs re-spin, and the headline −86.5% /
//!   −92.3% / 112× reductions.
//! * [`nre`] — full NRE scenarios (Table 5) and per-model chip pricing
//!   (Table 4).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
mod cost;
mod mask_cost;
pub mod nre;
mod sea_of_neurons;
mod wafer;

pub use cost::CostRange;
pub use sea_of_neurons::SeaOfNeurons;
pub use wafer::WaferPricing;
