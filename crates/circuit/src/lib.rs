//! Circuit/physical-design substrate for the HNLPU reproduction.
//!
//! The paper characterizes HNLPU with a commercial ASIC flow (Design
//! Compiler, IC Compiler, PrimeTime PX, Memory Compiler) at 5 nm. This crate
//! reproduces that flow's *outputs* with documented analytical models:
//!
//! * `tech` — technology-node calibration (density, energies, leakage,
//!   SRAM bit cells) anchored to public 5 nm figures and the paper's
//!   published per-block results.
//! * `area` — gate-budget → silicon-area conversion and SRAM macros.
//! * [`power`] — dynamic energy / leakage / power-density estimation.
//! * [`netlist`] — the metal-embedding compiler's wire demand per metal
//!   layer, which `route` checks.
//! * `metal` — the M0–TM0 metal stack with per-layer half-pitch and
//!   lithography class (feeds both routing and photomask costing).
//! * `route` — routing-demand and congestion estimation (the paper's
//!   "<70% ME-layer density" check).
//! * [`signoff`] — timing/power-density/parasitics sign-off checks
//!   replicating §7.1.
//! * [`yield_model`] — Murphy defect-yield and dies-per-wafer geometry.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
mod area;
mod metal;
pub mod netlist;
pub mod power;
mod route;
pub mod signoff;
mod tech;
pub mod thermal;
pub mod yield_model;

pub use area::{attention_buffer, logic_area_mm2, sram_macro};
pub use metal::MetalStack;
pub use route::{RouteReport, Router};
pub use tech::TechNode;
pub use thermal::ThermalStack;
pub use yield_model::{dies_per_wafer, murphy_yield};
