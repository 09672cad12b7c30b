//! Bit-level arithmetic substrate for the HNLPU reproduction.
//!
//! This crate implements — functionally, and with exact structural gate
//! accounting — the arithmetic techniques of §3.1 of the paper:
//!
//! * `gates` — gate/cell budgets (full adders, flops, muxes…) that the
//!   circuit crate converts into area/power at a technology node.
//! * [`csa`] — carry-save adder (3:2 compressor) trees for multi-operand
//!   accumulation (Figure 3, right).
//! * [`popcount`] — population-count networks: the per-unique-weight
//!   accumulators at the heart of a Hardwired-Neuron (Figure 4 ❷).
//! * [`bitserial`] — LSB-first bit-serialization of signed activations,
//!   trading time for area (Figure 3, right).
//! * [`constmul`] — multiply-by-constant units via canonical-signed-digit
//!   recoding (the "weight constancy" baseline of §3.1).
//! * [`neuron`] — the Hardwired-Neuron accumulate-multiply-accumulate unit,
//!   plus the conventional Cell-Embedding neuron and the time-multiplexed
//!   MAC array it is compared against. All three are bit-exact.
//!
//! Every functional model here is exact integer arithmetic: tests assert
//! that a Hardwired-Neuron computes *identically* the same dot product as a
//! naive multiply-accumulate reference.
//!
//! # Example
//!
//! ```
//! use hnlpu_arith::neuron::HardwiredNeuron;
//! use hnlpu_model::Fp4;
//!
//! let weights: Vec<Fp4> = [1.0f32, -2.0, 0.5, 6.0]
//!     .iter().map(|&w| Fp4::from_f32(w)).collect();
//! let hn = HardwiredNeuron::build(&weights, 1.25);
//! let acts = [3i32, -1, 4, 2];
//! let out = hn.eval(&acts);
//! // 2*(1*3 + -2*-1 + 0.5*4 + 6*2) = 2*19 = 38 half-units
//! assert_eq!(out.value_half_units, 38);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
pub mod bitserial;
pub mod constmul;
pub mod csa;
mod gatelevel;
mod gates;
mod hn_rtl;
pub mod neuron;
pub mod popcount;

pub use gates::GateBudget;
pub use hn_rtl::GateHn;
pub use popcount::PopcountTree;
