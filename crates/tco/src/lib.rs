//! Total Cost of Ownership and carbon-footprint analysis (Table 3,
//! Appendix B).
//!
//! * `assumptions` — every Appendix-B constant in one place.
//! * `capex` — node prices and datacenter infrastructure.
//! * `opex` — electricity and maintenance & support.
//! * `carbon` — embodied + operational tCO2e.
//! * `scenario` — the full Table 3: low/high volume, static/dynamic
//!   model-update policies, HNLPU vs equivalently-provisioned H100 cluster.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
mod assumptions;
mod capex;
mod carbon;
mod opex;
mod scenario;
pub mod sensitivity;

pub use assumptions::Assumptions;
pub use scenario::{DeploymentScale, Table3, UpdatePolicy};
