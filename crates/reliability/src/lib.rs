//! Analytical reliability models (paper §6.3, following the PARMA
//! model of reference \[22\]).
//!
//! * [`fit`] — SEU rates and FIT arithmetic.
//! * [`mttf`] — mean-time-to-failure models for one-dimensional parity
//!   (fails on the first dirty-data fault), CPPC and SECDED (fail when a
//!   second fault lands in the same protection domain within the mean
//!   dirty-data re-access interval `Tavg`), plus §4.7's
//!   temporal-aliasing model.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fit;
pub mod montecarlo;
pub mod mttf;

pub use fit::SeuRate;
pub use montecarlo::{simulate_double_fault_mttf, MonteCarloConfig, MonteCarloResult};
pub use mttf::{
    mttf_aliasing_years, mttf_domain_double_fault_years, mttf_one_dim_parity_years,
    ReliabilityParams,
};
