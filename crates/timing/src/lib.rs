//! Trace-driven CPU timing model (SimpleScalar substitute).
//!
//! Figure 10 of the paper compares the CPI of a 4-wide out-of-order
//! processor whose L1 data cache is protected by CPPC or two-dimensional
//! parity, normalised to one-dimensional parity. The performance
//! difference comes from exactly one mechanism: **read-port contention**
//! caused by read-before-write operations (§3.1, §5.2):
//!
//! * CPPC reads the old word only on stores to *dirty* words, and the
//!   store buffer steals idle read-port cycles in coordination with the
//!   load/store scheduler, eliminating most conflicts;
//! * two-dimensional parity reads old data on *every* store and reads
//!   the *entire old line* on every miss fill, with no way to hide the
//!   extra traffic as effectively.
//!
//! [`TimingModel::drive`] is the one loop that drives a generated
//! workload through the Table 1 hierarchy; its [`RunResult`] (both
//! levels' statistics, dirty residency and `Tavg`) feeds every scheme's
//! [`TimingModel::breakdown_from_stats`], which computes a base CPI from
//! the machine's ILP and miss penalties and adds an analytical
//! port-contention term per scheme. [`PipelineModel`] is the structural
//! cross-check and keeps its own per-op loop. Absolute CPIs are
//! synthetic; the normalised deltas (CPPC ≈ +0.3%, 2D ≈ +1.7% on
//! average) are the reproduction target.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accounting;
pub mod config;
pub mod model;
pub mod obs;
pub mod pipeline;

pub use accounting::counts_from_stats;
pub use config::{CacheLevelConfig, MachineConfig};
pub use model::{CpiBreakdown, L1Scheme, PortConfig, RunResult, TimingModel};
pub use pipeline::{PipelineModel, PipelineResult};
