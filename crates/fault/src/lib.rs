//! Soft-error fault-injection substrate.
//!
//! * [`layout`] — the logical→physical mapping of cache words onto SRAM
//!   data-array rows. Spatial multi-bit errors (MBEs) are physical
//!   phenomena: a particle strike flips bits inside a small square of
//!   adjacent cells. This module defines which words are vertical
//!   neighbours, which is what CPPC's rotation classes are built on.
//! * [`model`] — fault models: temporal single-bit upsets and spatial
//!   NxM multi-bit patterns, with deterministic seeded generators.
//! * [`campaign`] — a campaign runner that injects thousands of faults
//!   into fresh system instances and tallies outcomes (Masked /
//!   Corrected / DUE / SDC), the methodology behind the paper's
//!   correction-coverage claims (§4.6).
//!
//! # Example
//!
//! ```
//! use cppc_fault::layout::PhysicalLayout;
//!
//! // 4 sets x 2 ways x 4 words/block = 32 physical rows of 64 bits.
//! let layout = PhysicalLayout::new(4, 2, 4);
//! assert_eq!(layout.num_rows(), 32);
//! let row = layout.row_of(3, 1, 2);
//! assert_eq!(layout.location_of(row), (3, 1, 2));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod layout;
pub mod model;

pub use campaign::{Outcome, OutcomeTally};
pub use layout::PhysicalLayout;
pub use model::{BitFlip, FaultModel, FaultPattern};
