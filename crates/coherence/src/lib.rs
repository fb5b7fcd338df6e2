//! MSI write-invalidate coherence substrate.
//!
//! The paper's §7 asks how CPPC behaves in multiprocessors: *"In
//! invalidate protocols, since many dirty blocks may be invalidated,
//! the number of read-before-write operations might decrease which
//! might lead to better efficiency in multiprocessor CPPCs."* This
//! crate provides the substrate to test that hypothesis: `n` cores with
//! private write-back L1s kept coherent by an MSI write-invalidate
//! protocol over a shared L2.
//!
//! States are derived from the existing cache structures: a valid block
//! with any dirty word is **M** (this simulator writes a block back and
//! downgrades rather than tracking a separate M-clean state), a valid
//! clean block is **S**, an invalid way is **I**.
//!
//! * A store needs M: every other core's copy is invalidated (written
//!   back to the shared L2 first if dirty).
//! * A load needs S or better: a remote M copy is written back to the
//!   shared L2 (downgraded to S) before the local fill.
//!
//! The interleaving is sequential (one operation completes before the
//! next starts), giving a sequentially consistent memory — sufficient
//! for the §7 read-before-write statistics.
//!
//! [`CppcCoherentSystem`] is the one engine. A plain-cache copy of the
//! same protocol lives on only as a test reference, which the engine
//! must match event for event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cppc_system;
pub mod sharing;
pub mod system;

pub use cppc_system::CppcCoherentSystem;
pub use sharing::SharedTraceGenerator;
pub use system::{CoherenceStats, CoreOp};
