//! **CPPC — Correctable Parity Protected Cache** (Manoochehri, Annavaram
//! & Dubois, ISCA 2011): a write-back cache that detects faults with
//! interleaved parity and corrects them with two XOR "checkpoint"
//! registers, extended to spatial multi-bit errors by byte shifting.
//!
//! The crate is organised around the paper's structure:
//!
//! * [`config`] — design-space knobs: parity ways, register pairs
//!   (§3.4/§4.11), byte shifting (§4.3).
//! * [`rotate`] — the barrel byte-shifter (§4.3).
//! * [`registers`] — the R1/R2 register file and its invariant (§3).
//! * [`cache`] — [`cache::CppcCache`], the protected cache with the
//!   write path of Figure 2, the recovery engine of §4.4 and both L1
//!   and L2 variants (§3.5).
//! * [`locator`] — the spatial-MBE fault locator of §4.5.
//! * [`baselines`] — the three comparison caches of §6: one-dimensional
//!   parity, SECDED with physical bit interleaving, and two-dimensional
//!   parity.
//! * [`scheme`] — the pluggable [`scheme::ProtectionScheme`] trait and
//!   [`scheme::SchemeKind`] selector the campaign drivers parameterize
//!   over; CPPC and the baselines implement the trait themselves.
//! * [`silent`], [`harp`] — the related-work zoo: silent-write-aware
//!   low-power ECC and HARP-style on-die ECC with error profiling.
//!
//! # Quick start
//!
//! ```
//! use cppc_cache_sim::{CacheGeometry, MainMemory, ReplacementPolicy};
//! use cppc_core::{CppcCache, CppcConfig};
//!
//! let geo = CacheGeometry::new(32 * 1024, 2, 32)?;
//! let mut mem = MainMemory::new();
//! let mut cache = CppcCache::new_l1(geo, CppcConfig::paper(), ReplacementPolicy::Lru)?;
//!
//! cache.store_word(0x1000, 42, &mut mem).unwrap();
//! cache.flip_data_bit_at(0x1000, 5); // particle strike on dirty data
//! assert_eq!(cache.load_word(0x1000, &mut mem).unwrap(), 42); // corrected
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baselines;
pub mod batch;
pub mod cache;
pub mod config;
pub mod harp;
pub mod icr;
pub mod locator;
pub mod obs;
pub mod registers;
pub mod rotate;
pub mod scheme;
pub mod silent;

pub use batch::{BatchOutcome, BatchScratch, BatchSim};
pub use cache::{CppcCache, CppcStats, Due, DueReason, RecoveryReport};
pub use config::{ConfigError, CppcConfig, ROTATION_CLASSES};
pub use harp::HarpOdeccScheme;
pub use icr::{IcrCache, IcrStats};
pub use locator::{locate_spatial, locate_spatial_into, LocateError, Suspect};
pub use registers::RegisterFile;
pub use scheme::{
    ProtectionScheme, SchemeDescriptor, SchemeFault, SchemeKind, SchemeOps, WarmClone,
};
pub use silent::SilentWriteEccScheme;
