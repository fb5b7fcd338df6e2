//! Bit-accurate set-associative cache simulator substrate.
//!
//! This crate provides the memory-hierarchy machinery everything else in
//! the CPPC reproduction builds on:
//!
//! * [`geometry`] — cache dimensioning and address field extraction.
//! * [`replacement`] — LRU / FIFO / seeded-random replacement policies.
//! * [`cache`] — a write-back, write-allocate set-associative cache with
//!   full event statistics, plus primitives (probe / fill / direct word
//!   access) that the protected-cache implementations compose. Blocks
//!   of real 64-bit words with per-word dirty bits live in one flat
//!   arena, viewed through [`cache::BlockRef`] / [`cache::BlockMut`].
//! * [`memory`] — a sparse backing store, the authoritative copy that
//!   clean-data recovery re-fetches from.
//! * [`hierarchy`] — the L1 + L2 (+ optional L3) + memory functional
//!   simulator producing the operation counts that drive the paper's
//!   energy and performance models (read hits, write hits,
//!   stores-to-dirty, misses, write-backs at every level).
//! * [`clone_in_place!`] — `Clone` with a buffer-reusing `clone_from`,
//!   so a fault-injection campaign restores a warm clone per trial
//!   without allocating.
//! * [`stats`] — counter bundles shared by all of the above.
//!
//! # Example
//!
//! ```
//! use cppc_cache_sim::geometry::CacheGeometry;
//! use cppc_cache_sim::cache::Cache;
//! use cppc_cache_sim::memory::MainMemory;
//! use cppc_cache_sim::replacement::ReplacementPolicy;
//!
//! let geo = CacheGeometry::new(32 * 1024, 2, 32)?;
//! let mut mem = MainMemory::new();
//! let mut cache = Cache::new(geo, ReplacementPolicy::Lru);
//! cache.store_word(0x1000, 0xDEAD_BEEF, &mut mem);
//! assert_eq!(cache.load_word(0x1000, &mut mem), 0xDEAD_BEEF);
//! # Ok::<(), cppc_cache_sim::geometry::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Implements `Clone` for a struct from the list of its fields, with a
/// `clone_from` that clones field by field into the existing value.
///
/// `#[derive(Clone)]` keeps the default `clone_from`, which builds a
/// whole new value and so allocates every buffer again; here each
/// field's own `clone_from` runs instead, and a `Vec` of the same
/// length is overwritten in place. `clone` builds the struct from the
/// same list, so a field left out of it fails to compile.
#[macro_export]
macro_rules! clone_in_place {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                $ty {
                    $($field: self.$field.clone()),+
                }
            }

            fn clone_from(&mut self, src: &Self) {
                $(self.$field.clone_from(&src.$field);)+
            }
        }
    };
}

pub mod batch;
pub mod cache;
pub mod geometry;
pub mod hierarchy;
pub mod memory;
pub mod obs;
pub mod replacement;
pub mod stats;
pub mod wordmap;
pub mod write_through;

pub use batch::OpBatch;
pub use cache::Cache;
pub use geometry::{CacheGeometry, GeometryError};
pub use hierarchy::TwoLevelHierarchy;
pub use memory::MainMemory;
pub use replacement::ReplacementPolicy;
pub use stats::CacheStats;
pub use write_through::WriteThroughCache;
