//! Synthetic SPEC2000-like memory trace generators.
//!
//! The paper evaluates on 100M-instruction Simpoints of SPEC2000. Those
//! traces are not redistributable and SimpleScalar is not reproducible
//! here, so this crate generates *synthetic* traces whose aggregate
//! statistics span the same ranges the paper's evaluation depends on:
//!
//! * load/store mix (loads ≈ 2x stores, varying per benchmark),
//! * temporal locality (reuse of recently-touched words) and spatial
//!   locality (sequential runs),
//! * store locality (stores revisiting recently-stored words — the
//!   source of CPPC's read-before-writes),
//! * working-set size (from cache-resident up to mcf's thrashing
//!   footprint with its ~80% L2 miss rate, §6.2),
//! * dirty-data residency averaging ≈16% in L1 / ≈35% in L2 (Table 2).
//!
//! Every generator is deterministic given its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod generator;
pub mod micro;
pub mod obs;
pub mod profile;
pub mod shared;
pub mod trace_io;

pub use binfmt::{read_bin_trace, write_bin_trace, BinTraceError, BinTraceReader, BinTraceWriter};
pub use cppc_cache_sim::batch::OpBatch;
pub use generator::TraceGenerator;
pub use profile::{spec2000_profiles, BenchmarkProfile};
pub use shared::{Replay, SharedTrace};
pub use trace_io::{read_din_trace, read_trace, read_trace_file, write_trace, TraceFormat};
