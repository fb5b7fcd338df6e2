//! `cppc-repro` — the paper-results reproduction harness.
//!
//! This crate turns the repository's headline numbers into **artifacts**:
//! named, registered reproductions of the paper's tables and figures
//! (Table 3 MTTF, Figure 10 CPI overhead, Figures 11–12 energy, the
//! cross-scheme `scheme_comparison` behind `docs/SCHEMES.md`, the
//! Table 2/4 MBE-coverage grid). Each artifact declares its campaign
//! configuration, a runtime tier, and a set of gated metrics with
//! per-metric tolerance bands. Running one produces:
//!
//! * a machine-readable document at `docs/results/<artifact>.json`
//!   (schema `cppc-repro/1`, documented in `docs/results/README.md`)
//!   whose **golden** values are the committed reference the gate
//!   compares against;
//! * a section of the rendered results book `docs/RESULTS.md`, with
//!   paper-mirroring tables and deviation-vs-golden columns.
//!
//! The CLI verbs map onto the [`runner`] functions:
//!
//! ```text
//! cppc-cli repro --artifact table3_mttf     # run one, refresh JSON + books
//! cppc-cli repro --all --threads 1          # run everything (incl. full tier)
//! cppc-cli repro --check                    # fast-tier golden gate (CI)
//! cppc-cli repro --update-goldens --all     # re-bless goldens after a change
//! cppc-cli docs                             # re-render the books, no simulation
//! ```
//!
//! Everything is deterministic: artifacts pin their own seeds, trial
//! counts and instruction budgets in code (they deliberately ignore
//! `CPPC_BENCH_OPS`), and the campaign engine guarantees bit-identical
//! results at any `--threads` value, so `--check` gates on exact bit
//! patterns carried in the JSON (`*_bits` fields) rather than printed
//! decimals.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod artifacts;
pub mod book;
pub mod jsonio;
pub mod obs;
pub mod runner;
pub mod schemes_md;

pub use artifact::{Artifact, ArtifactOutput, MetricValue, RunConfig, Table, Tier, Tolerance};
pub use artifacts::{find, registry};
pub use runner::{
    check_artifact, json_path, load_doc, render_book, results_dir, run_artifact, write_artifact,
    GateFailure,
};
