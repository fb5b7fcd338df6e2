//! Campaign-as-a-service: a persistent multi-tenant job server over
//! the deterministic campaign engine.
//!
//! `cppc-cli serve` runs the daemon built from this crate: clients
//! submit campaigns (fault injection, Monte Carlo MTTF, benchmarks) as
//! *jobs* over a unix socket — optionally a loopback TCP port —
//! speaking newline-delimited JSON, and the daemon schedules them
//! across tenants under a bounded queue and a worker-thread cap.
//!
//! The pieces, bottom up:
//!
//! - [`job`] — specs, priorities, the lifecycle state machine and the
//!   durable [`job::JobRecord`];
//! - [`store`] — the on-disk job journal and checkpoint layout under
//!   `--data-dir` (atomic writes, restart recovery); the journal is a
//!   finished job's only full copy;
//! - [`scheduler`] — two priority lanes, per-tenant round-robin fair
//!   share, backpressure at the admission bound, a thread governor;
//! - [`runner`] — executes one spec on [`cppc_campaign::run_with`]
//!   with checkpointing and cooperative interruption; `cppc-cli
//!   campaign` runs its direct campaigns through the same function;
//! - [`protocol`] — the wire requests/responses;
//! - [`server`] — listeners, connection handlers, the dispatch loop,
//!   graceful shutdown;
//! - [`client`] — the typed client the CLI subcommands use;
//! - [`obs`] — the `serve.*` metric group.
//!
//! The service inherits the engine's determinism end to end: a job
//! interrupted by a daemon restart resumes from its checkpoint and
//! merges to the **bit-identical** final tally that a direct
//! `cppc-cli campaign` run of the same spec produces, at any thread
//! count — both run [`runner::execute`] on the shared experiment
//! bodies ([`cppc_bench::experiments`]), the per-trial RNG streams are
//! derived from `(seed, trial)` alone, and merges happen in shard
//! order.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod job;
pub mod obs;
pub mod protocol;
pub mod runner;
pub mod scheduler;
pub mod server;
pub mod store;

pub use client::{Client, ClientError};
pub use job::{JobId, JobKind, JobRecord, JobSpec, JobState, Priority};
pub use protocol::Request;
pub use scheduler::{Backpressure, Grant, Scheduler};
pub use server::{serve, ServerConfig};
pub use store::JobStore;
