//! The job model: specs, priorities, the lifecycle state machine and
//! the durable [`JobRecord`] the journal persists.
//!
//! A *job* is one campaign submitted over the wire: what to run (the
//! [`JobSpec`]), who submitted it (tenant), how urgently ([`Priority`])
//! and where it is in its life ([`JobState`]). Everything round-trips
//! through the workspace's hand-rolled JSON so the journal and the wire
//! protocol share one serialization with exact 64-bit integers.

use cppc_bench::experiments::{parse_config, parse_fault, parse_scheme};
use cppc_campaign::json::Json;
use cppc_campaign::{CampaignConfig, DEFAULT_SHARD_SIZE};

/// Identifies one job for its whole life (monotonic per data dir).
pub type JobId = u64;

/// What kind of campaign a job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Scheme-zoo fault-injection campaign behind the
    /// `ProtectionScheme` trait
    /// ([`cppc_bench::experiments::scheme_experiment`]).
    Scheme {
        /// Protection-scheme selector (`cppc`, `parity1d`,
        /// `secded-interleaved`, `parity2d`, `silent-write-ecc`,
        /// `harp-odecc`).
        scheme: String,
        /// CPPC configuration name (used by the `cppc` scheme only).
        config: String,
        /// Fault model name (`single`, `2xvert`, `8xhoriz`, `4x4`,
        /// `8x8`).
        fault: String,
    },
    /// Monte Carlo double-fault MTTF validation
    /// ([`cppc_reliability::montecarlo`]).
    MonteCarlo {
        /// Faults per hour over dirty bits.
        rate: f64,
        /// Protection domains.
        domains: u32,
        /// Dirty window, hours.
        tavg: f64,
    },
    /// The warm-pool `mbe_coverage` campaign, executed through the
    /// cross-trial batched engine ([`cppc_bench::mbe::MbeBatchExec`])
    /// at the spec's `batch` size.
    Mbe,
    /// Synthetic duration-controllable campaign
    /// ([`cppc_bench::experiments::sleep_experiment`]) — for service
    /// tests and load drills.
    Sleep {
        /// Sleep per trial, milliseconds.
        millis: u64,
    },
    /// Trace-driven campaign
    /// ([`cppc_bench::experiments::trace_experiment`]): every trial
    /// replays a recorded trace through the batched hierarchy fast
    /// path and folds the run digest into its outcome.
    Trace {
        /// Path to the trace file (binary `docs/TRACES.md` format, or
        /// text v1), resolved on the executing host at dispatch time.
        path: String,
    },
    /// Design-space sweep ([`cppc_explore::run_sweep`]): the tier's
    /// grid with the spec's `seed`/`trials` as the per-config campaign
    /// parameters. The result document is the `cppc-explore/1` sweep
    /// doc (points + Pareto ranks); per-config checkpoints live next
    /// to the job's checkpoint path.
    Explore {
        /// `true` runs the 28-config quick tier, `false` the full
        /// 432-config grid.
        quick: bool,
    },
}

impl JobKind {
    /// The kind's wire name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Scheme { .. } => "scheme",
            JobKind::MonteCarlo { .. } => "montecarlo",
            JobKind::Mbe => "mbe",
            JobKind::Sleep { .. } => "sleep",
            JobKind::Trace { .. } => "trace",
            JobKind::Explore { .. } => "explore",
        }
    }
}

/// Most shards one spec may ask for (`trials / shard_size`, rounded
/// up): the engine holds one result slot per shard from the start, so
/// admission bounds that allocation before a worker can abort on it.
const MAX_SHARDS: u64 = 1 << 20;

/// Largest `batch` one spec may ask for: the batch engine's lane arenas
/// grow to it.
const MAX_BATCH: usize = 4096;

/// Everything needed to run a job's campaign deterministically.
///
/// `seed`, `trials` and `shard_size` form the campaign identity
/// (checkpoint compatibility); `threads` is a scheduling hint the
/// resource governor may clamp without affecting the result — the
/// engine's tallies are bit-identical at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Campaign size.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Requested worker threads. `0` resolves to every CPU on the
    /// executing host (`available_parallelism`) before the governor
    /// clamps it.
    pub threads: usize,
    /// Trials per shard (checkpoint granularity; part of the identity).
    pub shard_size: u64,
    /// Trials per vectorized syndrome batch (`mbe` kind only; other
    /// kinds ignore it). Not part of the campaign identity: tallies and
    /// checkpoints are bit-identical at any batch size.
    pub batch: usize,
}

impl JobSpec {
    /// A spec with the engine's default shard size and one thread.
    #[must_use]
    pub fn new(kind: JobKind, trials: u64, seed: u64) -> Self {
        JobSpec {
            kind,
            trials,
            seed,
            threads: 1,
            shard_size: DEFAULT_SHARD_SIZE,
            batch: 1,
        }
    }

    /// Checks the spec is runnable: positive sizes, at most 2^20 shards,
    /// a `batch` of at most 4096 and, for `scheme`, known
    /// scheme/config/fault names. Submissions with a bad spec are
    /// rejected at the socket instead of failing later in a worker.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the defect.
    pub fn validate(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("trials must be positive".into());
        }
        if self.shard_size == 0 {
            return Err("shard_size must be positive".into());
        }
        let shards = self.trials.div_ceil(self.shard_size);
        if shards > MAX_SHARDS {
            return Err(format!(
                "trials / shard_size asks for {shards} shards, more than {MAX_SHARDS}; \
                 raise shard_size"
            ));
        }
        if self.batch > MAX_BATCH {
            return Err(format!("batch {} is larger than {MAX_BATCH}", self.batch));
        }
        match &self.kind {
            JobKind::Scheme {
                scheme,
                config,
                fault,
            } => {
                parse_scheme(scheme)?;
                parse_config(config)?;
                parse_fault(fault)?;
            }
            JobKind::MonteCarlo { rate, tavg, .. } => {
                if !(rate.is_finite() && *rate > 0.0) {
                    return Err("montecarlo rate must be positive".into());
                }
                if !(tavg.is_finite() && *tavg > 0.0) {
                    return Err("montecarlo tavg must be positive".into());
                }
                if u32::try_from(self.trials).is_err() {
                    return Err("too many trials for montecarlo".into());
                }
            }
            JobKind::Trace { path } => {
                // Existence is checked on the executing host at
                // dispatch; an empty path can never be right.
                if path.is_empty() {
                    return Err("trace path must not be empty".into());
                }
            }
            JobKind::Explore { .. } => {
                // The grid axes are fixed by the tier; per-config
                // campaigns only need positive trials, checked above.
            }
            JobKind::Mbe | JobKind::Sleep { .. } => {}
        }
        Ok(())
    }

    /// The campaign configuration this spec resolves to at `threads`
    /// workers. Seed, trials and shard size come from the spec alone,
    /// so a job resumed in a different process (or run directly via
    /// `cppc-cli campaign`) targets the same campaign identity.
    ///
    /// `threads` is passed through unresolved: the engine maps `0` to
    /// every CPU via `available_parallelism` at run time.
    #[must_use]
    pub fn campaign_config(&self, threads: usize) -> CampaignConfig {
        CampaignConfig::new(self.seed, self.trials)
            .shard_size(self.shard_size)
            .threads(threads)
    }

    /// Serializes the spec.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("kind".to_string(), Json::Str(self.kind.name().into()))];
        match &self.kind {
            JobKind::Scheme {
                scheme,
                config,
                fault,
            } => {
                pairs.push(("scheme".into(), Json::Str(scheme.clone())));
                pairs.push(("config".into(), Json::Str(config.clone())));
                pairs.push(("fault".into(), Json::Str(fault.clone())));
            }
            JobKind::MonteCarlo {
                rate,
                domains,
                tavg,
            } => {
                pairs.push(("rate".into(), Json::Num(*rate)));
                pairs.push(("domains".into(), Json::UInt(u64::from(*domains))));
                pairs.push(("tavg".into(), Json::Num(*tavg)));
            }
            JobKind::Trace { path } => {
                pairs.push(("path".into(), Json::Str(path.clone())));
            }
            JobKind::Explore { quick } => {
                pairs.push(("quick".into(), Json::Bool(*quick)));
            }
            JobKind::Mbe | JobKind::Sleep { .. } => {}
        }
        if let JobKind::Sleep { millis } = self.kind {
            pairs.push(("millis".into(), Json::UInt(millis)));
        }
        pairs.push(("trials".into(), Json::UInt(self.trials)));
        pairs.push(("seed".into(), Json::UInt(self.seed)));
        pairs.push(("threads".into(), Json::UInt(self.threads as u64)));
        pairs.push(("shard_size".into(), Json::UInt(self.shard_size)));
        pairs.push(("batch".into(), Json::UInt(self.batch as u64)));
        Json::Obj(pairs)
    }

    /// Restores a spec written by [`JobSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let kind_name = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("spec missing 'kind'")?;
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(ToString::to_string)
                .ok_or_else(|| format!("spec missing '{name}'"))
        };
        let u64_field = |name: &str, default: u64| {
            v.get(name).map_or(Ok(default), |j| {
                j.as_u64().ok_or_else(|| format!("bad '{name}' in spec"))
            })
        };
        let f64_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("spec missing '{name}'"))
        };
        let kind = match kind_name {
            // Journals and clients from before the `inject` kind folded
            // into `scheme` still load; such a record is written back
            // as `scheme`.
            "inject" => JobKind::Scheme {
                scheme: "cppc".into(),
                config: str_field("config")?,
                fault: str_field("fault")?,
            },
            "scheme" => JobKind::Scheme {
                scheme: str_field("scheme")?,
                config: str_field("config")?,
                fault: str_field("fault")?,
            },
            "montecarlo" => JobKind::MonteCarlo {
                rate: f64_field("rate")?,
                domains: u32::try_from(u64_field("domains", 8)?)
                    .map_err(|_| "bad 'domains' in spec".to_string())?,
                tavg: f64_field("tavg")?,
            },
            "mbe" => JobKind::Mbe,
            "sleep" => JobKind::Sleep {
                millis: u64_field("millis", 0)?,
            },
            "trace" => JobKind::Trace {
                path: str_field("path")?,
            },
            "explore" => JobKind::Explore {
                quick: match v.get("quick") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err("bad 'quick' in spec".to_string()),
                },
            },
            other => return Err(format!("unknown job kind '{other}'")),
        };
        let threads = usize::try_from(u64_field("threads", 1)?)
            .map_err(|_| "bad 'threads' in spec".to_string())?;
        // Journals written before batching existed carry no 'batch'
        // field; those jobs ran (and resume) on the per-trial path.
        let batch = usize::try_from(u64_field("batch", 1)?)
            .map_err(|_| "bad 'batch' in spec".to_string())?;
        Ok(JobSpec {
            kind,
            trials: u64_field("trials", 0)?,
            seed: u64_field("seed", 0)?,
            threads,
            shard_size: u64_field("shard_size", DEFAULT_SHARD_SIZE)?,
            batch,
        })
    }
}

/// Scheduling lane: `high` drains before `normal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Served before every normal job.
    High,
    /// The default lane.
    Normal,
}

impl Priority {
    /// Wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown priority.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            other => Err(format!("unknown priority '{other}' (use high|normal)")),
        }
    }
}

/// Where a job is in its life.
///
/// ```text
/// Queued ──▶ Running ──▶ Done
///    │          │  ├───▶ Failed
///    │          │  └───▶ Cancelled
///    │          └──▶ Queued     (requeued after a daemon restart)
///    └─────────────▶ Cancelled  (cancelled before dispatch)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for the scheduler.
    Queued,
    /// Executing on worker threads (also the journal state of a job
    /// suspended by a graceful shutdown — it resumes on restart).
    Running,
    /// Completed; the result tally is final.
    Done,
    /// A shard panicked or the checkpoint was unusable.
    Failed,
    /// Cancelled by a client.
    Cancelled,
}

impl JobState {
    /// Wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown state.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "cancelled" => Ok(JobState::Cancelled),
            other => Err(format!("unknown job state '{other}'")),
        }
    }

    /// Whether the state is final.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Whether the lifecycle permits moving to `to`.
    #[must_use]
    pub fn can_transition(self, to: JobState) -> bool {
        match self {
            JobState::Queued => matches!(to, JobState::Running | JobState::Cancelled),
            JobState::Running => matches!(
                to,
                JobState::Done | JobState::Failed | JobState::Cancelled | JobState::Queued
            ),
            _ => false,
        }
    }
}

/// The durable description of one job — exactly what the journal holds.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Submitting tenant (fair-share key).
    pub tenant: String,
    /// Scheduling lane.
    pub priority: Priority,
    /// What to run.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Final result (kind-specific JSON) once `Done`.
    pub result: Option<Json>,
    /// Failure diagnostic once `Failed`.
    pub error: Option<String>,
}

impl JobRecord {
    /// A fresh queued record.
    #[must_use]
    pub fn new(id: JobId, tenant: String, priority: Priority, spec: JobSpec) -> Self {
        JobRecord {
            id,
            tenant,
            priority,
            spec,
            state: JobState::Queued,
            result: None,
            error: None,
        }
    }

    /// Applies a lifecycle transition, rejecting illegal ones.
    ///
    /// # Errors
    ///
    /// Returns a message naming the rejected transition.
    pub fn transition(&mut self, to: JobState) -> Result<(), String> {
        if !self.state.can_transition(to) {
            return Err(format!(
                "job {} cannot move {} -> {}",
                self.id,
                self.state.as_str(),
                to.as_str()
            ));
        }
        self.state = to;
        Ok(())
    }

    /// Serializes the record for the journal and the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::UInt(self.id)),
            ("tenant".into(), Json::Str(self.tenant.clone())),
            ("priority".into(), Json::Str(self.priority.as_str().into())),
            ("spec".into(), self.spec.to_json()),
            ("state".into(), Json::Str(self.state.as_str().into())),
            ("result".into(), self.result.clone().unwrap_or(Json::Null)),
            (
                "error".into(),
                self.error.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }

    /// Restores a record written by [`JobRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("record missing 'id'")?;
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or("record missing 'tenant'")?
            .to_string();
        let priority = Priority::parse(
            v.get("priority")
                .and_then(Json::as_str)
                .ok_or("record missing 'priority'")?,
        )?;
        let spec = JobSpec::from_json(v.get("spec").ok_or("record missing 'spec'")?)?;
        let state = JobState::parse(
            v.get("state")
                .and_then(Json::as_str)
                .ok_or("record missing 'state'")?,
        )?;
        let result = match v.get("result") {
            None | Some(Json::Null) => None,
            Some(r) => Some(r.clone()),
        };
        let error = match v.get("error") {
            None | Some(Json::Null) => None,
            Some(e) => Some(e.as_str().ok_or("bad 'error' in record")?.to_string()),
        };
        Ok(JobRecord {
            id,
            tenant,
            priority,
            spec,
            state,
            result,
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec::new(
                JobKind::Scheme {
                    scheme: "cppc".into(),
                    config: "paper".into(),
                    fault: "4x4".into(),
                },
                400,
                0xC11,
            ),
            JobSpec {
                threads: 4,
                shard_size: 16,
                ..JobSpec::new(
                    JobKind::MonteCarlo {
                        rate: 40.0,
                        domains: 8,
                        tavg: 0.0004,
                    },
                    3000,
                    0xCA7,
                )
            },
            JobSpec {
                batch: 32,
                ..JobSpec::new(JobKind::Mbe, 2000, 0xC0DE)
            },
            JobSpec::new(JobKind::Sleep { millis: 3 }, 100, 7),
            JobSpec::new(
                JobKind::Trace {
                    path: "/tmp/t.cppct".into(),
                },
                50,
                0x7ACE,
            ),
            JobSpec::new(
                JobKind::Scheme {
                    scheme: "secded-interleaved".into(),
                    config: "paper".into(),
                    fault: "8x8".into(),
                },
                400,
                0xC11,
            ),
            JobSpec::new(JobKind::Explore { quick: true }, 8, 0xE87A),
            JobSpec::new(JobKind::Explore { quick: false }, 48, 0xE87A),
        ]
    }

    #[test]
    fn spec_json_roundtrip() {
        for spec in specs() {
            let text = spec.to_json().to_string_compact();
            let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn spec_validation() {
        for spec in specs() {
            assert_eq!(spec.validate(), Ok(()));
        }
        let mut bad = specs().remove(0);
        bad.trials = 0;
        assert!(bad.validate().is_err());
        let bad_fault = JobSpec::new(
            JobKind::Scheme {
                scheme: "cppc".into(),
                config: "paper".into(),
                fault: "9x9".into(),
            },
            10,
            1,
        );
        assert!(bad_fault.validate().unwrap_err().contains("9x9"));
        let bad_scheme = JobSpec::new(
            JobKind::Scheme {
                scheme: "hamming".into(),
                config: "paper".into(),
                fault: "4x4".into(),
            },
            10,
            1,
        );
        assert!(bad_scheme.validate().unwrap_err().contains("hamming"));
        let bad_rate = JobSpec::new(
            JobKind::MonteCarlo {
                rate: -1.0,
                domains: 4,
                tavg: 0.1,
            },
            10,
            1,
        );
        assert!(bad_rate.validate().is_err());
        let bad_trace = JobSpec::new(
            JobKind::Trace {
                path: String::new(),
            },
            10,
            1,
        );
        assert!(bad_trace.validate().unwrap_err().contains("path"));
    }

    #[test]
    fn shard_count_is_capped_at_admission() {
        let mut spec = JobSpec::new(JobKind::Sleep { millis: 0 }, MAX_SHARDS, 1);
        spec.shard_size = 1;
        assert_eq!(spec.validate(), Ok(()), "exactly at the cap");
        spec.trials = MAX_SHARDS + 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("shard_size"), "{err}");
        // A larger shard brings the same trials back under the cap.
        spec.shard_size = 2;
        assert_eq!(spec.validate(), Ok(()));
        // The spec that used to abort the engine's slot allocation.
        spec.trials = 1_000_000_000_000;
        spec.shard_size = 1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn batch_is_capped_at_admission() {
        let mut spec = JobSpec::new(JobKind::Mbe, 10, 1);
        spec.batch = MAX_BATCH;
        assert_eq!(spec.validate(), Ok(()), "exactly at the cap");
        spec.batch = MAX_BATCH + 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("batch"), "{err}");
    }

    #[test]
    fn record_roundtrip_with_result_and_error() {
        let mut rec = JobRecord::new(42, "alice".into(), Priority::High, specs().remove(2));
        rec.transition(JobState::Running).unwrap();
        rec.result = Some(Json::parse(r#"{"masked":1,"corrected":2,"due":0,"sdc":0}"#).unwrap());
        rec.error = Some("shard 3 panicked".into());
        let text = rec.to_json().to_string_compact();
        let back = JobRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn state_machine_enforced() {
        let mut rec = JobRecord::new(1, "t".into(), Priority::Normal, specs().remove(3));
        assert!(rec.transition(JobState::Done).is_err(), "queued -> done");
        rec.transition(JobState::Running).unwrap();
        // Restart requeue is legal; terminal states are sinks.
        rec.transition(JobState::Queued).unwrap();
        rec.transition(JobState::Running).unwrap();
        rec.transition(JobState::Done).unwrap();
        let err = rec.transition(JobState::Running).unwrap_err();
        assert!(err.contains("done"), "{err}");
        for s in [JobState::Done, JobState::Failed, JobState::Cancelled] {
            assert!(s.is_terminal());
        }
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn campaign_config_matches_identity() {
        let spec = specs().remove(2);
        let cfg = spec.campaign_config(8);
        assert_eq!(cfg.seed, spec.seed);
        assert_eq!(cfg.trials, spec.trials);
        assert_eq!(cfg.shard_size, spec.shard_size);
        assert_eq!(cfg.threads, 8);
        // Thread count is NOT part of the identity: clamping is safe.
        assert_eq!(spec.campaign_config(1).identity(), cfg.identity());
    }

    #[test]
    fn names_roundtrip() {
        for p in [Priority::High, Priority::Normal] {
            assert_eq!(Priority::parse(p.as_str()), Ok(p));
        }
        assert!(Priority::parse("urgent").is_err());
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Ok(s));
        }
        assert!(JobState::parse("paused").is_err());
    }
}
