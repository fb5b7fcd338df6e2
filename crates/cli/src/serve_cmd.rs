//! The `serve` daemon subcommand and the thin client subcommands
//! (`submit`, `status`, `result`, `cancel`, `list`, `watch`,
//! `metrics`, `shutdown`) that talk to it.
//!
//! Every client subcommand takes `--socket <path>` (default
//! [`DEFAULT_SOCKET`]) or `--tcp 127.0.0.1:<port>` and speaks the
//! newline-delimited JSON protocol from `cppc_serve::protocol`.
//! Machine-readable output (job ids, result documents) goes to stdout;
//! everything informational goes to stderr, so the outputs compose in
//! shell pipelines and the CI smoke gate can diff them.

use std::error::Error;
use std::path::Path;
use std::time::Duration;

use cppc_campaign::json::Json;
use cppc_serve::{Client, JobId, JobKind, JobSpec, Priority, ServerConfig};

use crate::args::{ArgsError, ParsedArgs};

type CliResult = Result<(), Box<dyn Error>>;

/// Default unix socket shared by the daemon and the clients.
pub const DEFAULT_SOCKET: &str = "/tmp/cppc-serve.sock";

/// Default journal/checkpoint root of the daemon.
pub const DEFAULT_DATA_DIR: &str = "cppc-serve-data";

/// `serve` — run the daemon in the foreground until a `shutdown`
/// request (or fatal listener error).
pub fn serve_daemon(args: &ParsedArgs) -> CliResult {
    let mut cfg = ServerConfig::new(
        args.get_or("data-dir", DEFAULT_DATA_DIR),
        args.get_or("socket", DEFAULT_SOCKET),
    );
    cfg.tcp_addr = args.get("tcp").map(ToString::to_string);
    cfg.queue_cap = args.get_parsed("queue-cap", cfg.queue_cap)?;
    cfg.max_threads = args.get_parsed("max-threads", cfg.max_threads)?;
    let default_ms = u64::try_from(cfg.checkpoint_every.as_millis()).unwrap_or(u64::MAX);
    cfg.checkpoint_every =
        Duration::from_millis(args.get_parsed("checkpoint-every-ms", default_ms)?);
    if cfg.queue_cap == 0 || cfg.max_threads == 0 {
        return Err("--queue-cap and --max-threads must be positive".into());
    }
    crate::commands::register_all_metrics();
    eprintln!(
        "cppc-serve: data dir {}  socket {}  tcp {}  queue {}  max threads {}",
        cfg.data_dir.display(),
        cfg.socket_path.display(),
        cfg.tcp_addr.as_deref().unwrap_or("off"),
        cfg.queue_cap,
        cfg.max_threads,
    );
    cppc_serve::serve(cfg)?;
    eprintln!("cppc-serve: stopped");
    Ok(())
}

/// Connects to the daemon named by `--socket`/`--tcp`.
fn connect(args: &ParsedArgs) -> Result<Client, Box<dyn Error>> {
    if let Some(addr) = args.get("tcp") {
        return Ok(Client::connect_tcp(addr)
            .map_err(|e| format!("cannot connect to daemon at {addr}: {e}"))?);
    }
    let path = args.get_or("socket", DEFAULT_SOCKET);
    Ok(Client::connect_unix(Path::new(path))
        .map_err(|e| format!("cannot connect to daemon at {path}: {e}"))?)
}

/// The mandatory `--id` of the status/result/cancel/watch commands.
fn job_id(args: &ParsedArgs) -> Result<JobId, Box<dyn Error>> {
    if args.get("id").is_none() {
        return Err("missing --id <job>".into());
    }
    Ok(args.get_parsed("id", 0)?)
}

/// Builds a [`JobSpec`] from the `--kind`-keyed flags `campaign` and
/// `submit` share, validating before anything runs or hits the wire.
/// `default_threads` is the caller's `--threads` default.
pub(crate) fn spec_from_args(
    args: &ParsedArgs,
    default_threads: usize,
) -> Result<JobSpec, Box<dyn Error>> {
    let kind = match args.get_or("kind", "scheme") {
        "scheme" => JobKind::Scheme {
            scheme: args.get_or("scheme", "cppc").to_string(),
            config: args.get_or("config", "paper").to_string(),
            fault: args.get_or("fault", "4x4").to_string(),
        },
        "montecarlo" => JobKind::MonteCarlo {
            rate: args.get_parsed("rate", 40.0)?,
            domains: args.get_parsed("domains", 8u32)?,
            tavg: args.get_parsed("tavg", 0.0004)?,
        },
        "mbe" => JobKind::Mbe,
        "sleep" => JobKind::Sleep {
            millis: args.get_parsed("sleep-ms", 0)?,
        },
        "trace" => JobKind::Trace {
            // The path is resolved on the daemon's host, not the
            // submitting one; absolute paths travel best.
            path: args
                .get("trace")
                .ok_or("--kind trace requires --trace <file>")?
                .to_string(),
        },
        // `--trials`/`--seed` override the tier's per-config campaign
        // parameters, so small smoke sweeps can run through the daemon.
        "explore" => JobKind::Explore {
            quick: args.get_flag("quick"),
        },
        other => {
            return Err(format!(
                "unknown kind '{other}' (use scheme|montecarlo|mbe|sleep|trace|explore)"
            )
            .into())
        }
    };
    let mut spec = JobSpec::new(kind, args.get_parsed("trials", 2000)?, seed_arg(args)?);
    // `--threads 0` resolves to every CPU on the executing host (the
    // daemon's, for a submitted job).
    spec.threads = args.get_parsed("threads", default_threads)?;
    spec.shard_size = args.get_parsed("shard-size", spec.shard_size)?;
    spec.batch = args.get_parsed("batch", spec.batch)?;
    spec.validate()?;
    Ok(spec)
}

/// `--seed` in decimal or in the `0x…` hex form the campaign banner
/// prints (default `0xC11`).
fn seed_arg(args: &ParsedArgs) -> Result<u64, ArgsError> {
    let hex = args
        .get("seed")
        .and_then(|v| v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")));
    match hex {
        None => args.get_parsed("seed", 0xC11),
        Some(digits) => u64::from_str_radix(digits, 16).map_err(|_| ArgsError::BadValue {
            option: "seed".into(),
            value: args.get_or("seed", "").into(),
        }),
    }
}

/// `submit` — prints the new job id to stdout (`--watch` then streams
/// it like `watch` does).
pub fn submit(args: &ParsedArgs) -> CliResult {
    let spec = spec_from_args(args, 1)?;
    let tenant = args.get_or("tenant", "default");
    let priority = Priority::parse(args.get_or("priority", "normal"))?;
    let mut client = connect(args)?;
    let id = client.submit(tenant, priority, spec)?;
    if args.get_flag("watch") {
        eprintln!("submitted job {id}");
        return watch_stream(&mut client, id);
    }
    println!("{id}");
    Ok(())
}

/// `status` — one compact JSON document on stdout.
pub fn status(args: &ParsedArgs) -> CliResult {
    let doc = connect(args)?.status(job_id(args)?)?;
    println!("{}", doc.to_string_compact());
    Ok(())
}

/// `result` — the finished job's result document on stdout (error exit
/// while the job is still queued/running or when it failed).
pub fn result(args: &ParsedArgs) -> CliResult {
    let doc = connect(args)?.result(job_id(args)?)?;
    println!("{}", doc.to_string_compact());
    Ok(())
}

/// `cancel` — acknowledgement on stdout (`cancelled` or `cancelling`).
pub fn cancel(args: &ParsedArgs) -> CliResult {
    let id = job_id(args)?;
    let doc = connect(args)?.cancel(id)?;
    let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
    println!("job {id}: {state}");
    Ok(())
}

/// `list` — one summary row per job, oldest first.
pub fn list(args: &ParsedArgs) -> CliResult {
    let rows = connect(args)?.list(args.get("tenant"))?;
    println!(
        "{:>6}  {:<10} {:<8} {:<10} {:>8}  state",
        "id", "tenant", "priority", "kind", "trials"
    );
    for row in rows {
        let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let u = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "{:>6}  {:<10} {:<8} {:<10} {:>8}  {}",
            u("id"),
            s("tenant"),
            s("priority"),
            s("kind"),
            u("trials"),
            s("state"),
        );
    }
    Ok(())
}

/// `watch` — live progress on stderr; on completion the result
/// document on stdout (non-zero exit when the job fails, is cancelled
/// or is suspended by a daemon shutdown).
pub fn watch(args: &ParsedArgs) -> CliResult {
    let id = job_id(args)?;
    let mut client = connect(args)?;
    watch_stream(&mut client, id)
}

fn watch_stream(client: &mut Client, id: JobId) -> CliResult {
    let end = client.watch(id, |event| {
        let state = event.get("state").and_then(Json::as_str).unwrap_or("?");
        match (
            event.get("trials_done").and_then(Json::as_u64),
            event.get("trials_total").and_then(Json::as_u64),
        ) {
            (Some(done), Some(total)) => {
                let eta = event.get("eta_secs").and_then(Json::as_f64).unwrap_or(0.0);
                eprintln!("job {id}: {state}  {done}/{total} trials  eta {eta:.1}s");
            }
            _ => eprintln!("job {id}: {state}"),
        }
    })?;
    match end.get("state").and_then(Json::as_str) {
        Some("done") => {
            let result = end.get("result").cloned().unwrap_or(Json::Null);
            println!("{}", result.to_string_compact());
            Ok(())
        }
        Some(state) => {
            let detail = end
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("no diagnostic");
            Err(format!("job {id} ended {state}: {detail}").into())
        }
        None => Err(format!("job {id}: watch stream ended without a state").into()),
    }
}

/// `metrics` — the daemon's live metrics snapshot as JSON on stdout.
pub fn metrics(args: &ParsedArgs) -> CliResult {
    let doc = connect(args)?.metrics()?;
    println!("{}", doc.to_string_compact());
    Ok(())
}

/// `shutdown` — asks the daemon to checkpoint running jobs and exit.
pub fn shutdown(args: &ParsedArgs) -> CliResult {
    connect(args)?.shutdown()?;
    eprintln!("shutdown requested");
    Ok(())
}
