//! The daemon: listeners, connection handlers, the dispatch loop and
//! the restart recovery path.
//!
//! One [`serve`] call owns everything: it opens the journal, requeues
//! surviving jobs, binds a unix socket (plus an optional loopback TCP
//! listener), and blocks until a `shutdown` request arrives. Each
//! accepted connection gets a handler thread speaking the
//! [`crate::protocol`] line protocol; a single dispatch loop pulls
//! grants from the [`Scheduler`] and runs each job on its own worker
//! thread via [`crate::runner`].
//!
//! The daemon holds one entry per job in a single map. A queued or
//! running job's entry is its full [`JobRecord`] plus live state. Once
//! a job's terminal record is in the journal, the journal is that job's
//! only full copy: the entry shrinks to a fixed-size summary (id,
//! interned tenant, priority, kind, trials, state), and `result`,
//! `status` and the `watch` end line read the record back through
//! [`JobStore::load`]. So a long-running daemon's memory does not grow
//! with the results it has served. If the terminal journal write fails,
//! the entry keeps the full record and serves it from memory.
//!
//! Graceful shutdown raises every running job's interrupt flag: the
//! engine drains in-flight shards, writes a final checkpoint, and the
//! job's journal entry stays `running` — the next daemon run requeues
//! it and the resumed campaign merges to the bit-identical tally an
//! uninterrupted run produces.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cppc_campaign::json::Json;
use cppc_campaign::metrics::Progress;
use cppc_campaign::{CheckpointPolicy, RunOpts};

use crate::job::{JobId, JobRecord, JobState, Priority};
use crate::obs;
use crate::protocol::{error_response, ok_response, Request};
use crate::runner::RunEnd;
use crate::scheduler::{Grant, Scheduler};
use crate::store::JobStore;

/// How often blocked loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(20);
/// Cadence of `watch` progress lines while a job's state holds still;
/// a state change is reported as soon as it happens.
const WATCH_TICK: Duration = Duration::from_millis(50);
/// Longest request line (newline included) a connection may send;
/// a longer one gets an error response and the connection closes.
const MAX_REQUEST_LINE: usize = 1 << 20;
/// Input discarded after refusing an over-long line, so the close that
/// follows is a clean end of stream rather than a reset.
const REFUSED_LINE_DRAIN: u64 = 4 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Journal + checkpoint root.
    pub data_dir: PathBuf,
    /// Unix socket to listen on (created, removed on exit).
    pub socket_path: PathBuf,
    /// Optional extra loopback TCP listener, e.g. `127.0.0.1:7070`.
    pub tcp_addr: Option<String>,
    /// Admission bound: queued jobs beyond this are rejected with a
    /// retry hint.
    pub queue_cap: usize,
    /// Governor bound on total worker threads across running jobs.
    pub max_threads: usize,
    /// Checkpoint cadence for every job: the minimum wall-clock time
    /// between periodic writes (`Duration::ZERO` = after every shard).
    /// A job's final and interrupt checkpoints are written regardless.
    pub checkpoint_every: Duration,
}

impl ServerConfig {
    /// Defaults: queue of 64, threads = hardware parallelism,
    /// checkpoint at most once a second, no TCP.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>, socket_path: impl Into<PathBuf>) -> Self {
        ServerConfig {
            data_dir: data_dir.into(),
            socket_path: socket_path.into(),
            tcp_addr: None,
            queue_cap: 64,
            max_threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            checkpoint_every: Duration::from_secs(1),
        }
    }
}

/// A job whose full record the daemon holds: the durable record plus
/// per-job live state.
struct LiveJob {
    record: JobRecord,
    /// Raised to stop the engine cooperatively (cancel or shutdown).
    interrupt: Arc<AtomicBool>,
    /// Distinguishes a client cancel (terminal) from a shutdown
    /// suspension (job stays `running` in the journal and resumes).
    cancel_requested: Arc<AtomicBool>,
    /// Latest engine progress snapshot, for `status` and `watch`.
    progress: Arc<Mutex<Option<Progress>>>,
}

/// A finished job whose journal entry holds its result or error: what
/// `list` and `cancel` need, in a fixed size.
#[derive(Clone)]
struct JobSummary {
    id: JobId,
    /// Shared by every finished job of the tenant.
    tenant: Arc<str>,
    priority: Priority,
    kind: &'static str,
    trials: u64,
    state: JobState,
}

/// One job in the daemon's map.
enum JobEntry {
    /// Queued or running, or finished but not journalled.
    Live(Box<LiveJob>),
    /// Finished, with the journal as its only full copy.
    Finished(JobSummary),
}

impl JobEntry {
    fn live(record: JobRecord) -> Self {
        JobEntry::Live(Box::new(LiveJob {
            record,
            interrupt: Arc::new(AtomicBool::new(false)),
            cancel_requested: Arc::new(AtomicBool::new(false)),
            progress: Arc::new(Mutex::new(None)),
        }))
    }

    fn state(&self) -> JobState {
        match self {
            JobEntry::Live(job) => job.record.state,
            JobEntry::Finished(s) => s.state,
        }
    }

    fn tenant(&self) -> &str {
        match self {
            JobEntry::Live(job) => &job.record.tenant,
            JobEntry::Finished(s) => &s.tenant,
        }
    }

    /// The job's `list` row.
    fn summary(&self) -> Vec<(String, Json)> {
        match self {
            JobEntry::Live(job) => record_summary(&job.record),
            JobEntry::Finished(s) => {
                summary_fields(s.id, &s.tenant, s.priority, s.kind, s.trials, s.state)
            }
        }
    }
}

/// The daemon's job map, plus the tenant names finished jobs share.
#[derive(Default)]
struct Jobs {
    map: HashMap<JobId, JobEntry>,
    tenants: HashSet<Arc<str>>,
}

impl Jobs {
    fn live_mut(&mut self, id: JobId) -> Option<&mut LiveJob> {
        match self.map.get_mut(&id) {
            Some(JobEntry::Live(job)) => Some(job),
            _ => None,
        }
    }
}

impl JobSummary {
    /// `record`'s summary, its tenant name interned in `tenants`.
    fn of(record: &JobRecord, tenants: &mut HashSet<Arc<str>>) -> Self {
        let tenant = tenants
            .get(record.tenant.as_str())
            .cloned()
            .unwrap_or_else(|| {
                let t: Arc<str> = Arc::from(record.tenant.as_str());
                tenants.insert(Arc::clone(&t));
                t
            });
        JobSummary {
            id: record.id,
            tenant,
            priority: record.priority,
            kind: record.spec.kind.name(),
            trials: record.spec.trials,
            state: record.state,
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    store: JobStore,
    sched: Scheduler,
    jobs: Mutex<Jobs>,
    /// Paired with `jobs`: notified on every job state transition and
    /// on shutdown, so `watch` reports each change as it happens.
    state_changed: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Idempotent graceful-shutdown trigger: stop admitting, wake the
    /// dispatch loop, and suspend running jobs via their interrupt
    /// flags (without marking them cancelled).
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.sched.shutdown();
        let jobs = self.jobs.lock().expect("jobs lock");
        for entry in jobs.map.values() {
            match entry {
                JobEntry::Live(job) if job.record.state == JobState::Running => {
                    job.interrupt.store(true, Ordering::SeqCst);
                }
                _ => {}
            }
        }
        self.state_changed.notify_all();
    }

    /// Moves `record` to `state`, journals it and wakes every `watch`;
    /// returns whether the journal write succeeded. The caller holds
    /// the `jobs` lock `record` lives under, so a watcher cannot miss
    /// the change between checking and waiting.
    fn transition(&self, record: &mut JobRecord, state: JobState) -> Result<bool, String> {
        record.transition(state)?;
        let journalled = self.persist_or_log(record);
        self.state_changed.notify_all();
        Ok(journalled)
    }

    /// Moves live job `id` to terminal `state` and journals it. Once
    /// the journal holds the terminal record the entry shrinks to its
    /// summary; if the write fails, the full record stays in memory.
    fn finish(&self, jobs: &mut Jobs, id: JobId, state: JobState) {
        let Some(entry) = jobs.map.get_mut(&id) else {
            return;
        };
        let JobEntry::Live(job) = entry else {
            return;
        };
        match self.transition(&mut job.record, state) {
            Ok(true) => {
                *entry = JobEntry::Finished(JobSummary::of(&job.record, &mut jobs.tenants));
            }
            Ok(false) => {}
            Err(e) => eprintln!("serve: {e}"),
        }
    }

    /// Journals `record`; returns whether the write succeeded.
    fn persist_or_log(&self, record: &JobRecord) -> bool {
        match self.store.persist(record) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("serve: failed to journal job {}: {e}", record.id);
                false
            }
        }
    }

    /// Finished job `s`'s full record, read back from the journal.
    fn load_finished(&self, s: &JobSummary) -> Result<JobRecord, String> {
        let record = self
            .store
            .load(s.id)
            .map_err(|e| format!("job {} journal entry unreadable: {e}", s.id))?;
        if record.state != s.state {
            return Err(format!(
                "job {} journal entry says {}, not {}",
                s.id,
                record.state.as_str(),
                s.state.as_str()
            ));
        }
        Ok(record)
    }
}

/// Runs the daemon until a `shutdown` request; returns once every
/// worker has checkpointed and exited.
///
/// # Errors
///
/// Returns the I/O error if the data dir or a listener cannot be set
/// up. Per-connection and per-job I/O problems are reported on stderr
/// and do not take the daemon down.
pub fn serve(cfg: ServerConfig) -> io::Result<()> {
    obs::register_metrics();
    let store = JobStore::open(&cfg.data_dir)?;
    // A previous unclean exit may have left the socket file behind.
    let _ = std::fs::remove_file(&cfg.socket_path);
    let unix = UnixListener::bind(&cfg.socket_path)?;
    unix.set_nonblocking(true)?;
    let tcp = match &cfg.tcp_addr {
        None => None,
        Some(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
    };
    let sched = Scheduler::new(cfg.queue_cap, cfg.max_threads);
    let socket_path = cfg.socket_path.clone();
    let shared = Arc::new(Shared {
        cfg,
        store,
        sched,
        jobs: Mutex::new(Jobs::default()),
        state_changed: Condvar::new(),
        next_id: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
    });
    recover(&shared)?;

    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || dispatch_loop(&shared))
    };
    let tcp_thread = tcp.map(|listener| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, || listener.accept().map(|(s, _)| s)))
    });
    eprintln!(
        "cppc-serve: listening on {} (queue {} / {} threads)",
        socket_path.display(),
        shared.cfg.queue_cap,
        shared.cfg.max_threads
    );
    accept_loop(&shared, || unix.accept().map(|(s, _)| s));

    dispatcher.join().expect("dispatch loop panicked");
    if let Some(t) = tcp_thread {
        t.join().expect("tcp accept loop panicked");
    }
    let _ = std::fs::remove_file(&socket_path);
    eprintln!("cppc-serve: shut down cleanly");
    Ok(())
}

/// Loads the journal: terminal jobs become queryable history (kept as
/// summaries, like jobs that finish in this run), queued and
/// (previously) running jobs are requeued — running ones resume from
/// their checkpoints.
fn recover(shared: &Arc<Shared>) -> io::Result<()> {
    let records = shared.store.load_all()?;
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    for mut record in records {
        let id = record.id;
        if id >= shared.next_id.load(Ordering::SeqCst) {
            shared.next_id.store(id + 1, Ordering::SeqCst);
        }
        match record.state {
            JobState::Done | JobState::Failed | JobState::Cancelled => {
                let summary = JobSummary::of(&record, &mut jobs.tenants);
                jobs.map.insert(id, JobEntry::Finished(summary));
                continue;
            }
            JobState::Queued => {
                shared
                    .sched
                    .restore(id, &record.tenant, record.priority, record.spec.threads);
            }
            JobState::Running => {
                obs::JOBS_REQUEUED.inc();
                record
                    .transition(JobState::Queued)
                    .expect("running->queued");
                shared.persist_or_log(&record);
                shared
                    .sched
                    .restore(id, &record.tenant, record.priority, record.spec.threads);
            }
        }
        jobs.map.insert(id, JobEntry::live(record));
    }
    if !jobs.map.is_empty() {
        eprintln!(
            "cppc-serve: recovered {} journalled job(s), {} requeued",
            jobs.map.len(),
            shared.sched.depth()
        );
    }
    Ok(())
}

/// Pulls grants until shutdown, running each job on its own worker
/// thread; joins all workers before returning so `serve` only exits
/// once every final checkpoint is on disk.
fn dispatch_loop(shared: &Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while let Some(grant) = shared.sched.next() {
        let shared = Arc::clone(shared);
        workers.push(std::thread::spawn(move || run_job(&shared, grant)));
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Executes one granted job end to end and journals its outcome.
fn run_job(shared: &Arc<Shared>, grant: Grant) {
    let (spec, interrupt, cancel_requested, progress) = {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        // A job cancelled between grant and dispatch is already
        // finished (and may be a summary by now).
        let Some(job) = jobs.live_mut(grant.id) else {
            shared.sched.release(grant.threads);
            return;
        };
        if shared
            .transition(&mut job.record, JobState::Running)
            .is_err()
        {
            shared.sched.release(grant.threads);
            return;
        }
        (
            job.record.spec.clone(),
            Arc::clone(&job.interrupt),
            Arc::clone(&job.cancel_requested),
            Arc::clone(&job.progress),
        )
    };

    let started = Instant::now();
    let policy = CheckpointPolicy {
        path: shared.store.checkpoint_path(grant.id),
        every: shared.cfg.checkpoint_every,
        resume: true,
    };
    let end = crate::runner::execute(
        &spec,
        grant.threads,
        RunOpts {
            checkpoint: Some(&policy),
            interrupt: Some(&interrupt),
            progress: Some(&mut |p| *progress.lock().expect("progress lock") = Some(p.clone())),
        },
    );
    obs::JOB_LATENCY.record_ns(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));

    let mut jobs = shared.jobs.lock().expect("jobs lock");
    // Only this worker can end a running job, so it is still live.
    let job = jobs.live_mut(grant.id).expect("running job is live");
    match end {
        RunEnd::Complete { result } => {
            job.record.result = Some(result);
            shared.finish(&mut jobs, grant.id, JobState::Done);
            shared.store.remove_checkpoint(grant.id);
            obs::JOBS_DONE.inc();
        }
        RunEnd::Failed { error } => {
            job.record.error = Some(error);
            shared.finish(&mut jobs, grant.id, JobState::Failed);
            obs::JOBS_FAILED.inc();
        }
        RunEnd::Interrupted => {
            if cancel_requested.load(Ordering::SeqCst) {
                shared.finish(&mut jobs, grant.id, JobState::Cancelled);
                shared.store.remove_checkpoint(grant.id);
                obs::JOBS_CANCELLED.inc();
            }
            // Otherwise this is a shutdown suspension: the journal
            // keeps the job `running`, and the next daemon run
            // requeues it to resume from the checkpoint just written.
        }
    }
    drop(jobs);
    shared.sched.release(grant.threads);
}

/// Accepts connections from a nonblocking listener until shutdown,
/// handing each to its own handler thread.
fn accept_loop<S, F>(shared: &Arc<Shared>, mut accept: F)
where
    S: Read + Write + SetReadTimeout + Send + 'static,
    F: FnMut() -> io::Result<S>,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutting_down() {
        match accept() {
            Ok(stream) => {
                obs::CONNECTIONS.inc();
                let shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(&shared, stream)
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => {
                eprintln!("serve: accept error: {e}");
                std::thread::sleep(POLL);
            }
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// The `set_read_timeout` surface shared by unix and TCP streams
/// (std does not unify it in a trait), with the write-half shutdown.
trait SetReadTimeout {
    fn set_read_timeout_(&self, t: Option<Duration>) -> io::Result<()>;
    fn set_blocking(&self) -> io::Result<()>;
    fn shutdown_write(&self) -> io::Result<()>;
}

impl SetReadTimeout for std::os::unix::net::UnixStream {
    fn set_read_timeout_(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_blocking(&self) -> io::Result<()> {
        self.set_nonblocking(false)
    }
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
}

impl SetReadTimeout for std::net::TcpStream {
    fn set_read_timeout_(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_blocking(&self) -> io::Result<()> {
        self.set_nonblocking(false)
    }
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
}

/// Serves one connection: a loop of request lines, each answered on
/// the same stream. Read timeouts keep the loop responsive to
/// shutdown; any I/O error simply ends the connection, and so does a
/// line longer than [`MAX_REQUEST_LINE`]: after the error response the
/// daemon shuts its write half and discards input until end of stream,
/// one read timeout or [`REFUSED_LINE_DRAIN`] bytes. Closing with the
/// line's tail unread would make the kernel reset the connection, and
/// the client could lose the response to the reset.
fn handle_connection<S: Read + Write + SetReadTimeout>(shared: &Arc<Shared>, stream: S) {
    // Accepted sockets can inherit the listener's nonblocking mode.
    if stream.set_blocking().is_err() || stream.set_read_timeout_(Some(POLL * 10)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // A partial line survives read timeouts, so bound the whole
        // line, not each read: one byte past the cap rejects it.
        let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) if line.len() > MAX_REQUEST_LINE => {
                obs::REQUESTS.inc();
                let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                let _ = write_json(reader.get_mut(), &error_response(&message, None));
                let _ = reader.get_ref().shutdown_write();
                let _ = io::copy(&mut reader.take(REFUSED_LINE_DRAIN), &mut io::sink());
                return;
            }
            Ok(_) => {
                let handled = match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => Ok(()),
                    Ok(request) => handle_line(shared, request, &mut reader),
                    Err(_) => {
                        obs::REQUESTS.inc();
                        write_json(
                            reader.get_mut(),
                            &error_response("request is not UTF-8", None),
                        )
                    }
                };
                if handled.is_err() {
                    return;
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn write_json<W: Write>(out: &mut W, doc: &Json) -> io::Result<()> {
    out.write_all(doc.to_string_compact().as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

/// Parses and executes one request line, writing the response line(s).
fn handle_line<S: Read + Write>(
    shared: &Arc<Shared>,
    line: &str,
    reader: &mut BufReader<S>,
) -> io::Result<()> {
    obs::REQUESTS.inc();
    let request = Json::parse(line)
        .map_err(|e| format!("bad JSON: {e}"))
        .and_then(|doc| Request::from_json(&doc));
    let out = reader.get_mut();
    match request {
        Err(message) => write_json(out, &error_response(&message, None)),
        Ok(Request::Submit {
            tenant,
            priority,
            spec,
        }) => {
            let response = submit(shared, &tenant, priority, spec);
            write_json(out, &response)
        }
        Ok(Request::Status(id)) => {
            let response = status(shared, id);
            write_json(out, &response)
        }
        Ok(Request::Result(id)) => {
            let response = result_of(shared, id);
            write_json(out, &response)
        }
        Ok(Request::Cancel(id)) => {
            let response = cancel(shared, id);
            write_json(out, &response)
        }
        Ok(Request::List { tenant }) => {
            let response = list(shared, tenant.as_deref());
            write_json(out, &response)
        }
        Ok(Request::Metrics) => {
            let rendered = cppc_obs::export::render_json(&cppc_obs::export::snapshot());
            let doc = Json::parse(&rendered).unwrap_or(Json::Null);
            write_json(out, &ok_response(vec![("metrics".into(), doc)]))
        }
        Ok(Request::Watch(id)) => watch(shared, id, out),
        Ok(Request::Shutdown) => {
            write_json(out, &ok_response(vec![]))?;
            shared.begin_shutdown();
            Ok(())
        }
    }
}

fn submit(
    shared: &Arc<Shared>,
    tenant: &str,
    priority: Priority,
    spec: crate::job::JobSpec,
) -> Json {
    if shared.shutting_down() {
        return error_response("daemon is shutting down", Some(1000));
    }
    if let Err(e) = spec.validate() {
        return error_response(&format!("invalid spec: {e}"), None);
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let record = JobRecord::new(id, tenant.to_string(), priority, spec.clone());
    if let Err(e) = shared.store.persist(&record) {
        return error_response(&format!("cannot journal job: {e}"), None);
    }
    // Journal first, then admit: a job the scheduler knows about is
    // always durable. Roll the journal entry back on backpressure.
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    match shared.sched.submit(id, tenant, priority, spec.threads) {
        Ok(()) => {
            jobs.map.insert(id, JobEntry::live(record));
            obs::JOBS_SUBMITTED.inc();
            ok_response(vec![("id".into(), Json::UInt(id))])
        }
        Err(bp) => {
            drop(jobs);
            if let Err(e) = shared.store.remove_record(id) {
                eprintln!("serve: failed to roll back job {id}: {e}");
            }
            error_response("queue full", Some(bp.retry_after_ms.max(50)))
        }
    }
}

fn summary_fields(
    id: JobId,
    tenant: &str,
    priority: Priority,
    kind: &str,
    trials: u64,
    state: JobState,
) -> Vec<(String, Json)> {
    vec![
        ("id".into(), Json::UInt(id)),
        ("tenant".into(), Json::Str(tenant.into())),
        ("priority".into(), Json::Str(priority.as_str().into())),
        ("kind".into(), Json::Str(kind.into())),
        ("trials".into(), Json::UInt(trials)),
        ("state".into(), Json::Str(state.as_str().into())),
    ]
}

fn record_summary(record: &JobRecord) -> Vec<(String, Json)> {
    summary_fields(
        record.id,
        &record.tenant,
        record.priority,
        record.spec.kind.name(),
        record.spec.trials,
        record.state,
    )
}

/// Answers a query about job `id` from its full record: a live job's
/// under the jobs lock, a finished job's read from the journal once
/// the lock is released.
fn query(
    shared: &Shared,
    id: JobId,
    answer: impl Fn(&JobRecord, Option<&LiveJob>) -> Json,
) -> Json {
    let summary = {
        let jobs = shared.jobs.lock().expect("jobs lock");
        match jobs.map.get(&id) {
            None => return error_response(&format!("unknown job {id}"), None),
            Some(JobEntry::Live(job)) => return answer(&job.record, Some(job)),
            Some(JobEntry::Finished(s)) => s.clone(),
        }
    };
    match shared.load_finished(&summary) {
        Ok(record) => answer(&record, None),
        Err(e) => error_response(&e, None),
    }
}

fn status(shared: &Arc<Shared>, id: JobId) -> Json {
    query(shared, id, |record, live| {
        let mut fields = record_summary(record);
        if let Some(e) = &record.error {
            fields.push(("error".into(), Json::Str(e.clone())));
        }
        if let Some(job) = live.filter(|_| record.state == JobState::Running) {
            if let Some(p) = job.progress.lock().expect("progress lock").as_ref() {
                fields.extend(progress_fields(p));
            }
        }
        ok_response(fields)
    })
}

fn progress_fields(p: &Progress) -> Vec<(String, Json)> {
    vec![
        ("trials_done".into(), Json::UInt(p.trials_done)),
        ("trials_total".into(), Json::UInt(p.trials_total)),
        ("trials_per_sec".into(), Json::Num(p.trials_per_sec)),
        ("eta_secs".into(), Json::Num(p.eta_secs)),
        ("elapsed_secs".into(), Json::Num(p.elapsed_secs)),
        (
            "counters".into(),
            Json::Obj(
                p.counters
                    .iter()
                    .map(|&(label, count)| (label.to_string(), Json::UInt(count)))
                    .collect(),
            ),
        ),
    ]
}

fn result_of(shared: &Arc<Shared>, id: JobId) -> Json {
    query(shared, id, |record, _| {
        match (&record.state, &record.result) {
            (JobState::Done, Some(result)) => ok_response(vec![
                ("id".into(), Json::UInt(id)),
                ("result".into(), result.clone()),
            ]),
            (JobState::Failed, _) => {
                error_response(record.error.as_deref().unwrap_or("job failed"), None)
            }
            (JobState::Cancelled, _) => error_response(&format!("job {id} was cancelled"), None),
            _ => error_response(&format!("job {id} is {}", record.state.as_str()), None),
        }
    })
}

fn cancel(shared: &Arc<Shared>, id: JobId) -> Json {
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    let Some(entry) = jobs.map.get(&id) else {
        return error_response(&format!("unknown job {id}"), None);
    };
    match (entry, entry.state()) {
        (JobEntry::Live(_), JobState::Queued) if shared.sched.remove(id) => {
            shared.finish(&mut jobs, id, JobState::Cancelled);
            shared.store.remove_checkpoint(id);
            obs::JOBS_CANCELLED.inc();
            ok_response(vec![("state".into(), Json::Str("cancelled".into()))])
        }
        // Running, or granted but not yet marked running: flag it so
        // the worker stops at a shard boundary (or the moment it starts).
        (JobEntry::Live(job), JobState::Queued | JobState::Running) => {
            job.cancel_requested.store(true, Ordering::SeqCst);
            job.interrupt.store(true, Ordering::SeqCst);
            ok_response(vec![("state".into(), Json::Str("cancelling".into()))])
        }
        (_, state) => error_response(&format!("job {id} already {}", state.as_str()), None),
    }
}

fn list(shared: &Arc<Shared>, tenant: Option<&str>) -> Json {
    let jobs = shared.jobs.lock().expect("jobs lock");
    let mut rows: Vec<(JobId, Json)> = jobs
        .map
        .iter()
        .filter(|(_, e)| tenant.is_none_or(|t| e.tenant() == t))
        .map(|(&id, e)| (id, Json::Obj(e.summary())))
        .collect();
    rows.sort_unstable_by_key(|&(id, _)| id);
    let rows = rows.into_iter().map(|(_, row)| row).collect();
    ok_response(vec![("jobs".into(), Json::Arr(rows))])
}

/// The `watch` end line of a finished job.
fn end_event(record: &JobRecord) -> Json {
    let mut fields = vec![
        ("event".to_string(), Json::Str("end".into())),
        ("state".to_string(), Json::Str(record.state.as_str().into())),
    ];
    if let Some(r) = &record.result {
        fields.push(("result".into(), r.clone()));
    }
    if let Some(e) = &record.error {
        fields.push(("error".into(), Json::Str(e.clone())));
    }
    Json::Obj(fields)
}

/// Streams `{"event":"progress",...}` lines until the job is terminal
/// (or the daemon shuts down), then one `{"event":"end",...}` line.
///
/// The first line reports the current state. After that a line goes
/// out as soon as the state changes, and every [`WATCH_TICK`] while it
/// holds (live progress of a running job).
fn watch<W: Write>(shared: &Arc<Shared>, id: JobId, out: &mut W) -> io::Result<()> {
    obs::WATCH_STREAMS.inc();
    let mut reported: Option<JobState> = None;
    loop {
        enum Tick {
            Progress(Json),
            End(Json),
            /// Finished: the end line comes from the journal.
            Journalled(JobSummary),
        }
        let tick = {
            let mut jobs = shared.jobs.lock().expect("jobs lock");
            if let Some(last) = reported {
                jobs = shared
                    .state_changed
                    .wait_timeout_while(jobs, WATCH_TICK, |jobs| {
                        !shared.shutting_down()
                            && jobs.map.get(&id).is_some_and(|e| e.state() == last)
                    })
                    .expect("jobs lock")
                    .0;
            }
            let Some(entry) = jobs.map.get(&id) else {
                return write_json(out, &error_response(&format!("unknown job {id}"), None));
            };
            let state = entry.state();
            reported = Some(state);
            match entry {
                JobEntry::Finished(s) => Tick::Journalled(s.clone()),
                JobEntry::Live(job) if state.is_terminal() => Tick::End(end_event(&job.record)),
                JobEntry::Live(_) if shared.shutting_down() => Tick::End(Json::Obj(vec![
                    ("event".to_string(), Json::Str("end".into())),
                    ("state".to_string(), Json::Str(state.as_str().into())),
                    (
                        "error".to_string(),
                        Json::Str("daemon shutting down; job suspended".into()),
                    ),
                ])),
                JobEntry::Live(job) => {
                    let mut fields = vec![
                        ("event".to_string(), Json::Str("progress".into())),
                        ("state".to_string(), Json::Str(state.as_str().into())),
                    ];
                    if let Some(p) = job.progress.lock().expect("progress lock").as_ref() {
                        fields.extend(progress_fields(p));
                    }
                    Tick::Progress(Json::Obj(fields))
                }
            }
        };
        match tick {
            Tick::End(doc) => return write_json(out, &doc),
            Tick::Journalled(s) => {
                let doc = shared
                    .load_finished(&s)
                    .map_or_else(|e| error_response(&e, None), |r| end_event(&r));
                return write_json(out, &doc);
            }
            Tick::Progress(doc) => write_json(out, &doc)?,
        }
    }
}
