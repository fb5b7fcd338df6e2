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
//! Graceful shutdown raises every running job's interrupt flag: the
//! engine drains in-flight shards, writes a final checkpoint, and the
//! job's journal entry stays `running` — the next daemon run requeues
//! it and the resumed campaign merges to the bit-identical tally an
//! uninterrupted run produces.

use std::collections::HashMap;
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

/// Per-job live state alongside the durable record.
struct JobEntry {
    record: JobRecord,
    /// Raised to stop the engine cooperatively (cancel or shutdown).
    interrupt: Arc<AtomicBool>,
    /// Distinguishes a client cancel (terminal) from a shutdown
    /// suspension (job stays `running` in the journal and resumes).
    cancel_requested: Arc<AtomicBool>,
    /// Latest engine progress snapshot, for `status` and `watch`.
    progress: Arc<Mutex<Option<Progress>>>,
}

impl JobEntry {
    fn new(record: JobRecord) -> Self {
        JobEntry {
            record,
            interrupt: Arc::new(AtomicBool::new(false)),
            cancel_requested: Arc::new(AtomicBool::new(false)),
            progress: Arc::new(Mutex::new(None)),
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    store: JobStore,
    sched: Scheduler,
    jobs: Mutex<HashMap<JobId, JobEntry>>,
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
        for entry in jobs.values() {
            if entry.record.state == JobState::Running {
                entry.interrupt.store(true, Ordering::SeqCst);
            }
        }
        self.state_changed.notify_all();
    }

    /// Moves `record` to `state`, journals it and wakes every `watch`.
    /// The caller holds the `jobs` lock `record` lives under, so a
    /// watcher cannot miss the change between checking and waiting.
    fn transition(&self, record: &mut JobRecord, state: JobState) -> Result<(), String> {
        record.transition(state)?;
        self.persist_or_log(record);
        self.state_changed.notify_all();
        Ok(())
    }

    fn persist_or_log(&self, record: &JobRecord) {
        if let Err(e) = self.store.persist(record) {
            eprintln!("serve: failed to journal job {}: {e}", record.id);
        }
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
        jobs: Mutex::new(HashMap::new()),
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

/// Loads the journal: terminal jobs become queryable history, queued
/// and (previously) running jobs are requeued — running ones resume
/// from their checkpoints.
fn recover(shared: &Arc<Shared>) -> io::Result<()> {
    let records = shared.store.load_all()?;
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    for mut record in records {
        let id = record.id;
        if id >= shared.next_id.load(Ordering::SeqCst) {
            shared.next_id.store(id + 1, Ordering::SeqCst);
        }
        match record.state {
            JobState::Done | JobState::Failed | JobState::Cancelled => {}
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
        jobs.insert(id, JobEntry::new(record));
    }
    if !jobs.is_empty() {
        eprintln!(
            "cppc-serve: recovered {} journalled job(s), {} requeued",
            jobs.len(),
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
        let Some(entry) = jobs.get_mut(&grant.id) else {
            shared.sched.release(grant.threads);
            return;
        };
        if shared
            .transition(&mut entry.record, JobState::Running)
            .is_err()
        {
            // Cancelled between grant and dispatch.
            shared.sched.release(grant.threads);
            return;
        }
        (
            entry.record.spec.clone(),
            Arc::clone(&entry.interrupt),
            Arc::clone(&entry.cancel_requested),
            Arc::clone(&entry.progress),
        )
    };

    let started = Instant::now();
    let end = crate::runner::execute(
        &spec,
        &shared.store.checkpoint_path(grant.id),
        shared.cfg.checkpoint_every,
        grant.threads,
        Some(&interrupt),
        |p| *progress.lock().expect("progress lock") = Some(p.clone()),
    );
    obs::JOB_LATENCY.record_ns(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));

    let mut jobs = shared.jobs.lock().expect("jobs lock");
    let entry = jobs.get_mut(&grant.id).expect("running job has an entry");
    match end {
        RunEnd::Complete { result } => {
            entry.record.result = Some(result);
            finish(shared, &mut entry.record, JobState::Done);
            shared.store.remove_checkpoint(grant.id);
            obs::JOBS_DONE.inc();
        }
        RunEnd::Failed { error } => {
            entry.record.error = Some(error);
            finish(shared, &mut entry.record, JobState::Failed);
            obs::JOBS_FAILED.inc();
        }
        RunEnd::Interrupted => {
            if cancel_requested.load(Ordering::SeqCst) {
                finish(shared, &mut entry.record, JobState::Cancelled);
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

fn finish(shared: &Arc<Shared>, record: &mut JobRecord, state: JobState) {
    if let Err(e) = shared.transition(record, state) {
        eprintln!("serve: {e}");
    }
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
/// (std does not unify it in a trait).
trait SetReadTimeout {
    fn set_read_timeout_(&self, t: Option<Duration>) -> io::Result<()>;
    fn set_blocking(&self) -> io::Result<()>;
}

impl SetReadTimeout for std::os::unix::net::UnixStream {
    fn set_read_timeout_(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_blocking(&self) -> io::Result<()> {
        self.set_nonblocking(false)
    }
}

impl SetReadTimeout for std::net::TcpStream {
    fn set_read_timeout_(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_blocking(&self) -> io::Result<()> {
        self.set_nonblocking(false)
    }
}

/// Serves one connection: a loop of request lines, each answered on
/// the same stream. Read timeouts keep the loop responsive to
/// shutdown; any I/O error simply ends the connection, and so does a
/// line longer than [`MAX_REQUEST_LINE`] (after an error response).
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
            jobs.insert(id, JobEntry::new(record));
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

fn record_summary(record: &JobRecord) -> Vec<(String, Json)> {
    vec![
        ("id".into(), Json::UInt(record.id)),
        ("tenant".into(), Json::Str(record.tenant.clone())),
        (
            "priority".into(),
            Json::Str(record.priority.as_str().into()),
        ),
        ("kind".into(), Json::Str(record.spec.kind.name().into())),
        ("trials".into(), Json::UInt(record.spec.trials)),
        ("state".into(), Json::Str(record.state.as_str().into())),
    ]
}

fn status(shared: &Arc<Shared>, id: JobId) -> Json {
    let jobs = shared.jobs.lock().expect("jobs lock");
    let Some(entry) = jobs.get(&id) else {
        return error_response(&format!("unknown job {id}"), None);
    };
    let mut fields = record_summary(&entry.record);
    if let Some(e) = &entry.record.error {
        fields.push(("error".into(), Json::Str(e.clone())));
    }
    if entry.record.state == JobState::Running {
        if let Some(p) = entry.progress.lock().expect("progress lock").as_ref() {
            fields.extend(progress_fields(p));
        }
    }
    ok_response(fields)
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
    let jobs = shared.jobs.lock().expect("jobs lock");
    let Some(entry) = jobs.get(&id) else {
        return error_response(&format!("unknown job {id}"), None);
    };
    match (&entry.record.state, &entry.record.result) {
        (JobState::Done, Some(result)) => ok_response(vec![
            ("id".into(), Json::UInt(id)),
            ("result".into(), result.clone()),
        ]),
        (JobState::Failed, _) => {
            error_response(entry.record.error.as_deref().unwrap_or("job failed"), None)
        }
        (JobState::Cancelled, _) => error_response(&format!("job {id} was cancelled"), None),
        _ => error_response(
            &format!("job {id} is {}", entry.record.state.as_str()),
            None,
        ),
    }
}

fn cancel(shared: &Arc<Shared>, id: JobId) -> Json {
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    let Some(entry) = jobs.get_mut(&id) else {
        return error_response(&format!("unknown job {id}"), None);
    };
    match entry.record.state {
        JobState::Queued => {
            if shared.sched.remove(id) {
                shared
                    .transition(&mut entry.record, JobState::Cancelled)
                    .expect("queued->cancelled");
                shared.store.remove_checkpoint(id);
                obs::JOBS_CANCELLED.inc();
                ok_response(vec![("state".into(), Json::Str("cancelled".into()))])
            } else {
                // Granted but not yet marked running: flag it so the
                // worker cancels the moment it starts.
                entry.cancel_requested.store(true, Ordering::SeqCst);
                entry.interrupt.store(true, Ordering::SeqCst);
                ok_response(vec![("state".into(), Json::Str("cancelling".into()))])
            }
        }
        JobState::Running => {
            entry.cancel_requested.store(true, Ordering::SeqCst);
            entry.interrupt.store(true, Ordering::SeqCst);
            ok_response(vec![("state".into(), Json::Str("cancelling".into()))])
        }
        state => error_response(&format!("job {id} already {}", state.as_str()), None),
    }
}

fn list(shared: &Arc<Shared>, tenant: Option<&str>) -> Json {
    let jobs = shared.jobs.lock().expect("jobs lock");
    let mut ids: Vec<JobId> = jobs
        .values()
        .filter(|e| tenant.is_none_or(|t| e.record.tenant == t))
        .map(|e| e.record.id)
        .collect();
    ids.sort_unstable();
    let rows = ids
        .iter()
        .map(|id| Json::Obj(record_summary(&jobs[id].record)))
        .collect();
    ok_response(vec![("jobs".into(), Json::Arr(rows))])
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
        }
        let tick = {
            let mut jobs = shared.jobs.lock().expect("jobs lock");
            if let Some(last) = reported {
                jobs = shared
                    .state_changed
                    .wait_timeout_while(jobs, WATCH_TICK, |jobs| {
                        !shared.shutting_down()
                            && jobs.get(&id).is_some_and(|e| e.record.state == last)
                    })
                    .expect("jobs lock")
                    .0;
            }
            let Some(entry) = jobs.get(&id) else {
                return write_json(out, &error_response(&format!("unknown job {id}"), None));
            };
            let state = entry.record.state;
            reported = Some(state);
            if state.is_terminal() {
                let mut fields = vec![
                    ("event".to_string(), Json::Str("end".into())),
                    ("state".to_string(), Json::Str(state.as_str().into())),
                ];
                if let Some(r) = &entry.record.result {
                    fields.push(("result".into(), r.clone()));
                }
                if let Some(e) = &entry.record.error {
                    fields.push(("error".into(), Json::Str(e.clone())));
                }
                Tick::End(Json::Obj(fields))
            } else if shared.shutting_down() {
                Tick::End(Json::Obj(vec![
                    ("event".to_string(), Json::Str("end".into())),
                    ("state".to_string(), Json::Str(state.as_str().into())),
                    (
                        "error".to_string(),
                        Json::Str("daemon shutting down; job suspended".into()),
                    ),
                ]))
            } else {
                let mut fields = vec![
                    ("event".to_string(), Json::Str("progress".into())),
                    ("state".to_string(), Json::Str(state.as_str().into())),
                ];
                if let Some(p) = entry.progress.lock().expect("progress lock").as_ref() {
                    fields.extend(progress_fields(p));
                }
                Tick::Progress(Json::Obj(fields))
            }
        };
        match tick {
            Tick::End(doc) => return write_json(out, &doc),
            Tick::Progress(doc) => write_json(out, &doc)?,
        }
    }
}
