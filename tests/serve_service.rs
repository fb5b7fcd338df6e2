//! End-to-end tests of the campaign job service (`crates/serve`)
//! across the real socket boundary: an in-process daemon, the typed
//! client, and the determinism / backpressure guarantees from
//! `ISSUE` acceptance — a restart-interrupted job merges to the
//! bit-identical tally of a direct engine run, and a full queue
//! rejects new work without disturbing running jobs.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use cppc::campaign::json::Json;
use cppc::serve::runner::tally_result_json;
use cppc::serve::{serve, Client, JobKind, JobSpec, Priority, ServerConfig};
use cppc_bench::experiments::sleep_experiment;

/// A unique, socket-length-safe scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppc_serve_it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One daemon lifetime: spawned thread + connect-retry + shutdown help.
struct Daemon {
    socket: PathBuf,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(dir: &std::path::Path, queue_cap: usize, max_threads: usize) -> Self {
        let socket = dir.join("d.sock");
        let mut cfg = ServerConfig::new(dir.join("data"), &socket);
        cfg.queue_cap = queue_cap;
        cfg.max_threads = max_threads;
        cfg.checkpoint_every = Duration::ZERO;
        let handle = thread::spawn(move || serve(cfg));
        Daemon { socket, handle }
    }

    fn client(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect_unix(&self.socket) {
                Ok(c) => return c,
                Err(e) => {
                    assert!(Instant::now() < deadline, "daemon never came up: {e}");
                    thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn stop(self) {
        let _ = self.client().shutdown();
        self.handle.join().unwrap().unwrap();
    }
}

fn sleep_spec(millis: u64, trials: u64, seed: u64, shard_size: u64) -> JobSpec {
    JobSpec {
        shard_size,
        ..JobSpec::new(JobKind::Sleep { millis }, trials, seed)
    }
}

/// Polls `status` until the job leaves `queued`.
fn wait_running(client: &mut Client, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let state = client
            .status(id)
            .unwrap()
            .get("state")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if state != "queued" {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never started");
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submitted_job_matches_direct_engine_run() {
    let dir = scratch("submit_equality");
    let daemon = Daemon::start(&dir, 8, 2);
    let mut client = daemon.client();

    let spec = sleep_spec(0, 96, 0xFEED, 8);
    let id = client
        .submit("alice", Priority::Normal, spec.clone())
        .unwrap();
    let end = client.watch(id, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    let direct = cppc::campaign::run::<cppc::fault::campaign::OutcomeTally, _>(
        &spec.campaign_config(1),
        sleep_experiment(0),
    )
    .result;
    assert_eq!(end.get("result"), Some(&tally_result_json(&direct)));
    // `result` agrees with the watch end event.
    assert_eq!(client.result(id).unwrap(), tally_result_json(&direct));
    daemon.stop();
}

#[test]
fn full_queue_rejects_without_disturbing_running_jobs() {
    let dir = scratch("backpressure");
    // One worker thread and a queue of exactly one.
    let daemon = Daemon::start(&dir, 1, 1);
    let mut client = daemon.client();

    // Occupies the governor for its whole life (~50ms/trial).
    let running = client
        .submit("alice", Priority::Normal, sleep_spec(50, 40, 1, 4))
        .unwrap();
    wait_running(&mut client, running);
    // Fills the queue.
    let queued = client
        .submit("bob", Priority::Normal, sleep_spec(0, 8, 2, 4))
        .unwrap();
    // The N+1th submission bounces with a retry hint.
    let err = client
        .submit("carol", Priority::Normal, sleep_spec(0, 8, 3, 4))
        .unwrap_err();
    match err {
        cppc::serve::ClientError::Remote {
            message,
            retry_after_ms,
        } => {
            assert!(message.contains("queue full"), "{message}");
            assert!(retry_after_ms.is_some(), "rejection must carry a hint");
        }
        other => panic!("expected a remote queue-full rejection, got {other}"),
    }
    // The running job was not affected: cancel it cleanly, and the
    // queued one still completes.
    client.cancel(running).unwrap();
    let end = client.watch(queued, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    let cancelled_end = client.watch(running, |_| {}).unwrap();
    assert_eq!(
        cancelled_end.get("state").and_then(Json::as_str),
        Some("cancelled")
    );
    daemon.stop();
}

#[test]
fn shutdown_suspends_and_restart_resumes_bit_identically() {
    let dir = scratch("suspend_resume");
    let spec = sleep_spec(10, 120, 0xD00D, 4);

    // First daemon: start the job, let it make some progress, shut
    // down mid-run (graceful shutdown checkpoints and suspends).
    let first = Daemon::start(&dir, 8, 1);
    let mut client = first.client();
    let id = client
        .submit("alice", Priority::High, spec.clone())
        .unwrap();
    wait_running(&mut client, id);
    thread::sleep(Duration::from_millis(200));
    let before = client.status(id).unwrap();
    assert_eq!(before.get("state").and_then(Json::as_str), Some("running"));
    first.stop();

    // Second daemon on the same data dir: the suspended job requeues
    // and resumes from its checkpoint.
    let second = Daemon::start(&dir, 8, 1);
    let mut client = second.client();
    let end = client.watch(id, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    let direct = cppc::campaign::run::<cppc::fault::campaign::OutcomeTally, _>(
        &spec.campaign_config(1),
        sleep_experiment(10),
    )
    .result;
    assert_eq!(end.get("result"), Some(&tally_result_json(&direct)));
    second.stop();
}

#[test]
fn high_priority_overtakes_normal_backlog() {
    let dir = scratch("priority");
    let daemon = Daemon::start(&dir, 8, 1);
    let mut client = daemon.client();

    // A running job pins the single worker while we shape the queue.
    let running = client
        .submit("alice", Priority::Normal, sleep_spec(50, 40, 1, 4))
        .unwrap();
    wait_running(&mut client, running);
    let normal = client
        .submit("alice", Priority::Normal, sleep_spec(0, 8, 2, 4))
        .unwrap();
    let high = client
        .submit("bob", Priority::High, sleep_spec(0, 8, 3, 4))
        .unwrap();
    client.cancel(running).unwrap();

    // The high-lane job finishes; at the moment it was dispatched the
    // normal job must still have been waiting behind it.
    let end = client.watch(high, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    let end = client.watch(normal, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    // Journal survives: a fresh list shows all three jobs terminal.
    let rows = client.list(None).unwrap();
    assert_eq!(rows.len(), 3);
    for row in &rows {
        let state = row.get("state").and_then(Json::as_str).unwrap();
        assert!(
            state == "done" || state == "cancelled",
            "unexpected state {state}"
        );
    }
    daemon.stop();
}

#[test]
fn watch_reports_each_end_as_it_happens() {
    let dir = scratch("watch_latency");
    let daemon = Daemon::start(&dir, 8, 1);
    let mut client = daemon.client();
    // A watch that only looked at its jobs on a 50 ms tick would need
    // at least 20 x 50 ms here.
    let started = Instant::now();
    for seed in 0..20 {
        let id = client
            .submit("alice", Priority::Normal, sleep_spec(0, 1, seed, 1))
            .unwrap();
        let end = client.watch(id, |_| {}).unwrap();
        assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "20 watched jobs took {elapsed:?}"
    );
    daemon.stop();
}

#[test]
fn cancelling_a_watched_queued_job_ends_the_watch() {
    let dir = scratch("cancel_watched");
    let daemon = Daemon::start(&dir, 8, 1);
    let mut client = daemon.client();
    // Pins the single worker so the next job stays queued.
    let running = client
        .submit("alice", Priority::Normal, sleep_spec(50, 40, 1, 4))
        .unwrap();
    wait_running(&mut client, running);
    let queued = client
        .submit("bob", Priority::Normal, sleep_spec(0, 8, 2, 4))
        .unwrap();

    let (first_state, opened) = mpsc::channel();
    let mut watcher = daemon.client();
    let watch = thread::spawn(move || {
        watcher.watch(queued, |event| {
            let state = event.get("state").and_then(Json::as_str).unwrap_or("?");
            let _ = first_state.send(state.to_string());
        })
    });
    // The watch is open once its first event arrives.
    assert_eq!(opened.recv().unwrap(), "queued");
    client.cancel(queued).unwrap();
    let end = watch.join().unwrap().unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("cancelled"));

    client.cancel(running).unwrap();
    daemon.stop();
}

#[test]
fn over_long_request_line_is_refused_and_the_daemon_lives_on() {
    let dir = scratch("long_line");
    let daemon = Daemon::start(&dir, 8, 1);
    drop(daemon.client());

    let mut stream = UnixStream::connect(&daemon.socket).unwrap();
    let mut line = vec![b'x'; 2 << 20];
    line.push(b'\n');
    // The daemon stops reading at its cap and closes the connection,
    // so the tail of this write may fail with a broken pipe.
    let _ = stream.write_all(&line);
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let doc = Json::parse(response.trim()).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    let error = doc.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("exceeds"), "{error}");
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).unwrap(),
        0,
        "connection closes"
    );

    assert!(daemon.client().list(None).unwrap().is_empty());
    daemon.stop();
}

/// Writes a 2,000-op binary trace whose header declares about 2^40
/// records (byte 12 flipped).
fn lying_trace(dir: &std::path::Path) -> String {
    let profile = cppc::workloads::spec2000_profiles()[0];
    let ops: Vec<_> = cppc::workloads::TraceGenerator::new(&profile, 7)
        .take(2_000)
        .collect();
    let mut bytes = Vec::new();
    cppc::workloads::write_bin_trace(&mut bytes, &ops).unwrap();
    bytes[12] ^= 0xFF;
    let path = dir.join("lying.cppct");
    std::fs::write(&path, &bytes).unwrap();
    path.to_str().unwrap().to_string()
}

/// A trace job over a lying record count fails cleanly instead of
/// aborting the daemon. That holds for a freshly submitted job and for
/// one a crashed daemon left `running` in its journal, which a restart
/// requeues; the daemon then still completes an `mbe` job.
#[test]
fn lying_trace_fails_its_job_and_the_daemon_lives_on() {
    let dir = scratch("lying_trace");
    let trace = lying_trace(&dir);
    let spec = JobSpec::new(JobKind::Trace { path: trace }, 4, 1);
    let jobs = dir.join("data").join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    let mut left_running = cppc::serve::JobRecord::new(1, "alice".into(), Priority::Normal, spec);
    left_running.state = cppc::serve::JobState::Running;
    std::fs::write(
        jobs.join("job-000001.json"),
        left_running.to_json().to_string_compact(),
    )
    .unwrap();

    let daemon = Daemon::start(&dir, 8, 1);
    let mut client = daemon.client();
    let resubmitted = client
        .submit("alice", Priority::Normal, left_running.spec.clone())
        .unwrap();
    for id in [1, resubmitted] {
        let end = client.watch(id, |_| {}).unwrap();
        assert_eq!(end.get("state").and_then(Json::as_str), Some("failed"));
        let error = end.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("record count mismatch"), "{error}");
    }
    let mbe = client
        .submit("bob", Priority::Normal, JobSpec::new(JobKind::Mbe, 64, 2))
        .unwrap();
    let end = client.watch(mbe, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    daemon.stop();
}

/// A journal record of the retired `inject` kind, as daemons wrote it
/// before that kind folded into `scheme --scheme cppc`, still loads,
/// runs and serves the bytes its `scheme` spelling produces.
#[test]
fn journalled_inject_record_serves_its_cppc_scheme_result() {
    use cppc::serve::runner::{execute, RunEnd};

    let dir = scratch("legacy_inject");
    let jobs = dir.join("data").join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    std::fs::write(
        jobs.join("job-000001.json"),
        r#"{"id":1,"tenant":"alice","priority":"normal","spec":{"kind":"inject","config":"paper","fault":"4x4","trials":200,"seed":7,"threads":1,"shard_size":32,"batch":1},"state":"queued","result":null,"error":null}"#,
    )
    .unwrap();

    let daemon = Daemon::start(&dir, 8, 1);
    let mut client = daemon.client();
    let end = client.watch(1, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    let served = client.result(1).unwrap().to_string_compact();
    daemon.stop();

    let scheme = JobSpec {
        shard_size: 32,
        ..JobSpec::new(
            JobKind::Scheme {
                scheme: "cppc".into(),
                config: "paper".into(),
                fault: "4x4".into(),
            },
            200,
            7,
        )
    };
    let RunEnd::Complete { result } = execute(&scheme, 1, Default::default()) else {
        panic!("direct scheme run did not complete");
    };
    assert_eq!(served, result.to_string_compact());
    // The record is written back under the `scheme` spelling.
    let journal = std::fs::read_to_string(jobs.join("job-000001.json")).unwrap();
    assert!(
        journal.contains(r#""kind":"scheme","scheme":"cppc""#),
        "{journal}"
    );
}
