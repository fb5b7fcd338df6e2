//! A finished job's history is served from its journal entry: the
//! daemon keeps only a summary of the job in memory. These tests pin
//! that every document about a finished job (`status`, `result`, its
//! `list` row, the `watch` end line and the `cancel` refusal) is the
//! byte-for-byte document of a job still held in full, before and
//! after a restart, and that a lost journal entry is a clean error.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use cppc_campaign::json::Json;
use cppc_serve::{serve, Client, JobKind, JobSpec, Priority, ServerConfig};

/// A unique, socket-length-safe scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppc_serve_history").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Daemon {
    socket: PathBuf,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(dir: &Path) -> Self {
        let socket = dir.join("d.sock");
        let mut cfg = ServerConfig::new(dir.join("data"), &socket);
        cfg.max_threads = 1;
        let handle = thread::spawn(move || serve(cfg));
        let daemon = Daemon { socket, handle };
        drop(daemon.client());
        daemon
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

    /// Sends one request line and returns the response line; for a
    /// `watch`, the first line that is not a progress event.
    fn raw(&self, request: &str) -> String {
        let mut stream = UnixStream::connect(&self.socket).unwrap();
        stream.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "connection closed mid-answer");
            if !line.starts_with(r#"{"event":"progress""#) {
                return line;
            }
        }
    }

    fn stop(self) {
        let _ = self.client().shutdown();
        self.handle.join().unwrap().unwrap();
    }
}

fn sleep_spec(millis: u64, trials: u64, seed: u64) -> JobSpec {
    JobSpec {
        shard_size: 1,
        ..JobSpec::new(JobKind::Sleep { millis }, trials, seed)
    }
}

const PINNED: u64 = 1;
const DONE: u64 = 2;
const FAILED: u64 = 3;
const CANCELLED: u64 = 4;

/// Runs one of each end on a fresh daemon: a job that pins the single
/// worker while the others queue, a job that completes, one that
/// fails (its trace file does not exist) and one cancelled while
/// queued. With `lose_journal`, `jobs/` is removed while the jobs are
/// still queued or running, so every terminal journal write fails.
fn run_history(dir: &Path, lose_journal: bool) -> Daemon {
    let daemon = Daemon::start(dir);
    let mut client = daemon.client();
    let pinned = client
        .submit("alice", Priority::Normal, sleep_spec(50, 6, 1))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while client
        .status(pinned)
        .unwrap()
        .get("state")
        .and_then(Json::as_str)
        == Some("queued")
    {
        assert!(Instant::now() < deadline, "pinning job never started");
        thread::sleep(Duration::from_millis(5));
    }
    let done = client
        .submit("bob", Priority::Normal, sleep_spec(0, 8, 2))
        .unwrap();
    let failed = client
        .submit(
            "bob",
            Priority::High,
            JobSpec::new(
                JobKind::Trace {
                    path: "no/such/trace.cppct".into(),
                },
                1,
                3,
            ),
        )
        .unwrap();
    let cancelled = client
        .submit("carol", Priority::Normal, sleep_spec(0, 8, 4))
        .unwrap();
    assert_eq!(
        [pinned, done, failed, cancelled],
        [PINNED, DONE, FAILED, CANCELLED]
    );
    if lose_journal {
        std::fs::remove_dir_all(dir.join("data/jobs")).unwrap();
    }
    client.cancel(cancelled).unwrap();
    for id in [pinned, done, failed] {
        client.watch(id, |_| {}).unwrap();
    }
    daemon
}

/// Every document a client can get about the four finished jobs.
fn history(daemon: &Daemon) -> Vec<String> {
    let mut docs = vec![daemon.raw(r#"{"op":"list"}"#)];
    for id in [PINNED, DONE, FAILED, CANCELLED] {
        for op in ["status", "result", "watch", "cancel"] {
            docs.push(daemon.raw(&format!(r#"{{"op":"{op}","id":{id}}}"#)));
        }
    }
    docs
}

fn entry(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("data/jobs/job-{id:06}.json"))
}

fn assert_clean_error(line: &str, what: &str) {
    let doc = Json::parse(line.trim()).unwrap_or_else(|e| panic!("{what}: {e}: {line}"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{what}: {line}");
    let error = doc.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("journal entry"), "{what}: {error}");
}

#[test]
fn finished_job_documents_match_a_job_held_in_full() {
    let held_dir = scratch("held");
    let held = run_history(&held_dir, true);
    let in_full = history(&held);
    held.stop();
    // The result of the done job, served from memory.
    assert!(
        in_full[6].starts_with(r#"{"ok":true,"id":2,"result""#),
        "{}",
        in_full[6]
    );

    let dir = scratch("journalled");
    let daemon = run_history(&dir, false);
    for (got, want) in history(&daemon).iter().zip(&in_full) {
        assert_eq!(got, want);
    }
    daemon.stop();

    // A restarted daemon recovers the same summaries.
    let daemon = Daemon::start(&dir);
    let recovered = history(&daemon);
    assert_eq!(recovered, in_full);

    // The journal is the only full copy: a deleted or truncated entry
    // is a clean error for `result` and `watch`, and the daemon lives.
    std::fs::remove_file(entry(&dir, DONE)).unwrap();
    let text = std::fs::read_to_string(entry(&dir, FAILED)).unwrap();
    std::fs::write(entry(&dir, FAILED), &text[..text.len() / 2]).unwrap();
    for id in [DONE, FAILED] {
        for op in ["result", "watch", "status"] {
            let line = daemon.raw(&format!(r#"{{"op":"{op}","id":{id}}}"#));
            assert_clean_error(&line, &format!("{op} {id}"));
        }
    }
    // So is a job that finished in this run.
    let mut client = daemon.client();
    let fresh = client
        .submit("dave", Priority::Normal, sleep_spec(0, 2, 5))
        .unwrap();
    client.watch(fresh, |_| {}).unwrap();
    std::fs::remove_file(entry(&dir, fresh)).unwrap();
    assert_clean_error(
        &daemon.raw(&format!(r#"{{"op":"result","id":{fresh}}}"#)),
        "result of a job finished in this run",
    );
    assert_eq!(client.list(None).unwrap().len(), 5);
    daemon.stop();
}
