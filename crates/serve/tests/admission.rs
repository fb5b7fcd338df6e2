//! Admission bounds the work one spec can allocate: a submit whose
//! shard count or batch is past its cap gets an error line, never an
//! allocation that would abort the daemon for every tenant, and the
//! daemon keeps serving the jobs after it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use cppc_campaign::json::Json;
use cppc_serve::{serve, Client, JobKind, JobSpec, Priority, Request, ServerConfig};

/// A unique, socket-length-safe scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppc_serve_admission").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn connect(socket: &Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect_unix(socket) {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "daemon never came up: {e}");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Sends one submit request line and returns the daemon's answer line.
fn submit_line(socket: &Path, spec: JobSpec) -> String {
    let request = Request::Submit {
        tenant: "mallory".into(),
        priority: Priority::Normal,
        spec,
    };
    let mut stream = UnixStream::connect(socket).unwrap();
    let line = format!("{}\n", request.to_json().to_string_compact());
    stream.write_all(line.as_bytes()).unwrap();
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer).unwrap();
    answer
}

fn assert_refused(answer: &str, field: &str) {
    let doc = Json::parse(answer.trim()).unwrap_or_else(|e| panic!("{e}: {answer}"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{answer}");
    let error = doc.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains(field), "{error}");
}

#[test]
fn oversize_specs_are_refused_and_the_daemon_keeps_serving() {
    let dir = scratch("oversize");
    let socket = dir.join("d.sock");
    let mut cfg = ServerConfig::new(dir.join("data"), &socket);
    cfg.max_threads = 1;
    let handle = thread::spawn(move || serve(cfg));
    let mut client = connect(&socket);

    // One slot per shard: 10^12 one-trial shards used to abort the
    // engine's slot allocation.
    let shards = JobSpec {
        shard_size: 1,
        ..JobSpec::new(JobKind::Sleep { millis: 0 }, 1_000_000_000_000, 1)
    };
    assert_refused(&submit_line(&socket, shards), "shard_size");
    let batch = JobSpec {
        batch: 1 << 30,
        ..JobSpec::new(JobKind::Mbe, 64, 2)
    };
    assert_refused(&submit_line(&socket, batch), "batch");

    let id = client
        .submit("alice", Priority::Normal, JobSpec::new(JobKind::Mbe, 64, 3))
        .unwrap();
    let end = client.watch(id, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        client.list(None).unwrap().len(),
        1,
        "refused specs left no job"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
