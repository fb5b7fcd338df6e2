//! A finished job leaves no heap behind in the daemon beyond its
//! fixed-size summary: its result, error and spec live only in the
//! journal. A counting global allocator tracks the process's live heap
//! bytes; finishing another 200 jobs may grow it by the summaries and
//! the job map's slots, not by per-job records.
//!
//! The allocator is process-wide, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use cppc_serve::{serve, Client, JobKind, JobSpec, Priority, ServerConfig};

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct CountingAllocator;

fn size(layout: Layout) -> isize {
    isize::try_from(layout.size()).unwrap_or(isize::MAX)
}

// SAFETY: delegates every operation verbatim to `System`; the counter
// is a lock-free atomic that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(size(layout), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(size(layout), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            isize::try_from(new_size).unwrap_or(isize::MAX) - size(layout),
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(size(layout), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `n` one-trial jobs to their end, then lets the daemon's worker
/// threads exit and returns the live heap bytes.
fn finish_jobs(client: &mut Client, first_seed: u64, n: u64) -> isize {
    for seed in first_seed..first_seed + n {
        let spec = JobSpec::new(JobKind::Sleep { millis: 0 }, 1, seed);
        let id = client.submit("alice", Priority::Normal, spec).unwrap();
        client.watch(id, |_| {}).unwrap();
    }
    thread::sleep(Duration::from_millis(200));
    LIVE.load(Ordering::SeqCst)
}

#[test]
fn a_finished_job_keeps_only_its_summary() {
    let dir: PathBuf = std::env::temp_dir().join("cppc_serve_retained");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    let mut cfg = ServerConfig::new(dir.join("data"), &socket);
    cfg.max_threads = 1;
    let daemon = thread::spawn(move || serve(cfg));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        match Client::connect_unix(&socket) {
            Ok(c) => break c,
            Err(e) => {
                assert!(Instant::now() < deadline, "daemon never came up: {e}");
                thread::sleep(Duration::from_millis(20));
            }
        }
    };

    // Warm up every lazily built structure (metric registry, event
    // ring, scheduler lanes) before the first measurement.
    finish_jobs(&mut client, 0, 50);
    let at_200 = finish_jobs(&mut client, 50, 150);
    let at_400 = finish_jobs(&mut client, 200, 200);
    let per_job = (at_400 - at_200) / 200;
    assert!(
        per_job < 128,
        "each finished job keeps {per_job} B of heap ({at_200} B live after 200 jobs, {at_400} B after 400)"
    );

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
