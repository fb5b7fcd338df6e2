//! The multi-tenant scheduler: a bounded admission queue with two
//! priority lanes, per-tenant fair share and a worker-thread governor.
//!
//! Admission is bounded: once `queue_cap` jobs are waiting, further
//! submissions are rejected with [`Backpressure`] (the client is told
//! how long to wait before retrying) instead of growing without limit —
//! running jobs are never affected by a full queue.
//!
//! Dispatch order: the `high` lane drains before `normal`; within a
//! lane tenants are served round-robin (one job per tenant per turn) so
//! a tenant that submits a burst cannot starve the others; per tenant,
//! jobs run in submission order. A job is only dispatched when the
//! governor can grant its thread demand without exceeding the cap, so
//! total worker threads stay bounded no matter how many jobs are
//! queued. A waiting wide job may be overtaken by narrower ones until
//! enough threads free up; because demand is clamped to the cap, every
//! job fits eventually.
//!
//! The scheduler is pure bookkeeping (no threads of its own): the
//! server's dispatch loop blocks in [`Scheduler::next`] and runs each
//! grant on worker threads it owns.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::job::{JobId, Priority};
use crate::obs::{QUEUE_DEPTH, RUNNING_THREADS};

/// "Queue full" rejection: retry after the hinted delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    /// Suggested client retry delay, milliseconds.
    pub retry_after_ms: u64,
}

/// A dispatch decision: run job `id` on `threads` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The job to run.
    pub id: JobId,
    /// Threads granted by the governor (the spec's demand, clamped).
    pub threads: usize,
}

#[derive(Debug, Clone, Copy)]
struct QueuedJob {
    id: JobId,
    threads: usize,
}

/// One priority lane: insertion-ordered per-tenant FIFOs plus a
/// round-robin cursor.
#[derive(Debug, Default)]
struct Lane {
    tenants: Vec<(String, VecDeque<QueuedJob>)>,
    cursor: usize,
}

impl Lane {
    fn push(&mut self, tenant: &str, job: QueuedJob) {
        if let Some((_, q)) = self.tenants.iter_mut().find(|(t, _)| t == tenant) {
            q.push_back(job);
        } else {
            self.tenants
                .push((tenant.to_string(), VecDeque::from([job])));
        }
    }

    /// Takes the next job whose demand fits in `budget`, scanning
    /// tenants round-robin from the cursor; each tenant offers only its
    /// front job (per-tenant FIFO).
    fn take_fitting(&mut self, budget: usize) -> Option<QueuedJob> {
        let n = self.tenants.len();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            let (_, q) = &mut self.tenants[i];
            if q.front().is_some_and(|j| j.threads <= budget) {
                let job = q.pop_front().expect("front checked");
                self.cursor = (i + 1) % n.max(1);
                return Some(job);
            }
        }
        None
    }

    fn take_by_id(&mut self, id: JobId) -> bool {
        for (_, q) in &mut self.tenants {
            if let Some(pos) = q.iter().position(|j| j.id == id) {
                q.remove(pos);
                return true;
            }
        }
        false
    }
}

#[derive(Debug, Default)]
struct State {
    lanes: [Lane; 2], // [high, normal]
    queued: usize,
    running_threads: usize,
    shutdown: bool,
}

/// The scheduler shared between the accept handlers (submit/cancel) and
/// the dispatch loop (next/release).
#[derive(Debug)]
pub struct Scheduler {
    state: Mutex<State>,
    wake: Condvar,
    queue_cap: usize,
    max_threads: usize,
}

impl Scheduler {
    /// A scheduler admitting at most `queue_cap` queued jobs and
    /// granting at most `max_threads` total worker threads.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    #[must_use]
    pub fn new(queue_cap: usize, max_threads: usize) -> Self {
        assert!(queue_cap > 0, "queue capacity must be positive");
        assert!(max_threads > 0, "thread cap must be positive");
        Scheduler {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            queue_cap,
            max_threads,
        }
    }

    /// The thread cap (used to clamp spec demands for display).
    #[must_use]
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Resolves a spec's thread demand: `0` means every CPU on this
    /// host (`available_parallelism`), then the governor's cap clamps.
    fn resolve_demand(&self, threads: usize) -> usize {
        let wanted = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        } else {
            threads
        };
        wanted.clamp(1, self.max_threads)
    }

    /// Admits a job to its lane, or rejects with [`Backpressure`] when
    /// the queue is at capacity. `threads` is the spec's demand; `0`
    /// resolves to every CPU, then it is clamped into
    /// `1..=max_threads` here so every admitted job can eventually be
    /// granted.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] when `queue_cap` jobs are already
    /// waiting; the hint grows with the backlog.
    pub fn submit(
        &self,
        id: JobId,
        tenant: &str,
        priority: Priority,
        threads: usize,
    ) -> Result<(), Backpressure> {
        let mut st = self.state.lock().expect("scheduler lock");
        if st.queued >= self.queue_cap {
            crate::obs::JOBS_REJECTED_BACKPRESSURE.inc();
            return Err(Backpressure {
                retry_after_ms: 100 * (st.queued as u64),
            });
        }
        let job = QueuedJob {
            id,
            threads: self.resolve_demand(threads),
        };
        st.lanes[lane_index(priority)].push(tenant, job);
        st.queued += 1;
        QUEUE_DEPTH.set(st.queued as i64);
        drop(st);
        self.wake.notify_all();
        Ok(())
    }

    /// Re-admits a journalled job during daemon-restart recovery,
    /// bypassing the admission cap: the job was accepted by a previous
    /// daemon run and must not be dropped because this run's queue
    /// bound is smaller than the backlog it inherited.
    pub fn restore(&self, id: JobId, tenant: &str, priority: Priority, threads: usize) {
        let mut st = self.state.lock().expect("scheduler lock");
        let job = QueuedJob {
            id,
            threads: self.resolve_demand(threads),
        };
        st.lanes[lane_index(priority)].push(tenant, job);
        st.queued += 1;
        QUEUE_DEPTH.set(st.queued as i64);
        drop(st);
        self.wake.notify_all();
    }

    /// Blocks until a job can be dispatched within the thread budget,
    /// then grants it (charging the governor). Returns `None` once
    /// [`Scheduler::shutdown`] has been called.
    pub fn next(&self) -> Option<Grant> {
        let mut st = self.state.lock().expect("scheduler lock");
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(grant) = Self::take(&mut st, self.max_threads) {
                return Some(grant);
            }
            st = self.wake.wait(st).expect("scheduler lock");
        }
    }

    /// Like [`Scheduler::next`] but non-blocking: `None` means nothing
    /// dispatchable right now (or shutdown).
    pub fn try_next(&self) -> Option<Grant> {
        let mut st = self.state.lock().expect("scheduler lock");
        if st.shutdown {
            return None;
        }
        Self::take(&mut st, self.max_threads)
    }

    fn take(st: &mut State, max_threads: usize) -> Option<Grant> {
        let budget = max_threads - st.running_threads;
        let job = st.lanes.iter_mut().find_map(|l| l.take_fitting(budget))?;
        st.queued -= 1;
        st.running_threads += job.threads;
        QUEUE_DEPTH.set(st.queued as i64);
        RUNNING_THREADS.set(st.running_threads as i64);
        Some(Grant {
            id: job.id,
            threads: job.threads,
        })
    }

    /// Returns a grant's threads to the governor when its job ends.
    pub fn release(&self, threads: usize) {
        let mut st = self.state.lock().expect("scheduler lock");
        st.running_threads = st.running_threads.saturating_sub(threads);
        RUNNING_THREADS.set(st.running_threads as i64);
        drop(st);
        self.wake.notify_all();
    }

    /// Removes a still-queued job (cancel before dispatch). Returns
    /// whether it was found in a lane.
    pub fn remove(&self, id: JobId) -> bool {
        let mut st = self.state.lock().expect("scheduler lock");
        let found = st.lanes.iter_mut().any(|l| l.take_by_id(id));
        if found {
            st.queued -= 1;
            QUEUE_DEPTH.set(st.queued as i64);
        }
        drop(st);
        self.wake.notify_all();
        found
    }

    /// Jobs currently waiting across both lanes.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("scheduler lock").queued
    }

    /// Wakes every [`Scheduler::next`] waiter with `None`; queued jobs
    /// stay journalled for the next daemon run.
    pub fn shutdown(&self) {
        self.state.lock().expect("scheduler lock").shutdown = true;
        self.wake.notify_all();
    }
}

fn lane_index(priority: Priority) -> usize {
    match priority {
        Priority::High => 0,
        Priority::Normal => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(sched: &Scheduler) -> Vec<JobId> {
        std::iter::from_fn(|| sched.try_next().map(|g| g.id)).collect()
    }

    #[test]
    fn tenants_share_round_robin() {
        let s = Scheduler::new(16, 64);
        for id in 1..=3 {
            s.submit(id, "alice", Priority::Normal, 1).unwrap();
        }
        s.submit(4, "bob", Priority::Normal, 1).unwrap();
        // Alice's burst must not starve Bob: he runs second, not last.
        assert_eq!(ids(&s), [1, 4, 2, 3]);
    }

    #[test]
    fn high_lane_drains_first() {
        let s = Scheduler::new(16, 64);
        s.submit(1, "alice", Priority::Normal, 1).unwrap();
        s.submit(2, "bob", Priority::High, 1).unwrap();
        s.submit(3, "alice", Priority::High, 1).unwrap();
        assert_eq!(ids(&s), [2, 3, 1]);
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let s = Scheduler::new(2, 4);
        s.submit(1, "a", Priority::Normal, 1).unwrap();
        s.submit(2, "a", Priority::Normal, 1).unwrap();
        let err = s.submit(3, "a", Priority::Normal, 1).unwrap_err();
        assert!(err.retry_after_ms > 0);
        // Draining one queued job frees a slot.
        assert!(s.try_next().is_some());
        s.submit(3, "a", Priority::Normal, 1).unwrap();
        assert_eq!(s.depth(), 2);
    }

    #[test]
    fn governor_caps_total_threads() {
        let s = Scheduler::new(16, 4);
        s.submit(1, "a", Priority::Normal, 3).unwrap();
        s.submit(2, "b", Priority::Normal, 3).unwrap();
        s.submit(3, "c", Priority::Normal, 1).unwrap();
        let g1 = s.try_next().unwrap();
        assert_eq!((g1.id, g1.threads), (1, 3));
        // Job 2 (3 threads) does not fit in the remaining budget of 1,
        // but job 3 (1 thread) does — narrow jobs may overtake.
        let g3 = s.try_next().unwrap();
        assert_eq!((g3.id, g3.threads), (3, 1));
        assert!(s.try_next().is_none());
        s.release(g3.threads);
        s.release(g1.threads);
        assert_eq!(s.try_next().unwrap().id, 2);
    }

    #[test]
    fn demand_is_clamped_to_the_cap() {
        let s = Scheduler::new(16, 2);
        s.submit(1, "a", Priority::Normal, 64).unwrap();
        assert_eq!(s.try_next().unwrap().threads, 2);
        // Demand 0 means every CPU of this host, clamped to the cap.
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let s0 = Scheduler::new(16, 2);
        s0.submit(1, "a", Priority::Normal, 0).unwrap();
        assert_eq!(s0.try_next().unwrap().threads, cpus.min(2));
    }

    #[test]
    fn remove_cancels_queued_jobs() {
        let s = Scheduler::new(16, 4);
        s.submit(1, "a", Priority::Normal, 1).unwrap();
        s.submit(2, "a", Priority::Normal, 1).unwrap();
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert_eq!(ids(&s), [2]);
    }

    #[test]
    fn shutdown_wakes_blocked_next() {
        let s = std::sync::Arc::new(Scheduler::new(4, 4));
        let s2 = std::sync::Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.next());
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.shutdown();
        assert_eq!(waiter.join().unwrap(), None);
        assert!(s.try_next().is_none());
    }
}
