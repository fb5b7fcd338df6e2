//! The durable job journal: one JSON file per job under the daemon's
//! `--data-dir`, written atomically on every lifecycle transition.
//!
//! Layout:
//!
//! ```text
//! <data-dir>/jobs/job-<id>.json         the JobRecord journal entry
//! <data-dir>/checkpoints/job-<id>.json  the campaign checkpoint
//! ```
//!
//! The journal is the restart story: a restarted daemon scans `jobs/`,
//! requeues everything non-terminal and resumes running jobs from their
//! campaign checkpoints, so a submitted job survives daemon crashes and
//! graceful shutdowns alike. Records are written with the same
//! temp-file + rename discipline the campaign checkpoints use, so a
//! crash mid-write never corrupts an existing entry.
//!
//! The journal is also a finished job's only full copy. Once a job's
//! terminal record is on disk, the daemon keeps just a fixed-size
//! summary of it in memory and reads the result or error back through
//! [`JobStore::load`] when a client asks for it.

use std::io;
use std::path::{Path, PathBuf};

use cppc_campaign::json::Json;

use crate::job::{JobId, JobRecord};

/// The on-disk journal under one data directory.
#[derive(Debug)]
pub struct JobStore {
    jobs_dir: PathBuf,
    checkpoints_dir: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) the journal under `data_dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directories cannot be created.
    pub fn open(data_dir: &Path) -> io::Result<Self> {
        let jobs_dir = data_dir.join("jobs");
        let checkpoints_dir = data_dir.join("checkpoints");
        std::fs::create_dir_all(&jobs_dir)?;
        std::fs::create_dir_all(&checkpoints_dir)?;
        Ok(JobStore {
            jobs_dir,
            checkpoints_dir,
        })
    }

    fn record_path(&self, id: JobId) -> PathBuf {
        self.jobs_dir.join(format!("job-{id:06}.json"))
    }

    /// Where job `id`'s campaign checkpoint lives.
    #[must_use]
    pub fn checkpoint_path(&self, id: JobId) -> PathBuf {
        self.checkpoints_dir.join(format!("job-{id:06}.json"))
    }

    /// Writes `record` atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the write or rename fails.
    pub fn persist(&self, record: &JobRecord) -> io::Result<()> {
        let path = self.record_path(record.id);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, record.to_json().to_string_compact() + "\n")?;
        std::fs::rename(&tmp, path)
    }

    /// Removes job `id`'s journal entry (submission rollback).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the removal fails (missing is fine).
    pub fn remove_record(&self, id: JobId) -> io::Result<()> {
        match std::fs::remove_file(self.record_path(id)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Removes job `id`'s campaign checkpoint (terminal-state cleanup;
    /// missing is fine).
    pub fn remove_checkpoint(&self, id: JobId) {
        let _ = std::fs::remove_file(self.checkpoint_path(id));
    }

    /// Reads job `id`'s journal entry.
    ///
    /// # Errors
    ///
    /// Returns a message naming the entry if it is missing, unreadable,
    /// malformed or holds another job's record.
    pub fn load(&self, id: JobId) -> Result<JobRecord, String> {
        let path = self.record_path(id);
        let record = read_record(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.id != id {
            return Err(format!(
                "{}: holds job {}, not job {id}",
                path.display(),
                record.id
            ));
        }
        Ok(record)
    }

    /// Loads every journal entry, sorted by id. Unreadable or malformed
    /// entries are skipped (reported on stderr) rather than taking the
    /// daemon down — the journal must tolerate a torn disk better than
    /// the jobs it protects.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the journal directory cannot be read.
    pub fn load_all(&self) -> io::Result<Vec<JobRecord>> {
        let mut records = Vec::new();
        for entry in std::fs::read_dir(&self.jobs_dir)? {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            match read_record(&path) {
                Ok(rec) => records.push(rec),
                Err(e) => {
                    crate::obs::JOURNAL_SKIPPED.inc();
                    eprintln!(
                        "serve: skipping unreadable journal entry {}: {e}",
                        path.display()
                    );
                }
            }
        }
        records.sort_by_key(|r| r.id);
        Ok(records)
    }
}

fn read_record(path: &Path) -> Result<JobRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    JobRecord::from_json(&Json::parse(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, JobSpec, JobState, Priority};

    fn record(id: JobId) -> JobRecord {
        JobRecord::new(
            id,
            "tenant".into(),
            Priority::Normal,
            JobSpec::new(JobKind::Sleep { millis: 0 }, 10, 1),
        )
    }

    #[test]
    fn persist_load_roundtrip_sorted() {
        let dir = std::env::temp_dir().join("cppc_serve_store_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        for id in [3u64, 1, 2] {
            store.persist(&record(id)).unwrap();
        }
        let loaded = store.load_all().unwrap();
        assert_eq!(loaded.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(loaded[0], record(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_updates_overwrite() {
        let dir = std::env::temp_dir().join("cppc_serve_store_update");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        let mut rec = record(7);
        store.persist(&rec).unwrap();
        rec.transition(JobState::Running).unwrap();
        store.persist(&rec).unwrap();
        let loaded = store.load_all().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].state, JobState::Running);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_entries_are_skipped() {
        let dir = std::env::temp_dir().join("cppc_serve_store_malformed");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        store.persist(&record(1)).unwrap();
        std::fs::write(dir.join("jobs/job-000002.json"), "{torn write").unwrap();
        let loaded = store.load_all().unwrap();
        assert_eq!(loaded.len(), 1, "malformed entry must be skipped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_reads_one_entry_and_refuses_a_bad_one() {
        let dir = std::env::temp_dir().join("cppc_serve_store_load");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        store.persist(&record(4)).unwrap();
        assert_eq!(store.load(4).unwrap(), record(4));
        assert!(store.load(5).unwrap_err().contains("job-000005.json"));
        std::fs::write(store.record_path(5), "{\"id\":").unwrap();
        assert!(store.load(5).is_err(), "truncated entry");
        std::fs::copy(store.record_path(4), store.record_path(6)).unwrap();
        assert!(store.load(6).unwrap_err().contains("holds job 4"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_and_checkpoint_cleanup() {
        let dir = std::env::temp_dir().join("cppc_serve_store_rollback");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        store.persist(&record(9)).unwrap();
        store.remove_record(9).unwrap();
        store.remove_record(9).unwrap(); // idempotent
        assert!(store.load_all().unwrap().is_empty());
        std::fs::write(store.checkpoint_path(9), "{}").unwrap();
        store.remove_checkpoint(9);
        store.remove_checkpoint(9);
        assert!(!store.checkpoint_path(9).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
