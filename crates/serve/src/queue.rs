//! The durable job table: the service's record of every accepted job.
//!
//! One JSON document (`queue.json`) per service state directory, written
//! by the same [`dgflow_runtime::durable_write`] as the campaign manifest
//! — a daemon killed at any instant leaves either the previous or the
//! next consistent table, never a torn one. A `submit`
//! response is only sent after the table hits disk, so an acknowledged
//! job is never lost.
//!
//! Jobs are keyed by their canonical spec fingerprint (see
//! [`crate::job_fingerprint`]): the key *is* the dedup key of the result
//! store. On load, `running` records (the crash markers of a killed
//! daemon) demote to `queued`; their campaign output directories still
//! hold checkpoints and a manifest, so re-running them resumes rather
//! than restarts — the whole-queue analogue of `dgflow resume`.

use dgflow_check::sync::Mutex;
use dgflow_runtime::json::{self, Json};
use std::io;
use std::path::{Path, PathBuf};

/// Lifecycle of one accepted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for dispatch.
    Queued,
    /// Occupying a worker (on disk this is the crash marker).
    Running,
    /// Every case of the campaign completed; result cached.
    Completed,
    /// The campaign ran but did not complete (case error).
    Failed,
    /// Cancelled by a client before completion.
    Cancelled,
}

impl JobState {
    /// Table spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a table spelling.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }
}

/// One accepted job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Canonical spec fingerprint — the job id and dedup key.
    pub fingerprint: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// DRR weight the job was admitted with.
    pub priority: u64,
    /// Campaign name (from the spec, for display).
    pub name: String,
    /// Total time steps across all cases (the DRR cost).
    pub cost: u64,
    /// Raw spec text as submitted (re-parsed on dispatch and restart).
    pub spec_text: String,
    /// Current state.
    pub state: JobState,
    /// Error text of the last failure, if any.
    pub error: Option<String>,
}

/// The on-disk job table.
pub struct JobTable {
    dir: PathBuf,
    inner: Mutex<Vec<JobRecord>>,
}

impl JobTable {
    /// Table file path inside a state directory.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join("queue.json")
    }

    /// Output directory for a job's campaign (holds `manifest.json`,
    /// checkpoints, `summary.json`).
    pub fn job_dir(dir: &Path, fingerprint: u64) -> PathBuf {
        dir.join("jobs")
            .join(format!("{fingerprint:016x}"))
            .join("out")
    }

    /// Load the table from `dir`, or start empty. `running` records
    /// demote to `queued`: they are the crash markers of a killed daemon
    /// and must be re-dispatched (their checkpoints make that a resume).
    pub fn load_or_new(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_in(dir);
        let mut records = Vec::new();
        if path.is_file() {
            let text = std::fs::read_to_string(&path)?;
            records = parse_table(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            for r in &mut records {
                if r.state == JobState::Running {
                    r.state = JobState::Queued;
                }
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            inner: Mutex::new(records),
        })
    }

    /// The state directory this table persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Copy of the record with this fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<JobRecord> {
        self.inner
            .lock()
            .iter()
            .find(|r| r.fingerprint == fingerprint)
            .cloned()
    }

    /// Copies of all records, in admission order.
    pub fn all(&self) -> Vec<JobRecord> {
        self.inner.lock().clone()
    }

    /// Insert a new record (or replace the one with the same fingerprint)
    /// and persist before returning — the caller may acknowledge the
    /// submission only after this succeeds.
    pub fn upsert(&self, record: JobRecord) -> io::Result<()> {
        let mut recs = self.inner.lock();
        match recs
            .iter_mut()
            .find(|r| r.fingerprint == record.fingerprint)
        {
            Some(slot) => *slot = record,
            None => recs.push(record),
        }
        persist(&self.dir, &recs)
    }

    /// Update one record's state (and error text) and persist.
    /// No-op if the fingerprint is unknown.
    pub fn set_state(
        &self,
        fingerprint: u64,
        state: JobState,
        error: Option<String>,
    ) -> io::Result<()> {
        let mut recs = self.inner.lock();
        if let Some(r) = recs.iter_mut().find(|r| r.fingerprint == fingerprint) {
            r.state = state;
            r.error = error;
            return persist(&self.dir, &recs);
        }
        Ok(())
    }

    /// Counts per state: `(queued, running, completed, failed, cancelled)`.
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let recs = self.inner.lock();
        let n = |s: JobState| recs.iter().filter(|r| r.state == s).count();
        (
            n(JobState::Queued),
            n(JobState::Running),
            n(JobState::Completed),
            n(JobState::Failed),
            n(JobState::Cancelled),
        )
    }
}

/// Durable write of the whole table.
fn persist(dir: &Path, records: &[JobRecord]) -> io::Result<()> {
    let doc = Json::obj([(
        "jobs",
        Json::Arr(
            records
                .iter()
                .map(|r| {
                    Json::obj([
                        ("fingerprint", Json::Str(format!("{:016x}", r.fingerprint))),
                        ("tenant", Json::Str(r.tenant.clone())),
                        ("priority", Json::Num(r.priority as f64)),
                        ("name", Json::Str(r.name.clone())),
                        ("cost", Json::Num(r.cost as f64)),
                        ("spec_text", Json::Str(r.spec_text.clone())),
                        ("state", Json::Str(r.state.as_str().to_string())),
                        (
                            "error",
                            r.error.clone().map(Json::Str).unwrap_or(Json::Null),
                        ),
                    ])
                })
                .collect(),
        ),
    )]);
    dgflow_runtime::durable_write(&JobTable::path_in(dir), format!("{doc}\n").as_bytes())
}

fn parse_table(text: &str) -> Result<Vec<JobRecord>, String> {
    let doc = json::parse(text)?;
    let mut out = Vec::new();
    for j in doc
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or("job table missing `jobs`")?
    {
        let fingerprint = j
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("job missing `fingerprint`")?;
        let field = |k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("job {fingerprint:016x} missing `{k}`"))
        };
        out.push(JobRecord {
            fingerprint,
            tenant: field("tenant")?,
            priority: j.get("priority").and_then(Json::as_usize).unwrap_or(1) as u64,
            name: field("name")?,
            cost: j.get("cost").and_then(Json::as_usize).unwrap_or(0) as u64,
            spec_text: field("spec_text")?,
            state: JobState::from_name(&field("state")?)
                .ok_or_else(|| format!("job {fingerprint:016x} has an invalid state"))?,
            error: j.get("error").and_then(Json::as_str).map(str::to_string),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(fp: u64, state: JobState) -> JobRecord {
        JobRecord {
            fingerprint: fp,
            tenant: "t".to_string(),
            priority: 2,
            name: "toy".to_string(),
            cost: 15,
            spec_text: "[campaign]\nname = \"toy\"\n".to_string(),
            state,
            error: None,
        }
    }

    #[test]
    fn save_load_roundtrip_demotes_running_to_queued() {
        let dir = std::env::temp_dir().join(format!("dgflow-jobtable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let table = JobTable::load_or_new(&dir).unwrap();
        table.upsert(record(0xabc, JobState::Running)).unwrap();
        table.upsert(record(0xdef, JobState::Completed)).unwrap();
        table.set_state(0xdef, JobState::Completed, None).unwrap();
        drop(table);
        // Reload: the `running` crash marker demotes to `queued`.
        let back = JobTable::load_or_new(&dir).unwrap();
        assert_eq!(back.get(0xabc).unwrap().state, JobState::Queued);
        assert_eq!(back.get(0xdef).unwrap().state, JobState::Completed);
        let r = back.get(0xabc).unwrap();
        assert_eq!(r.tenant, "t");
        assert_eq!(r.priority, 2);
        assert_eq!(r.cost, 15);
        assert_eq!(r.spec_text, "[campaign]\nname = \"toy\"\n");
        assert!(!dir.join("queue.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_never_reads_a_stale_tmp() {
        let dir = std::env::temp_dir().join(format!("dgflow-jobtable-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        JobTable::load_or_new(&dir)
            .unwrap()
            .upsert(record(7, JobState::Queued))
            .unwrap();
        // A daemon killed before its rename leaves a torn tmp behind.
        let tmp = dir.join("queue.json.tmp");
        std::fs::write(&tmp, "{\"jobs\": [{\"finger").unwrap();
        let back = JobTable::load_or_new(&dir).unwrap();
        assert_eq!(back.all().len(), 1);
        assert_eq!(back.get(7).unwrap().state, JobState::Queued);
        back.set_state(7, JobState::Completed, None).unwrap();
        assert!(!tmp.exists(), "the next write reuses the stale tmp");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn upsert_replaces_by_fingerprint() {
        let dir = std::env::temp_dir().join(format!("dgflow-jobtable-up-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let table = JobTable::load_or_new(&dir).unwrap();
        table.upsert(record(1, JobState::Failed)).unwrap();
        table.upsert(record(1, JobState::Queued)).unwrap();
        assert_eq!(table.all().len(), 1);
        assert_eq!(table.get(1).unwrap().state, JobState::Queued);
        assert_eq!(table.counts(), (1, 0, 0, 0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
