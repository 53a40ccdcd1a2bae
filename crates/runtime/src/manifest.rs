//! The run manifest: the campaign's durable record of what happened.
//!
//! One JSON document per campaign output directory, listing every case
//! with its status, progress, and checkpoint location. Every mutation is
//! persisted with [`crate::durable_write`], so a process killed at any
//! instant leaves either the previous or the next consistent manifest —
//! never a torn one. `dgflow resume` reads it
//! to decide which cases are done, which crashed mid-flight (status
//! `running`) and restart from their checkpoints, and which never
//! started.

use crate::cache::Fnv;
use crate::json::{self, Json};
use std::io;
use std::path::{Path, PathBuf};

/// Lifecycle of one case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseStatus {
    /// Not started yet.
    Pending,
    /// Started; if the process died this is the crash marker resume
    /// looks for.
    Running,
    /// Ran to its target step count.
    Completed,
    /// Errored; resume retries it from the last checkpoint.
    Failed,
    /// Cancelled before completion; resume continues it.
    Cancelled,
}

impl CaseStatus {
    /// Manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CaseStatus::Pending => "pending",
            CaseStatus::Running => "running",
            CaseStatus::Completed => "completed",
            CaseStatus::Failed => "failed",
            CaseStatus::Cancelled => "cancelled",
        }
    }

    /// Parse a manifest spelling.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "pending" => CaseStatus::Pending,
            "running" => CaseStatus::Running,
            "completed" => CaseStatus::Completed,
            "failed" => CaseStatus::Failed,
            "cancelled" => CaseStatus::Cancelled,
            _ => return None,
        })
    }

    /// Does `resume` need to (re)run this case?
    pub fn needs_run(self) -> bool {
        !matches!(self, CaseStatus::Completed)
    }
}

/// Per-case manifest record.
#[derive(Clone, Debug)]
pub struct CaseRecord {
    /// Case name (matches the expanded spec).
    pub name: String,
    /// Current status.
    pub status: CaseStatus,
    /// Steps completed so far.
    pub steps_done: usize,
    /// Target step count.
    pub steps_target: usize,
    /// Wall seconds spent in this case across all attempts.
    pub wall_seconds: f64,
    /// Checkpoint path relative to the output directory, if one was
    /// written.
    pub checkpoint: Option<String>,
    /// Error text of the last failure, if any.
    pub error: Option<String>,
}

/// The campaign manifest.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Campaign name.
    pub campaign: String,
    /// Fingerprint of the spec text this run was started from; resume
    /// refuses to continue under an edited spec.
    pub spec_fingerprint: u64,
    /// Per-case records, in deterministic case order.
    pub cases: Vec<CaseRecord>,
}

impl Manifest {
    /// Fresh manifest with every case pending.
    pub fn new(
        campaign: &str,
        spec_fingerprint: u64,
        cases: impl IntoIterator<Item = (String, usize)>,
    ) -> Self {
        Self {
            campaign: campaign.to_string(),
            spec_fingerprint,
            cases: cases
                .into_iter()
                .map(|(name, steps_target)| CaseRecord {
                    name,
                    status: CaseStatus::Pending,
                    steps_done: 0,
                    steps_target,
                    wall_seconds: 0.0,
                    checkpoint: None,
                    error: None,
                })
                .collect(),
        }
    }

    /// Are all cases completed?
    pub fn all_completed(&self) -> bool {
        self.cases.iter().all(|c| c.status == CaseStatus::Completed)
    }

    /// Manifest file path inside an output directory.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join("manifest.json")
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("campaign", Json::Str(self.campaign.clone())),
            (
                "spec_fingerprint",
                Json::Str(format!("{:016x}", self.spec_fingerprint)),
            ),
            (
                "cases",
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::Str(c.name.clone())),
                                ("status", Json::Str(c.status.as_str().to_string())),
                                ("steps_done", Json::Num(c.steps_done as f64)),
                                ("steps_target", Json::Num(c.steps_target as f64)),
                                ("wall_seconds", Json::Num(c.wall_seconds)),
                                (
                                    "checkpoint",
                                    c.checkpoint.clone().map(Json::Str).unwrap_or(Json::Null),
                                ),
                                (
                                    "error",
                                    c.error.clone().map(Json::Str).unwrap_or(Json::Null),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Persist durably into `dir` (see [`crate::durable_write`]).
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        crate::durable_write(
            &Self::path_in(dir),
            format!("{}\n", self.to_json()).as_bytes(),
        )
    }

    /// Load from `dir`.
    pub fn load(dir: &Path) -> io::Result<Self> {
        let path = Self::path_in(dir);
        let text = std::fs::read_to_string(&path)?;
        Self::from_json_text(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    fn from_json_text(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let campaign = doc
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or("manifest missing `campaign`")?
            .to_string();
        let spec_fingerprint = doc
            .get("spec_fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("manifest missing `spec_fingerprint`")?;
        let mut cases = Vec::new();
        for c in doc
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or("manifest missing `cases`")?
        {
            let name = c
                .get("name")
                .and_then(Json::as_str)
                .ok_or("case missing `name`")?
                .to_string();
            let status = c
                .get("status")
                .and_then(Json::as_str)
                .and_then(CaseStatus::from_name)
                .ok_or_else(|| format!("case `{name}` has an invalid status"))?;
            cases.push(CaseRecord {
                status,
                steps_done: c
                    .get("steps_done")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("case `{name}` missing `steps_done`"))?,
                steps_target: c
                    .get("steps_target")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("case `{name}` missing `steps_target`"))?,
                wall_seconds: c.get("wall_seconds").and_then(Json::as_f64).unwrap_or(0.0),
                checkpoint: c
                    .get("checkpoint")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                error: c.get("error").and_then(Json::as_str).map(str::to_string),
                name,
            });
        }
        Ok(Self {
            campaign,
            spec_fingerprint,
            cases,
        })
    }
}

/// FNV-1a fingerprint of a spec text (stable across platforms).
pub fn text_fingerprint(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.0
}

/// FNV-1a fingerprint of the *canonical* form of a spec text (sorted keys
/// per table, normalized whitespace/number formatting, comments dropped —
/// see [`crate::toml::canonicalize`]), so semantically identical TOML
/// spellings dedupe to the same fingerprint. Falls back to the raw-text
/// fingerprint when the text does not parse as a spec document.
pub fn canonical_fingerprint(text: &str) -> u64 {
    match crate::toml::canonicalize(text) {
        Ok(canon) => text_fingerprint(&canon),
        Err(_) => text_fingerprint(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = std::env::temp_dir().join(format!("dgflow-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = Manifest::new(
            "toy",
            text_fingerprint("spec"),
            [("a".to_string(), 10), ("b".to_string(), 20)],
        );
        m.cases[0].status = CaseStatus::Completed;
        m.cases[0].steps_done = 10;
        m.cases[0].checkpoint = Some("a/checkpoint.ck".to_string());
        m.cases[1].status = CaseStatus::Failed;
        m.cases[1].error = Some("solver diverged: \"NaN\"".to_string());
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back.campaign, "toy");
        assert_eq!(back.spec_fingerprint, m.spec_fingerprint);
        assert_eq!(back.cases.len(), 2);
        assert_eq!(back.cases[0].status, CaseStatus::Completed);
        assert_eq!(back.cases[0].checkpoint.as_deref(), Some("a/checkpoint.ck"));
        assert_eq!(
            back.cases[1].error.as_deref(),
            Some("solver diverged: \"NaN\"")
        );
        assert!(!back.all_completed());
        // no tmp file left behind
        assert!(!dir.join("manifest.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn canonical_fingerprint_dedupes_reordered_and_reformatted_specs() {
        let a = "[campaign]\nname = \"toy\"\ncheckpoint_every = 10\n\n\
                 [[case]]\nname = \"duct\"\nmesh = \"duct\"\ndegree = 2\nsteps = 5\ndt_max = 1e-2\n";
        // same campaign: keys reordered, numbers respelled, comments and
        // stray whitespace added
        let b = "# reformatted by hand\n[campaign]\ncheckpoint_every=10\n  name = \"toy\"\n\n\
                 [[case]]\ndt_max = 0.01\nsteps = 5\n   degree = 2\nmesh = \"duct\"  # duct\nname = \"duct\"\n";
        assert_eq!(canonical_fingerprint(a), canonical_fingerprint(b));
        assert_ne!(text_fingerprint(a), text_fingerprint(b));
        // a real edit changes the canonical fingerprint
        let c = a.replace("steps = 5", "steps = 6");
        assert_ne!(canonical_fingerprint(a), canonical_fingerprint(&c));
        // non-spec text falls back to the raw fingerprint
        assert_eq!(
            canonical_fingerprint("not a spec ["),
            text_fingerprint("not a spec [")
        );
    }

    #[test]
    fn needs_run_partitions_statuses() {
        assert!(CaseStatus::Pending.needs_run());
        assert!(CaseStatus::Running.needs_run());
        assert!(CaseStatus::Failed.needs_run());
        assert!(CaseStatus::Cancelled.needs_run());
        assert!(!CaseStatus::Completed.needs_run());
    }

    #[test]
    fn load_never_reads_a_stale_tmp() {
        let dir = std::env::temp_dir().join(format!("dgflow-manifest-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest::new("toy", text_fingerprint("spec"), [("a".to_string(), 4)]);
        m.save(&dir).unwrap();
        // A writer killed before its rename leaves a torn tmp behind.
        let tmp = dir.join("manifest.json.tmp");
        std::fs::write(&tmp, "{\"campaign\": \"torn").unwrap();
        assert_eq!(Manifest::load(&dir).unwrap().campaign, "toy");
        m.save(&dir).unwrap();
        assert!(!tmp.exists(), "the next save reuses the stale tmp");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("dgflow-manifest-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(Manifest::path_in(&dir), "{\"campaign\": 7}").unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
