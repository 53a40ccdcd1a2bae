//! `dgflow-serve` — the persistent multi-tenant simulation service.
//!
//! `dgflow-runtime` runs one campaign per process; this crate turns the
//! solver stack into a *backend* behind a long-running daemon:
//!
//! * **Protocol** ([`proto`]) — line-delimited JSON over a Unix domain
//!   socket: `submit | status | result | cancel | stats | shutdown`.
//! * **Durable job queue** ([`queue`]) — accepted jobs persist to
//!   `queue.json` (through `durable_write`, like the campaign manifest)
//!   *before* the submit is acknowledged; a killed daemon restarts with
//!   its queue intact and resumes running jobs from their checkpoints.
//! * **Fairness** ([`fair`]) — deficit-round-robin dispatch across
//!   tenants, weighted by the `priority` field and metered by campaign
//!   step cost, with per-tenant in-flight caps. Built on the
//!   `dgflow_check` shim seam so `cargo xtask model` exhaustively checks
//!   the admission/drain paths.
//! * **Result store** ([`service`]) — jobs are keyed by the *canonical*
//!   fingerprint of their spec ([`job_fingerprint`]); a resubmission of a
//!   semantically identical spec (any key order, whitespace, or number
//!   spelling) is a whole-case cache hit served from the stored
//!   `summary.json` without solving a single step.
//! * **Telemetry aggregation** ([`service`]) — per-case JSONL telemetry
//!   streams into the `dgflow-trace` metrics registry (throughput,
//!   latency, queue depth), exported by the `stats` verb.
//! * **Signals** ([`signal`]) — SIGINT/SIGTERM trip the
//!   [`dgflow_comm::CancelToken`] for drain-and-checkpoint shutdown in
//!   both `dgflow run` and `dgflow serve`.
//!
//! The `dgflow` binary (in `src/bin/dgflow.rs`) front-ends both layers:
//! the classic one-shot verbs (`run`/`resume`/`validate`/`status`/
//! `trace`) and the service verbs (`serve`/`submit`/`svc`).

pub mod fair;
pub mod proto;
pub mod queue;
pub mod service;
pub mod signal;

pub use fair::{FairScheduler, TenantSnapshot};
pub use queue::{JobRecord, JobState, JobTable};
pub use service::{client_request, serve, ServeConfig};

/// The canonical job spelling of a spec: its canonical TOML form with
/// `campaign.output` dropped — the service chooses output placement
/// itself, so two clients submitting the same physics with different
/// scratch paths still spell the same job. Unparseable text canonicalizes
/// to itself (`submit` rejects it anyway, so the fallback only keeps the
/// function total). Two specs are *the same job* iff their canonical job
/// texts are equal; [`job_fingerprint`] is only the 64-bit index of that
/// identity, and the service re-checks text equality on every dedup hit
/// because FNV-1a is not collision-resistant.
pub fn canonical_job_text(spec_text: &str) -> String {
    dgflow_runtime::toml::canonicalize_filtered(spec_text, |table, key| {
        !(table == "campaign" && key == "output")
    })
    .unwrap_or_else(|_| spec_text.to_string())
}

/// The service's job key: the FNV-1a fingerprint of
/// [`canonical_job_text`].
pub fn job_fingerprint(spec_text: &str) -> u64 {
    dgflow_runtime::text_fingerprint(&canonical_job_text(spec_text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_fingerprint_ignores_output_placement() {
        let a = "[campaign]\nname = \"toy\"\noutput = \"/tmp/a\"\n\n\
                 [[case]]\nname = \"c\"\nmesh = \"duct\"\nsteps = 3\n";
        let b = "[campaign]\noutput = \"/scratch/b\"\nname = \"toy\"\n\n\
                 [[case]]\nsteps = 3\nmesh = \"duct\"\nname = \"c\"\n";
        assert_eq!(job_fingerprint(a), job_fingerprint(b));
        // ... but not the physics
        let c = a.replace("steps = 3", "steps = 4");
        assert_ne!(job_fingerprint(a), job_fingerprint(&c));
    }
}
