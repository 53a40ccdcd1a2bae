//! `dgflow-runtime` — the simulation-campaign layer on top of the DG
//! solver stack.
//!
//! A *campaign* is a declarative TOML file describing a set of flow
//! cases (mesh family, polynomial degree, time-integration and solver
//! parameters, output cadence), possibly as a parameter sweep. The
//! runtime turns it into solver runs with:
//!
//! * **Validated specs** ([`spec`]) — a span-tracking TOML-subset parser
//!   ([`toml`]) whose errors point at the offending line and column,
//!   rustc-style, instead of "invalid config".
//! * **Scheduling** ([`sched`]) — a bounded job queue drained by
//!   dedicated worker threads with deterministic result ordering and
//!   graceful cancellation ([`dgflow_comm::CancelToken`]); the DG
//!   kernels inside each case share the process-wide
//!   [`dgflow_comm::ThreadPool`].
//! * **Setup caching** ([`cache`]) — 1-D Lagrange/quadrature tables and
//!   geometry metric samplings memoized across the cases of a sweep,
//!   keyed by `(degree, node set, n_q)` and `(mesh hash, mapping
//!   degree)`.
//! * **Fault tolerance** ([`campaign`], [`manifest`]) — periodic atomic
//!   checkpoints, a durable per-case manifest, and `resume` that
//!   continues a killed campaign from the last checkpoints. Every durable
//!   file goes through the one writer [`durable_write`].
//! * **Telemetry** ([`telemetry`]) — per-kernel wall time and DoF
//!   throughput as JSONL, cross-checked against the analytic
//!   [`dgflow_perfmodel`] work model.
//!
//! The `dgflow` binary (in `crates/serve/src/bin/dgflow.rs`) is the CLI
//! entry: `dgflow run|resume|validate|status|serve <...>`.

pub mod cache;
pub mod campaign;
mod durable;
pub mod json;
pub mod manifest;
pub mod sched;
pub mod spec;
pub mod telemetry;
pub mod toml;

pub use cache::{CacheSnapshot, SetupCache};
pub use campaign::{run_campaign, run_campaign_with, CampaignOutcome};
pub use durable::durable_write;
pub use manifest::{canonical_fingerprint, text_fingerprint, CaseStatus, Manifest};
pub use spec::{CampaignSpec, CaseSpec, MeshKind};
