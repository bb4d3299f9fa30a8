//! Experiment-level observability for the prefetchmerge reproduction.
//!
//! The simulator (`pm-core`) answers "what does one configuration do";
//! this crate watches **experiments** — suites of many configurations —
//! and makes them auditable:
//!
//! * [`manifest`] — JSONL run manifests: every experiment point as one
//!   self-describing, replayable JSON line. Byte-identical for every
//!   worker-thread count (the determinism contract of PR 1 extended to
//!   the experiment layer).
//! * [`progress`] — a [`ProgressSink`] trait driven from the trial
//!   runners, with a throttled stderr renderer (points done, trial
//!   throughput, EWMA ETA) and a silent default.
//! * [`convergence`] — adaptive trial counts: keep adding trials until
//!   the confidence interval is relatively narrow, deterministically.
//! * [`residual`] — the sim-vs-analytic monitor: maps configurations to
//!   the paper's closed forms and checks measurements against them with
//!   per-equation tolerances (two-sided for eqs. 1–5, one-sided for the
//!   `kBT/D` lower bound, the urn asymptote, and the urn concurrency
//!   ceiling).
//! * [`suite`] — the standing validation set (T1/T2 tables, Fig. 3.2
//!   curves) and the driver that runs any point list into records.
//! * [`html`] — a fully self-contained HTML report (inline CSS + SVG)
//!   with residual badges, CI error bars, and convergence diagnostics.
//! * [`metrics`] — exporters over [`pm_metrics`] registry snapshots
//!   (Prometheus text / JSON) plus the throttled live status view and
//!   periodic snapshot writer behind `--metrics-out`.
//!
//! # Example
//!
//! ```
//! use pm_obs::manifest::render_manifest;
//! use pm_obs::html::render_report;
//! use pm_obs::suite::{run_suite, PointSpec, SuiteOptions};
//! use pm_obs::{NullProgress, RecordKind, TrialsMode};
//!
//! let mut cfg = pm_core::ScenarioBuilder::new(4, 2).intra(5).build().unwrap();
//! cfg.run_blocks = 40;
//! let points = vec![PointSpec {
//!     kind: RecordKind::T1Case,
//!     label: "tiny intra".into(),
//!     sweep: None,
//!     x: None,
//!     x_label: None,
//!     config: cfg,
//! }];
//! let opts = SuiteOptions {
//!     trials: TrialsMode::Fixed(3),
//!     ..SuiteOptions::new(1992)
//! };
//! let records = run_suite(&points, &opts, &NullProgress).unwrap();
//! assert!(render_manifest(&records).ends_with("\n"));
//! assert!(render_report(&records).starts_with("<!DOCTYPE html>"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod html;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod residual;
pub mod suite;

pub use convergence::{run_trials_converged, ConvergenceDecision, ConvergencePolicy, TrialsMode};
pub use html::render_report;
pub use manifest::{
    env_record_line, parse_manifest, render_manifest, DiskRollup, ManifestRecord, PointMetrics,
    RecordKind, TenantInfo, TraceRollup, SCHEMA_VERSION,
};
pub use metrics::{
    metrics_json, render_metrics, snapshot_path, LiveMetrics, LiveMetricsOptions, MetricsFormat,
};
pub use progress::{NullProgress, ProgressSink, StderrProgress};
pub use residual::{closed_form, Bound, ResidualCheck, TolerancePolicy};
pub use suite::{run_suite, validation_points, PointSpec, SuiteOptions};
