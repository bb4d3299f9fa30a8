//! Experiment workloads for the Pai & Varman (ICDE 1992) reproduction.
//!
//! Each figure in the paper's evaluation is a family of simulator
//! configurations swept over one independent variable. This crate encodes
//! those families once, so the `pm-bench` binaries, the examples, and the
//! integration tests all run *exactly* the same scenarios:
//!
//! * [`paper::fig2_panel`] — total time vs. prefetch depth `N` (Fig. 3.2
//!   a/b/c).
//! * [`paper::fig3_cpu_sweep`] — total time vs. CPU time per block
//!   (Fig. 3.3).
//! * [`paper::cache_sweep`] — cache-size sweeps shared by Fig. 3.5 (total
//!   time) and Fig. 3.6 (success ratio), panels a/b/c.
//! * [`paper::t1_cases`] / [`paper::t2_cases`] — the estimated-vs-simulated
//!   cases of tables T1 and T2, which `validation_table`,
//!   `concurrency_table`, `make_report` and `pmerge validate` all read.
//!
//! [`Sweep`]/[`SweepPoint`] carry the scenario structure. Every point is a
//! plain [`MergeConfig`](pm_core::MergeConfig); `pm-obs` manifests store
//! and replay it directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;
mod sweep;

pub use sweep::{Sweep, SweepPoint};
