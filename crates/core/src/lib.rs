//! The merge-phase simulator of Pai & Varman (ICDE 1992).
//!
//! This crate is the paper's primary contribution rebuilt in Rust: a
//! discrete-event simulation of the merge phase of external mergesort over
//! `D` independent input disks, under the Kwan–Baer random block-depletion
//! model, with
//!
//! * **no prefetching** (the single/multi-disk demand-fetch baseline),
//! * **intra-run prefetching** (`N` contiguous blocks from the demand run),
//! * **inter-run prefetching** (additionally `N` blocks of one random run
//!   from every other disk, admitted all-or-nothing against the cache),
//!
//! each in **synchronized** (CPU blocks until the whole operation
//! completes) or **unsynchronized** (CPU resumes as soon as the demand
//! block arrives) mode, with an optional finite-speed CPU.
//!
//! ## Model semantics (faithful to the paper's pseudocode)
//!
//! The merge repeatedly depletes the leading cached block of a uniformly
//! random live run. A `k`-way merge needs the leading record of *every*
//! run, so when a depletion leaves run `j` with no cached or in-flight
//! blocks, a demand fetch is issued immediately and the merge stalls until
//! the demand block (synchronized: the whole operation) arrives; when the
//! depleted run still has blocks in flight (unsynchronized prefetching),
//! the merge stalls until the next one arrives. Cache frames are committed
//! at issue time; when the cache cannot hold an entire inter-run operation
//! only the demand block is fetched (all-or-nothing admission). Each block
//! is queued at its disk as an individual request, so an `N`-block fetch
//! streams sequentially (one seek + one latency + `N·T`) unless another
//! request interleaves — reproducing both the amortization and the
//! queueing interference the paper analyzes.
//!
//! The decision procedure itself lives in [`DecisionCore`], which has no
//! clock: [`MergeSim`] drives it from its event loop, and the real-I/O
//! engine in `pm-engine` drives the same type from its I/O queue.
//!
//! Entry point: build a [`MergeConfig`], then [`MergeSim::run`] (or
//! [`run_trials`] for averaged repetitions, [`run_trials_parallel`] to
//! fan the trials over a worker pool with bit-identical results).
//! Results come back as a [`MergeReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod config;
mod decide;
mod depletion;
mod error;
mod layout;
mod loser_tree;
mod metrics;
pub mod parallel;
mod prefetch;
mod runner;
mod sim;
mod strategy;
mod timeline;
mod write;

pub use builder::ScenarioBuilder;
pub use config::{ConfigError, DataLayout, MergeConfig};
pub use decide::{DecisionCore, DecisionCounts, Wait};
pub use error::PmError;
pub use depletion::{DepletionModel, SkewedDepletion, TraceDepletion, UniformDepletion};
pub use layout::{RunLayout, RunPlacement};
pub use loser_tree::{LoserTree, MergeKey};
pub use metrics::MergeReport;
pub use prefetch::PrefetchChoice;
pub use runner::{
    run_trial_range, run_trial_range_metered, run_trials, run_trials_parallel,
    run_trials_traced, TrialSummary,
};
pub use sim::MergeSim;
pub use strategy::{PrefetchStrategy, SyncMode};
pub use timeline::{ServiceInterval, StallInterval, Timeline};
pub use write::WriteSpec;

// Re-export the vocabulary types callers need alongside the simulator.
pub use pm_cache::{AdmissionPolicy, RunId};
pub use pm_disk::{DiskId, DiskSpec, QueueDiscipline};
pub use pm_sim::{SimDuration, SimTime};
pub use pm_trace::{EventKind, NullSink, RecordingSink, TraceEvent, TraceSink};
