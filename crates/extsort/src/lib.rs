//! A real external mergesort whose merge phase can drive the
//! `prefetchmerge` simulator.
//!
//! The paper replaces actual merge data with the Kwan–Baer *random
//! depletion model*. To test that modeling assumption (experiment A3 in
//! DESIGN.md) this crate implements the algorithm for real:
//!
//! * [`Record`] — fixed-size sort records (64-bit key + record id; the
//!   paper's blocks hold 40 such records in 4096 bytes).
//! * [`generate`] — input distributions (uniform random, nearly sorted,
//!   reverse sorted, few distinct keys).
//! * [`run_formation`] — sorted-run creation: memory-load sorting (equal
//!   runs, as the paper's setup assumes) and replacement selection
//!   (≈ `2M` average run length on random input; Knuth vol. 3 §5.4.1).
//! * [`pm_core::LoserTree`] — the classic tournament tree used for the
//!   `k`-way merge, `O(log k)` per record.
//! * [`plan`] — multi-pass merge-tree planning (`greedy-max` or
//!   `balanced` fan-in) with pass-by-pass simulation, for merges whose
//!   order exceeds the cache-supported fan-in.
//! * [`external_sort`] — the full pipeline. Besides the sorted output it
//!   records the **block-depletion trace**: the order in which the merge
//!   finishes blocks of each run. Feeding that trace to
//!   [`TraceDepletion`](pm_core::TraceDepletion) replays a *data-driven*
//!   merge through the same simulated disks the random model uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod plan;
pub mod run_formation;

mod record;
mod sorter;

pub use record::Record;
pub use sorter::{external_sort, ExtSortConfig, RunFormation, SortOutcome};
