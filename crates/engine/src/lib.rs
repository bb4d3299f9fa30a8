//! pm-engine — real-I/O execution of the paper's merge phase.
//!
//! Where [`pm_core::MergeSim`] advances a virtual clock over a modeled
//! disk array, this crate drives the *same* [`pm_core::DecisionCore`] —
//! initial load, demand fetches, inter-run prefetch operations,
//! admission, AIMD depth adaptation — against an [`IoQueue`] with
//! batched submission and completion, merging real records through
//! [`pm_core::LoserTree`].
//!
//! The engine talks to storage through the [`IoQueue`] trait (batched
//! submit/complete, explicit open and depth negotiation). Queues:
//!
//! * [`ThreadedQueue`] — per-disk worker threads over any
//!   [`BlockDevice`]: [`MemoryDevice`] (the golden reference),
//!   [`FileDevice`] (buffered or `O_DIRECT` files; tmpfs for smoke
//!   tests, real disks for real measurements), or [`LatencyDevice`]
//!   (injects the pm-disk seek/rotation model's deterministic service
//!   time, for cross-validation via [`MergeEngine::predict`]).
//! * `UringQueue` (feature `uring`, Linux) — one io_uring per disk file
//!   with `O_DIRECT` and registered buffers, completing out of order at
//!   queue depth > 1.
//! * [`SharedPort`] — one job's lane into a [`SharedDeviceSet`],
//!   scheduled against other jobs by a [`pm_service::IoSched`] policy.
//! * [`BlockingQueue`] — deprecated depth-1 shim over a bare
//!   [`BlockDevice`], the pre-queue calling convention.
//!
//! ```
//! use pm_core::ScenarioBuilder;
//! use pm_engine::{ExecConfig, MergeEngine, ThreadedQueue};
//! use pm_extsort::Record;
//!
//! let cfg = ScenarioBuilder::new(4, 2).intra(3).build().unwrap();
//! let runs: Vec<Vec<Record>> = (0..4)
//!     .map(|r| (0..100u64).map(|i| Record::new(i * 4 + r, i)).collect())
//!     .collect();
//! let engine = MergeEngine::new(
//!     ExecConfig::new(cfg),
//!     runs.iter().map(Vec::len).collect(),
//! )
//! .unwrap();
//! let mut queue = ThreadedQueue::memory(2, engine.block_bytes(), engine.queue_options());
//! engine.load(&mut queue, &runs).unwrap();
//! let outcome = engine.execute(Box::new(queue)).unwrap();
//! assert!(outcome.output.windows(2).all(|w| w[0].key <= w[1].key));
//! assert_eq!(outcome.output.len(), 400);
//! ```

#![cfg_attr(not(feature = "uring"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod device;
mod engine;
mod ioqueue;
mod multipass;
mod shared;
#[cfg(feature = "uring")]
#[allow(unsafe_code)]
mod uring;
mod workers;

pub use block::{block_bytes, decode_records, encode_records, RECORD_BYTES};
pub use device::{
    BlockDevice, FileDevice, InjectedService, LatencyDevice, MemoryDevice, DIRECT_ALIGN,
};
pub use engine::{
    disk_seed_for, EnginePrediction, ExecConfig, ExecOutcome, ExecReport, MergeEngine,
};
#[allow(deprecated)]
pub use ioqueue::BlockingQueue;
pub use ioqueue::{IoCompletion, IoQueue, IoRequest, QueueOptions};
pub use multipass::{
    clean_stale_passes, MultiPassExecutor, MultiPassOptions, MultiPassOutcome,
    PassBackend, PassOutcome,
};
pub use shared::{SharedDeviceSet, SharedPort};
#[cfg(feature = "uring")]
pub use uring::{uring_available, UringQueue};
pub use workers::ThreadedQueue;
