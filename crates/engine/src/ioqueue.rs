//! The [`IoQueue`] abstraction: batched submission / completion I/O.
//!
//! Where [`crate::BlockDevice`] is the *storage* SPI (whole blocks at
//! consecutive addresses in and out, synchronously), `IoQueue` is the
//! *I/O path* the engine drives: requests are submitted in batches,
//! completions are reaped in batches, and up to [`IoQueue::depth`]
//! requests per disk may wait for service at once. The bound is per disk
//! whatever the number of worker threads, and a request holds its slot
//! until its service starts (on io_uring, until the ring completes it).
//! Three implementations exist:
//!
//! * [`crate::ThreadedQueue`] — per-disk worker threads over any
//!   [`crate::BlockDevice`] (memory, file, file+`O_DIRECT`, latency). A
//!   worker reads each run of queued requests for consecutive blocks of
//!   one disk with one device call, unless the device models service
//!   time.
//! * [`crate::SharedPort`] — one job's lane into a
//!   [`crate::SharedDeviceSet`], contended with other jobs.
//! * `UringQueue` (feature `uring`) — one io_uring per disk file with
//!   `O_DIRECT` and registered buffers.
//!
//! ## Trait contract
//!
//! **Lifecycle.** A queue is created closed: [`IoQueue::write_block`]
//! loads data, one or more whole blocks at consecutive addresses per
//! call (setup is single-threaded, writes after [`IoQueue::open`] are
//! an error on most backends), `open` spawns
//! workers / initialises rings and anchors completion timestamps to the
//! caller's epoch, then [`IoQueue::submit`] / [`IoQueue::complete`]
//! drive the merge, and [`IoQueue::shutdown`] releases everything.
//!
//! **Ordering.** `submit` enqueues the slice's requests per disk in
//! slice order. Backends that model service time ([`crate::ThreadedQueue`]
//! over a [`crate::LatencyDevice`], [`crate::SharedPort`]) *service*
//! each disk's requests in that order — the FIFO premise
//! [`crate::MergeEngine::predict`] parity rests on. Completions carry
//! **no ordering guarantee at all**: any interleaving across disks and
//! even within one disk (io_uring) is legal, and the engine's decisions
//! are invariant to it by construction.
//!
//! **Requests and device calls.** A request reads one block and gets one
//! completion, whatever number of device calls the backend makes: a
//! backend may serve a disk's consecutive queued requests with one read
//! (an extent) as long as each disk's service order and per-request
//! completions stay as above. The requests of an extent share its
//! service interval evenly, so one disk's `[started_ns, finished_ns]`
//! intervals never overlap.
//!
//! **Buffer ownership.** A completion hands its payload to the caller as
//! an owned `Vec<u8>` in [`IoCompletion::data`]. Once the caller has
//! consumed a payload it may give the buffer back with
//! [`IoQueue::recycle`]; the backend then refills it for a later
//! completion instead of allocating a new one, so a merge that recycles
//! every block runs on a pool bounded by the blocks it holds plus those
//! in flight. A recycled buffer's length and contents do not matter:
//! the backend overwrites it with exactly one block. Recycling is a
//! hint: the default method drops the buffer, and a backend or wrapper
//! that ignores it only allocates more. A queue that wraps another
//! should forward `recycle`, as it forwards [`IoQueue::tenant`].
//!
//! **Error semantics.** Per-request read failures travel *inside* the
//! matching [`IoCompletion::data`]; `Err` from `submit`/`complete` means
//! the transport itself broke (workers died, ring torn down) and the
//! queue is dead. The CLI maps both onto
//! [`pm_core::PmError::Device`] with the backend's
//! [`IoQueue::backend`] label and exit code 2.

use std::io;
use std::time::Instant;

use pm_disk::{BlockAddr, DiskId, DiskRequest};

use crate::device::InjectedService;

/// One read request submitted to an [`IoQueue`].
#[derive(Debug, Clone, Copy)]
pub struct IoRequest {
    /// The disk request (disk, start block, length, tag).
    pub req: DiskRequest,
    /// Per-disk monotone span id (ties trace issue events to
    /// completions).
    pub span: u64,
    /// When the merge thread submitted the request (queue-wait metrics).
    pub submitted: Instant,
}

/// A serviced request on its way back from an [`IoQueue`].
#[derive(Debug)]
pub struct IoCompletion {
    /// The disk that serviced the request.
    pub disk: u16,
    /// The request's tag, echoed back.
    pub tag: u64,
    /// The request's span id, echoed back.
    pub span: u64,
    /// The request's `sequential_hint` (echoed for accounting).
    pub hint: bool,
    /// The modeled service, when the backend injects latency.
    pub injected: Option<InjectedService>,
    /// Submission instant, nanoseconds since the queue's epoch
    /// (`started_ns - submitted_ns` is the request's queue wait).
    pub submitted_ns: u64,
    /// Service start, nanoseconds since the queue's epoch. Backends
    /// that cannot observe the true start (io_uring) approximate it
    /// with the ring-submission instant.
    pub started_ns: u64,
    /// Service end, nanoseconds since the queue's epoch.
    pub finished_ns: u64,
    /// The block payload, or the per-request read error.
    pub data: io::Result<Vec<u8>>,
}

/// Engine-independent knobs an [`IoQueue`] is built with.
#[derive(Debug, Clone, Copy)]
pub struct QueueOptions {
    /// Per-disk bound on requests waiting for service (submission
    /// backpressure; ring depth on io_uring). It holds for each disk at
    /// any [`QueueOptions::jobs`], and a request holds its slot until its
    /// service starts. `0` behaves as `1`.
    pub depth: usize,
    /// Worker threads for threaded backends (`0` = one per disk).
    pub jobs: usize,
    /// Wall-clock scale for injected latency sleeps.
    pub time_scale: f64,
}

impl Default for QueueOptions {
    fn default() -> Self {
        QueueOptions {
            depth: 1,
            jobs: 0,
            time_scale: 1.0,
        }
    }
}

/// A batched-submission block-I/O queue (see the module docs for the
/// full contract).
pub trait IoQueue: Send {
    /// Stable label naming the backend (`"memory"`, `"file"`,
    /// `"latency"`, `"uring"`, …) — used in error context and metrics.
    fn backend(&self) -> &'static str;

    /// Bytes per block.
    fn block_bytes(&self) -> usize;

    /// Number of disks.
    fn disks(&self) -> usize;

    /// Negotiated per-disk queue depth (`0` = effectively unbounded,
    /// e.g. a shared set's scheduler queue).
    fn depth(&self) -> usize;

    /// The tenant this queue's reads are tagged with
    /// ([`pm_trace::pack_tenant_tag`]): a [`crate::SharedPort`]'s job
    /// index, `0` for a queue the merge owns alone (whose tags are then
    /// the plain [`pm_trace::pack_tag`] ones). A queue that wraps another
    /// should forward it.
    fn tenant(&self) -> u16 {
        0
    }

    /// Whether other jobs share this queue's disks (a
    /// [`crate::SharedPort`]); their owner, not the merge, then reports
    /// the disks' outstanding requests. A wrapper should forward it.
    fn shared(&self) -> bool {
        false
    }

    /// Writes `data` — one or more whole blocks — at consecutive
    /// addresses from `start` on `disk` (setup only: most backends
    /// reject writes after [`IoQueue::open`]).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `data` is empty or not a
    /// whole number of blocks; any I/O failure, or writing after `open`
    /// on a backend that forbids it.
    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()>;

    /// Transitions the queue from setup to I/O: spawns workers or
    /// initialises rings, and anchors completion timestamps to
    /// `epoch`. Idempotent.
    ///
    /// # Errors
    ///
    /// Any failure bringing the transport up.
    fn open(&mut self, epoch: Instant) -> io::Result<()>;

    /// Submits a batch of reads; per-disk order follows slice order.
    /// May block on backpressure when a disk's depth is exhausted.
    ///
    /// # Errors
    ///
    /// Transport failure (per-request read errors come back inside
    /// completions instead).
    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()>;

    /// Reaps completions into `out` (appending), blocking until at
    /// least `min_wait` are available (`0` = poll). Returns how many
    /// were appended — at least `min_wait`, plus everything else
    /// already finished.
    ///
    /// # Errors
    ///
    /// Transport failure, or waiting with nothing in flight.
    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize>;

    /// Hands back a payload buffer the caller has consumed, for the
    /// backend to refill with a later completion (see *Buffer ownership*
    /// in the module docs). The default drops it.
    fn recycle(&mut self, buf: Vec<u8>) {
        drop(buf);
    }

    /// Releases workers, rings, and buffers. Idempotent.
    ///
    /// # Errors
    ///
    /// Any failure tearing the transport down.
    fn shutdown(&mut self) -> io::Result<()>;
}
