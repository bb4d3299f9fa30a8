//! [`ThreadedQueue`]: the worker-thread [`IoQueue`] over any
//! [`BlockDevice`].
//!
//! `min(jobs, disks)` workers (one per disk when `jobs == 0`) each serve
//! the disks `disk mod workers` from one FIFO request queue, so every
//! disk has exactly one extent (below) in service at a time and is
//! serviced in submission order. Completions flow back over one
//! unbounded channel the merge thread reaps in batches.
//!
//! ## Hand-off
//!
//! The merge thread and the workers pass whole batches and wake each
//! other only when the other side sleeps:
//!
//! * `submit` pushes each worker's share of a batch under one lock and
//!   wakes the worker only if it sleeps for want of work. Payload
//!   buffers the merge gave back ([`IoQueue::recycle`]) ride along under
//!   the same lock, at most one per request.
//! * A worker takes everything queued under one lock and services it in
//!   order, one extent at a time. It publishes an extent's completions
//!   under one lock as soon as the extent is serviced (the latency
//!   backend's timing depends on it), waking the reaper only if the
//!   reaper waits.
//! * `complete` takes every available completion under one lock.
//!
//! Backpressure is per disk, at any worker count: at most
//! [`QueueOptions::depth`] requests of one disk wait for service. A
//! request holds its slot until its service starts; a submission that
//! finds its disk full sleeps until the worker starts one of them.
//!
//! A worker that dies by panic closes its request queue and the
//! completion channel as it unwinds, so `submit` and `complete` return
//! `Err` instead of hanging.
//!
//! ## Extents
//!
//! Within a taken batch, a request joins the one before it when it reads
//! the next block of the same disk. The worker serves each maximal run
//! of such requests as one extent: one [`BlockDevice::read_block`] into
//! a reused buffer, split back into one completion per request, in batch
//! order, each block copied into a recycled payload buffer when the
//! worker holds one. Every request of an extent starts service, and
//! frees its depth slot, when the extent does. Each gets an even share of the extent's
//! measured service interval, so a disk's intervals stay disjoint and
//! sum to the measured time. A request whose service the device models
//! ([`BlockDevice::service_timing`] returns `Some`) is served alone:
//! that call advances the disk model, so it is made exactly once per
//! request, and its result is that request's.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pm_core::PmError;
use pm_disk::{BlockAddr, DiskId, DiskSpec, QueueDiscipline};

use crate::device::{BlockDevice, FileDevice, InjectedService, LatencyDevice, MemoryDevice};
use crate::ioqueue::{IoCompletion, IoQueue, IoRequest, QueueOptions};

struct ChannelInner<T> {
    items: Vec<T>,
    closed: bool,
    /// The consumer sleeps in [`Channel::recv_into`].
    waiting: bool,
}

/// A minimal unbounded Mutex+Condvar channel with one consumer, which
/// producers wake only while it sleeps.
pub(crate) struct Channel<T> {
    inner: Mutex<ChannelInner<T>>,
    ready: Condvar,
}

impl<T> Channel<T> {
    pub(crate) fn new() -> Self {
        Channel {
            inner: Mutex::new(ChannelInner {
                items: Vec::new(),
                closed: false,
                waiting: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Pushes `items` in order under one lock. Pushes are lost after
    /// `close`.
    pub(crate) fn push(&self, items: impl IntoIterator<Item = T>) {
        let mut inner = self.inner.lock().expect("channel poisoned");
        if inner.closed {
            return;
        }
        inner.items.extend(items);
        let wake = std::mem::take(&mut inner.waiting);
        drop(inner);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Blocks until at least `min` items are available, then appends
    /// every available item to `out` in push order and returns how many.
    /// `None` once the channel closed with fewer than `min` left.
    pub(crate) fn recv_into(&self, out: &mut Vec<T>, min: usize) -> Option<usize> {
        let mut inner = self.inner.lock().expect("channel poisoned");
        while inner.items.len() < min {
            if inner.closed {
                return None;
            }
            inner.waiting = true;
            inner = self.ready.wait(inner).expect("channel poisoned");
        }
        inner.waiting = false;
        let n = inner.items.len();
        out.append(&mut inner.items);
        Some(n)
    }

    /// Never panics: it runs in a dying worker's unwind guard, and
    /// setting the flag is valid whatever a panicking holder left.
    pub(crate) fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }
}

struct RequestState {
    items: Vec<IoRequest>,
    /// Recycled payload buffers for the worker to fill.
    buffers: Vec<Vec<u8>>,
    closed: bool,
    /// The worker sleeps for want of work.
    worker_asleep: bool,
}

/// One worker's FIFO of requests, bounded per disk.
struct RequestQueue {
    state: Mutex<RequestState>,
    /// Wakes the worker: requests queued, or the queue closed.
    work: Condvar,
    /// Wakes the submitter: a slot freed, or the queue closed.
    space: Condvar,
    /// Per served disk (`disk / workers`): requests submitted whose
    /// service has not started, queued or taken by the worker.
    waiting: Vec<AtomicUsize>,
    /// The submitter sleeps on `space`. Paired with `waiting`: the
    /// submitter sets this flag before re-reading a full slot count, the
    /// worker frees a slot before reading the flag, so (both `SeqCst`)
    /// at least one of them sees the other's write and no wake-up is
    /// lost.
    submitter_asleep: AtomicBool,
    workers: usize,
    depth: usize,
}

impl RequestQueue {
    fn new(disks: usize, workers: usize, depth: usize) -> Self {
        RequestQueue {
            state: Mutex::new(RequestState {
                items: Vec::new(),
                buffers: Vec::new(),
                closed: false,
                worker_asleep: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            waiting: (0..disks.div_ceil(workers))
                .map(|_| AtomicUsize::new(0))
                .collect(),
            submitter_asleep: AtomicBool::new(false),
            workers,
            depth,
        }
    }

    fn slots(&self, io: &IoRequest) -> &AtomicUsize {
        &self.waiting[io.req.disk.0 as usize / self.workers]
    }

    /// Queues `reqs` in order under one lock, sleeping whenever a disk's
    /// `depth` slots are all taken, and moves up to one buffer per
    /// request from `spare` to the worker. `Err` once the queue is
    /// closed.
    fn push(&self, reqs: &[IoRequest], spare: &mut Vec<Vec<u8>>) -> io::Result<()> {
        let mut state = self.state.lock().expect("request queue poisoned");
        // First, so a worker that starts these requests while the
        // submitter waits for a slot has their buffers.
        let keep = spare.len().saturating_sub(reqs.len());
        state.buffers.extend(spare.drain(keep..));
        for io in reqs {
            let slots = self.slots(io);
            loop {
                if state.closed {
                    return Err(io::Error::other("I/O worker exited"));
                }
                if slots.load(SeqCst) < self.depth {
                    break;
                }
                // The disk's queued requests may be ours, not yet
                // handed over: the worker must run to free a slot.
                if std::mem::take(&mut state.worker_asleep) {
                    self.work.notify_one();
                }
                self.submitter_asleep.store(true, SeqCst);
                if slots.load(SeqCst) >= self.depth {
                    state = self.space.wait(state).expect("request queue poisoned");
                }
            }
            slots.fetch_add(1, SeqCst);
            state.items.push(*io);
        }
        let wake = std::mem::take(&mut state.worker_asleep);
        drop(state);
        if wake {
            self.work.notify_one();
        }
        Ok(())
    }

    /// Moves everything queued into the empty `batch`, and every buffer
    /// handed over into `pool`, sleeping while nothing is queued; `false`
    /// once the queue is closed and drained.
    fn take_all(&self, batch: &mut Vec<IoRequest>, pool: &mut Vec<Vec<u8>>) -> bool {
        let mut state = self.state.lock().expect("request queue poisoned");
        while state.items.is_empty() {
            if state.closed {
                return false;
            }
            state.worker_asleep = true;
            state = self.work.wait(state).expect("request queue poisoned");
        }
        state.worker_asleep = false;
        std::mem::swap(&mut state.items, batch);
        pool.append(&mut state.buffers);
        true
    }

    /// `io`'s service starts: frees its slot.
    fn started(&self, io: &IoRequest) {
        self.slots(io).fetch_sub(1, SeqCst);
        if self.submitter_asleep.swap(false, SeqCst) {
            // Taking the lock waits until the submitter sleeps on `space`.
            drop(self.state.lock().expect("request queue poisoned"));
            self.space.notify_one();
        }
    }

    /// Never panics, like [`Channel::close`].
    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.work.notify_all();
        self.space.notify_all();
    }
}

struct Running {
    queues: Vec<Arc<RequestQueue>>,
    completions: Arc<Channel<IoCompletion>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The threaded [`IoQueue`]: `min(jobs, disks)` worker threads (or one
/// per disk when `jobs == 0`) over any [`BlockDevice`], with at most
/// [`QueueOptions::depth`] requests per disk waiting for service. A
/// worker reads each run of queued requests for consecutive blocks of
/// one disk with one [`BlockDevice::read_block`], unless the device
/// models the requests' service ([`BlockDevice::service_timing`]).
pub struct ThreadedQueue {
    device: Arc<dyn BlockDevice>,
    label: &'static str,
    opts: QueueOptions,
    running: Option<Running>,
    /// Recycled payload buffers, handed to the workers with the next
    /// submission.
    spare: Vec<Vec<u8>>,
}

impl ThreadedQueue {
    /// Wraps an arbitrary device under the given backend label.
    #[must_use]
    pub fn over(device: Arc<dyn BlockDevice>, label: &'static str, opts: QueueOptions) -> Self {
        ThreadedQueue {
            device,
            label,
            opts,
            running: None,
            spare: Vec::new(),
        }
    }

    /// An in-memory backend (`disks` RAM arrays).
    #[must_use]
    pub fn memory(disks: usize, block_bytes: usize, opts: QueueOptions) -> Self {
        Self::over(
            Arc::new(MemoryDevice::new(disks, block_bytes)),
            "memory",
            opts,
        )
    }

    /// A buffered-file backend: one file per disk under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn file(
        dir: &Path,
        disks: usize,
        block_bytes: usize,
        opts: QueueOptions,
    ) -> io::Result<Self> {
        Ok(Self::over(
            Arc::new(FileDevice::create(dir, disks, block_bytes)?),
            "file",
            opts,
        ))
    }

    /// A file backend whose reads bypass the page cache (`O_DIRECT`).
    ///
    /// # Errors
    ///
    /// [`PmError::Config`] when `block_bytes` violates the
    /// [`crate::DIRECT_ALIGN`] alignment `O_DIRECT` requires, or the
    /// underlying file-creation failure.
    pub fn file_direct(
        dir: &Path,
        disks: usize,
        block_bytes: usize,
        opts: QueueOptions,
    ) -> Result<Self, PmError> {
        Ok(Self::over(
            Arc::new(FileDevice::create_direct(dir, disks, block_bytes)?),
            "file-direct",
            opts,
        ))
    }

    /// An in-memory backend wrapped in the [`LatencyDevice`] service
    /// model (seed with [`crate::disk_seed_for`] for simulator parity).
    #[must_use]
    pub fn latency(
        disks: usize,
        block_bytes: usize,
        spec: DiskSpec,
        discipline: QueueDiscipline,
        disk_seed: u64,
        opts: QueueOptions,
    ) -> Self {
        let inner = MemoryDevice::new(disks, block_bytes);
        Self::over(
            Arc::new(LatencyDevice::new(
                inner, disks, spec, discipline, disk_seed,
            )),
            "latency",
            opts,
        )
    }

    /// Tears the workers down (if open) and hands back the device —
    /// e.g. to register a loaded device with a
    /// [`crate::SharedDeviceSet`].
    #[must_use]
    pub fn into_device(mut self) -> Arc<dyn BlockDevice> {
        let _ = IoQueue::shutdown(&mut self);
        Arc::clone(&self.device)
    }
}

impl IoQueue for ThreadedQueue {
    fn backend(&self) -> &'static str {
        self.label
    }

    fn block_bytes(&self) -> usize {
        self.device.block_bytes()
    }

    fn disks(&self) -> usize {
        self.device.disks()
    }

    fn depth(&self) -> usize {
        self.opts.depth.max(1)
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        if self.running.is_some() {
            return Err(io::Error::other(
                "writes are setup-only: load the queue before open()",
            ));
        }
        let device = Arc::get_mut(&mut self.device)
            .ok_or_else(|| io::Error::other("device is shared; load it before sharing"))?;
        device.write_block(disk, start, data)
    }

    fn open(&mut self, epoch: Instant) -> io::Result<()> {
        if self.running.is_some() {
            return Ok(());
        }
        let disks = self.device.disks();
        let jobs = self.opts.jobs;
        let workers = if jobs == 0 { disks } else { jobs.min(disks) }.max(1);
        let depth = self.opts.depth.max(1);
        let time_scale = self.opts.time_scale;
        let completions = Arc::new(Channel::new());
        let queues: Vec<Arc<RequestQueue>> = (0..workers)
            .map(|_| Arc::new(RequestQueue::new(disks, workers, depth)))
            .collect();
        let mut handles = Vec::with_capacity(workers);
        for queue in &queues {
            let queue = Arc::clone(queue);
            let completions = Arc::clone(&completions);
            let device = Arc::clone(&self.device);
            handles.push(std::thread::spawn(move || {
                worker_loop(&*device, &queue, &completions, disks, time_scale, epoch);
            }));
        }
        self.running = Some(Running {
            queues,
            completions,
            handles,
        });
        Ok(())
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        let running = self
            .running
            .as_ref()
            .ok_or_else(|| io::Error::other("queue not opened"))?;
        let disks = self.device.disks();
        if let Some(io) = reqs.iter().find(|io| usize::from(io.req.disk.0) >= disks) {
            return Err(io::Error::other(format!("no such disk {}", io.req.disk.0)));
        }
        let workers = running.queues.len();
        let worker_of = |io: &IoRequest| io.req.disk.0 as usize % workers;
        // Each stretch of one worker's requests goes in under one lock.
        let mut rest = reqs;
        while let Some(first) = rest.first() {
            let w = worker_of(first);
            let n = rest.iter().take_while(|io| worker_of(io) == w).count();
            running.queues[w].push(&rest[..n], &mut self.spare)?;
            rest = &rest[n..];
        }
        Ok(())
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        let running = self
            .running
            .as_ref()
            .ok_or_else(|| io::Error::other("queue not opened"))?;
        running
            .completions
            .recv_into(out, min_wait)
            .ok_or_else(|| io::Error::other("I/O workers exited with requests outstanding"))
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.spare.push(buf);
    }

    fn shutdown(&mut self) -> io::Result<()> {
        if let Some(running) = self.running.take() {
            for q in &running.queues {
                q.close();
            }
            for handle in running.handles {
                let _ = handle.join();
            }
            running.completions.close();
        }
        Ok(())
    }
}

impl Drop for ThreadedQueue {
    fn drop(&mut self) {
        let _ = IoQueue::shutdown(self);
    }
}

fn worker_loop(
    device: &dyn BlockDevice,
    queue: &RequestQueue,
    completions: &Channel<IoCompletion>,
    disks: usize,
    time_scale: f64,
    epoch: Instant,
) {
    let _guard = CloseOnUnwind { queue, completions };
    // Per-disk service deadlines for injected latency: each sleep is
    // anchored to the previous deadline, not to "now", so scheduling
    // jitter does not accumulate across a run.
    let mut free_at = vec![epoch; disks];
    let mut batch = Vec::new();
    // A batch holds at most `depth` requests of each served disk, and an
    // extent at most `depth` requests.
    let mut timings = Vec::with_capacity(queue.depth * queue.waiting.len());
    let mut done = Vec::with_capacity(queue.depth);
    let mut bufs = WorkerBuffers {
        extent: Vec::with_capacity(queue.depth * device.block_bytes()),
        pool: Vec::new(),
    };
    while queue.take_all(&mut batch, &mut bufs.pool) {
        // Asked once per request; a request with a modeled service is
        // served alone.
        timings.clear();
        timings.extend(batch.iter().map(|io| device.service_timing(&io.req)));
        // Request `j` joins the one before it.
        let joins = |j: usize| {
            timings[j - 1].is_none()
                && timings[j].is_none()
                && reads_next_block(&batch[j - 1], &batch[j])
        };
        let mut i = 0;
        while i < batch.len() {
            let mut end = i + 1;
            while end < batch.len() && joins(end) {
                end += 1;
            }
            let ios = &batch[i..end];
            for io in ios {
                queue.started(io);
            }
            let d = ios[0].req.disk.0 as usize;
            done.extend(service_extent(
                device,
                &mut free_at[d],
                ios,
                timings[i],
                &mut bufs,
                time_scale,
                epoch,
            ));
            completions.push(done.drain(..));
            i = end;
        }
        batch.clear();
    }
}

/// Whether `next` reads the block after `prev`'s on the same disk.
fn reads_next_block(prev: &IoRequest, next: &IoRequest) -> bool {
    next.req.disk == prev.req.disk && prev.req.start.0.checked_add(1) == Some(next.req.start.0)
}

/// Closes a worker's queues when the worker unwinds (a panicking
/// device), so the merge thread's `submit` / `complete` fail instead of
/// waiting forever for a dead worker.
struct CloseOnUnwind<'a> {
    queue: &'a RequestQueue,
    completions: &'a Channel<IoCompletion>,
}

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.queue.close();
            self.completions.close();
        }
    }
}

/// A worker's buffers: the one it reads each extent into, and the
/// recycled payload buffers it copies each block into.
#[derive(Default)]
pub(crate) struct WorkerBuffers {
    pub(crate) extent: Vec<u8>,
    pub(crate) pool: Vec<Vec<u8>>,
}

/// Services one request: the one-request case of [`service_extent`],
/// asking the device for its modeled service first. The multi-job
/// shared device set serves every request this way.
pub(crate) fn service_one(
    device: &dyn BlockDevice,
    free_at: &mut Instant,
    io: IoRequest,
    bufs: &mut WorkerBuffers,
    time_scale: f64,
    epoch: Instant,
) -> IoCompletion {
    let injected = device.service_timing(&io.req);
    service_extent(device, free_at, &[io], injected, bufs, time_scale, epoch)
        .next()
        .expect("one completion per request")
}

/// Services `ios` — consecutive blocks of one disk — synchronously with
/// one read into `bufs.extent`, and yields one completion per request,
/// in order, each payload copied into a buffer taken from `bufs.pool`
/// (a new one when it is empty). `injected` is the service the device
/// modeled for a lone request: the read is then timed against the
/// disk's anchored deadline `free_at` and the modeled time slept out.
/// Otherwise each request gets an even share of the read's measured
/// interval.
pub(crate) fn service_extent<'a>(
    device: &dyn BlockDevice,
    free_at: &mut Instant,
    ios: &'a [IoRequest],
    injected: Option<InjectedService>,
    bufs: &'a mut WorkerBuffers,
    time_scale: f64,
    epoch: Instant,
) -> impl Iterator<Item = IoCompletion> + 'a {
    debug_assert!(
        injected.is_none() || ios.len() == 1,
        "a modeled request is served alone"
    );
    let first = ios[0].req;
    let bb = device.block_bytes();
    let WorkerBuffers { extent, pool } = bufs;
    extent.resize(ios.len() * bb, 0);
    let (started, finished);
    let result;
    if let Some(inj) = &injected {
        let service = scaled(inj.breakdown.total().as_nanos(), time_scale);
        let start = Instant::now().max(*free_at);
        let deadline = start + service;
        // Read the payload first (memory/tmpfs reads are orders of
        // magnitude cheaper than the modeled mechanics), then sleep
        // out the remainder of the modeled service.
        result = device.read_block(first.disk, first.start, extent);
        sleep_until(deadline);
        *free_at = deadline;
        started = start;
        finished = deadline;
    } else {
        started = Instant::now();
        result = device.read_block(first.disk, first.start, extent);
        finished = Instant::now();
    }
    let (started_ns, finished_ns) = (since(epoch, started), since(epoch, finished));
    let share =
        move |i: usize| started_ns + (finished_ns - started_ns) * i as u64 / ios.len() as u64;
    let extent = &*extent;
    ios.iter().enumerate().map(move |(i, io)| IoCompletion {
        disk: io.req.disk.0,
        tag: io.req.tag,
        span: io.span,
        hint: io.req.sequential_hint,
        injected,
        submitted_ns: since(epoch, io.submitted),
        started_ns: share(i),
        finished_ns: share(i + 1),
        data: match &result {
            Ok(()) => Ok(refill(pool.pop(), &extent[i * bb..(i + 1) * bb])),
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        },
    })
}

/// `buf` (a new buffer when `None`) holding exactly `block`, whatever it
/// held before.
pub(crate) fn refill(buf: Option<Vec<u8>>, block: &[u8]) -> Vec<u8> {
    let mut buf = buf.unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(block);
    buf
}

pub(crate) fn since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

fn scaled(nanos: u64, time_scale: f64) -> Duration {
    Duration::from_nanos((nanos as f64 * time_scale).round() as u64)
}

fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep(deadline - now);
    }
}
