//! Multi-job multiplexing over one device: the service layer's
//! execution face.
//!
//! A [`SharedDeviceSet`] owns one worker thread per shared disk and
//! admits concurrent [`crate::MergeEngine`] jobs, each through its own
//! [`SharedPort`]: a job runs as `engine.execute(Box::new(port))`, and
//! the port's [`IoQueue::tenant`] tags its reads. The contended resource
//! is the disk *arm* — one request in service per disk, latency-anchored
//! exactly like the per-run pool — while each port reads its own loaded
//! [`BlockDevice`] (pass one shared `Arc` to every port for physically
//! shared data).
//! Where the per-run [`crate::engine::ExecConfig`] pool services each
//! disk strictly FIFO, the shared set picks the next request with a
//! [`pm_service::IoSched`] policy — the *same* policy object the
//! contention simulator sweeps, so a policy measured in simulation is
//! the policy that schedules real I/O.
//!
//! ## Decision parity under interleaving
//!
//! Scheduling only reorders requests *across* jobs. Within one job the
//! policies all serve a flow's requests in submission order (every
//! policy breaks ties by global enqueue sequence, and a flow's entries
//! share their scheduling key), and a job's merge decisions are a pure
//! function of its own depletion sequence — completion timing feeds no
//! decision. Each job therefore submits the identical per-disk request
//! sequence it would submit running alone, and
//! [`crate::MergeEngine::predict`] parity holds per job no matter how
//! the shared disks interleave them.
//!
//! ## Failure
//!
//! A disk worker that panics (a faulting [`BlockDevice`]) closes its
//! disk queue and the completion channel of every job with a request in
//! service or queued there as it unwinds. Those jobs' `complete` calls
//! then fail instead of waiting forever, and any later submission to the
//! disk is rejected.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use pm_disk::{BlockAddr, DiskId};
use pm_metrics::{MetricsSink, StackMetrics};
use pm_service::{IoSched, PendingIo};

use crate::device::BlockDevice;
use crate::ioqueue::{IoCompletion, IoQueue, IoRequest};
use crate::workers::{service_one, Channel, WorkerBuffers};

/// One queued request: what services it, where the completion goes, and
/// a recycled buffer for its payload (the scheduler's view lives in the
/// parallel `ios` vector).
struct Entry {
    req: IoRequest,
    device: Arc<dyn BlockDevice>,
    done: Arc<Channel<IoCompletion>>,
    buf: Option<Vec<u8>>,
}

/// A disk's shared queue. `ios` mirrors `entries` index-for-index so the
/// scheduler picks over a plain [`PendingIo`] slice.
#[derive(Default)]
struct DiskQueue {
    entries: Vec<Entry>,
    ios: Vec<PendingIo>,
    closed: bool,
    /// Requests on this disk from every job: queued plus in service.
    outstanding: usize,
}

struct SharedInner {
    queues: Vec<(Mutex<DiskQueue>, Condvar)>,
    /// The scheduling policy, shared by every disk worker. Lock order:
    /// queue first, then sched (submit and pick both follow it).
    sched: Mutex<Box<dyn IoSched>>,
    /// Global enqueue sequence across all disks and jobs.
    seq: AtomicU64,
    /// Optional metrics sink for per-disk outstanding requests and WFQ
    /// lag (see [`SharedDeviceSet::start`]). Concrete
    /// ([`StackMetrics`], not the [`MetricsSink`] trait) because worker
    /// threads need a shared owned handle and the trait's associated
    /// const makes it non-dyn-compatible.
    metrics: Option<Arc<StackMetrics>>,
}

/// Per-disk worker threads shared by multiple merge jobs, with a
/// pluggable [`IoSched`] picking the next request whenever a disk frees.
///
/// Create with [`SharedDeviceSet::start`], hand each job a port via
/// [`SharedDeviceSet::port`], run the jobs (threads or sequentially),
/// then [`SharedDeviceSet::shutdown`].
pub struct SharedDeviceSet {
    inner: Arc<SharedInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
    jobs: u16,
}

impl SharedDeviceSet {
    /// Starts one worker per shared disk, scheduling with `sched`
    /// (which is [`IoSched::reset`] for `disks × tenants` flows —
    /// `tenants` caps how many ports should be handed out).
    ///
    /// `time_scale` scales injected latency exactly as the per-run pool
    /// does. With a `metrics` sink the set writes each disk's
    /// `pm_disk_queue_depth` (every job's requests there, queued plus in
    /// service) and, under a WFQ scheduler, every dispatch samples the
    /// served tenant's virtual-time lag (`pm_tenant_wfq_lag_ticks`).
    #[must_use]
    pub fn start(
        disks: usize,
        tenants: usize,
        mut sched: Box<dyn IoSched>,
        time_scale: f64,
        metrics: Option<Arc<StackMetrics>>,
    ) -> Self {
        sched.reset(disks, tenants);
        let epoch = Instant::now();
        let inner = Arc::new(SharedInner {
            queues: (0..disks)
                .map(|_| (Mutex::new(DiskQueue::default()), Condvar::new()))
                .collect(),
            sched: Mutex::new(sched),
            seq: AtomicU64::new(0),
            metrics,
        });
        let mut handles = Vec::with_capacity(disks);
        for d in 0..disks {
            let inner = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || {
                disk_worker(&inner, d, time_scale, epoch);
            }));
        }
        SharedDeviceSet {
            inner,
            handles,
            jobs: 0,
        }
    }

    /// Registers the next job and returns its port. The job's requests
    /// read from `device` (its own loaded data — pass the same `Arc` to
    /// every port for a physically shared device) but contend for the
    /// set's disk workers; `weight` feeds the scheduler and completions
    /// come back on the port's own channel.
    pub fn port(&mut self, device: Arc<dyn BlockDevice>, weight: u32) -> SharedPort {
        let tenant = self.jobs;
        self.jobs += 1;
        SharedPort {
            inner: Arc::clone(&self.inner),
            device,
            done: Arc::new(Channel::new()),
            tenant: u32::from(tenant),
            weight: weight.max(1),
            spare: Vec::new(),
        }
    }

    /// Closes every disk queue and joins the workers. Requests already
    /// queued are still serviced first.
    pub fn shutdown(&mut self) {
        for (queue, cond) in &self.inner.queues {
            queue.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
            cond.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SharedDeviceSet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One job's lane into a [`SharedDeviceSet`].
pub struct SharedPort {
    inner: Arc<SharedInner>,
    device: Arc<dyn BlockDevice>,
    done: Arc<Channel<IoCompletion>>,
    tenant: u32,
    weight: u32,
    /// Recycled payload buffers; each submitted request takes one along
    /// to the disk worker.
    spare: Vec<Vec<u8>>,
}

impl SharedPort {
    fn submit_one(&mut self, req: IoRequest) -> io::Result<()> {
        let d = req.req.disk.0 as usize;
        let io = PendingIo {
            tenant: self.tenant,
            weight: self.weight,
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            cost: 1,
        };
        let (queue, cond) = &self.inner.queues[d];
        let mut q = queue.lock().expect("shared queue poisoned");
        if q.closed {
            return Err(io::Error::other(format!(
                "shared disk {d} is closed (set shut down or its worker died)"
            )));
        }
        q.entries.push(Entry {
            req,
            device: Arc::clone(&self.device),
            done: Arc::clone(&self.done),
            buf: self.spare.pop(),
        });
        q.ios.push(io);
        q.outstanding += 1;
        if let Some(m) = &self.inner.metrics {
            m.disk_queue_depth(d, q.outstanding as f64);
        }
        self.inner
            .sched
            .lock()
            .expect("shared sched poisoned")
            .enqueued(d, &io);
        cond.notify_one();
        Ok(())
    }
}

impl IoQueue for SharedPort {
    fn backend(&self) -> &'static str {
        "shared"
    }

    fn block_bytes(&self) -> usize {
        self.device.block_bytes()
    }

    fn disks(&self) -> usize {
        self.device.disks()
    }

    fn depth(&self) -> usize {
        // The set's scheduler queue is unbounded per disk.
        0
    }

    /// The dense tenant index the set assigned this port.
    fn tenant(&self) -> u16 {
        self.tenant as u16
    }

    fn shared(&self) -> bool {
        true
    }

    fn write_block(&mut self, _disk: DiskId, _start: BlockAddr, _data: &[u8]) -> io::Result<()> {
        Err(io::Error::other(
            "shared ports are read-only; load the device before registering it with the set",
        ))
    }

    fn open(&mut self, _epoch: Instant) -> io::Result<()> {
        // The set's workers are already running; their timestamps are
        // anchored to the set's epoch, shared by every tenant.
        Ok(())
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        for &req in reqs {
            self.submit_one(req)?;
        }
        Ok(())
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        self.done.recv_into(out, min_wait).ok_or_else(|| {
            io::Error::other("shared device set shut down with requests outstanding")
        })
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.spare.push(buf);
    }

    fn shutdown(&mut self) -> io::Result<()> {
        // The workers belong to the set; only this job's completion
        // channel closes.
        self.done.close();
        Ok(())
    }
}

fn disk_worker(inner: &SharedInner, d: usize, time_scale: f64, epoch: Instant) {
    let mut free_at = epoch;
    let mut bufs = WorkerBuffers::default();
    let (queue, cond) = &inner.queues[d];
    let mut guard = CloseOnUnwind {
        queue,
        in_service: None,
    };
    loop {
        let entry = {
            let mut q = queue.lock().expect("shared queue poisoned");
            loop {
                if !q.entries.is_empty() {
                    break;
                }
                if q.closed {
                    return;
                }
                q = cond.wait(q).expect("shared queue poisoned");
            }
            let mut sched = inner.sched.lock().expect("shared sched poisoned");
            let idx = sched.pick(d, &q.ios);
            let io = q.ios[idx];
            sched.served(d, &io);
            if let Some(m) = &inner.metrics {
                if let Some(lag) = sched.vtime_lag(d, io.tenant as usize) {
                    m.wfq_lag(io.tenant as usize, lag);
                }
            }
            drop(sched);
            q.ios.swap_remove(idx);
            q.entries.swap_remove(idx)
        };
        let entry = guard.in_service.insert(entry);
        bufs.pool.extend(entry.buf.take());
        let completion = service_one(
            &*entry.device,
            &mut free_at,
            entry.req,
            &mut bufs,
            time_scale,
            epoch,
        );
        // The request leaves the count before its job can see it done.
        let mut q = queue.lock().expect("shared queue poisoned");
        q.outstanding -= 1;
        if let Some(m) = &inner.metrics {
            m.disk_queue_depth(d, q.outstanding as f64);
        }
        drop(q);
        entry.done.push([completion]);
        guard.in_service = None;
    }
}

/// Closes a disk when its worker unwinds (see the module docs): the
/// queue, so later submissions fail, and the completion channel of the
/// entry in service and of every queued entry, so their jobs stop
/// waiting.
struct CloseOnUnwind<'a> {
    queue: &'a Mutex<DiskQueue>,
    in_service: Option<Entry>,
}

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.closed = true;
        q.ios.clear();
        for entry in q.entries.drain(..).chain(self.in_service.take()) {
            entry.done.close();
        }
    }
}
