//! [`IoQueue`] contract tests.
//!
//! The core tentpole invariant: the engine's merge decisions are a pure
//! function of the depletion sequence, so *any* completion interleaving
//! a queue produces — across disks, within a disk, in any reap batch
//! size — must yield byte-identical output and simulator request-
//! sequence parity. A property-based adversarial queue exercises that;
//! a depth-1 threaded queue must match one at the negotiated depth; the
//! merged trace is ordered by time with one issue and one transfer per
//! request; the threaded queue's depth bound holds per disk, not per
//! worker; a worker reads each run of queued requests for consecutive
//! blocks of one disk with one device call, and serves a request whose
//! service is modeled alone; a panicking device fails the queue instead
//! of hanging it; a device error on a read fails the merge with a typed
//! error; the O_DIRECT alignment precondition must fail loudly, not
//! corrupt; and a recycled payload buffer comes back holding exactly its
//! next block, while a queue that ignores recycling changes nothing the
//! merge reports.

mod common;

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pm_core::{PmError, ScenarioBuilder};
use pm_disk::{BlockAddr, DiskId, DiskRequest, ServiceBreakdown};
use pm_engine::{
    disk_seed_for, BlockDevice, ExecOutcome, InjectedService, IoCompletion, IoQueue, IoRequest,
    LatencyDevice, MemoryDevice, MergeEngine, QueueOptions, ThreadedQueue, DIRECT_ALIGN,
    RECORD_BYTES,
};
use pm_extsort::Record;
use proptest::prelude::*;

#[cfg(feature = "uring")]
use common::RPB_ALIGNED;
use common::{
    engine_custom, form_runs, run_file, run_memory, unique_dir, PanickingDevice, PermutedQueue, RPB,
};

/// Forwards everything but [`IoQueue::recycle`], whose default drops the
/// buffer: a wrapper that does not forward it.
struct NoRecycle<Q>(Q);

impl<Q: IoQueue> IoQueue for NoRecycle<Q> {
    fn backend(&self) -> &'static str {
        self.0.backend()
    }

    fn block_bytes(&self) -> usize {
        self.0.block_bytes()
    }

    fn disks(&self) -> usize {
        self.0.disks()
    }

    fn depth(&self) -> usize {
        self.0.depth()
    }

    fn tenant(&self) -> u16 {
        self.0.tenant()
    }

    fn shared(&self) -> bool {
        self.0.shared()
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.0.write_block(disk, start, data)
    }

    fn open(&mut self, epoch: Instant) -> io::Result<()> {
        self.0.open(epoch)
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        self.0.submit(reqs)
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        self.0.complete(out, min_wait)
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.0.shutdown()
    }
}

/// Executes `engine` over the adversarial queue.
fn run_permuted(
    engine: &MergeEngine,
    runs: &[Vec<Record>],
    disks: usize,
    seed: u64,
    depth: usize,
) -> ExecOutcome {
    let mut queue = PermutedQueue::new(disks, engine.block_bytes(), seed, depth);
    engine.load(&mut queue, runs).expect("load");
    engine.execute(Box::new(queue)).expect("execute")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn out_of_order_completions_leave_the_merge_invariant(
        seed in any::<u64>(),
        depth in 1usize..=32,
    ) {
        let runs = form_runs(1500, 250, 13);
        let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
            .inter(4)
            .seed(43)
            .build()
            .unwrap();
        let disks = cfg.disks as usize;
        let engine = engine_custom(cfg, &runs, 1, depth, RPB);
        let baseline = run_memory(&engine, &runs, disks);
        let permuted = run_permuted(&engine, &runs, disks, seed, depth);
        prop_assert_eq!(&permuted.output, &baseline.output);
        prop_assert_eq!(&permuted.requests, &baseline.requests);
        prop_assert_eq!(&permuted.depletion, &baseline.depletion);
        // Predict parity per disk straight off the adversarial run.
        let prediction = engine.predict(&permuted.depletion).expect("predict");
        prop_assert_eq!(&prediction.requests, &permuted.requests);
    }
}

#[test]
fn threaded_queue_at_depth_1_matches_the_default_depth() {
    // Depth-1 regression: a queue that lets one request per disk wait
    // and one at the negotiated prefetch depth must agree on everything
    // the engine reports.
    let runs = form_runs(2500, 300, 31);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 2)
        .inter(3)
        .seed(47)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    let shallow = engine_custom(cfg, &runs, 1, 1, RPB);
    assert_eq!(shallow.queue_options().depth, 1);
    let negotiated = engine_custom(cfg, &runs, 1, 0, RPB);
    assert_eq!(negotiated.queue_options().depth, 3);
    let at_default = run_memory(&negotiated, &runs, disks);
    let at_depth_1 = run_memory(&shallow, &runs, disks);

    assert_eq!(at_depth_1.output, at_default.output);
    assert_eq!(at_depth_1.requests, at_default.requests);
    assert_eq!(at_depth_1.depletion, at_default.depletion);
    assert_eq!(
        at_depth_1.report.per_disk_requests,
        at_default.report.per_disk_requests
    );
    assert_eq!(at_depth_1.report.demand_ops, at_default.report.demand_ops);
    assert_eq!(
        at_depth_1.report.fallback_ops,
        at_default.report.fallback_ops
    );
    assert_eq!(
        at_depth_1.report.full_prefetch_ops,
        at_default.report.full_prefetch_ops
    );
}

/// Asserts `outcome.events` is non-decreasing in `at` and holds exactly
/// one `DiskIssue` and one later `DiskTransferDone` per request.
fn assert_trace_in_time_order(outcome: &ExecOutcome, what: &str) {
    use pm_core::EventKind;

    assert!(
        outcome.events.windows(2).all(|w| w[0].at <= w[1].at),
        "{what}: events out of time order"
    );
    let mut issued = Vec::new();
    let mut transferred = Vec::new();
    for (i, ev) in outcome.events.iter().enumerate() {
        match ev.kind {
            EventKind::DiskIssue { disk, span, .. } => issued.push((disk, span, i)),
            EventKind::DiskTransferDone { disk, span, .. } => transferred.push((disk, span, i)),
            _ => {}
        }
    }
    let total: u64 = outcome.report.per_disk_requests.iter().sum();
    assert_eq!(issued.len() as u64, total, "{what}: one issue per request");
    assert_eq!(
        transferred.len() as u64,
        total,
        "{what}: one transfer per request"
    );
    issued.sort_unstable();
    transferred.sort_unstable();
    for (issue, done) in issued.iter().zip(&transferred) {
        assert_eq!(
            (issue.0, issue.1),
            (done.0, done.1),
            "{what}: requests differ"
        );
        assert!(
            issue.2 < done.2,
            "{what}: transfer of {issue:?} before its issue"
        );
    }
}

#[test]
fn engine_trace_is_in_time_order_on_every_queue() {
    let runs = form_runs(4000, 250, 71);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 4)
        .inter(4)
        .seed(73)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    for jobs in [1, 4] {
        let engine = engine_custom(cfg, &runs, jobs, 0, RPB);
        assert_trace_in_time_order(
            &run_memory(&engine, &runs, disks),
            &format!("memory, jobs {jobs}"),
        );
    }
    let engine = engine_custom(cfg, &runs, 0, 0, RPB);
    assert_trace_in_time_order(&run_file(&engine, &runs, disks), "file");
    for seed in [1, 2, 3] {
        let outcome = run_permuted(&engine, &runs, disks, seed, 8);
        assert_trace_in_time_order(&outcome, &format!("permuted, seed {seed}"));
    }
}

/// How long a call that must return may take before the test calls it
/// hung.
const HANG: Duration = Duration::from_secs(5);

/// A one-shot latch the test opens to release a [`GatedDevice`]'s reads.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// A [`MemoryDevice`] whose reads block until the test opens the gate.
struct GatedDevice {
    inner: MemoryDevice,
    gate: Arc<Gate>,
}

impl BlockDevice for GatedDevice {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        self.gate.wait();
        self.inner.read_block(disk, start, buf)
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.inner.write_block(disk, start, data)
    }
}

fn read_request(disk: usize, block: usize) -> IoRequest {
    IoRequest {
        req: DiskRequest {
            disk: DiskId(disk as u16),
            start: BlockAddr(block as u64),
            len: 1,
            sequential_hint: false,
            tag: (disk * 1000 + block) as u64,
        },
        span: block as u64,
        submitted: Instant::now(),
    }
}

#[test]
fn depth_bounds_each_disk_even_with_fewer_workers_than_disks() {
    // One worker serves eight disks at depth 4: a whole batch of four
    // requests per disk must fit, and a fifth request to one disk must
    // wait until the worker starts servicing one of that disk's four.
    const DISKS: usize = 8;
    const DEPTH: usize = 4;
    const BB: usize = 16;
    let gate = Arc::new(Gate::default());
    let device = GatedDevice {
        inner: MemoryDevice::new(DISKS, BB),
        gate: Arc::clone(&gate),
    };
    let opts = QueueOptions {
        depth: DEPTH,
        jobs: 1,
        time_scale: 1.0,
    };
    let mut queue = ThreadedQueue::over(Arc::new(device), "gated", opts);
    for d in 0..DISKS {
        for b in 0..=DEPTH {
            queue
                .write_block(DiskId(d as u16), BlockAddr(b as u64), &[d as u8; BB])
                .unwrap();
        }
    }
    queue.open(Instant::now()).unwrap();
    let batch: Vec<IoRequest> = (0..DISKS)
        .flat_map(|d| (0..DEPTH).map(move |b| read_request(d, b)))
        .collect();
    let extra = read_request(DISKS - 1, DEPTH);
    let total = batch.len() + 1;

    let (tx, rx) = mpsc::channel();
    let driver = thread::spawn(move || {
        queue.submit(&batch).unwrap();
        tx.send("batch").unwrap();
        queue.submit(&[extra]).unwrap();
        tx.send("extra").unwrap();
        let mut out = Vec::new();
        while out.len() < total {
            queue.complete(&mut out, 1).unwrap();
        }
        queue.shutdown().unwrap();
        out
    });
    assert_eq!(
        rx.recv_timeout(HANG),
        Ok("batch"),
        "{DEPTH} requests on each of {DISKS} disks must fit one worker's queue at depth {DEPTH}"
    );
    assert!(
        rx.recv_timeout(Duration::from_millis(300)).is_err(),
        "a fifth request to a disk with {DEPTH} waiting must block"
    );
    gate.open();
    assert_eq!(
        rx.recv_timeout(HANG),
        Ok("extra"),
        "the blocked submission must resume once service starts"
    );
    let out = driver.join().unwrap();
    assert_eq!(out.len(), total);
    for c in &out {
        assert_eq!(c.data.as_ref().unwrap(), &vec![c.disk as u8; BB]);
    }
}

/// One read a [`CountingDevice`] served, timed against the queue's
/// epoch.
#[derive(Debug, Clone, Copy)]
struct Read {
    disk: u16,
    start: u64,
    blocks: usize,
    entered_ns: u64,
    left_ns: u64,
}

#[derive(Default)]
struct DeviceLog {
    reads: Mutex<Vec<Read>>,
    /// Reads begun, finished or not.
    entered: AtomicUsize,
    timings: AtomicUsize,
}

impl DeviceLog {
    fn reads(&self) -> Vec<Read> {
        self.reads.lock().unwrap().clone()
    }
}

/// Forwards to `inner`, logging every read and every `service_timing`
/// call.
struct CountingDevice<D> {
    inner: D,
    log: Arc<DeviceLog>,
    epoch: Instant,
}

impl<D: BlockDevice> BlockDevice for CountingDevice<D> {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        let since = |at: Instant| at.duration_since(self.epoch).as_nanos() as u64;
        self.log.entered.fetch_add(1, Ordering::SeqCst);
        let entered_ns = since(Instant::now());
        let result = self.inner.read_block(disk, start, buf);
        let left_ns = since(Instant::now());
        self.log.reads.lock().unwrap().push(Read {
            disk: disk.0,
            start: start.0,
            blocks: buf.len() / self.block_bytes(),
            entered_ns,
            left_ns,
        });
        result
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.inner.write_block(disk, start, data)
    }

    fn service_timing(&self, req: &DiskRequest) -> Option<InjectedService> {
        self.log.timings.fetch_add(1, Ordering::SeqCst);
        self.inner.service_timing(req)
    }
}

const EXTENT_DISKS: usize = 8;
const EXTENT_BB: usize = 16;
/// Where a gated first read goes: far from every tested block.
const PRIMER: u64 = 20;

/// The tested `(disk, block)` reads, in submission order: runs of
/// consecutive blocks, broken by another disk's request, by an address
/// gap and by a jump back; disks read block by block in turn; and a
/// disk that resumes its run after the others.
#[rustfmt::skip]
const EXTENT_READS: [(u16, u64); 25] = [
    (0, 0), (0, 1), (0, 2), (0, 3),
    (1, 0), (1, 1), (2, 0), (1, 2), (1, 3),
    (3, 0), (3, 1), (3, 3), (3, 4),
    (4, 5), (4, 6), (4, 7), (4, 0), (4, 1),
    (5, 0), (6, 0), (7, 0), (5, 1), (6, 1), (7, 1),
    (0, 4),
];

/// The payload of `block` on `disk`: distinct for every block.
fn payload(disk: u16, block: u64) -> Vec<u8> {
    (0..EXTENT_BB)
        .map(|i| (usize::from(disk) * 31 + block as usize * 7 + i) as u8)
        .collect()
}

/// A device holding [`payload`] at blocks `0..8` and [`PRIMER`] of
/// every disk.
fn loaded<D: BlockDevice>(mut dev: D) -> D {
    for d in 0..EXTENT_DISKS as u16 {
        for b in (0..8).chain([PRIMER]) {
            dev.write_block(DiskId(d), BlockAddr(b), &payload(d, b))
                .unwrap();
        }
    }
    dev
}

/// [`EXTENT_READS`] as requests, each span its per-disk submission
/// index and each tag its `(disk, block)`.
fn extent_requests() -> Vec<IoRequest> {
    let mut next_span = [0u64; EXTENT_DISKS];
    EXTENT_READS
        .iter()
        .map(|&(disk, block)| {
            let span = &mut next_span[usize::from(disk)];
            *span += 1;
            let mut io = read_request(usize::from(disk), block as usize);
            io.span = *span - 1;
            io
        })
        .collect()
}

/// The extents a worker makes of its queue, as sorted
/// `(disk, start, blocks)`: per worker, maximal runs of requests for
/// consecutive blocks of one disk.
fn expected_extents(reqs: &[IoRequest], workers: usize) -> Vec<(u16, u64, usize)> {
    let mut extents: Vec<(u16, u64, usize)> = Vec::new();
    for w in 0..workers {
        let mut prev = None;
        for io in reqs
            .iter()
            .filter(|io| usize::from(io.req.disk.0) % workers == w)
        {
            let at = (io.req.disk.0, io.req.start.0);
            match (prev, extents.last_mut()) {
                (Some((d, b)), Some(last)) if d == at.0 && b + 1 == at.1 => last.2 += 1,
                _ => extents.push((at.0, at.1, 1)),
            }
            prev = Some(at);
        }
    }
    extents.sort_unstable();
    extents
}

/// Per disk, completions arrive in submission order with disjoint
/// `[started_ns, finished_ns]` intervals, and each carries the bytes a
/// one-block read of its block returns.
fn assert_fifo_disjoint_and_exact(out: &[IoCompletion], what: &str) {
    let reference = loaded(MemoryDevice::new(EXTENT_DISKS, EXTENT_BB));
    let mut last: HashMap<u16, &IoCompletion> = HashMap::new();
    for c in out {
        let block = c.tag % 1000;
        let mut one = vec![0u8; EXTENT_BB];
        reference
            .read_block(DiskId(c.disk), BlockAddr(block), &mut one)
            .unwrap();
        assert_eq!(
            c.data.as_ref().unwrap(),
            &one,
            "{what}: disk {} block {block}",
            c.disk
        );
        assert!(c.started_ns <= c.finished_ns, "{what}: interval reversed");
        if let Some(prev) = last.insert(c.disk, c) {
            assert_eq!(
                c.span,
                prev.span + 1,
                "{what}: disk {} out of FIFO order",
                c.disk
            );
            assert!(
                prev.finished_ns <= c.started_ns,
                "{what}: disk {} intervals overlap",
                c.disk
            );
        }
    }
}

#[test]
fn a_worker_reads_each_contiguous_same_disk_run_with_one_call() {
    // Expected device reads at jobs 1 (one worker interleaving eight
    // disks: another disk's request breaks a run) and at jobs 0 (one
    // worker per disk).
    for (jobs, workers, expected_reads) in [(1, 1, 15), (0, EXTENT_DISKS, 10)] {
        let what = format!("jobs {jobs}");
        let gate = Arc::new(Gate::default());
        let log = Arc::new(DeviceLog::default());
        let epoch = Instant::now();
        let device = CountingDevice {
            inner: loaded(GatedDevice {
                inner: MemoryDevice::new(EXTENT_DISKS, EXTENT_BB),
                gate: Arc::clone(&gate),
            }),
            log: Arc::clone(&log),
            epoch,
        };
        let opts = QueueOptions {
            depth: 64,
            jobs,
            time_scale: 1.0,
        };
        let mut queue = ThreadedQueue::over(Arc::new(device), "counting", opts);
        queue.open(epoch).unwrap();
        // Hold every worker in a first read until everything is queued,
        // so each worker takes its whole share as one batch.
        let primers: Vec<IoRequest> = (0..workers)
            .map(|w| {
                let mut io = read_request(w, PRIMER as usize);
                io.span = u64::MAX;
                io
            })
            .collect();
        queue.submit(&primers).unwrap();
        let held = Instant::now();
        while log.entered.load(Ordering::SeqCst) < workers {
            assert!(
                held.elapsed() < HANG,
                "{what}: workers never started reading"
            );
            thread::sleep(Duration::from_millis(1));
        }
        let reqs = extent_requests();
        queue.submit(&reqs).unwrap();
        gate.open();
        let mut out = Vec::new();
        while out.len() < reqs.len() + workers {
            queue.complete(&mut out, 1).unwrap();
        }
        queue.shutdown().unwrap();
        out.retain(|c| c.span != u64::MAX);

        let reads: Vec<Read> = log
            .reads()
            .into_iter()
            .filter(|r| r.start != PRIMER)
            .collect();
        let mut extents: Vec<(u16, u64, usize)> =
            reads.iter().map(|r| (r.disk, r.start, r.blocks)).collect();
        extents.sort_unstable();
        assert_eq!(extents.len(), expected_reads, "{what}: device reads");
        assert_eq!(extents, expected_extents(&reqs, workers), "{what}: extents");
        assert_fifo_disjoint_and_exact(&out, &what);

        // The requests of an extent tile its interval in even shares, and
        // that interval holds the device read.
        let by_block: HashMap<(u16, u64), &IoCompletion> =
            out.iter().map(|c| ((c.disk, c.tag % 1000), c)).collect();
        for r in &reads {
            let members: Vec<&IoCompletion> = (0..r.blocks as u64)
                .map(|i| by_block[&(r.disk, r.start + i)])
                .collect();
            let (first, last) = (members[0], members[r.blocks - 1]);
            assert!(
                first.started_ns <= r.entered_ns && r.left_ns <= last.finished_ns,
                "{what}: extent {r:?} read outside its requests' service"
            );
            let even = (last.finished_ns - first.started_ns) / r.blocks as u64;
            for pair in members.windows(2) {
                assert_eq!(
                    pair[0].finished_ns, pair[1].started_ns,
                    "{what}: {r:?} not tiled"
                );
            }
            for c in &members {
                let share = c.finished_ns - c.started_ns;
                assert!(
                    share.abs_diff(even) <= 1,
                    "{what}: extent {r:?} share {share} ns, even share {even} ns"
                );
            }
        }
    }
}

/// Models service for every third block only, at no cost.
struct ModelEveryThird(MemoryDevice);

impl BlockDevice for ModelEveryThird {
    fn block_bytes(&self) -> usize {
        self.0.block_bytes()
    }

    fn disks(&self) -> usize {
        self.0.disks()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        self.0.read_block(disk, start, buf)
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.0.write_block(disk, start, data)
    }

    fn service_timing(&self, req: &DiskRequest) -> Option<InjectedService> {
        (req.start.0 % 3 == 0).then_some(InjectedService {
            breakdown: ServiceBreakdown::default(),
            sequential: false,
        })
    }
}

/// Serves [`extent_requests`] through one worker over `device` and
/// returns the completions with the device's log.
fn serve_extent_requests<D: BlockDevice + 'static>(
    device: D,
) -> (Vec<IoCompletion>, Arc<DeviceLog>) {
    let log = Arc::new(DeviceLog::default());
    let epoch = Instant::now();
    let device = CountingDevice {
        inner: loaded(device),
        log: Arc::clone(&log),
        epoch,
    };
    let opts = QueueOptions {
        depth: 64,
        jobs: 1,
        time_scale: 0.0,
    };
    let mut queue = ThreadedQueue::over(Arc::new(device), "counting", opts);
    queue.open(epoch).unwrap();
    let reqs = extent_requests();
    queue.submit(&reqs).unwrap();
    let mut out = Vec::new();
    while out.len() < reqs.len() {
        queue.complete(&mut out, 1).unwrap();
    }
    queue.shutdown().unwrap();
    (out, log)
}

#[test]
fn a_modeled_request_is_served_alone_with_one_timing_call() {
    let cfg = ScenarioBuilder::new(2, EXTENT_DISKS as u32)
        .seed(61)
        .build()
        .unwrap();
    let model = || {
        LatencyDevice::new(
            MemoryDevice::new(EXTENT_DISKS, EXTENT_BB),
            EXTENT_DISKS,
            cfg.disk_spec,
            cfg.discipline,
            disk_seed_for(&cfg),
        )
    };
    let (out, log) = serve_extent_requests(model());
    let n = EXTENT_READS.len();
    assert_eq!(
        log.timings.load(Ordering::SeqCst),
        n,
        "one service_timing per request"
    );
    let reads = log.reads();
    assert_eq!(reads.len(), n, "one read per modeled request");
    assert!(reads.iter().all(|r| r.blocks == 1));
    assert_fifo_disjoint_and_exact(&out, "latency");
    // Each request carries the service the model computed for it: a
    // fresh model asked once per request, in submission order, agrees.
    let reference = model();
    let expected: HashMap<(u16, u64), ServiceBreakdown> = extent_requests()
        .iter()
        .map(|io| {
            let inj = reference.service_timing(&io.req).unwrap();
            ((io.req.disk.0, io.req.start.0), inj.breakdown)
        })
        .collect();
    for c in &out {
        let inj = c.injected.expect("a modeled completion");
        assert_eq!(inj.breakdown, expected[&(c.disk, c.tag % 1000)]);
    }

    // A device that models some requests only: those are served alone,
    // the rest still join into extents, and each request is asked once.
    let (out, log) =
        serve_extent_requests(ModelEveryThird(MemoryDevice::new(EXTENT_DISKS, EXTENT_BB)));
    assert_eq!(
        log.timings.load(Ordering::SeqCst),
        n,
        "one service_timing per request"
    );
    assert_fifo_disjoint_and_exact(&out, "every third modeled");
    for c in &out {
        assert_eq!(
            c.injected.is_some(),
            c.tag % 1000 % 3 == 0,
            "disk {} tag {}",
            c.disk,
            c.tag
        );
    }
    let reads = log.reads();
    for r in &reads {
        let modeled = (r.start..r.start + r.blocks as u64).any(|b| b % 3 == 0);
        assert!(
            !modeled || r.blocks == 1,
            "modeled block joined an extent: {r:?}"
        );
    }
    assert!(reads.len() < n, "unmodeled requests must still join");
}

/// Reads one byte short of the buffer it is given.
struct ShortReadDevice(MemoryDevice);

impl BlockDevice for ShortReadDevice {
    fn block_bytes(&self) -> usize {
        self.0.block_bytes()
    }

    fn disks(&self) -> usize {
        self.0.disks()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        self.0.read_block(disk, start, &mut buf[1..])
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.0.write_block(disk, start, data)
    }
}

#[test]
fn a_read_buffer_of_partial_blocks_fails_the_merge_with_a_device_error() {
    let runs = form_runs(1200, 200, 23);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
        .inter(3)
        .seed(67)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    let engine = engine_custom(cfg, &runs, 1, 0, RPB);
    let device = ShortReadDevice(MemoryDevice::new(disks, engine.block_bytes()));
    let mut queue = ThreadedQueue::over(Arc::new(device), "short", engine.queue_options());
    engine.load(&mut queue, &runs).expect("load");
    match engine.execute(Box::new(queue)) {
        Err(err @ PmError::Device { backend, .. }) => {
            assert_eq!(backend, "short");
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains("whole number"), "{err}");
        }
        other => panic!("expected PmError::Device, got {:?}", other.map(|_| ())),
    }
}

/// How [`CorruptingQueue`] damages the completion it corrupts.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// The data is one record short.
    ShortData,
    /// The tag names the block of the first completion, which has
    /// already been delivered.
    StaleTag,
    /// The disk index is one past the last disk.
    NoSuchDisk,
}

/// Forwards to a [`ThreadedQueue`], corrupting the `nth` completion it
/// hands back (0-based). Dropping it shuts the inner queue down, joining
/// its workers, and then sets `joined`.
struct CorruptingQueue {
    inner: ThreadedQueue,
    corruption: Corruption,
    nth: usize,
    seen: usize,
    first_tag: Option<u64>,
    joined: Arc<AtomicBool>,
}

impl IoQueue for CorruptingQueue {
    fn backend(&self) -> &'static str {
        "corrupting"
    }

    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn depth(&self) -> usize {
        self.inner.depth()
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.inner.write_block(disk, start, data)
    }

    fn open(&mut self, epoch: Instant) -> io::Result<()> {
        self.inner.open(epoch)
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        self.inner.submit(reqs)
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        let from = out.len();
        let n = self.inner.complete(out, min_wait)?;
        for c in &mut out[from..] {
            let first = *self.first_tag.get_or_insert(c.tag);
            if self.seen == self.nth {
                match self.corruption {
                    Corruption::ShortData => {
                        if let Ok(data) = &mut c.data {
                            data.truncate(data.len() - RECORD_BYTES);
                        }
                    }
                    Corruption::StaleTag => c.tag = first,
                    Corruption::NoSuchDisk => c.disk = self.inner.disks() as u16,
                }
            }
            self.seen += 1;
        }
        Ok(n)
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.inner.shutdown()
    }
}

impl Drop for CorruptingQueue {
    fn drop(&mut self) {
        let _ = self.inner.shutdown();
        self.joined.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_malformed_completion_fails_the_merge_with_a_device_error() {
    // Ten runs of ten full blocks each.
    let runs = form_runs(2000, 200, 41);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
        .inter(3)
        .seed(53)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    let engine = Arc::new(engine_custom(cfg, &runs, 1, 0, RPB));
    let blocks: u32 = engine.run_blocks().iter().sum();
    assert_eq!(blocks, 100);
    for corruption in [
        Corruption::ShortData,
        Corruption::StaleTag,
        Corruption::NoSuchDisk,
    ] {
        let joined = Arc::new(AtomicBool::new(false));
        let mut queue = CorruptingQueue {
            inner: ThreadedQueue::memory(disks, engine.block_bytes(), engine.queue_options()),
            corruption,
            nth: 60,
            seen: 0,
            first_tag: None,
            joined: Arc::clone(&joined),
        };
        engine.load(&mut queue, &runs).expect("load");
        let (tx, rx) = mpsc::channel();
        let merge = Arc::clone(&engine);
        let driver = thread::spawn(move || {
            tx.send(merge.execute(Box::new(queue)).map(|_| ())).unwrap();
        });
        let result = rx
            .recv_timeout(HANG)
            .unwrap_or_else(|_| panic!("{corruption:?}: execute() must return"));
        match result {
            Err(err @ PmError::Device { backend, .. }) => {
                assert_eq!(backend, "corrupting", "{corruption:?}");
                assert_eq!(err.exit_code(), 2, "{corruption:?}");
            }
            other => panic!("{corruption:?}: expected PmError::Device, got {other:?}"),
        }
        assert!(
            joined.load(Ordering::SeqCst),
            "{corruption:?}: the queue's workers must be joined when execute() returns"
        );
        driver.join().unwrap();
    }
}

#[test]
fn submit_rejects_an_unknown_disk() {
    let mut queue = ThreadedQueue::memory(2, 16, QueueOptions::default());
    queue.open(Instant::now()).unwrap();
    let err = queue.submit(&[read_request(2, 0)]).unwrap_err();
    assert!(err.to_string().contains("no such disk 2"), "{err}");
    queue.shutdown().unwrap();
}

#[test]
fn a_panicking_device_fails_the_queue_instead_of_hanging() {
    let opts = QueueOptions {
        depth: 2,
        jobs: 1,
        time_scale: 1.0,
    };
    let device = PanickingDevice(MemoryDevice::new(2, 16));
    let mut queue = ThreadedQueue::over(Arc::new(device), "panicking", opts);
    let (tx, rx) = mpsc::channel();
    let driver = thread::spawn(move || {
        queue.open(Instant::now()).unwrap();
        queue.submit(&[read_request(0, 0)]).unwrap();
        let mut out = Vec::new();
        let completed = queue.complete(&mut out, 1).map(|_| ());
        let submitted = queue.submit(&[read_request(1, 0)]);
        tx.send((completed, submitted)).unwrap();
    });
    let (completed, submitted) = rx
        .recv_timeout(HANG)
        .expect("complete() must not wait forever on a dead worker");
    assert!(completed.is_err(), "complete() must report the dead worker");
    assert!(submitted.is_err(), "submit() must report the dead worker");
    driver.join().unwrap();
}

#[test]
fn a_panicking_device_fails_the_merge_with_a_device_error() {
    let runs = form_runs(1200, 200, 19);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
        .inter(3)
        .seed(59)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    let engine = engine_custom(cfg, &runs, 1, 0, RPB);
    let device = PanickingDevice(MemoryDevice::new(disks, engine.block_bytes()));
    let mut queue = ThreadedQueue::over(Arc::new(device), "panicking", engine.queue_options());
    engine.load(&mut queue, &runs).expect("load");
    let (tx, rx) = mpsc::channel();
    let driver = thread::spawn(move || {
        tx.send(engine.execute(Box::new(queue)).map(|_| ()))
            .unwrap();
    });
    let result = rx
        .recv_timeout(HANG)
        .expect("execute() must not wait forever on a dead worker");
    match result {
        Err(err @ PmError::Device { backend, .. }) => {
            assert_eq!(backend, "panicking");
            assert_eq!(err.exit_code(), 2);
        }
        other => panic!("expected PmError::Device, got {other:?}"),
    }
    driver.join().unwrap();
}

#[test]
fn misaligned_blocks_fail_direct_open_with_the_alignment_error() {
    // The classic 40-records-per-block geometry (640 B) violates the
    // 512-byte O_DIRECT alignment; opening must fail up front with a
    // ConfigError naming the requirement, not corrupt reads later.
    let dir = unique_dir();
    let err = ThreadedQueue::file_direct(&dir, 2, 40 * 16, Default::default())
        .err()
        .expect("misaligned block size must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains(&DIRECT_ALIGN.to_string()),
        "error must name the {DIRECT_ALIGN}-byte alignment unit: {msg}"
    );
    assert!(
        msg.contains("640"),
        "error must name the offending size: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "uring")]
#[test]
fn uring_backend_matches_the_memory_reference() {
    use pm_engine::{uring_available, UringQueue};

    if !uring_available() {
        eprintln!("SKIP: io_uring unavailable on this kernel; uring smoke test not run");
        return;
    }
    let runs = form_runs(3000, 400, 37);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
        .inter(4)
        .seed(53)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    for depth in [1usize, 4, 32] {
        let engine = engine_custom(cfg, &runs, 1, depth, RPB_ALIGNED);
        let baseline = run_memory(&engine, &runs, disks);
        let dir = unique_dir();
        let mut queue = UringQueue::create(&dir, disks, engine.block_bytes(), depth)
            .expect("create uring queue");
        engine.load(&mut queue, &runs).expect("load");
        let outcome = engine.execute(Box::new(queue)).expect("execute");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.output, baseline.output, "depth={depth}: output");
        assert_eq!(
            outcome.requests, baseline.requests,
            "depth={depth}: requests"
        );
        assert_eq!(
            outcome.depletion, baseline.depletion,
            "depth={depth}: depletion"
        );
        let prediction = engine.predict(&outcome.depletion).expect("predict");
        assert_eq!(
            prediction.requests, outcome.requests,
            "depth={depth}: simulator replay"
        );
    }
}

#[cfg(feature = "uring")]
#[test]
fn uring_rejects_writes_that_are_not_whole_blocks() {
    use pm_engine::{uring_available, UringQueue};

    if !uring_available() {
        eprintln!("SKIP: io_uring unavailable on this kernel; uring write test not run");
        return;
    }
    let dir = unique_dir();
    let mut queue = UringQueue::create(&dir, 1, DIRECT_ALIGN, 1).expect("create uring queue");
    for len in [0, 7, DIRECT_ALIGN + 1] {
        let err = queue
            .write_block(DiskId(0), BlockAddr(0), &vec![1; len])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "length {len}");
    }
    queue
        .write_block(DiskId(0), BlockAddr(0), &vec![1; 2 * DIRECT_ALIGN])
        .expect("two whole blocks");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Blocks [`check_recycled_reads`] writes: six full and one partial.
const RECYCLE_BLOCKS: usize = 7;

/// Loads one run of `6 × rpb + 3` records onto disk 0 of `queue` (so
/// its last block is zero-padded), opens it, and reads every block
/// twice — once as one extent of consecutive requests, once as single
/// reads — after recycling, before each submission, one garbage-filled
/// buffer per request. Every completion must hold exactly its block, in
/// a recycled buffer.
fn check_recycled_reads<Q: IoQueue>(mut queue: Q, what: &str) {
    let bb = queue.block_bytes();
    let rpb = bb / RECORD_BYTES;
    let records: Vec<Record> = (0..(RECYCLE_BLOCKS - 1) * rpb + 3)
        .map(|i| Record::new(i as u64 * 3 + 1, u64::MAX - i as u64))
        .collect();
    let mut image = vec![0xEEu8; RECYCLE_BLOCKS * bb];
    pm_engine::encode_records(&records, &mut image);
    assert!(image[records.len() * RECORD_BYTES..]
        .iter()
        .all(|&b| b == 0));
    queue.write_block(DiskId(0), BlockAddr(0), &image).unwrap();
    queue.open(Instant::now()).unwrap();

    let reads: Vec<IoRequest> = (0..RECYCLE_BLOCKS).map(|b| read_request(0, b)).collect();
    let batches: Vec<&[IoRequest]> = std::iter::once(&reads[..]).chain(reads.chunks(1)).collect();
    for (round, batch) in batches.into_iter().enumerate() {
        let mut recycled = Vec::new();
        for (i, _) in batch.iter().enumerate() {
            // Any length, any contents, capacity for a block.
            let mut buf = Vec::with_capacity(2 * bb);
            buf.resize((i * 5 + round) % (2 * bb), 0xA5);
            recycled.push(buf.as_ptr());
            queue.recycle(buf);
        }
        queue.submit(batch).unwrap();
        let mut done = Vec::new();
        while done.len() < batch.len() {
            queue.complete(&mut done, 1).unwrap();
        }
        for c in done {
            let block = c.span as usize;
            let data = c.data.unwrap();
            assert_eq!(
                data,
                &image[block * bb..(block + 1) * bb],
                "{what}: block {block} in round {round}"
            );
            assert!(
                recycled.contains(&data.as_ptr()),
                "{what}: block {block} in round {round} came in a new buffer"
            );
        }
    }
    queue.shutdown().unwrap();
}

#[test]
fn recycled_buffers_come_back_holding_exactly_their_blocks() {
    let bb = RPB as usize * RECORD_BYTES;
    let opts = QueueOptions {
        depth: RECYCLE_BLOCKS,
        ..QueueOptions::default()
    };
    check_recycled_reads(ThreadedQueue::memory(2, bb, opts), "memory");
    let dir = unique_dir();
    check_recycled_reads(ThreadedQueue::file(&dir, 2, bb, opts).unwrap(), "file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "uring")]
#[test]
fn uring_refills_recycled_buffers_with_exactly_their_blocks() {
    if !pm_engine::uring_available() {
        eprintln!("SKIP: io_uring unavailable on this kernel");
        return;
    }
    let dir = unique_dir();
    let bb = RPB_ALIGNED as usize * RECORD_BYTES;
    let queue = pm_engine::UringQueue::create(&dir, 2, bb, RECYCLE_BLOCKS).unwrap();
    check_recycled_reads(queue, "uring");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_queue_that_drops_recycled_buffers_changes_nothing_the_merge_reports() {
    use pm_core::DataLayout;
    // 350-record runs end in a partly filled block.
    let runs = form_runs(3_000, 350, 19);
    for layout in [DataLayout::Concatenated, DataLayout::Striped] {
        let scenario = ScenarioBuilder::new(runs.len() as u32, 3)
            .layout(layout)
            .seed(53);
        // Inter-run prefetching needs each run on one disk.
        let cfg = match layout {
            DataLayout::Concatenated => scenario.inter(4),
            DataLayout::Striped => scenario.intra(4),
        }
        .build()
        .unwrap();
        let disks = cfg.disks as usize;
        let engine = engine_custom(cfg, &runs, 1, 0, RPB);
        let recycling = run_memory(&engine, &runs, disks);
        assert_eq!(recycling.output, common::reference(&runs));

        let mut queue = ThreadedQueue::memory(disks, engine.block_bytes(), engine.queue_options());
        engine.load(&mut queue, &runs).unwrap();
        let dropping = engine.execute(Box::new(NoRecycle(queue))).unwrap();

        let mut queue = PermutedQueue::new(disks, engine.block_bytes(), 7, 4);
        engine.load(&mut queue, &runs).unwrap();
        let permuted_dropping = engine.execute(Box::new(NoRecycle(queue))).unwrap();
        let permuted = run_permuted(&engine, &runs, disks, 7, 4);

        for (other, what) in [
            (&dropping, "threaded, not recycling"),
            (&permuted, "permuted, recycling"),
            (&permuted_dropping, "permuted, not recycling"),
        ] {
            assert_eq!(other.output, recycling.output, "{layout:?}: {what}");
            assert_eq!(other.requests, recycling.requests, "{layout:?}: {what}");
            assert_eq!(other.depletion, recycling.depletion, "{layout:?}: {what}");
        }
    }
}
