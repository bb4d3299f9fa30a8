//! [`IoQueue`] contract tests.
//!
//! The core tentpole invariant: the engine's merge decisions are a pure
//! function of the depletion sequence, so *any* completion interleaving
//! a queue produces — across disks, within a disk, in any reap batch
//! size — must yield byte-identical output and simulator request-
//! sequence parity. A property-based adversarial queue exercises that;
//! the deprecated depth-1 [`BlockingQueue`] shim anchors the
//! regression comparison against the pre-queue calling convention; the
//! threaded queue's depth bound holds per disk, not per worker; a
//! panicking device fails the queue instead of hanging it; and the
//! O_DIRECT alignment precondition must fail loudly, not corrupt.

mod common;

use std::io;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pm_core::{PmError, ScenarioBuilder};
use pm_disk::{BlockAddr, DiskId, DiskRequest};
use pm_engine::{
    BlockDevice, ExecOutcome, IoCompletion, IoQueue, IoRequest, MemoryDevice, MergeEngine,
    QueueOptions, ThreadedQueue, DIRECT_ALIGN,
};
use pm_extsort::Record;
use proptest::prelude::*;

#[cfg(feature = "uring")]
use common::RPB_ALIGNED;
use common::{engine_custom, form_runs, run_memory, unique_dir, PanickingDevice, RPB};

/// An adversarial [`IoQueue`] over a [`MemoryDevice`]: every submitted
/// request is serviced instantly, but completions are handed back in a
/// seeded pseudo-random order and in pseudo-random batch sizes — the
/// worst-case legal behaviour the contract allows (io_uring can
/// reorder even within one disk).
struct PermutedQueue {
    device: MemoryDevice,
    rng: u64,
    depth: usize,
    finished: Vec<IoCompletion>,
    epoch: Instant,
}

impl PermutedQueue {
    fn new(disks: usize, block_bytes: usize, seed: u64, depth: usize) -> Self {
        PermutedQueue {
            device: MemoryDevice::new(disks, block_bytes),
            rng: seed | 1,
            depth: depth.max(1),
            finished: Vec::new(),
            epoch: Instant::now(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic per seed, good enough to scramble
        // completion order.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn shuffle_finished(&mut self) {
        for i in (1..self.finished.len()).rev() {
            let j = (self.next_rand() % (i as u64 + 1)) as usize;
            self.finished.swap(i, j);
        }
    }
}

impl IoQueue for PermutedQueue {
    fn backend(&self) -> &'static str {
        "permuted"
    }

    fn block_bytes(&self) -> usize {
        self.device.block_bytes()
    }

    fn disks(&self) -> usize {
        self.device.disks()
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.device.write_block(disk, start, data)
    }

    fn open(&mut self, epoch: Instant) -> io::Result<()> {
        self.epoch = epoch;
        Ok(())
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        for req in reqs {
            let mut buf = vec![0u8; self.device.block_bytes()];
            let result = self.device.read_block(req.req.disk, req.req.start, &mut buf);
            let now = Instant::now().duration_since(self.epoch).as_nanos() as u64;
            self.finished.push(IoCompletion {
                disk: req.req.disk.0,
                tag: req.req.tag,
                span: req.span,
                hint: req.req.sequential_hint,
                injected: None,
                submitted_ns: now,
                started_ns: now,
                finished_ns: now,
                data: result.map(|()| buf),
            });
        }
        self.shuffle_finished();
        Ok(())
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        if self.finished.len() < min_wait {
            return Err(io::Error::other(format!(
                "waiting for {min_wait} completions with only {} in flight",
                self.finished.len()
            )));
        }
        // Release a pseudo-random batch: at least min_wait, at most
        // everything outstanding.
        let extra = self.finished.len() - min_wait;
        let n = min_wait
            + if extra == 0 {
                0
            } else {
                (self.next_rand() % (extra as u64 + 1)) as usize
            };
        out.extend(self.finished.drain(..n));
        Ok(n)
    }

    fn shutdown(&mut self) -> io::Result<()> {
        Ok(())
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
#[allow(deprecated)]
fn blocking_shim_matches_the_threaded_queue_at_depth_1() {
    // Depth-1 regression against the pre-queue calling convention: the
    // deprecated synchronous shim and the threaded queue must agree on
    // everything the engine reports.
    use pm_engine::BlockingQueue;

    let runs = form_runs(2500, 300, 31);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 2)
        .inter(3)
        .seed(47)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    let engine = engine_custom(cfg, &runs, 1, 1, RPB);
    let threaded = run_memory(&engine, &runs, disks);

    let mut shim = BlockingQueue::new(MemoryDevice::new(disks, engine.block_bytes()));
    engine.load(&mut shim, &runs).expect("load");
    let blocking = engine.execute(Box::new(shim)).expect("execute");

    assert_eq!(blocking.output, threaded.output);
    assert_eq!(blocking.requests, threaded.requests);
    assert_eq!(blocking.depletion, threaded.depletion);
    assert_eq!(
        blocking.report.per_disk_requests,
        threaded.report.per_disk_requests
    );
    assert_eq!(blocking.report.demand_ops, threaded.report.demand_ops);
    assert_eq!(blocking.report.fallback_ops, threaded.report.fallback_ops);
    assert_eq!(
        blocking.report.full_prefetch_ops,
        threaded.report.full_prefetch_ops
    );
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
        tx.send(engine.execute(Box::new(queue)).map(|_| ())).unwrap();
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
    assert!(msg.contains("640"), "error must name the offending size: {msg}");
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
        assert_eq!(outcome.requests, baseline.requests, "depth={depth}: requests");
        assert_eq!(outcome.depletion, baseline.depletion, "depth={depth}: depletion");
        let prediction = engine.predict(&outcome.depletion).expect("predict");
        assert_eq!(
            prediction.requests, outcome.requests,
            "depth={depth}: simulator replay"
        );
    }
}
