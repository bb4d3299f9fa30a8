//! Shared fixtures for the engine integration tests.

// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use pm_core::MergeConfig;
use pm_disk::{BlockAddr, DiskId};
use pm_engine::{
    BlockDevice, ExecConfig, ExecOutcome, IoCompletion, IoQueue, IoRequest, MemoryDevice,
    MergeEngine, ThreadedQueue,
};
use pm_extsort::{generate, run_formation, Record};

/// Records per on-device block the tests use throughout.
pub const RPB: u32 = 20;

/// Records per block for `O_DIRECT` backends (32 × 16 B = 512 B, the
/// direct-I/O alignment unit).
pub const RPB_ALIGNED: u32 = 32;

/// Generates `total` uniform records and forms sorted runs of up to
/// `memory` records each (the pm-extsort run-formation path the real
/// sort uses).
pub fn form_runs(total: usize, memory: usize, seed: u64) -> Vec<Vec<Record>> {
    let input = generate::uniform(total, seed);
    run_formation::load_sort(&input, memory)
}

/// The expected merged output: every input record in key order.
pub fn reference(runs: &[Vec<Record>]) -> Vec<Record> {
    let mut all: Vec<Record> = runs.iter().flatten().copied().collect();
    all.sort_by_key(|r| (r.key, r.rid));
    all
}

/// Plans an engine over `runs` for `cfg` with the test block factor and
/// a negotiated queue depth.
pub fn engine_for(cfg: MergeConfig, runs: &[Vec<Record>], jobs: usize) -> MergeEngine {
    engine_custom(cfg, runs, jobs, 0, RPB)
}

/// [`engine_for`] with explicit queue depth and block factor (the
/// depth/backend parity sweeps and the O_DIRECT paths need both).
pub fn engine_custom(
    cfg: MergeConfig,
    runs: &[Vec<Record>],
    jobs: usize,
    depth: usize,
    rpb: u32,
) -> MergeEngine {
    let mut exec = ExecConfig::new(cfg);
    exec.records_per_block = rpb;
    exec.queue_depth = depth;
    exec.jobs = jobs;
    MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).expect("plan")
}

/// Loads + executes on the in-memory backend.
pub fn run_memory(engine: &MergeEngine, runs: &[Vec<Record>], disks: usize) -> ExecOutcome {
    let mut queue = ThreadedQueue::memory(disks, engine.block_bytes(), engine.queue_options());
    engine.load(&mut queue, runs).expect("load");
    engine.execute(Box::new(queue)).expect("execute")
}

/// Loads + executes on the file backend under a fresh temp directory,
/// removing it afterwards.
pub fn run_file(engine: &MergeEngine, runs: &[Vec<Record>], disks: usize) -> ExecOutcome {
    let dir = unique_dir();
    let mut queue = ThreadedQueue::file(&dir, disks, engine.block_bytes(), engine.queue_options())
        .expect("create files");
    engine.load(&mut queue, runs).expect("load");
    let outcome = engine.execute(Box::new(queue)).expect("execute");
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Loads + executes on the `O_DIRECT` file backend (the engine must be
/// planned with [`RPB_ALIGNED`]), removing the directory afterwards.
pub fn run_file_direct(engine: &MergeEngine, runs: &[Vec<Record>], disks: usize) -> ExecOutcome {
    let dir = unique_dir();
    let mut queue =
        ThreadedQueue::file_direct(&dir, disks, engine.block_bytes(), engine.queue_options())
            .expect("create O_DIRECT files");
    engine.load(&mut queue, runs).expect("load");
    let outcome = engine.execute(Box::new(queue)).expect("execute");
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// A unique scratch directory under the system temp dir.
pub fn unique_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pm-engine-test-{}-{n}", std::process::id()))
}

/// Asserts `outcome` merged every input record into key order (ties may
/// land in either order depending on the merge path, so the multiset is
/// compared sorted).
pub fn assert_sorted_output(outcome: &ExecOutcome, runs: &[Vec<Record>]) {
    assert!(
        outcome.output.windows(2).all(|w| w[0].key <= w[1].key),
        "merged output out of key order"
    );
    let mut got = outcome.output.clone();
    got.sort_by_key(|r| (r.key, r.rid));
    assert_eq!(
        got,
        reference(runs),
        "merged output is not the input multiset"
    );
}

/// A [`MemoryDevice`] whose reads panic (writes load it normally).
pub struct PanickingDevice(pub MemoryDevice);

impl BlockDevice for PanickingDevice {
    fn block_bytes(&self) -> usize {
        self.0.block_bytes()
    }

    fn disks(&self) -> usize {
        self.0.disks()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, _buf: &mut [u8]) -> io::Result<()> {
        panic!(
            "injected device fault reading disk {} block {}",
            disk.0, start.0
        );
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.0.write_block(disk, start, data)
    }
}

/// An adversarial [`IoQueue`] over a [`MemoryDevice`]: every submitted
/// request is serviced instantly, but completions are handed back in a
/// seeded pseudo-random order and in pseudo-random batch sizes — the
/// worst-case legal behaviour the contract allows (io_uring can
/// reorder even within one disk). It reads into recycled buffers.
pub struct PermutedQueue {
    device: MemoryDevice,
    rng: u64,
    depth: usize,
    finished: Vec<IoCompletion>,
    spare: Vec<Vec<u8>>,
    epoch: Instant,
}

impl PermutedQueue {
    pub fn new(disks: usize, block_bytes: usize, seed: u64, depth: usize) -> Self {
        PermutedQueue {
            device: MemoryDevice::new(disks, block_bytes),
            rng: seed | 1,
            depth: depth.max(1),
            finished: Vec::new(),
            spare: Vec::new(),
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
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.resize(self.device.block_bytes(), 0);
            let result = self
                .device
                .read_block(req.req.disk, req.req.start, &mut buf);
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

    fn recycle(&mut self, buf: Vec<u8>) {
        self.spare.push(buf);
    }

    fn shutdown(&mut self) -> io::Result<()> {
        Ok(())
    }
}
