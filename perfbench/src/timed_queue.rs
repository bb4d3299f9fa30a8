//! A transparent timing wrapper around the `IoQueue` handed to
//! `MergeEngine::execute` in traced runs.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pm_disk::{BlockAddr, DiskId};
use pm_engine::{IoCompletion, IoQueue, IoRequest};

/// What the wrapped queue saw. Sample vectors are reserved up front so the
/// wrapper adds no allocation inside `execute`.
#[derive(Debug, Default)]
pub struct IoStats {
    pub requests: u64,
    pub submit_calls: u64,
    pub submit_ns: u64,
    /// `complete` calls with `min_wait > 0`, and their time.
    pub wait_calls: u64,
    pub wait_ns: u64,
    /// `complete` calls with `min_wait == 0`, and their time.
    pub poll_calls: u64,
    pub poll_ns: u64,
    pub reaped: u64,
    /// Time inside `open` and `shutdown`.
    pub lifecycle_ns: u64,
    /// Per completion: service start minus submission.
    pub queue_wait_ns: Vec<u64>,
    /// Per completion: service end minus service start.
    pub service_ns: Vec<u64>,
}

impl IoStats {
    pub fn with_capacity(requests: usize) -> Self {
        IoStats {
            queue_wait_ns: Vec::with_capacity(requests),
            service_ns: Vec::with_capacity(requests),
            ..IoStats::default()
        }
    }

    /// Time the caller spent inside any queue call.
    pub fn inside_ns(&self) -> u64 {
        self.submit_ns + self.wait_ns + self.poll_ns + self.lifecycle_ns
    }
}

pub struct TimedQueue {
    inner: Box<dyn IoQueue>,
    stats: Arc<Mutex<IoStats>>,
}

impl TimedQueue {
    pub fn new(inner: Box<dyn IoQueue>, stats: Arc<Mutex<IoStats>>) -> Self {
        TimedQueue { inner, stats }
    }

    fn record(&self, f: impl FnOnce(&mut IoStats)) {
        f(&mut self
            .stats
            .lock()
            .expect("a thread panicked while holding the I/O stats"));
    }
}

fn since_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl IoQueue for TimedQueue {
    fn backend(&self) -> &'static str {
        self.inner.backend()
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
        let t = Instant::now();
        let r = self.inner.open(epoch);
        let ns = since_ns(t);
        self.record(|s| s.lifecycle_ns += ns);
        r
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.submit(reqs);
        let ns = since_ns(t);
        self.record(|s| {
            s.submit_calls += 1;
            s.requests += reqs.len() as u64;
            s.submit_ns += ns;
        });
        r
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        let before = out.len();
        let t = Instant::now();
        let r = self.inner.complete(out, min_wait);
        let ns = since_ns(t);
        self.record(|s| {
            if min_wait > 0 {
                s.wait_calls += 1;
                s.wait_ns += ns;
            } else {
                s.poll_calls += 1;
                s.poll_ns += ns;
            }
            for c in &out[before..] {
                s.reaped += 1;
                s.queue_wait_ns
                    .push(c.started_ns.saturating_sub(c.submitted_ns));
                s.service_ns
                    .push(c.finished_ns.saturating_sub(c.started_ns));
            }
        });
        r
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.shutdown();
        let ns = since_ns(t);
        self.record(|s| s.lifecycle_ns += ns);
        r
    }
}
