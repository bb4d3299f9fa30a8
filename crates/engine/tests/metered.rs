//! The metered entry points: a metrics sink observes a merge without
//! changing it, and what it counts agrees with the run's own report —
//! on a dedicated queue, through a shared port, and across the passes
//! of a merge tree. Each disk's `disk_queue_depth` has one writer, and
//! it reports the disk's outstanding requests.

mod common;

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use pm_core::ScenarioBuilder;
use pm_disk::{BlockAddr, DiskId, DiskRequest};
use pm_engine::{
    BlockDevice, ExecOutcome, IoQueue, IoRequest, MemoryDevice, MergeEngine, MultiPassExecutor,
    MultiPassOptions, PassBackend, SharedDeviceSet, ThreadedQueue,
};
use pm_extsort::plan::{plan_merge_tree, PlanPolicy};
use pm_extsort::Record;
use pm_metrics::{encode_text, MetricsSink, StackMetrics};
use pm_service::sched_by_name;
use pm_trace::{pack_tag, unpack_tenant_tag, EventKind};

use common::{engine_for, form_runs, RPB};

const DISKS: usize = 4;

/// What an outcome's trace says independently of host timing and of
/// the tenant, with tags stripped of their tenant.
struct Timeless {
    /// The merge thread's own events, in order.
    own: Vec<EventKind>,
    /// Each read's completion as a sorted `(disk, span, tag)` set.
    done: Vec<(u16, u64, u64)>,
    /// The tenants the tags carried.
    tenants: Vec<u16>,
}

fn timeless(outcome: &ExecOutcome) -> Timeless {
    let mut tenants = Vec::new();
    let mut strip = |tag: u64| {
        let (tenant, run, block) = unpack_tenant_tag(tag);
        if !tenants.contains(&tenant) {
            tenants.push(tenant);
        }
        pack_tag(run, block)
    };
    let mut own = Vec::new();
    let mut done = Vec::new();
    for event in outcome.events.iter() {
        match event.kind {
            EventKind::DiskTransferDone {
                disk, span, tag, ..
            } => done.push((disk, span, strip(tag))),
            EventKind::DiskIssue {
                disk,
                output,
                tag,
                span,
            } => own.push(EventKind::DiskIssue {
                disk,
                output,
                tag: strip(tag),
                span,
            }),
            kind => own.push(kind),
        }
    }
    done.sort_unstable();
    Timeless { own, done, tenants }
}

/// Runs `engine` plain on a fresh memory queue.
fn plain(engine: &MergeEngine, runs: &[Vec<Record>]) -> ExecOutcome {
    engine.execute(Box::new(loaded(engine, runs))).unwrap()
}

fn loaded(engine: &MergeEngine, runs: &[Vec<Record>]) -> ThreadedQueue {
    let mut queue = ThreadedQueue::memory(DISKS, engine.block_bytes(), engine.queue_options());
    engine.load(&mut queue, runs).unwrap();
    queue
}

fn setup() -> (MergeEngine, Vec<Vec<Record>>) {
    let runs = form_runs(6000, 400, 41);
    let cfg = ScenarioBuilder::new(runs.len() as u32, DISKS as u32)
        .inter(4)
        .seed(43)
        .build()
        .unwrap();
    (engine_for(cfg, &runs, 0), runs)
}

/// The metered run merged what the plain one did, and the sink counted
/// every request on the disk that served it.
fn assert_observed(metrics: &StackMetrics, metered: &ExecOutcome, plain: &ExecOutcome) {
    assert_eq!(metered.output, plain.output, "output");
    assert_eq!(metered.requests, plain.requests, "requests");
    assert_eq!(metered.depletion, plain.depletion, "depletion");
    let (metered_trace, plain_trace) = (timeless(metered), timeless(plain));
    assert_eq!(
        metered_trace.own, plain_trace.own,
        "the merge thread's events"
    );
    assert_eq!(metered_trace.done, plain_trace.done, "the completions");
    for (d, &n) in metered.report.per_disk_requests.iter().enumerate() {
        assert_eq!(metrics.disk_requests(d), n, "requests on disk {d}");
    }
}

#[test]
fn a_metered_merge_is_the_plain_merge_and_counts_every_request() {
    let (engine, runs) = setup();
    let plain = plain(&engine, &runs);
    let metrics = StackMetrics::new(DISKS, &[]);
    let metered = engine
        .execute_metered(Box::new(loaded(&engine, &runs)), &metrics)
        .unwrap();
    assert_observed(&metrics, &metered, &plain);
    assert_eq!(
        timeless(&metered).tenants,
        [0],
        "a dedicated queue tags tenant 0"
    );
}

#[test]
fn a_metered_merge_through_a_shared_port_counts_under_the_port_tenant() {
    let (engine, runs) = setup();
    let plain = plain(&engine, &runs);
    let mut set = SharedDeviceSet::start(DISKS, 2, sched_by_name("wfq").unwrap(), 1.0, None);
    let _idle = set.port(Arc::new(MemoryDevice::new(DISKS, engine.block_bytes())), 1);
    let port = set.port(loaded(&engine, &runs).into_device(), 1);
    assert_eq!(port.tenant(), 1);
    let metrics = StackMetrics::new(DISKS, &["idle".to_string(), "job".to_string()]);
    let shared = engine.execute_metered(Box::new(port), &metrics).unwrap();
    set.shutdown();
    assert_observed(&metrics, &shared, &plain);
    assert_eq!(
        timeless(&shared).tenants,
        [1],
        "every tag carries the port's tenant"
    );
    assert_eq!(metrics.tenant_blocks_done(1), shared.report.blocks_merged);
    assert_eq!(metrics.tenant_blocks_done(0), 0);
}

#[test]
fn a_metered_merge_tree_records_each_pass_and_calls_back_after_it() {
    let runs = form_runs(4000, 500, 47);
    let lens: Vec<u32> = runs
        .iter()
        .map(|r| (r.len() as u32).div_ceil(RPB))
        .collect();
    let plan = plan_merge_tree(&lens, 3, PlanPolicy::GreedyMax).unwrap();
    assert_eq!(plan.num_passes(), 2);
    let base = ScenarioBuilder::new(3, DISKS as u32)
        .inter(2)
        .seed(53)
        .build()
        .unwrap();
    let opts = MultiPassOptions {
        records_per_block: RPB,
        ..Default::default()
    };
    let exec = MultiPassExecutor::new(&plan, base, opts, PassBackend::Memory);
    let plain = exec.run(runs.clone()).unwrap();

    let metrics = StackMetrics::new(DISKS, &[]);
    let mut after = Vec::new();
    let metered = exec
        .run_metered(runs, &metrics, |pass| {
            after.push(pass);
            Ok(())
        })
        .unwrap();
    assert_eq!(after, [0, 1]);
    assert_eq!(metered.output, plain.output);
    assert_eq!(metered.passes.len(), 2);

    let text = encode_text(&metrics.snapshot());
    for pass in &metered.passes {
        let p = pass.pass;
        for (family, value) in [
            ("pm_pass_blocks_read_total", pass.blocks_read),
            ("pm_pass_records_merged_total", pass.records_merged),
        ] {
            let line = format!("{family}{{pass=\"{p}\"}} {value}\n");
            assert!(text.contains(&line), "missing {line:?} in\n{text}");
        }
    }
    let requests: u64 = (0..DISKS).map(|d| metrics.disk_requests(d)).sum();
    let blocks: u64 = metered.passes.iter().map(|p| p.blocks_read).sum();
    assert_eq!(requests, blocks, "every block read is one request");
}

/// Every `disk_queue_depth` call a merge makes, and every request it
/// completes (`None`), in order, with its disk.
#[derive(Default)]
struct DepthLog(Mutex<Vec<(usize, Option<f64>)>>);

impl MetricsSink for DepthLog {
    fn disk_io(&self, disk: usize, _bytes: u64, _wait: f64, _service: f64) {
        self.0.lock().unwrap().push((disk, None));
    }

    fn disk_queue_depth(&self, disk: usize, depth: f64) {
        self.0.lock().unwrap().push((disk, Some(depth)));
    }
}

impl DepthLog {
    /// Checks that `disk`'s depth readings count outstanding requests:
    /// each reading rises by a submission's requests or falls by one
    /// completion, and the last is 0. Returns the requests submitted and
    /// completed.
    fn outstanding(&self, disk: usize) -> (u64, u64) {
        let (mut depth, mut submitted, mut completed) = (0.0, 0u64, 0u64);
        for &(d, reading) in self.0.lock().unwrap().iter() {
            let Some(next) = reading.filter(|_| d == disk) else {
                continue;
            };
            if next > depth {
                submitted += (next - depth) as u64;
            } else {
                assert_eq!(next, depth - 1.0, "disk {disk}: a completion steps by one");
                completed += 1;
            }
            depth = next;
        }
        assert_eq!(depth, 0.0, "disk {disk}: nothing outstanding at the end");
        (submitted, completed)
    }

    fn readings(&self) -> usize {
        self.0
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, r)| r.is_some())
            .count()
    }

    fn completions(&self, disk: usize) -> u64 {
        let log = self.0.lock().unwrap();
        log.iter()
            .filter(|&&(d, r)| d == disk && r.is_none())
            .count() as u64
    }
}

#[test]
fn a_merge_on_its_own_disks_reports_their_outstanding_requests() {
    let (engine, runs) = setup();
    let log = DepthLog::default();
    let metered = engine
        .execute_metered(Box::new(loaded(&engine, &runs)), &log)
        .unwrap();
    for (d, &n) in metered.report.per_disk_requests.iter().enumerate() {
        assert!(n > 0);
        assert_eq!(log.outstanding(d), (n, n), "disk {d}");
    }
}

/// Serve's wiring: two metered merges on a metered shared set. The set
/// is the one writer of each disk's depth; the merges write none.
#[test]
fn a_two_tenant_shared_run_has_one_queue_depth_writer_per_disk() {
    let (engine, runs) = setup();
    let set_metrics = Arc::new(StackMetrics::new(DISKS, &[]));
    let mut set = SharedDeviceSet::start(
        DISKS,
        2,
        sched_by_name("wfq").unwrap(),
        1.0,
        Some(Arc::clone(&set_metrics)),
    );
    let logs = [DepthLog::default(), DepthLog::default()];
    std::thread::scope(|s| {
        for log in &logs {
            let port = set.port(loaded(&engine, &runs).into_device(), 1);
            let engine = &engine;
            s.spawn(move || engine.execute_metered(Box::new(port), log).unwrap());
        }
    });
    set.shutdown();
    let text = encode_text(&set_metrics.snapshot());
    for log in &logs {
        assert_eq!(log.readings(), 0, "a merge on shared disks writes no depth");
        assert!((0..DISKS).any(|d| log.completions(d) > 0));
    }
    for d in 0..DISKS {
        let line = format!("pm_disk_queue_depth{{disk=\"{d}\"}} 0\n");
        assert!(text.contains(&line), "missing {line:?} in\n{text}");
    }
}

/// A device whose reads wait until the test opens its gate.
struct GatedDevice {
    inner: MemoryDevice,
    open: Arc<(Mutex<bool>, Condvar)>,
}

/// Opens a [`GatedDevice`]'s gate when dropped, so a failing test
/// releases the disk worker instead of hanging in the set's shutdown.
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn open(&self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        self.open();
    }
}

impl BlockDevice for GatedDevice {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        let (open, cond) = &*self.open;
        let _open = cond
            .wait_while(open.lock().unwrap(), |open| !*open)
            .unwrap();
        self.inner.read_block(disk, start, buf)
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.inner.write_block(disk, start, data)
    }
}

#[test]
fn a_shared_set_reports_each_disks_queued_plus_in_service_requests() {
    let metrics = Arc::new(StackMetrics::new(2, &[]));
    let mut set = SharedDeviceSet::start(
        2,
        1,
        sched_by_name("fifo").unwrap(),
        1.0,
        Some(Arc::clone(&metrics)),
    );
    let open = Arc::new((Mutex::new(false), Condvar::new()));
    let mut memory = MemoryDevice::new(2, 64);
    memory
        .write_block(DiskId(0), BlockAddr(0), &[7u8; 3 * 64])
        .unwrap();
    let device = GatedDevice {
        inner: memory,
        open: Arc::clone(&open),
    };
    let mut port = set.port(Arc::new(device), 1);
    let gate = Gate(open);
    let reads: Vec<IoRequest> = (0..3)
        .map(|b| IoRequest {
            req: DiskRequest {
                disk: DiskId(0),
                start: BlockAddr(b),
                len: 1,
                sequential_hint: false,
                tag: b,
            },
            span: b,
            submitted: Instant::now(),
        })
        .collect();
    port.submit(&reads).unwrap();
    let depth = |d: usize| {
        let text = encode_text(&metrics.snapshot());
        let prefix = format!("pm_disk_queue_depth{{disk=\"{d}\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix).map(str::to_string))
            .unwrap()
    };
    // Whether or not the worker has taken the first read into service,
    // all three are outstanding: none can complete while the gate holds.
    assert_eq!(depth(0), "3");
    assert_eq!(depth(1), "0");
    gate.open();
    let mut done = Vec::new();
    while done.len() < 3 {
        port.complete(&mut done, 1).unwrap();
    }
    // A read leaves the count before its completion is delivered.
    assert_eq!(depth(0), "0");
    port.shutdown().unwrap();
    set.shutdown();
}
