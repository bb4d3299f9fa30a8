//! The metered entry points: a metrics sink observes a merge without
//! changing it, and what it counts agrees with the run's own report —
//! on a dedicated queue, through a shared port, and across the passes
//! of a merge tree.

mod common;

use std::sync::Arc;

use pm_core::ScenarioBuilder;
use pm_engine::{
    ExecOutcome, IoQueue, MemoryDevice, MergeEngine, MultiPassExecutor, MultiPassOptions,
    PassBackend, SharedDeviceSet, ThreadedQueue,
};
use pm_extsort::plan::{plan_merge_tree, PlanPolicy};
use pm_extsort::Record;
use pm_metrics::{encode_text, StackMetrics};
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
