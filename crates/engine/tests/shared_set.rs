//! Shared-device-set equivalence: scheduling policy and job
//! interleaving shift *when* requests are serviced, never *what* a job
//! does.
//!
//! Each job executing through a [`SharedDeviceSet`] must produce output,
//! request sequences and depletion byte-identical to the same engine
//! executing alone on a dedicated pool, and [`MergeEngine::predict`]
//! parity must hold per job — the acceptance gate the CI service-smoke
//! job builds on.

mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use pm_core::{PmError, ScenarioBuilder};
use pm_engine::{ExecOutcome, MemoryDevice, MergeEngine, SharedDeviceSet, ThreadedQueue};
use pm_extsort::Record;
use pm_service::sched_by_name;

use common::{assert_sorted_output, engine_for, form_runs, run_memory, PanickingDevice};

/// Two heterogeneous jobs over 3 shared disks.
fn jobs() -> Vec<(MergeEngine, Vec<Vec<Record>>)> {
    let specs = [
        (
            ScenarioBuilder::new(6, 3)
                .inter(4)
                .seed(21)
                .build()
                .unwrap(),
            900,
            160,
        ),
        (
            ScenarioBuilder::new(4, 2)
                .intra(3)
                .cache_blocks(48)
                .seed(22)
                .build()
                .unwrap(),
            500,
            140,
        ),
    ];
    specs
        .into_iter()
        .map(|(cfg, total, memory)| {
            let runs = form_runs(total, memory, cfg.seed);
            let engine = engine_for(cfg, &runs, 1);
            (engine, runs)
        })
        .collect()
}

fn run_shared(sched: &str) -> Vec<ExecOutcome> {
    let jobs = jobs();
    let mut set = SharedDeviceSet::start(3, jobs.len(), sched_by_name(sched).unwrap(), 1.0, None);
    let mut threads = Vec::new();
    for (i, (engine, runs)) in jobs.into_iter().enumerate() {
        let mut queue = ThreadedQueue::memory(3, engine.block_bytes(), engine.queue_options());
        engine.load(&mut queue, &runs).expect("load");
        let port = set.port(queue.into_device(), 1 + i as u32);
        threads.push(std::thread::spawn(move || {
            let outcome = engine.execute(Box::new(port)).expect("shared execute");
            (engine, runs, outcome)
        }));
    }
    let mut outcomes = Vec::new();
    for t in threads {
        let (engine, runs, outcome) = t.join().expect("job thread");
        assert_sorted_output(&outcome, &runs);
        // Per-job predict parity regardless of cross-job interleaving.
        let prediction = engine.predict(&outcome.depletion).expect("predict");
        assert_eq!(
            prediction.requests, outcome.requests,
            "request-sequence parity"
        );
        outcomes.push(outcome);
    }
    set.shutdown();
    outcomes
}

#[test]
fn shared_jobs_match_isolated_runs_under_every_policy() {
    let isolated: Vec<ExecOutcome> = jobs()
        .into_iter()
        .map(|(engine, runs)| run_memory(&engine, &runs, 3))
        .collect();
    for sched in ["fifo", "wfq", "priority"] {
        let shared = run_shared(sched);
        for (job, (s, i)) in shared.iter().zip(&isolated).enumerate() {
            assert_eq!(
                s.output, i.output,
                "{sched} job {job}: output must be byte-identical"
            );
            assert_eq!(
                s.requests, i.requests,
                "{sched} job {job}: request sequences"
            );
            assert_eq!(
                s.depletion, i.depletion,
                "{sched} job {job}: depletion sequence"
            );
            assert_eq!(
                s.report.per_disk_requests, i.report.per_disk_requests,
                "{sched} job {job}: per-disk request counts"
            );
        }
    }
}

#[test]
fn shared_trace_tags_carry_the_tenant_id() {
    let shared = run_shared("fifo");
    for (job, outcome) in shared.iter().enumerate() {
        let mut saw_issue = false;
        for ev in &outcome.events {
            if let pm_trace::EventKind::DiskIssue {
                tag, output: false, ..
            } = ev.kind
            {
                let (tenant, _, _) = pm_trace::unpack_tenant_tag(tag);
                assert_eq!(tenant as usize, job, "issue tag tenant id");
                saw_issue = true;
            }
        }
        assert!(saw_issue, "job {job} traced no disk issues");
    }
}

#[test]
fn a_panicking_disk_worker_fails_its_jobs_instead_of_hanging() {
    // Job 0 reads through a device whose reads panic, killing the disk
    // workers that service it; job 1's data is healthy but shares those
    // disks. Each must finish — job 0 with a device error — within the
    // timeout rather than wait forever on a dead worker.
    let jobs = jobs();
    let mut set = SharedDeviceSet::start(3, jobs.len(), sched_by_name("fifo").unwrap(), 1.0, None);
    let (tx, rx) = mpsc::channel();
    let mut threads = Vec::new();
    for (i, (engine, runs)) in jobs.into_iter().enumerate() {
        let device: Arc<dyn pm_engine::BlockDevice> = if i == 0 {
            Arc::new(PanickingDevice(MemoryDevice::new(3, engine.block_bytes())))
        } else {
            Arc::new(MemoryDevice::new(3, engine.block_bytes()))
        };
        let mut queue = ThreadedQueue::over(device, "loader", engine.queue_options());
        engine.load(&mut queue, &runs).expect("load");
        let port = set.port(queue.into_device(), 1);
        let tx = tx.clone();
        threads.push(std::thread::spawn(move || {
            tx.send((i, engine.execute(Box::new(port)).map(|_| ())))
                .unwrap();
        }));
    }
    for _ in 0..threads.len() {
        let (job, result) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a shared execute() must not wait forever on a dead disk worker");
        if job == 0 {
            match result {
                Err(err @ PmError::Device { backend, .. }) => {
                    assert_eq!(backend, "shared");
                    assert_eq!(err.exit_code(), 2);
                }
                other => panic!("job 0: expected PmError::Device, got {other:?}"),
            }
        }
    }
    for t in threads {
        t.join().expect("job thread");
    }
    set.shutdown();
}
