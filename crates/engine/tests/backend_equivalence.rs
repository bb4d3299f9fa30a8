//! Backend equivalence: the merge engine's behaviour is a function of
//! the scenario and the data, not of the backend or the worker count.
//!
//! For every scenario in the matrix, the in-memory and file-backed
//! backends — across `jobs` values — must produce byte-identical merged
//! output, the identical per-disk block-request sequences, the identical
//! depletion sequence, and identical decision counters. This is the gate
//! the CI engine-smoke job builds on.

mod common;

use pm_core::{AdmissionPolicy, DataLayout, MergeConfig, PrefetchChoice, ScenarioBuilder};

use common::{
    assert_sorted_output, engine_custom, engine_for, form_runs, run_file, run_file_direct,
    run_memory, RPB_ALIGNED,
};

/// The scenario matrix: strategy × admission × choice × layout × sync
/// coverage, all small enough to execute in-memory in milliseconds.
fn scenarios() -> Vec<(&'static str, MergeConfig)> {
    vec![
        (
            "no-prefetch",
            ScenarioBuilder::new(8, 2)
                .cache_blocks(16)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "intra-sync",
            ScenarioBuilder::new(8, 2)
                .intra(4)
                .synchronized()
                .cache_blocks(64)
                .seed(12)
                .build()
                .unwrap(),
        ),
        (
            "inter-random",
            ScenarioBuilder::new(8, 3)
                .inter(4)
                .seed(13)
                .build()
                .unwrap(),
        ),
        (
            "inter-greedy-least-held",
            ScenarioBuilder::new(8, 3)
                .inter(4)
                .admission(AdmissionPolicy::Greedy)
                .prefetch_choice(PrefetchChoice::LeastHeld)
                .per_run_cap(Some(12))
                .seed(14)
                .build()
                .unwrap(),
        ),
        (
            "adaptive",
            ScenarioBuilder::new(8, 2)
                .adaptive(1, 8)
                .cache_blocks(96)
                .seed(15)
                .build()
                .unwrap(),
        ),
        (
            "intra-striped",
            ScenarioBuilder::new(8, 2)
                .intra(4)
                .layout(DataLayout::Striped)
                .cache_blocks(64)
                .seed(16)
                .build()
                .unwrap(),
        ),
    ]
}

#[test]
fn memory_and_file_backends_agree_across_jobs() {
    let runs = form_runs(4000, 500, 7);
    for (name, cfg) in scenarios() {
        let disks = cfg.disks as usize;
        let baseline = {
            let engine = engine_for(cfg, &runs, 1);
            run_memory(&engine, &runs, disks)
        };
        assert_sorted_output(&baseline, &runs);
        assert_eq!(baseline.report.records_merged, 4000, "{name}");

        for jobs in [2, 0] {
            let engine = engine_for(cfg, &runs, jobs);
            let memory = run_memory(&engine, &runs, disks);
            let file = run_file(&engine, &runs, disks);
            for (backend, outcome) in [("memory", &memory), ("file", &file)] {
                assert_eq!(
                    outcome.output, baseline.output,
                    "{name}/{backend}/jobs={jobs}: output diverged"
                );
                assert_eq!(
                    outcome.requests, baseline.requests,
                    "{name}/{backend}/jobs={jobs}: request sequences diverged"
                );
                assert_eq!(
                    outcome.depletion, baseline.depletion,
                    "{name}/{backend}/jobs={jobs}: depletion order diverged"
                );
                let (a, b) = (&outcome.report, &baseline.report);
                assert_eq!(a.demand_ops, b.demand_ops, "{name}/{backend}/jobs={jobs}");
                assert_eq!(
                    a.fallback_ops, b.fallback_ops,
                    "{name}/{backend}/jobs={jobs}"
                );
                assert_eq!(
                    a.full_prefetch_ops, b.full_prefetch_ops,
                    "{name}/{backend}/jobs={jobs}"
                );
                assert_eq!(
                    a.per_disk_requests, b.per_disk_requests,
                    "{name}/{backend}/jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn queue_depth_and_backend_leave_decisions_invariant() {
    // Queue depth (the per-disk inflight bound) moves completion
    // *timing*, never merge decisions: across depths {1,4,32}, jobs
    // {1,4}, and the threaded backends (memory, buffered file, O_DIRECT
    // file), the output, per-disk request sequences, and depletion order
    // must all match a depth-1 single-worker baseline, and the simulator
    // must re-derive every per-disk request sequence from the depletion
    // alone.
    let runs = form_runs(3000, 400, 29);
    let cfg = ScenarioBuilder::new(8, 3)
        .inter(4)
        .seed(51)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    let baseline = {
        let engine = engine_custom(cfg, &runs, 1, 1, RPB_ALIGNED);
        run_memory(&engine, &runs, disks)
    };
    assert_sorted_output(&baseline, &runs);
    for depth in [1usize, 4, 32] {
        for jobs in [1usize, 4] {
            let engine = engine_custom(cfg, &runs, jobs, depth, RPB_ALIGNED);
            let outcomes = [
                ("memory", run_memory(&engine, &runs, disks)),
                ("file", run_file(&engine, &runs, disks)),
                ("file-direct", run_file_direct(&engine, &runs, disks)),
            ];
            for (backend, outcome) in &outcomes {
                let tag = format!("{backend}/depth={depth}/jobs={jobs}");
                assert_eq!(outcome.output, baseline.output, "{tag}: output diverged");
                assert_eq!(
                    outcome.requests, baseline.requests,
                    "{tag}: per-disk request sequences diverged"
                );
                assert_eq!(
                    outcome.depletion, baseline.depletion,
                    "{tag}: depletion order diverged"
                );
                let prediction = engine.predict(&outcome.depletion).expect("predict");
                assert_eq!(
                    prediction.requests, outcome.requests,
                    "{tag}: simulator replay diverged"
                );
            }
        }
    }
}

#[test]
fn executions_are_repeatable() {
    // The same engine executed twice on fresh devices is bit-identical:
    // no hidden state leaks between executions.
    let runs = form_runs(2000, 250, 3);
    let cfg = ScenarioBuilder::new(8, 2)
        .inter(4)
        .seed(21)
        .build()
        .unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let first = run_memory(&engine, &runs, 2);
    let second = run_memory(&engine, &runs, 2);
    assert_eq!(first.output, second.output);
    assert_eq!(first.requests, second.requests);
    assert_eq!(first.depletion, second.depletion);
}

#[test]
fn uneven_run_lengths_merge_completely() {
    // Run formation on a non-multiple leaves a short final run and a
    // partially filled final block in every run; nothing may be lost.
    let runs = form_runs(3217, 450, 9);
    assert!(runs.iter().any(|r| r.len() % common::RPB as usize != 0));
    let cfg = ScenarioBuilder::new(runs.len() as u32, 2)
        .inter(3)
        .seed(22)
        .build()
        .unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let outcome = run_memory(&engine, &runs, 2);
    assert_sorted_output(&outcome, &runs);
    assert_eq!(outcome.report.records_merged, 3217);
}

#[test]
fn trace_events_cover_every_request() {
    use pm_core::EventKind;
    let runs = form_runs(2000, 250, 5);
    let cfg = ScenarioBuilder::new(8, 2)
        .inter(4)
        .seed(23)
        .build()
        .unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let outcome = run_memory(&engine, &runs, 2);
    let issues = outcome
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DiskIssue { .. }))
        .count() as u64;
    let transfers = outcome
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DiskTransferDone { .. }))
        .count() as u64;
    let total: u64 = outcome.report.per_disk_requests.iter().sum();
    assert_eq!(issues, total);
    assert_eq!(transfers, total);
}
