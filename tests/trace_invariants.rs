//! Invariants of the `pm-trace` subsystem, checked end-to-end against the
//! real simulator:
//!
//! * the Chrome-trace export of a pinned tiny scenario matches its golden
//!   snapshot byte-for-byte (regenerate with `UPDATE_GOLDEN=1`),
//! * recorded event streams are well-formed — per-disk stamps are
//!   monotone and every `DiskIssue` pairs with exactly one `DiskSeekDone`
//!   and one `DiskTransferDone` of the same span,
//! * tracing is observation-only: traced and untraced runs produce
//!   bit-identical reports, and the recorded trace itself is bit-identical
//!   for every worker-thread count.

use std::collections::BTreeMap;
use std::path::PathBuf;

use pm_core::{
    run_trials_parallel, run_trials_traced, EventKind, MergeConfig, MergeSim, PrefetchStrategy,
    RecordingSink, ScenarioBuilder, SyncMode, TraceEvent, UniformDepletion,
};
use pm_trace::export::chrome_trace_json;

/// The pinned golden scenario: small enough that its Chrome trace stays
/// reviewable, and exercising both disks, queueing, and demand misses.
fn golden_cfg() -> MergeConfig {
    let mut cfg = ScenarioBuilder::new(2, 2).build().unwrap();
    cfg.run_blocks = 4;
    cfg.strategy = PrefetchStrategy::IntraRun { n: 2 };
    cfg.sync = SyncMode::Unsynchronized;
    cfg.cache_blocks = 8;
    cfg.seed = 42;
    cfg
}

fn record(cfg: MergeConfig) -> Vec<TraceEvent> {
    MergeSim::new(cfg)
        .expect("valid configuration")
        .replace_sink(RecordingSink::unbounded())
        .run_with_sink(&mut UniformDepletion)
        .1
        .into_events()
}

#[test]
fn chrome_export_matches_golden_snapshot() {
    let json = chrome_trace_json(&record(golden_cfg()));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_small.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden snapshot missing; rerun with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, golden,
        "Chrome export drifted from tests/golden/trace_small.json; \
         verify the change is intended and rerun with UPDATE_GOLDEN=1"
    );
}

#[test]
fn event_streams_are_well_formed() {
    let scenarios = [
        (PrefetchStrategy::None, SyncMode::Unsynchronized, 0),
        (
            PrefetchStrategy::IntraRun { n: 4 },
            SyncMode::Synchronized,
            0,
        ),
        (
            PrefetchStrategy::InterRun { n: 4 },
            SyncMode::Unsynchronized,
            2,
        ),
        (
            PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 8 },
            SyncMode::Unsynchronized,
            0,
        ),
    ];
    for (strategy, sync, write_disks) in scenarios {
        let mut cfg = ScenarioBuilder::new(6, 3).build().unwrap();
        cfg.run_blocks = 30;
        cfg.strategy = strategy;
        cfg.sync = sync;
        cfg.cache_blocks = 4 * 6 * strategy.depth().max(4);
        cfg.write = (write_disks > 0).then_some(pm_core::WriteSpec {
            disks: write_disks,
            buffer_blocks: 16,
        });
        cfg.seed = 13;
        let events = record(cfg);
        assert!(!events.is_empty(), "{strategy:?} recorded nothing");

        // Sim-time stamps are monotone per (side, disk, kind): a disk
        // serves requests one at a time, so issues, seek completions and
        // transfer completions each advance with the clock.
        let mut last: BTreeMap<(bool, u16, &str), pm_core::SimTime> = BTreeMap::new();
        // Every issued span completes exactly once per completion kind.
        let mut open: BTreeMap<(bool, u16, u64), (bool, bool)> = BTreeMap::new();
        for ev in &events {
            let Some((disk, output)) = ev.kind.disk() else {
                continue;
            };
            let prev = last.insert((output, disk, ev.kind.name()), ev.at);
            if let Some(prev) = prev {
                assert!(
                    prev <= ev.at,
                    "{strategy:?}: {} on disk {disk} (output={output}) went backwards",
                    ev.kind.name()
                );
            }
            let span = ev.kind.span().expect("disk events carry a span");
            let key = (output, disk, span);
            match ev.kind {
                EventKind::DiskIssue { .. } => {
                    assert!(
                        open.insert(key, (false, false)).is_none(),
                        "{strategy:?}: span {span} issued twice"
                    );
                }
                EventKind::DiskSeekDone { .. } => {
                    let entry = open.get_mut(&key).expect("seek-done without issue");
                    assert!(!entry.0, "{strategy:?}: span {span} seek-done twice");
                    entry.0 = true;
                }
                EventKind::DiskTransferDone { started, .. } => {
                    let entry = open.remove(&key).expect("transfer-done without issue");
                    assert!(
                        entry.0,
                        "{strategy:?}: span {span} finished without seek-done"
                    );
                    assert!(!entry.1);
                    assert!(started <= ev.at);
                }
                _ => unreachable!("disk() returned Some for a non-disk event"),
            }
        }
        assert!(
            open.is_empty(),
            "{strategy:?}: {} issues never completed",
            open.len()
        );
    }
}

#[test]
fn traced_runs_match_untraced_and_traces_match_across_jobs() {
    let mut cfg = ScenarioBuilder::new(6, 3).build().unwrap();
    cfg.run_blocks = 40;
    cfg.strategy = PrefetchStrategy::InterRun { n: 3 };
    cfg.cache_blocks = 4 * 6 * 3;
    cfg.seed = 21;

    let untraced = run_trials_parallel(&cfg, 4, 1).unwrap();
    let (traced, reference) = run_trials_traced(&cfg, 4, 1, None).unwrap();
    assert_eq!(untraced.reports, traced.reports, "tracing perturbed a run");

    for jobs in [2, 4, 0] {
        let (summary, sink) = run_trials_traced(&cfg, 4, jobs, None).unwrap();
        assert_eq!(summary.reports, untraced.reports, "jobs={jobs}");
        assert_eq!(sink.events(), reference.events(), "jobs={jobs}");
    }
}
