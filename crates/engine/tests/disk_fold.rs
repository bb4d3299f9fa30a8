//! The per-disk fold: `DiskLaneMetrics` turns a trace's disk events into
//! the figures the simulator's and the engine's own accounts give —
//! busy time, requests and sequential requests — and pairs each
//! completion with its issue by `(disk, span)` for the queue wait, on a
//! simulator trace with write disks, a one-merge engine trace and the
//! trace of a two-pass merge tree (whose groups each number their spans
//! from 0).

mod common;

use std::collections::BTreeMap;

use pm_core::{MergeSim, ScenarioBuilder, SimDuration, UniformDepletion, WriteSpec};
use pm_engine::{MultiPassExecutor, MultiPassOptions, PassBackend};
use pm_extsort::plan::{plan_merge_tree, PlanPolicy};
use pm_trace::{DiskLaneMetrics, EventKind, RecordingSink, TraceEvent, TraceMetrics};

use common::{engine_for, form_runs, run_memory, RPB};

/// The pairing `pmerge serve` once made on its own, kept as the
/// reference: per disk of one side, the summed issue → service-start
/// wait in seconds and the number of completions paired, each matched
/// to the latest issue of its `(disk, span)`.
fn paired_waits(events: &[TraceEvent], side: bool) -> BTreeMap<u16, (f64, u64)> {
    let mut issued = BTreeMap::new();
    let mut waits = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::DiskIssue {
                disk, output, span, ..
            } if output == side => {
                issued.insert((disk, span), ev.at);
            }
            EventKind::DiskTransferDone {
                disk,
                output,
                span,
                started,
                ..
            } if output == side => {
                if let Some(at) = issued.remove(&(disk, span)) {
                    let (total, served) = waits.entry(disk).or_insert((0.0, 0));
                    *total += started.since(at).as_secs_f64();
                    *served += 1;
                }
            }
            _ => {}
        }
    }
    waits
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-12
}

/// Every lane's queue wait, and the input side's mean over all disks,
/// equal the reference pairing.
fn assert_waits_match_the_reference(m: &TraceMetrics, events: &[TraceEvent]) {
    for (side, lanes) in [(false, &m.input_disks), (true, &m.output_disks)] {
        let reference = paired_waits(events, side);
        for (d, lane) in lanes.iter().enumerate() {
            let (total, served) = reference.get(&(d as u16)).copied().unwrap_or((0.0, 0));
            assert_eq!(lane.waited, served, "output {side} disk {d}: paired");
            let mean = if served == 0 {
                0.0
            } else {
                total / served as f64
            };
            assert!(
                close(lane.mean_queue_wait(), mean),
                "output {side} disk {d}: {} vs {mean}",
                lane.mean_queue_wait()
            );
        }
        if !side {
            let (total, served) = reference
                .values()
                .fold((0.0, 0), |(t, s), &(dt, ds)| (t + dt, s + ds));
            assert!(served > 0);
            assert!(close(m.mean_input_queue_wait(), total / served as f64));
        }
    }
}

fn sum(lanes: &[DiskLaneMetrics], f: fn(&DiskLaneMetrics) -> u64) -> u64 {
    lanes.iter().map(f).sum()
}

#[test]
fn a_simulator_trace_with_write_disks_folds_to_the_disks_own_accounts() {
    let mut cfg = ScenarioBuilder::new(6, 3)
        .inter(4)
        .run_blocks(40)
        .seed(11)
        .build()
        .unwrap();
    cfg.write = Some(WriteSpec {
        disks: 2,
        buffer_blocks: 8,
    });
    let (report, sink) = MergeSim::new(cfg)
        .unwrap()
        .replace_sink(RecordingSink::unbounded())
        .run_with_sink(&mut UniformDepletion);
    let events = sink.into_events();
    let m = TraceMetrics::from_events(&events);

    assert_eq!(m.input_disks.len(), 3);
    for (d, lane) in m.input_disks.iter().enumerate() {
        assert_eq!(lane.busy, report.per_disk_busy[d], "busy time of disk {d}");
    }
    assert_eq!(sum(&m.input_disks, |l| l.requests), report.disk_requests);
    assert_eq!(
        sum(&m.input_disks, |l| l.sequential),
        report.sequential_requests
    );
    assert_eq!(m.output_disks.len(), 2);
    assert_eq!(sum(&m.output_disks, |l| l.requests), report.write_blocks);
    let write_busy: SimDuration = m.output_disks.iter().map(|l| l.busy).sum();
    assert_eq!(write_busy, report.write_busy);
    // Requests queue behind each other on both arrays.
    assert!(m.input_disks.iter().any(|l| l.mean_queue_wait() > 0.0));
    assert!(m.output_disks.iter().all(|l| l.waited == l.requests));
    assert_waits_match_the_reference(&m, &events);
}

#[test]
fn a_one_merge_engine_trace_folds_to_the_exec_report() {
    let runs = form_runs(6000, 400, 41);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 4)
        .inter(4)
        .seed(43)
        .build()
        .unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let out = run_memory(&engine, &runs, 4);
    let m = TraceMetrics::from_events(&out.events);
    assert_eq!(m.input_disks.len(), 4);
    assert!(m.output_disks.is_empty());
    for (d, lane) in m.input_disks.iter().enumerate() {
        assert_eq!(lane.requests, out.report.per_disk_requests[d], "disk {d}");
        assert_eq!(
            lane.sequential, out.report.per_disk_sequential[d],
            "disk {d}"
        );
        assert_eq!(lane.waited, lane.requests, "disk {d}: every issue traced");
    }
    assert_waits_match_the_reference(&m, &out.events);
}

#[test]
fn a_two_pass_tree_trace_pairs_each_groups_spans_afresh() {
    let runs = form_runs(4000, 500, 47);
    let lens: Vec<u32> = runs
        .iter()
        .map(|r| (r.len() as u32).div_ceil(RPB))
        .collect();
    let plan = plan_merge_tree(&lens, 3, PlanPolicy::GreedyMax).unwrap();
    assert_eq!(plan.num_passes(), 2);
    let base = ScenarioBuilder::new(3, 4)
        .inter(2)
        .seed(53)
        .build()
        .unwrap();
    let opts = MultiPassOptions {
        records_per_block: RPB,
        ..Default::default()
    };
    let out = MultiPassExecutor::new(&plan, base, opts, PassBackend::Memory)
        .run(runs)
        .unwrap();
    let m = TraceMetrics::from_events(&out.events);
    let requests: u64 = out.passes.iter().map(|p| p.requests).sum();
    let blocks: u64 = out.passes.iter().map(|p| p.blocks_read).sum();
    assert_eq!(sum(&m.input_disks, |l| l.requests), requests);
    assert_eq!(requests, blocks);
    for (d, lane) in m.input_disks.iter().enumerate() {
        assert_eq!(lane.waited, lane.requests, "disk {d}: every issue traced");
        // Each group's service intervals sit on the tree's clock, so no
        // disk is busy for longer than the trace spans.
        assert!(
            lane.utilization(m.span_end) <= 1.0,
            "disk {d}: utilization {}",
            lane.utilization(m.span_end)
        );
    }
    assert_waits_match_the_reference(&m, &out.events);
}
