//! Mining a recorded trace: where did the disks sit idle, and when did
//! the merge stall on demand fetches?
//!
//! Records one inter-run trial with a [`RecordingSink`], then walks the
//! event stream to print the five longest idle gaps of any input disk and
//! the head of the demand-miss timeline — the two questions a Gantt chart
//! answers visually, answered numerically.
//!
//! Run with: `cargo run --release --example trace_inspect`

use pm_core::ScenarioBuilder;
use prefetchmerge::core::{
    EventKind, MergeSim, PrefetchStrategy, RecordingSink, SimTime, SyncMode, UniformDepletion,
};
use prefetchmerge::trace::TraceMetrics;

fn main() {
    let mut cfg = ScenarioBuilder::new(10, 4).build().unwrap();
    cfg.run_blocks = 200;
    cfg.strategy = PrefetchStrategy::InterRun { n: 8 };
    cfg.sync = SyncMode::Unsynchronized;
    cfg.cache_blocks = 4 * 10 * 8;
    cfg.seed = 8;
    let disks = cfg.disks as usize;

    let (report, sink) = MergeSim::new(cfg)
        .expect("valid configuration")
        .replace_sink(RecordingSink::unbounded())
        .run_with_sink(&mut UniformDepletion);
    let events = sink.into_events();
    let metrics = TraceMetrics::from_events(&events);

    println!(
        "inter-run trial: {} blocks merged in {:.1} s, {} events recorded\n",
        report.blocks_merged,
        report.total.as_secs_f64(),
        events.len()
    );

    // Per input disk, service windows in completion order are also in
    // start order (a disk serves one request at a time), so idle gaps
    // fall straight out of consecutive windows.
    let mut last_end = vec![SimTime::ZERO; disks];
    let mut gaps: Vec<(u64, u16, SimTime, SimTime)> = Vec::new();
    for ev in &events {
        if let EventKind::DiskTransferDone {
            disk,
            output: false,
            started,
            ..
        } = ev.kind
        {
            let prev = last_end[disk as usize];
            if started > prev {
                gaps.push(((started - prev).as_nanos(), disk, prev, started));
            }
            last_end[disk as usize] = ev.at;
        }
    }
    gaps.sort_by_key(|g| std::cmp::Reverse(g.0));

    println!("top 5 input-disk idle gaps:");
    for &(len, disk, from, to) in gaps.iter().take(5) {
        println!(
            "  disk {disk}: {:8.3} ms idle  [{:.3} ms .. {:.3} ms]",
            len as f64 / 1e6,
            from.as_millis_f64(),
            to.as_millis_f64()
        );
    }
    for (d, lane) in metrics.input_disks.iter().enumerate() {
        println!(
            "  disk {d} overall: {:.1}% busy over {} requests",
            100.0 * lane.utilization(metrics.span_end),
            lane.requests
        );
    }

    let misses: Vec<(SimTime, u32, u32, u32)> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::DemandMiss { run, block, free } => Some((ev.at, run, block, free)),
            _ => None,
        })
        .collect();
    println!("\ndemand-miss timeline ({} misses):", misses.len());
    for &(at, run, block, free) in misses.iter().take(15) {
        println!(
            "  {:10.3} ms  run {run:2} block {block:3}  ({free} cache frames free)",
            at.as_millis_f64()
        );
    }
    if misses.len() > 15 {
        println!("  ... {} more", misses.len() - 15);
    }
    println!(
        "\nWith inter-run prefetching every idle gap is short and misses are\n\
         rare — rerun with `strategy = PrefetchStrategy::None` above to see\n\
         both lists explode."
    );
}
