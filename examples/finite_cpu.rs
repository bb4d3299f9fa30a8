//! Finite-speed CPU: when does the merge stop being I/O-bound?
//!
//! Reproduces the question behind the paper's Figure 3.3 as a library
//! walkthrough: sweep the per-block merge cost and watch the total time,
//! the CPU stall fraction, and the strategy gap.
//!
//! Run with: `cargo run --release --example finite_cpu`

use pm_core::ScenarioBuilder;
use prefetchmerge::core::{run_trials, PrefetchStrategy, SimDuration, SyncMode};
use prefetchmerge::report::{Align, Table};

fn main() {
    let (k, d, n) = (25, 5, 10);
    let mut table = Table::new(vec![
        "CPU ms/block".into(),
        "intra sync (s)".into(),
        "intra unsync (s)".into(),
        "inter unsync (s)".into(),
        "inter stall %".into(),
    ]);
    for i in 0..5 {
        table.set_align(i, Align::Right);
    }

    for cpu_ms in [0.0, 0.1, 0.2, 0.3, 0.5, 0.7] {
        let cell = |strategy: PrefetchStrategy, sync: SyncMode| {
            let mut cfg = ScenarioBuilder::new(k, d).build().unwrap();
            cfg.strategy = strategy;
            cfg.sync = sync;
            cfg.cache_blocks = if strategy.is_inter_run() { 1200 } else { k * n };
            cfg.cpu_per_block = SimDuration::from_millis_f64(cpu_ms);
            cfg.seed = 11;
            run_trials(&cfg, 3).expect("valid configuration")
        };
        let intra_sync = cell(PrefetchStrategy::IntraRun { n }, SyncMode::Synchronized);
        let intra_unsync = cell(PrefetchStrategy::IntraRun { n }, SyncMode::Unsynchronized);
        let inter_unsync = cell(PrefetchStrategy::InterRun { n }, SyncMode::Unsynchronized);
        let stall = inter_unsync
            .reports
            .iter()
            .map(prefetchmerge::core::MergeReport::stall_fraction)
            .sum::<f64>()
            / inter_unsync.reports.len() as f64;
        table.add_row(vec![
            format!("{cpu_ms:.2}"),
            format!("{:.1}", intra_sync.mean_total_secs),
            format!("{:.1}", intra_unsync.mean_total_secs),
            format!("{:.1}", inter_unsync.mean_total_secs),
            format!("{:.0}%", stall * 100.0),
        ]);
    }
    println!("total merge time vs CPU speed ({k} runs, {d} disks, N={n}; paper Fig 3.3)\n");
    println!("{}", table.render());
    println!(
        "Synchronized intra-run never overlaps CPU and I/O, so it is worst\n\
         throughout. Inter-run prefetching stays I/O-efficient until the CPU\n\
         itself becomes the bottleneck (stall % -> 0)."
    );
}
