//! Quickstart: simulate the merge phase of external mergesort with and
//! without multi-disk prefetching, and print where the time goes.
//!
//! Run with: `cargo run --release --example quickstart`

use pm_core::ScenarioBuilder;
use prefetchmerge::core::run_trials;

fn main() {
    // The paper's workload: 25 sorted runs of 1000 × 4 KiB blocks.
    let k = 25;

    // 1. Kwan–Baer baseline: everything on one disk, demand fetching only.
    let baseline = ScenarioBuilder::new(k, 1).build().unwrap();

    // 2. Spread the runs over 5 disks, fetch 10 blocks of the demand run
    //    per I/O ("Demand Run Only" = intra-run prefetching).
    let intra = ScenarioBuilder::new(k, 5).intra(10).build().unwrap();

    // 3. Additionally prefetch 10 blocks of one run from every other disk
    //    on each demand fetch ("All Disks One Run" = inter-run
    //    prefetching), through a 1200-block cache.
    let inter = ScenarioBuilder::new(k, 5)
        .inter(10)
        .cache_blocks(1200)
        .build()
        .unwrap();

    println!("merge of {k} runs x 1000 blocks (4 KiB each), 5 trials per case\n");
    let mut baseline_secs = None;
    for (name, cfg) in [
        ("single disk, no prefetching ", baseline),
        ("5 disks, intra-run N=10     ", intra),
        ("5 disks, inter-run N=10     ", inter),
    ] {
        let summary = run_trials(&cfg, 5).expect("valid configuration");
        let secs = summary.mean_total_secs;
        let speedup = baseline_secs
            .map(|b: f64| format!("{:5.1}x", b / secs))
            .unwrap_or_else(|| "  1.0x".into());
        baseline_secs.get_or_insert(secs);
        let r = &summary.reports[0];
        println!(
            "{name}  total {secs:7.1} s  speedup {speedup}  concurrency {:.2}  \
             (seek {:5.1}s, latency {:6.1}s, transfer {:6.1}s)",
            summary.mean_concurrency,
            r.seek_total.as_secs_f64(),
            r.latency_total.as_secs_f64(),
            r.transfer_total.as_secs_f64(),
        );
    }
    println!(
        "\nWith 5 disks the speedup exceeds 5x — superlinear, because prefetching\n\
         amortizes seek + rotational latency *and* overlaps the disks (the\n\
         paper's headline result)."
    );
}
