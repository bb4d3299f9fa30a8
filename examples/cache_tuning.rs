//! Cache tuning: for a fixed RAM budget, which prefetch depth `N` should
//! an external-merge implementation pick?
//!
//! The paper's §3.2 observation: large `N` amortizes mechanical delays but
//! starves the cache (low success ratio → little disk concurrency); small
//! `N` keeps all disks busy but pays more seeks and latencies. For every
//! cache size there is an optimal `N`.
//!
//! Run with: `cargo run --release --example cache_tuning`

use pm_core::ScenarioBuilder;
use prefetchmerge::core::run_trials;
use prefetchmerge::report::{Align, Table};

fn main() {
    let (k, d) = (25, 5);
    let depths = [1u32, 2, 5, 10, 15, 20];
    let caches = [200u32, 400, 600, 900, 1200];

    let mut table = Table::new(
        std::iter::once("cache (blocks)".to_string())
            .chain(depths.iter().map(|n| format!("N={n}")))
            .collect(),
    );
    for i in 0..=depths.len() {
        table.set_align(i, Align::Right);
    }

    println!("total merge time (s), inter-run prefetching, {k} runs on {d} disks");
    println!("('-' = cache cannot hold the initial load of k*N blocks)\n");
    for &cache in &caches {
        let mut row = vec![cache.to_string()];
        let mut best: Option<(f64, u32)> = None;
        for &n in &depths {
            if cache < k * n {
                row.push("-".into());
                continue;
            }
            let cfg = ScenarioBuilder::new(k, d)
                .inter(n)
                .cache_blocks(cache)
                .build()
                .unwrap();
            let summary = run_trials(&cfg, 3).expect("valid configuration");
            let secs = summary.mean_total_secs;
            if best.map_or(true, |(b, _)| secs < b) {
                best = Some((secs, n));
            }
            row.push(format!("{secs:.1}"));
        }
        // Mark the winner for this cache size.
        if let Some((best_secs, best_n)) = best {
            let idx = depths.iter().position(|&n| n == best_n).unwrap() + 1;
            row[idx] = format!("{best_secs:.1}*");
        }
        table.add_row(row);
    }
    println!("{}", table.render());
    println!("* best N for that cache size: the optimum shifts to deeper prefetching\n  as the cache grows, exactly as the paper describes.");
}
