//! Cache admission policies: simulation and Markov analysis side by side.
//!
//! The paper refuses partial inter-run prefetches (all-or-nothing),
//! justified by a Markov analysis in its companion report. This example
//! runs both policies through (a) the full discrete-event simulator and
//! (b) the reconstructed Markov chain, showing where the paper's choice
//! wins — and where it doesn't.
//!
//! Run with: `cargo run --release --example admission_policies`

use pm_core::ScenarioBuilder;
use prefetchmerge::analysis::markov::{average_parallelism, Policy};
use prefetchmerge::core::{run_trials, AdmissionPolicy};
use prefetchmerge::report::{Align, Table};

fn main() {
    // Part (a): the paper's configuration, full simulator.
    println!("(a) full simulator — inter-run, 25 runs, 5 disks, N=10\n");
    let mut table = Table::new(vec![
        "cache (blocks)".into(),
        "all-or-nothing (s)".into(),
        "greedy (s)".into(),
    ]);
    table.set_align(1, Align::Right);
    table.set_align(2, Align::Right);
    for cache in [300u32, 450, 600, 900, 1200] {
        let time_for = |policy| {
            let mut cfg = ScenarioBuilder::new(25, 5)
                .inter(10)
                .cache_blocks(cache)
                .build()
                .unwrap();
            cfg.admission = policy;
            cfg.seed = 3;
            run_trials(&cfg, 3).expect("valid").mean_total_secs
        };
        table.add_row(vec![
            cache.to_string(),
            format!("{:.1}", time_for(AdmissionPolicy::AllOrNothing)),
            format!("{:.1}", time_for(AdmissionPolicy::Greedy)),
        ]);
    }
    println!("{}", table.render());

    // Part (b): the companion report's chain (one run per disk, N = 1).
    println!("(b) Markov chain — average blocks per demand operation, D=4\n");
    let mut chain = Table::new(vec![
        "cache C".into(),
        "all-or-nothing".into(),
        "greedy".into(),
    ]);
    chain.set_align(1, Align::Right);
    chain.set_align(2, Align::Right);
    for c in [5u32, 8, 12, 16, 24] {
        chain.add_row(vec![
            c.to_string(),
            format!("{:.3}", average_parallelism(4, c, Policy::AllOrNothing)),
            format!("{:.3}", average_parallelism(4, c, Policy::Greedy)),
        ]);
    }
    println!("{}", chain.render());
    println!(
        "Both views agree: greedy only wins when the cache is barely above its\n\
         minimum; with working headroom, refusing partial prefetches keeps the\n\
         system returning to all-disks-concurrent operation — the paper's choice."
    );
}
