//! **Ablation A1**: all-or-nothing vs. greedy cache admission for
//! inter-run prefetching.
//!
//! The paper adopts all-or-nothing, citing its companion Markov analysis:
//! greedily filling the cache with partial prefetches delays the return to
//! a state where all `D` disks can be driven concurrently. This experiment
//! quantifies the claim on the paper's configurations across the
//! cache-constrained region.

use pm_core::{AdmissionPolicy, ScenarioBuilder};

use crate::{format_num, right_aligned, Harness};

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let (k, d, n) = (25u32, 5u32, 10u32);
    let caches: Vec<u32> = if h.quick {
        vec![300, 600, 900]
    } else {
        vec![275, 350, 450, 600, 750, 900, 1050, 1200]
    };
    let mut table = right_aligned(0, &[
        "cache (blocks)", "all-or-nothing (s)", "greedy (s)", "AoN concurrency",
        "greedy concurrency",
    ]);
    let mut csv = h.csv(
        "ablation_admission",
        &["cache", "aon_secs", "greedy_secs", "aon_conc", "greedy_conc"],
    )?;

    for cache in caches {
        let run_one = |policy: AdmissionPolicy| {
            let mut cfg = ScenarioBuilder::new(k, d).inter(n).cache_blocks(cache).build().unwrap();
            cfg.admission = policy;
            cfg.seed = h.seed ^ u64::from(cache);
            h.run_trials(&cfg)
        };
        let aon = run_one(AdmissionPolicy::AllOrNothing)?;
        let greedy = run_one(AdmissionPolicy::Greedy)?;
        table.add_row(vec![
            format_num(f64::from(cache)),
            format!("{:.1}", aon.mean_total_secs),
            format!("{:.1}", greedy.mean_total_secs),
            format!("{:.2}", aon.mean_concurrency),
            format!("{:.2}", greedy.mean_concurrency),
        ]);
        csv.row(&[
            cache.to_string(),
            format!("{:.3}", aon.mean_total_secs),
            format!("{:.3}", greedy.mean_total_secs),
            format!("{:.3}", aon.mean_concurrency),
            format!("{:.3}", greedy.mean_concurrency),
        ])?;
    }
    println!(
        "== A1: admission policy ablation — inter-run, k={k}, D={d}, N={n} (trials={}) ==\n",
        h.trials
    );
    println!("{}", table.render());
    csv.finish()
}
