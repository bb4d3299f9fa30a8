//! **Ablation A4**: inter-run prefetch target selection.
//!
//! The paper picks the run to prefetch on each non-demand disk uniformly
//! at random, stating that head-position-based heuristics (studied in its
//! companion report) brought too little benefit to justify their
//! bookkeeping. This experiment re-examines the claim against two
//! informed policies: *least-held* (prefetch the run closest to stalling
//! the merge) and *head-proximity* (prefetch the run needing the shortest
//! seek).

use pm_core::{PrefetchChoice, ScenarioBuilder};

use crate::{right_aligned, Harness};

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let policies = [
        PrefetchChoice::Random,
        PrefetchChoice::LeastHeld,
        PrefetchChoice::HeadProximity,
    ];
    let scenarios: Vec<(&str, u32, u32, u32, u32)> = vec![
        // (label, k, d, n, cache)
        ("k=25 D=5 N=10 C=600 (constrained)", 25, 5, 10, 600),
        ("k=25 D=5 N=10 C=1200 (ample)", 25, 5, 10, 1200),
        ("k=50 D=5 N=5 C=800", 50, 5, 5, 800),
        ("k=50 D=10 N=10 C=2000", 50, 10, 10, 2000),
    ];
    let mut table = right_aligned(2, &[
        "scenario", "policy", "total (s)", "success ratio", "concurrency",
    ]);
    let mut csv = h.csv(
        "ablation_prefetch",
        &["scenario", "policy", "total_secs", "success_ratio", "concurrency"],
    )?;

    for (label, k, d, n, cache) in scenarios {
        for policy in policies {
            let mut cfg = ScenarioBuilder::new(k, d).inter(n).cache_blocks(cache).build().unwrap();
            cfg.prefetch_choice = policy;
            cfg.seed = h.seed;
            let s = h.run_trials(&cfg)?;
            let ratio = s.mean_success_ratio.unwrap_or(0.0);
            table.add_row(vec![
                label.to_string(),
                policy.label().to_string(),
                format!("{:.1}", s.mean_total_secs),
                format!("{ratio:.3}"),
                format!("{:.2}", s.mean_concurrency),
            ]);
            csv.row(&[
                label.to_string(),
                policy.label().to_string(),
                format!("{:.3}", s.mean_total_secs),
                format!("{ratio:.4}"),
                format!("{:.3}", s.mean_concurrency),
            ])?;
        }
    }
    println!("== A4: inter-run prefetch target policy (trials={}) ==\n", h.trials);
    println!("{}", table.render());
    csv.finish()
}
