//! **Ablation A1**: all-or-nothing vs. greedy cache admission for
//! inter-run prefetching.
//!
//! The paper adopts all-or-nothing, citing its companion Markov analysis:
//! greedily filling the cache with partial prefetches delays the return to
//! a state where all `D` disks can be driven concurrently. This experiment
//! quantifies the claim on the paper's configurations across the
//! cache-constrained region, with each policy's demand operations and
//! single-block fallbacks per trial.

use pm_core::{AdmissionPolicy, ScenarioBuilder, TrialSummary};

use crate::{Harness, Output};

/// Mean of `f` over the trials' reports.
fn per_trial(s: &TrialSummary, f: impl Fn(&pm_core::MergeReport) -> u64) -> String {
    let sum: u64 = s.reports.iter().map(f).sum();
    format!("{:.0}", sum as f64 / s.reports.len() as f64)
}

pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let (k, d, n) = (25u32, 5u32, 10u32);
    let caches: Vec<u32> = if h.quick {
        vec![300, 600, 900]
    } else {
        vec![275, 350, 450, 600, 750, 900, 1050, 1200]
    };
    let title = format!(
        "A1: admission policy ablation — inter-run, k={k}, D={d}, N={n} (trials={})",
        h.trials
    );
    let mut out = Output::new(
        "ablation_admission",
        title,
        0,
        &[
            "cache (blocks)",
            "all-or-nothing (s)",
            "greedy (s)",
            "AoN concurrency",
            "greedy concurrency",
            "AoN demand ops",
            "AoN fallbacks",
            "greedy demand ops",
            "greedy fallbacks",
        ],
    );
    for cache in caches {
        let run_one = |policy: AdmissionPolicy| {
            let mut cfg = ScenarioBuilder::new(k, d)
                .inter(n)
                .cache_blocks(cache)
                .build()
                .unwrap();
            cfg.admission = policy;
            cfg.seed = h.seed ^ u64::from(cache);
            h.run_trials(&cfg)
        };
        let aon = run_one(AdmissionPolicy::AllOrNothing)?;
        let greedy = run_one(AdmissionPolicy::Greedy)?;
        out.row(vec![
            cache.to_string(),
            format!("{:.1}", aon.mean_total_secs),
            format!("{:.1}", greedy.mean_total_secs),
            format!("{:.2}", aon.mean_concurrency),
            format!("{:.2}", greedy.mean_concurrency),
            per_trial(&aon, |r| r.demand_ops),
            per_trial(&aon, |r| r.fallback_ops),
            per_trial(&greedy, |r| r.demand_ops),
            per_trial(&greedy, |r| r.fallback_ops),
        ]);
    }
    Ok(vec![out])
}
