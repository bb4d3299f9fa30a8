//! **T2**: the paper's urn-game concurrency comparison (§3.2): the
//! average I/O parallelism of unsynchronized intra-run prefetching for
//! `D = 5, 10, 20` disks, against the exact urn expectation `E[L]` and
//! the paper's asymptotic `√(πD/2) − 1/3`.
//!
//! The cases are `pm_workload::paper::t2_cases`, simulated as they are at
//! their `N = 30` (as the paper simulated) and, changing only `N`, at
//! `N = 100` to show convergence.

use pm_analysis::urn;
use pm_core::{PrefetchStrategy, ScenarioBuilder};
use pm_workload::paper::t2_cases;

use crate::{Harness, Output};

/// Table T2: one row per case and `N`.
pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let title = format!(
        "T2: unsynchronized intra-run I/O concurrency vs urn model (trials={})",
        h.trials
    );
    let mut out = Output::new(
        "concurrency_table",
        title,
        0,
        &[
            "D",
            "k",
            "N",
            "measured concurrency",
            "urn exact E[L]",
            "paper asymptotic",
        ],
    );
    for case in t2_cases(h.seed) {
        let (k, d) = (case.config.runs, case.config.disks);
        let exact = urn::expected_concurrency(d);
        let asym = urn::expected_concurrency_asymptotic(d);
        for n in [30u32, 100] {
            let mut cfg = case.config;
            cfg.strategy = PrefetchStrategy::IntraRun { n };
            cfg.cache_blocks = ScenarioBuilder::default_cache_blocks(k, cfg.strategy);
            let measured = h.run_trials(&cfg)?.mean_concurrency;
            out.row(vec![
                d.to_string(),
                k.to_string(),
                n.to_string(),
                format!("{measured:.2}"),
                format!("{exact:.2}"),
                format!("{asym:.2}"),
            ]);
        }
    }
    Ok(vec![out])
}
