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
use pm_report::Table;
use pm_workload::paper::t2_cases;

use crate::{right_aligned, Harness};

/// Table T2 (one row per case and `N`), with the CSV rows of the same
/// simulations.
fn t2(h: &Harness) -> Result<(Table, Vec<Vec<String>>), String> {
    let mut table = right_aligned(0, &[
        "D", "k", "N", "measured concurrency", "urn exact E[L]", "paper asymptotic",
    ]);
    let mut rows = Vec::new();
    for case in t2_cases(h.seed) {
        let (k, d) = (case.config.runs, case.config.disks);
        let exact = urn::expected_concurrency(d);
        let asym = urn::expected_concurrency_asymptotic(d);
        for n in [30u32, 100] {
            let mut cfg = case.config;
            cfg.strategy = PrefetchStrategy::IntraRun { n };
            cfg.cache_blocks = ScenarioBuilder::default_cache_blocks(k, cfg.strategy);
            let measured = h.run_trials(&cfg)?.mean_concurrency;
            let cells = |p: usize| {
                let f = |v: f64| format!("{v:.p$}");
                vec![d.to_string(), k.to_string(), n.to_string(), f(measured), f(exact), f(asym)]
            };
            table.add_row(cells(2));
            rows.push(cells(4));
        }
    }
    Ok((table, rows))
}

/// Table T2 as EXPERIMENTS.md shows it: the measured concurrency of each
/// `pm_workload::paper::t2_cases` case at `N = 30` and `N = 100`, with
/// the urn model's exact and asymptotic values.
///
/// # Panics
///
/// Panics if a T2 case is invalid.
#[must_use]
pub fn t2_table(h: &Harness) -> Table {
    t2(h).expect("every T2 case is valid").0
}

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let (table, rows) = t2(h)?;
    println!(
        "== T2: unsynchronized intra-run I/O concurrency vs urn model (trials={}) ==\n",
        h.trials
    );
    println!("{}", table.render());
    println!(
        "The paper's point: concurrency grows as O(sqrt(D)), far below the\n\
         maximum D — the motivation for inter-run prefetching."
    );
    let mut csv = h.csv(
        "concurrency_table",
        &["d", "k", "n", "measured", "urn_exact", "asymptotic"],
    )?;
    for row in &rows {
        csv.row(row)?;
    }
    csv.finish()
}
