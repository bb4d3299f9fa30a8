//! Regenerates the paper's **urn-game concurrency** comparison (§3.2):
//! the average I/O parallelism of unsynchronized intra-run prefetching for
//! `D = 5, 10, 20` disks, against the exact urn expectation `E[L]` and the
//! paper's asymptotic `√(πD/2) − 1/3`.
//!
//! The `(k, D)` pairs are `pm_workload::paper::t2_cases`. The paper's
//! model assumes large `N`; we measure at `N = 30` (as the paper
//! simulated) and at `N = 100` to show convergence.
//!
//! Usage: `concurrency_table [--trials n]`

use pm_analysis::urn;
use pm_bench::Harness;
use pm_core::ScenarioBuilder;
use pm_report::{Align, Csv, Table};
use pm_workload::paper::t2_cases;

fn main() {
    let (harness, _) = Harness::from_args();
    let mut table = Table::new(vec![
        "D".into(),
        "k".into(),
        "N".into(),
        "measured concurrency".into(),
        "urn exact E[L]".into(),
        "paper asymptotic".into(),
    ]);
    for i in 0..6 {
        table.set_align(i, Align::Right);
    }
    std::fs::create_dir_all(&harness.out_dir).expect("create output dir");
    let file = std::fs::File::create(harness.out_path("concurrency_table.csv")).expect("csv");
    let mut csv = Csv::with_header(
        file,
        &["d", "k", "n", "measured", "urn_exact", "asymptotic"],
    )
    .expect("header");

    for case in t2_cases(harness.seed) {
        let (k, d) = (case.config.runs, case.config.disks);
        for n in [30u32, 100] {
            let mut cfg = ScenarioBuilder::new(k, d).intra(n).build().unwrap();
            cfg.seed = harness.seed ^ (u64::from(d) << 8) ^ u64::from(n);
            let summary = harness.run_trials(&cfg).expect("valid case");
            let measured = summary.mean_concurrency;
            let exact = urn::expected_concurrency(d);
            let asym = urn::expected_concurrency_asymptotic(d);
            table.add_row(vec![
                d.to_string(),
                k.to_string(),
                n.to_string(),
                format!("{measured:.2}"),
                format!("{exact:.2}"),
                format!("{asym:.2}"),
            ]);
            csv.row_strings(&[
                d.to_string(),
                k.to_string(),
                n.to_string(),
                format!("{measured:.4}"),
                format!("{exact:.4}"),
                format!("{asym:.4}"),
            ])
            .expect("row");
        }
    }
    println!(
        "== T2: unsynchronized intra-run I/O concurrency vs urn model (trials={}) ==\n",
        harness.trials
    );
    println!("{}", table.render());
    println!(
        "The paper's point: concurrency grows as O(sqrt(D)), far below the\n\
         maximum D — the motivation for inter-run prefetching."
    );
    println!("wrote {}", harness.out_path("concurrency_table.csv").display());
}
