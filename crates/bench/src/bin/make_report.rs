//! Regenerates a machine-written markdown report of the headline
//! reproduction results (the T1/T2 tables of EXPERIMENTS.md) at
//! `target/experiments/REPORT.md`.
//!
//! Usage: `make_report [--trials n] [--seed n]`

use std::fmt::Write as _;

use pm_analysis::{bounds, urn, ModelParams};
use pm_bench::Harness;
use pm_core::ScenarioBuilder;
use pm_obs::closed_form;
use pm_report::{Align, Table};
use pm_workload::paper::{t1_cases, t2_cases};

fn main() {
    let (harness, _) = Harness::from_args();
    let p = ModelParams::paper();
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# prefetchmerge — regenerated headline results\n\n\
         {} trials per case, master seed {}.\n",
        harness.trials, harness.seed
    );

    // T1: analytic vs simulated.
    let mut t1 = Table::new(vec![
        "case".into(),
        "analytic (s)".into(),
        "simulated (s)".into(),
        "ratio".into(),
    ]);
    for i in 1..4 {
        t1.set_align(i, Align::Right);
    }
    for case in t1_cases(harness.seed) {
        let analytic = closed_form(&case.config).expect("every T1 case has a closed form").secs;
        let sim = harness.run_trials(&case.config).expect("valid").mean_total_secs;
        t1.add_row(vec![
            case.label,
            format!("{analytic:.1}"),
            format!("{sim:.1}"),
            format!("{:.3}", sim / analytic),
        ]);
    }
    let _ = writeln!(md, "## T1 — closed forms vs simulation\n\n{}", t1.render_markdown());

    // T2: urn concurrency.
    let mut t2 = Table::new(vec![
        "D".into(),
        "measured (N=30)".into(),
        "urn exact".into(),
        "asymptotic".into(),
    ]);
    for i in 0..4 {
        t2.set_align(i, Align::Right);
    }
    for case in t2_cases(harness.seed) {
        let d = case.config.disks;
        let measured = harness.run_trials(&case.config).expect("valid").mean_concurrency;
        t2.add_row(vec![
            d.to_string(),
            format!("{measured:.2}"),
            format!("{:.2}", urn::expected_concurrency(d)),
            format!("{:.2}", urn::expected_concurrency_asymptotic(d)),
        ]);
    }
    let _ = writeln!(md, "## T2 — urn-game concurrency\n\n{}", t2.render_markdown());

    // Headline speedup.
    let baseline = {
        let mut cfg = ScenarioBuilder::new(25, 1).build().unwrap();
        cfg.seed = harness.seed;
        harness.run_trials(&cfg).expect("valid").mean_total_secs
    };
    let inter = {
        let mut cfg = ScenarioBuilder::new(25, 5).inter(10).cache_blocks(1200).build().unwrap();
        cfg.seed = harness.seed;
        harness.run_trials(&cfg).expect("valid").mean_total_secs
    };
    let _ = writeln!(
        md,
        "## Headline\n\nSingle-disk baseline {baseline:.1} s → 5 disks with inter-run \
         prefetching {inter:.1} s: **{:.1}× speedup on 5 disks** (superlinear). \
         Transfer-time lower bound: {:.1} s.\n",
        baseline / inter,
        bounds::multi_disk_lower_bound_secs(&p, 25, 5),
    );

    std::fs::create_dir_all(&harness.out_dir).expect("create output dir");
    let path = harness.out_path("REPORT.md");
    std::fs::write(&path, &md).expect("write report");
    println!("{md}");
    println!("wrote {}", path.display());
}
