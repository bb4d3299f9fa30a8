//! EXPERIMENTS.md's generated regions must be exactly what the table
//! builders render at the defaults (5 trials, seed 1992).
//!
//! A region is the text between `<!-- generated: <key> -->` and the next
//! `<!-- end -->`. On a mismatch the test prints the region as the code
//! renders it, ready to paste over the stale one.

use std::sync::OnceLock;

use pm_bench::{fig2_points, t1_table, t2_table, Harness};
use pm_obs::suite::{run_point, PointSpec, SuiteOptions};
use pm_obs::{NullProgress, RecordKind, TrialsMode};
use pm_report::Table;
use pm_workload::paper::{t2_cases, Fig2Panel};

fn experiments_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The generated region `key` of `md`.
fn region<'a>(md: &'a str, key: &str) -> &'a str {
    let open = format!("<!-- generated: {key} -->\n");
    let start = md.find(&open).unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{open}`"));
    let start = start + open.len();
    let len = md[start..].find("<!-- end -->").unwrap_or_else(|| panic!("{key} is not closed"));
    &md[start..start + len]
}

fn assert_region(key: &str, table: &Table) {
    let rendered = table.render_markdown();
    assert!(
        region(&experiments_md(), key) == rendered,
        "EXPERIMENTS.md region `{key}` does not match the code. As the code renders it:\n\
         <!-- generated: {key} -->\n{rendered}<!-- end -->"
    );
}

fn t2() -> &'static Table {
    static T2: OnceLock<Table> = OnceLock::new();
    T2.get_or_init(|| t2_table(&Harness::default()))
}

#[test]
fn t1_region_matches_the_code() {
    assert_region("t1", &t1_table(&Harness::default()));
}

#[test]
fn t2_region_matches_the_code() {
    assert_region("t2", t2());
}

/// T2's `N = 30` rows simulate the `t2_cases` configurations as they are,
/// so they read what `pmerge validate`'s suite runner reports for them.
#[test]
fn t2_rows_at_n30_are_the_suite_points() {
    let md = t2().render_markdown();
    for case in t2_cases(1992) {
        let spec = PointSpec {
            kind: RecordKind::T2Concurrency,
            label: case.label.clone(),
            sweep: None,
            x: None,
            x_label: None,
            config: case.config,
        };
        let opts = SuiteOptions {
            trials: TrialsMode::Fixed(5),
            ..SuiteOptions::new(1992)
        };
        let record = run_point(&spec, &opts, &NullProgress, 0, 1).unwrap();
        let (k, d) = (case.config.runs, case.config.disks);
        let row = format!("| {d} | {k} | 30 | {:.2} |", record.metrics.mean_concurrency);
        assert!(md.contains(&row), "{}: no row `{row}` in\n{md}", case.label);
    }
}

/// The Fig. 3.2 regions take seconds in release but minutes in debug, so
/// CI runs this in release: `cargo test --release -p pm-bench -- --ignored`.
#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn fig2_regions_match_the_code() {
    let h = Harness::default();
    assert_region("fig2a", &fig2_points(&h, Fig2Panel::A));
    assert_region("fig2b", &fig2_points(&h, Fig2Panel::B));
}
