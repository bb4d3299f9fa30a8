//! EXPERIMENTS.md's generated regions must be exactly the markdown of the
//! experiments' outputs at the defaults (5 trials, seed 1992).
//!
//! A region is the text between `<!-- generated: <key> -->` and the next
//! `<!-- end -->`, and shows the output of the same key. [`REGIONS`] lists
//! every region with the experiment that returns it. On a mismatch a test
//! prints each stale region as the code renders it, ready to paste over
//! the old one.

use pm_bench::{Harness, Output, EXPERIMENTS};
use pm_obs::suite::{run_point, PointSpec, SuiteOptions};
use pm_obs::{NullProgress, RecordKind, TrialsMode};
use pm_workload::paper::t2_cases;

/// Which test checks a region.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    /// `t1_region_matches_the_code`, in Tier-1.
    T1,
    /// `t2_region_matches_the_code`, in Tier-1.
    T2,
    /// The other Tier-1 test: cheap enough in a debug build.
    Debug,
    /// The `#[ignore]`d test CI runs in release.
    Release,
}

/// Every generated region of EXPERIMENTS.md: its key, the experiment
/// whose output of that key it shows, and the test that checks it.
const REGIONS: &[(&str, &str, Check)] = &[
    ("validation_table", "validation_table", Check::T1),
    ("concurrency_table", "concurrency_table", Check::T2),
    ("fig2a_points", "fig2_time_vs_n", Check::Release),
    ("fig2b_points", "fig2_time_vs_n", Check::Release),
    ("fig3_points", "fig3_cpu_speed", Check::Release),
    ("fig5_points", "fig5_time_vs_cache", Check::Release),
    ("fig6_points", "fig5_time_vs_cache", Check::Release),
    ("ablation_admission", "ablation_admission", Check::Release),
    ("ablation_queue", "ablation_queue", Check::Release),
    ("model_vs_real", "model_vs_real", Check::Debug),
    ("ablation_prefetch", "ablation_prefetch", Check::Release),
    (
        "ext_replacement_selection",
        "ext_replacement_selection",
        Check::Debug,
    ),
    ("ext_write_traffic", "ext_write_traffic", Check::Release),
    ("ext_k100_points", "ext_k100", Check::Release),
    ("ext_k100_analytic", "ext_k100", Check::Release),
    ("ext_multipass", "ext_multipass", Check::Debug),
    ("ext_multipass_unequal", "ext_multipass", Check::Debug),
    ("ext_multipass_cap", "ext_multipass", Check::Debug),
    ("ext_striping_points", "ext_striping", Check::Release),
    ("ext_blocksize", "ext_blocksize", Check::Release),
    ("ext_variance", "ext_variance", Check::Release),
    ("ext_adaptive", "ext_adaptive", Check::Release),
    ("ext_end_to_end", "ext_end_to_end", Check::Debug),
];

fn experiments_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The keys of every generated region of `md`, in order.
fn region_keys(md: &str) -> Vec<&str> {
    md.lines()
        .filter_map(|l| l.strip_prefix("<!-- generated: ")?.strip_suffix(" -->"))
        .collect()
}

/// The generated region `key` of `md`.
fn region<'a>(md: &'a str, key: &str) -> &'a str {
    let open = format!("<!-- generated: {key} -->\n");
    let start = md
        .find(&open)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{open}`"));
    let start = start + open.len();
    let len = md[start..]
        .find("<!-- end -->")
        .unwrap_or_else(|| panic!("{key} is not closed"));
    &md[start..start + len]
}

/// Runs experiment `name` at the defaults.
fn run(name: &str) -> Vec<Output> {
    let (_, experiment) = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no experiment {name}"));
    experiment(&Harness::default()).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Checks every region `check` covers, running each experiment once, and
/// fails listing every stale region as the code renders it.
fn check_regions(check: Check) {
    let md = experiments_md();
    let mut stale = String::new();
    let mut ran: Vec<(&str, Vec<Output>)> = Vec::new();
    assert!(REGIONS.iter().any(|r| r.2 == check), "no region to check");
    for &(key, experiment, _) in REGIONS.iter().filter(|r| r.2 == check) {
        if !ran.iter().any(|(n, _)| *n == experiment) {
            ran.push((experiment, run(experiment)));
        }
        let outputs = &ran.iter().find(|(n, _)| *n == experiment).unwrap().1;
        let out = outputs
            .iter()
            .find(|o| o.key == key)
            .unwrap_or_else(|| panic!("{experiment} returns no output `{key}`"));
        let rendered = out.table().render_markdown();
        if region(&md, key) != rendered {
            stale += &format!("<!-- generated: {key} -->\n{rendered}<!-- end -->\n\n");
        }
    }
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md regions do not match the code. As the code renders them:\n\n{stale}"
    );
}

#[test]
fn t1_region_matches_the_code() {
    check_regions(Check::T1);
}

#[test]
fn t2_region_matches_the_code() {
    check_regions(Check::T2);
}

#[test]
fn debug_regions_match_the_code() {
    check_regions(Check::Debug);
}

/// The other regions take seconds in release but minutes in debug, so CI
/// runs this in release: `cargo test --release -p pm-bench -- --ignored`.
#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn release_regions_match_the_code() {
    check_regions(Check::Release);
}

/// Every generated region is checked by one of the tests above, and
/// every key they check has a region; no simulation runs.
#[test]
fn region_keys_and_checked_keys_agree() {
    let md = experiments_md();
    let keys = region_keys(&md);
    for (i, key) in keys.iter().enumerate() {
        assert!(
            !keys[..i].contains(key),
            "EXPERIMENTS.md has two `{key}` regions"
        );
        assert!(
            REGIONS.iter().any(|r| r.0 == *key),
            "EXPERIMENTS.md region `{key}` is checked by no test: add it to REGIONS"
        );
    }
    for &(key, experiment, _) in REGIONS {
        assert!(
            keys.contains(&key),
            "REGIONS checks `{key}`, which EXPERIMENTS.md lacks"
        );
        assert!(
            EXPERIMENTS.iter().any(|(n, _)| *n == experiment),
            "`{key}`: no experiment {experiment}"
        );
    }
}

/// T2's `N = 30` rows simulate the `t2_cases` configurations as they are,
/// so they read what `pmerge validate`'s suite runner reports for them.
#[test]
fn t2_rows_at_n30_are_the_suite_points() {
    let md = run("concurrency_table")[0].table().render_markdown();
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
        let row = format!(
            "| {d} | {k} | 30 | {:.2} |",
            record.metrics.mean_concurrency
        );
        assert!(md.contains(&row), "{}: no row `{row}` in\n{md}", case.label);
    }
}
