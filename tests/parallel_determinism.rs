//! The determinism contract of the parallel execution engine: for every
//! configuration and worker count, `run_trials_parallel` must be
//! **bit-identical** to the sequential `run_trials` baseline — same
//! per-trial reports (total time in nanoseconds, per-disk busy times,
//! success ratios, every counter), same aggregate summary, in the same
//! trial order. This is what makes `--jobs n` safe to use anywhere the
//! paper's numbers are reproduced.

use pm_core::{
    run_trials, run_trials_parallel, MergeConfig, MergeSim, ScenarioBuilder, TrialSummary,
    UniformDepletion,
};
use pm_sim::derive_seeds;

/// The intra/inter × D × cache grid the suite sweeps.
fn config_grid() -> Vec<(String, MergeConfig)> {
    let mut grid = Vec::new();
    for d in [1u32, 5] {
        let mut intra = ScenarioBuilder::new(8, d).intra(4).build().unwrap();
        intra.run_blocks = 40;
        grid.push((format!("intra D={d}"), intra));
        let mut inter = ScenarioBuilder::new(8, d)
            .inter(4)
            .cache_blocks(8 * 4 + 20)
            .build()
            .unwrap();
        inter.run_blocks = 40;
        grid.push((format!("inter D={d}"), inter));
    }
    grid
}

fn assert_reports_bit_identical(label: &str, seq: &TrialSummary, par: &TrialSummary) {
    assert_eq!(seq.trials(), par.trials(), "{label}: trial count");
    for (i, (s, p)) in seq.reports.iter().zip(&par.reports).enumerate() {
        // `MergeReport` derives PartialEq over every field, so this alone
        // is the bit-identity check; the targeted asserts below give
        // readable failures for the quantities the paper reports.
        assert_eq!(
            s.total.as_nanos(),
            p.total.as_nanos(),
            "{label}: trial {i} total ns"
        );
        assert_eq!(
            s.per_disk_busy, p.per_disk_busy,
            "{label}: trial {i} per-disk busy"
        );
        assert_eq!(
            s.success_ratio.map(f64::to_bits),
            p.success_ratio.map(f64::to_bits),
            "{label}: trial {i} success ratio"
        );
        assert_eq!(s, p, "{label}: trial {i} full report");
    }
}

fn assert_summaries_bit_identical(label: &str, seq: &TrialSummary, par: &TrialSummary) {
    assert_eq!(
        seq.mean_total_secs.to_bits(),
        par.mean_total_secs.to_bits(),
        "{label}: mean total"
    );
    assert_eq!(
        seq.mean_concurrency.to_bits(),
        par.mean_concurrency.to_bits(),
        "{label}: mean concurrency"
    );
    assert_eq!(
        seq.mean_busy_disks.to_bits(),
        par.mean_busy_disks.to_bits(),
        "{label}: mean busy disks"
    );
    assert_eq!(
        seq.mean_success_ratio.map(f64::to_bits),
        par.mean_success_ratio.map(f64::to_bits),
        "{label}: mean success ratio"
    );
    assert_eq!(
        seq.ci_total_secs.half_width.to_bits(),
        par.ci_total_secs.half_width.to_bits(),
        "{label}: CI half-width"
    );
}

#[test]
fn parallel_trials_match_sequential_across_the_grid() {
    for (name, cfg) in config_grid() {
        for trials in [1u32, 4, 7] {
            let seq = run_trials(&cfg, trials).expect("valid config");
            for jobs in [1usize, 2, 8] {
                let label = format!("{name} trials={trials} jobs={jobs}");
                let par = run_trials_parallel(&cfg, trials, jobs).expect("valid config");
                assert_reports_bit_identical(&label, &seq, &par);
                assert_summaries_bit_identical(&label, &seq, &par);
            }
        }
    }
}

#[test]
fn jobs_zero_uses_all_cores_and_stays_identical() {
    let (name, cfg) = config_grid().remove(1);
    let seq = run_trials(&cfg, 5).expect("valid config");
    let par = run_trials_parallel(&cfg, 5, 0).expect("valid config");
    assert_reports_bit_identical(&format!("{name} jobs=0"), &seq, &par);
}

#[test]
fn trial_order_is_the_derived_seed_order() {
    // Trial i's report must land at index i: re-simulating seed i directly
    // reproduces exactly reports[i], for a worker pool of any size.
    let mut cfg = ScenarioBuilder::new(6, 3)
        .inter(3)
        .cache_blocks(6 * 3 + 10)
        .build()
        .unwrap();
    cfg.run_blocks = 30;
    let seeds = derive_seeds(cfg.seed, 6);
    let par = run_trials_parallel(&cfg, 6, 4).expect("valid config");
    for (i, seed) in seeds.iter().enumerate() {
        let mut trial_cfg = cfg;
        trial_cfg.seed = *seed;
        let direct = MergeSim::new(trial_cfg)
            .expect("valid config")
            .run(&mut UniformDepletion);
        assert_eq!(par.reports[i], direct, "trial {i} out of order");
    }
}

#[test]
fn summary_aggregates_recompute_from_reports() {
    // from_reports is a pure function of the (ordered) reports, so the
    // parallel summary must equal re-aggregating the sequential reports.
    let mut cfg = ScenarioBuilder::new(10, 5).intra(6).build().unwrap();
    cfg.run_blocks = 50;
    let seq = run_trials(&cfg, 7).expect("valid config");
    let par = run_trials_parallel(&cfg, 7, 8).expect("valid config");
    let recomputed = TrialSummary::from_reports(par.reports.clone());
    assert_summaries_bit_identical("recomputed", &seq, &recomputed);
}
