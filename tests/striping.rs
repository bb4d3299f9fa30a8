//! Validation of the striped-layout extension: the simulator against the
//! derived closed form, and the layout trade-off the related work debated
//! (striping vs. independent disks with inter-run prefetching).

use pm_analysis::{equations, ModelParams};
use pm_core::{run_trials, DataLayout, MergeConfig, PrefetchStrategy, ScenarioBuilder, SyncMode};
use pm_stats::relative_error;

const TRIALS: u32 = 3;

fn striped_intra(k: u32, d: u32, n: u32) -> MergeConfig {
    let mut cfg = ScenarioBuilder::new(k, d).intra(n).build().unwrap();
    cfg.layout = DataLayout::Striped;
    cfg
}

#[test]
fn striped_sync_matches_closed_form() {
    let p = ModelParams::paper();
    for (k, d, n) in [(25u32, 5u32, 10u32), (25, 5, 30), (50, 5, 20)] {
        let mut cfg = striped_intra(k, d, n);
        cfg.sync = SyncMode::Synchronized;
        let sim = run_trials(&cfg, TRIALS).unwrap().mean_total_secs;
        let analytic =
            equations::total_seconds(&p, k, equations::tau_striped_intra_sync(&p, k, d, n));
        assert!(
            relative_error(sim, analytic) < 0.04,
            "k={k} D={d} N={n}: sim={sim:.1}s analytic={analytic:.1}s"
        );
    }
}

#[test]
fn striping_beats_concatenated_intra_run() {
    // Same strategy and cache; striping parallelizes every fetch.
    let striped = run_trials(&striped_intra(25, 5, 10), TRIALS)
        .unwrap()
        .mean_total_secs;
    let concat = run_trials(
        &ScenarioBuilder::new(25, 5).intra(10).build().unwrap(),
        TRIALS,
    )
    .unwrap()
    .mean_total_secs;
    // Unsynchronized concatenated intra-run already overlaps ~sqrt(D)
    // disks, so striping's edge is moderate (its parallelism is within
    // each operation, not across them).
    assert!(
        striped < 0.95 * concat,
        "striped {striped:.1}s vs concatenated {concat:.1}s"
    );
}

#[test]
fn inter_run_beats_striping_at_equal_cache() {
    // The paper-era debate: declustering vs independent disks + smart
    // prefetching. At the same cache budget, inter-run prefetching
    // amortizes the max-latency over D·N blocks and wins.
    let n = 10;
    let cache = 4 * 25 * n;
    let mut striped = striped_intra(25, 5, n);
    striped.cache_blocks = cache;
    let striped_secs = run_trials(&striped, TRIALS).unwrap().mean_total_secs;
    let inter = ScenarioBuilder::new(25, 5)
        .inter(n)
        .cache_blocks(cache)
        .build()
        .unwrap();
    let inter_secs = run_trials(&inter, TRIALS).unwrap().mean_total_secs;
    assert!(
        inter_secs < striped_secs,
        "inter {inter_secs:.1}s vs striped {striped_secs:.1}s"
    );
}

#[test]
fn striped_fits_workloads_concatenation_cannot() {
    // 100 runs × 1000 blocks do not fit one disk concatenated, but striped
    // bands spread the data evenly.
    let mut cfg = striped_intra(100, 5, 4);
    cfg.cache_blocks = 400;
    assert!(cfg.validate().is_ok());
    let report = run_trials(&cfg, 1).unwrap();
    assert_eq!(report.reports[0].blocks_merged, 100_000);
}

#[test]
fn striped_rejects_inter_run() {
    let mut cfg = ScenarioBuilder::new(25, 5)
        .inter(10)
        .cache_blocks(1000)
        .build()
        .unwrap();
    cfg.layout = DataLayout::Striped;
    assert!(matches!(
        cfg.validate(),
        Err(pm_core::ConfigError::StripedInterRun)
    ));
}

#[test]
fn striped_unsync_is_not_slower_than_sync() {
    let mut sync_cfg = striped_intra(25, 5, 10);
    sync_cfg.sync = SyncMode::Synchronized;
    let sync = run_trials(&sync_cfg, TRIALS).unwrap().mean_total_secs;
    let unsync = run_trials(&striped_intra(25, 5, 10), TRIALS)
        .unwrap()
        .mean_total_secs;
    assert!(
        unsync <= sync * 1.01,
        "unsync {unsync:.1} vs sync {sync:.1}"
    );
}

#[test]
fn no_prefetch_striped_still_profits_from_parallel_blocks() {
    // Even N=1 striping helps nothing (one block at a time touches one
    // disk), so striped N=1 ≈ concatenated N=1 — the gain comes only from
    // multi-block operations.
    let mut striped = ScenarioBuilder::new(25, 5).build().unwrap();
    striped.layout = DataLayout::Striped;
    striped.strategy = PrefetchStrategy::IntraRun { n: 1 };
    let s = run_trials(&striped, TRIALS).unwrap().mean_total_secs;
    let c = run_trials(&ScenarioBuilder::new(25, 5).build().unwrap(), TRIALS)
        .unwrap()
        .mean_total_secs;
    assert!(
        relative_error(s, c) < 0.05,
        "striped {s:.1} vs concat {c:.1}"
    );
}
