//! Reproducibility guarantees: identical seeds give bit-identical results
//! across the whole pipeline, and the workload builders derive distinct,
//! stable seeds per experiment point.

use pm_core::{run_trials, MergeSim, PrefetchStrategy, ScenarioBuilder, SyncMode};
use pm_extsort::{external_sort, generate, ExtSortConfig, RunFormation};
use pm_workload::paper::{fig2_panel, Fig2Panel};

#[test]
fn whole_reports_are_bit_identical() {
    for strategy in [
        PrefetchStrategy::None,
        PrefetchStrategy::IntraRun { n: 10 },
        PrefetchStrategy::InterRun { n: 10 },
    ] {
        let mut cfg = ScenarioBuilder::new(25, 5).build().unwrap();
        cfg.strategy = strategy;
        cfg.cache_blocks = 25 * strategy.depth() * 2;
        cfg.seed = 77;
        let a = MergeSim::run_uniform(cfg).unwrap();
        let b = MergeSim::run_uniform(cfg).unwrap();
        assert_eq!(a, b, "{strategy:?} not reproducible");
    }
}

#[test]
fn trials_are_reproducible_but_distinct() {
    let cfg = ScenarioBuilder::new(25, 5)
        .inter(5)
        .cache_blocks(500)
        .build()
        .unwrap();
    let a = run_trials(&cfg, 4).unwrap();
    let b = run_trials(&cfg, 4).unwrap();
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x, y);
    }
    // And the trials within one summary differ from one another.
    assert!(a.reports.windows(2).any(|w| w[0].total != w[1].total));
}

#[test]
fn sync_mode_changes_results_but_not_request_count() {
    let mut cfg = ScenarioBuilder::new(25, 5).intra(10).build().unwrap();
    cfg.seed = 5;
    cfg.sync = SyncMode::Synchronized;
    let sync = MergeSim::run_uniform(cfg).unwrap();
    cfg.sync = SyncMode::Unsynchronized;
    let unsync = MergeSim::run_uniform(cfg).unwrap();
    assert_ne!(sync.total, unsync.total);
    assert_eq!(sync.disk_requests, unsync.disk_requests);
    assert_eq!(sync.blocks_merged, unsync.blocks_merged);
}

#[test]
fn extsort_is_deterministic() {
    let input = generate::uniform(10_000, 3);
    let cfg = ExtSortConfig {
        memory_records: 1_000,
        records_per_block: 40,
        run_formation: RunFormation::LoadSort,
    };
    let a = external_sort(&input, &cfg);
    let b = external_sort(&input, &cfg);
    assert_eq!(a.output, b.output);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn workload_builders_are_stable() {
    let a = fig2_panel(Fig2Panel::A, 1992);
    let b = fig2_panel(Fig2Panel::A, 1992);
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.label, sb.label);
        for (pa, pb) in sa.points.iter().zip(&sb.points) {
            assert_eq!(pa.config, pb.config);
        }
    }
}

#[test]
fn replayed_scenario_specs_reproduce_results() {
    use pm_obs::{ManifestRecord, PointMetrics, RecordKind, SCHEMA_VERSION};
    let mut cfg = ScenarioBuilder::new(25, 5)
        .inter(10)
        .cache_blocks(900)
        .build()
        .unwrap();
    cfg.seed = 41;
    let direct = MergeSim::run_uniform(cfg).unwrap();
    // Store the scenario as a manifest line and replay what parses back.
    let record = ManifestRecord {
        schema: SCHEMA_VERSION,
        kind: RecordKind::T1Case,
        label: "replay".into(),
        pass: None,
        tenant: None,
        sweep: None,
        x: None,
        x_label: None,
        scenario_name: "replay".into(),
        scenario: cfg,
        master_seed: 41,
        trials: 1,
        auto: None,
        metrics: PointMetrics {
            mean_total_secs: direct.total.as_secs_f64(),
            ci_half_width_secs: 0.0,
            confidence: 0.95,
            mean_concurrency: direct.avg_concurrency,
            mean_busy_disks: direct.avg_busy_disks,
            mean_success_ratio: direct.success_ratio,
            blocks_merged: direct.blocks_merged,
        },
        analytic: None,
        trace: None,
    };
    let line = record.to_json_line();
    let replayed_cfg = ManifestRecord::from_json_line(&line).unwrap().scenario;
    assert_eq!(replayed_cfg, cfg);
    let replayed = MergeSim::run_uniform(replayed_cfg).unwrap();
    assert_eq!(direct, replayed);
}
