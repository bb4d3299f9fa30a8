//! Manifest scenarios round-trip: every [`MergeConfig`] a manifest can
//! carry is written as JSON and parsed back to the same value.
//!
//! A manifest carries the scenario's run shape, strategy (with its depth
//! or adaptive bounds), sync mode, layout, cache, CPU cost, admission,
//! prefetch choice, per-run cap, write disks and seed. It pins the FIFO
//! discipline and the paper's disk, and writes "no cap" and "no write
//! disks" as 0, so the generated configs use the builder's discipline
//! and disk and never `Some(0)` for either.

use proptest::prelude::*;

use pm_core::{
    AdmissionPolicy, DataLayout, MergeConfig, PrefetchChoice, PrefetchStrategy, ScenarioBuilder,
    SimDuration, SyncMode, WriteSpec,
};
use pm_obs::{ManifestRecord, PointMetrics, RecordKind, SCHEMA_VERSION};

fn record(name: &str, scenario: MergeConfig) -> ManifestRecord {
    ManifestRecord {
        schema: SCHEMA_VERSION,
        kind: RecordKind::SweepPoint,
        label: name.into(),
        pass: None,
        tenant: None,
        sweep: None,
        x: None,
        x_label: None,
        scenario_name: name.into(),
        scenario,
        master_seed: scenario.seed,
        trials: 1,
        auto: None,
        metrics: PointMetrics {
            mean_total_secs: 1.5,
            ci_half_width_secs: 0.0,
            confidence: 0.95,
            mean_concurrency: 1.0,
            mean_busy_disks: 1.0,
            mean_success_ratio: None,
            blocks_merged: 1,
        },
        analytic: None,
        trace: None,
    }
}

fn round_trip(name: &str, cfg: MergeConfig) -> ManifestRecord {
    let line = record(name, cfg).to_json_line();
    ManifestRecord::from_json_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn strategies() -> impl Strategy<Value = PrefetchStrategy> {
    prop_oneof![
        Just(PrefetchStrategy::None),
        (1u32..10_000).prop_map(|n| PrefetchStrategy::IntraRun { n }),
        (1u32..10_000).prop_map(|n| PrefetchStrategy::InterRun { n }),
        (1u32..100, 0u32..10_000).prop_map(|(n_min, extra)| {
            PrefetchStrategy::InterRunAdaptive {
                n_min,
                n_max: n_min + extra,
            }
        }),
    ]
}

fn choices() -> impl Strategy<Value = PrefetchChoice> {
    prop_oneof![
        Just(PrefetchChoice::Random),
        Just(PrefetchChoice::LeastHeld),
        Just(PrefetchChoice::HeadProximity),
    ]
}

fn caps() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (1u32..=u32::MAX).prop_map(Some)]
}

fn writes() -> impl Strategy<Value = Option<WriteSpec>> {
    prop_oneof![
        Just(None),
        (1u32..64, any::<u32>()).prop_map(|(disks, buffer_blocks)| Some(WriteSpec {
            disks,
            buffer_blocks
        })),
    ]
}

fn seeds() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), Just(u64::MAX), Just(0u64)]
}

fn configs() -> impl Strategy<Value = MergeConfig> {
    (
        (1u32..100_000, 1u32..100_000, 1u32..1_000, any::<u32>()),
        strategies(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        // CPU cost in nanoseconds: fractional milliseconds up to 100 s.
        0u64..100_000_000_000,
        choices(),
        caps(),
        writes(),
        seeds(),
    )
        .prop_map(
            |(
                (runs, run_blocks, disks, cache_blocks),
                strategy,
                (synchronized, striped, greedy),
                cpu_ns,
                prefetch_choice,
                per_run_cap,
                write,
                seed,
            )| {
                // The builder's FIFO discipline and paper disk; every
                // other field is overwritten, valid or not.
                let mut cfg = ScenarioBuilder::new(1, 1).build().unwrap();
                cfg.runs = runs;
                cfg.disks = disks;
                cfg.run_blocks = run_blocks;
                cfg.cache_blocks = cache_blocks;
                cfg.strategy = strategy;
                cfg.sync = if synchronized {
                    SyncMode::Synchronized
                } else {
                    SyncMode::Unsynchronized
                };
                cfg.layout = if striped {
                    DataLayout::Striped
                } else {
                    DataLayout::Concatenated
                };
                cfg.admission = if greedy {
                    AdmissionPolicy::Greedy
                } else {
                    AdmissionPolicy::AllOrNothing
                };
                cfg.cpu_per_block = SimDuration::from_nanos(cpu_ns);
                cfg.prefetch_choice = prefetch_choice;
                cfg.per_run_cap = per_run_cap;
                cfg.write = write;
                cfg.seed = seed;
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_carried_config_round_trips(cfg in configs()) {
        let back = round_trip("point", cfg);
        prop_assert_eq!(back.scenario, cfg);
        prop_assert_eq!(back.scenario_name, "point");
    }
}

#[test]
fn every_named_value_round_trips() {
    let base = ScenarioBuilder::new(12, 3).build().unwrap();
    for strategy in [
        PrefetchStrategy::None,
        PrefetchStrategy::IntraRun { n: 5 },
        PrefetchStrategy::InterRun { n: 5 },
        PrefetchStrategy::InterRunAdaptive { n_min: 2, n_max: 9 },
    ] {
        for choice in [
            PrefetchChoice::Random,
            PrefetchChoice::LeastHeld,
            PrefetchChoice::HeadProximity,
        ] {
            for layout in [DataLayout::Concatenated, DataLayout::Striped] {
                for admission in [AdmissionPolicy::AllOrNothing, AdmissionPolicy::Greedy] {
                    for sync in [SyncMode::Synchronized, SyncMode::Unsynchronized] {
                        let cfg = MergeConfig {
                            strategy,
                            prefetch_choice: choice,
                            layout,
                            admission,
                            sync,
                            ..base
                        };
                        assert_eq!(round_trip("grid", cfg).scenario, cfg);
                    }
                }
            }
        }
    }
}

#[test]
fn names_and_odd_values_survive() {
    let mut cfg = ScenarioBuilder::new(1, 1).build().unwrap();
    cfg.cpu_per_block = SimDuration::from_millis_f64(0.123_457);
    cfg.seed = u64::MAX;
    cfg.per_run_cap = Some(1);
    cfg.write = Some(WriteSpec {
        disks: 1,
        buffer_blocks: 0,
    });
    for name in ["", "fig5: \"N=10\", C=1200", "tenant\tβ\n"] {
        let back = round_trip(name, cfg);
        assert_eq!(back.scenario_name, name);
        assert_eq!(back.scenario, cfg);
    }
}
