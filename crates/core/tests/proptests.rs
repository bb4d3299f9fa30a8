//! Property-based tests of the merge-phase simulator: every valid
//! configuration must complete the merge with consistent accounting, for
//! all strategies, sync modes, admission policies, and CPU speeds.

use proptest::prelude::*;

use pm_core::{
    parallel, run_trials, run_trials_parallel, AdmissionPolicy, MergeConfig, MergeSim,
    PrefetchStrategy, QueueDiscipline, ScenarioBuilder, SimDuration, SyncMode,
};
use pm_sim::{derive_seeds, SimRng};

#[derive(Debug, Clone)]
struct Params {
    runs: u32,
    run_blocks: u32,
    disks: u32,
    strategy: PrefetchStrategy,
    sync: SyncMode,
    extra_cache: u32,
    cpu_us: u32,
    greedy: bool,
    choice: u8,
    cap: Option<u32>,
    striped: bool,
    write_disks: u32,
    seed: u64,
}

fn params() -> impl Strategy<Value = Params> {
    (
        (
            1u32..10,      // runs
            1u32..60,      // run_blocks
            1u32..6,       // disks
            0u32..4,       // strategy selector
            1u32..8,       // depth
            any::<bool>(), // sync
            0u32..100,     // extra cache beyond the minimum
            0u32..2_000,   // cpu microseconds per block
        ),
        (
            any::<bool>(),              // greedy admission
            0u8..3,                     // prefetch choice
            prop::option::of(1u32..30), // per-run cap
            any::<bool>(),              // striped layout
            0u32..3,                    // write disks (0 = none)
            any::<u64>(),               // seed
        ),
    )
        .prop_map(
            |(
                (runs, run_blocks, disks, skind, depth, sync, extra_cache, cpu_us),
                (greedy, choice, cap, striped, write_disks, seed),
            )| {
                let strategy = match skind {
                    0 => PrefetchStrategy::None,
                    1 => PrefetchStrategy::IntraRun { n: depth },
                    2 => PrefetchStrategy::InterRun { n: depth },
                    _ => PrefetchStrategy::InterRunAdaptive {
                        n_min: 1,
                        n_max: depth,
                    },
                };
                // Striping excludes inter-run strategies.
                let striped = striped && !strategy.is_inter_run();
                Params {
                    runs,
                    run_blocks,
                    disks,
                    strategy,
                    sync: if sync {
                        SyncMode::Synchronized
                    } else {
                        SyncMode::Unsynchronized
                    },
                    extra_cache,
                    cpu_us,
                    greedy,
                    choice,
                    cap,
                    striped,
                    write_disks,
                    seed,
                }
            },
        )
}

fn build(p: &Params) -> MergeConfig {
    let mut cfg = MergeConfig {
        runs: p.runs,
        run_blocks: p.run_blocks,
        disks: p.disks,
        layout: if p.striped {
            pm_core::DataLayout::Striped
        } else {
            pm_core::DataLayout::Concatenated
        },
        strategy: p.strategy,
        sync: p.sync,
        cache_blocks: 0,
        cpu_per_block: SimDuration::from_micros(u64::from(p.cpu_us)),
        admission: if p.greedy {
            AdmissionPolicy::Greedy
        } else {
            AdmissionPolicy::AllOrNothing
        },
        prefetch_choice: match p.choice {
            0 => pm_core::PrefetchChoice::Random,
            1 => pm_core::PrefetchChoice::LeastHeld,
            _ => pm_core::PrefetchChoice::HeadProximity,
        },
        per_run_cap: p.cap,
        discipline: QueueDiscipline::Fifo,
        disk_spec: pm_core::DiskSpec::paper(),
        write: (p.write_disks > 0).then_some(pm_core::WriteSpec {
            disks: p.write_disks,
            buffer_blocks: 8,
        }),
        seed: p.seed,
    };
    cfg.cache_blocks = cfg.min_cache_blocks() + p.extra_cache;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid configuration completes and reports consistent numbers.
    #[test]
    fn simulation_completes_with_consistent_accounting(p in params()) {
        let cfg = build(&p);
        prop_assume!(cfg.validate().is_ok());
        let report = MergeSim::run_uniform(cfg).expect("validated");

        // Everything merged, one disk request per block.
        prop_assert_eq!(report.blocks_merged, cfg.total_blocks());
        prop_assert_eq!(report.disk_requests, cfg.total_blocks());

        // Transfer time is exactly blocks × T.
        let expected_transfer = cfg.disk_spec.params.transfer_per_block * cfg.total_blocks();
        prop_assert_eq!(report.transfer_total, expected_transfer);

        // The merge can never beat the per-disk transfer bound.
        let bound = expected_transfer / u64::from(cfg.disks);
        prop_assert!(report.total >= bound, "total {} < bound {}", report.total, bound);

        // Concurrency and ratios stay in range.
        prop_assert!(report.avg_busy_disks <= report.avg_concurrency + 1e-9);
        prop_assert!(report.avg_concurrency <= f64::from(cfg.disks) + 1e-9);
        prop_assert!(u32::from(report.peak_busy_disks <= cfg.disks) == 1);
        if let Some(r) = report.success_ratio {
            prop_assert!((0.0..=1.0).contains(&r));
        }

        // CPU accounting: busy time is exactly blocks × μ and fits in the
        // total.
        prop_assert_eq!(report.cpu_busy, cfg.cpu_per_block * cfg.total_blocks());
        prop_assert!(report.cpu_busy <= report.total);

        // The CPU-bound floor also holds.
        prop_assert!(report.total >= report.cpu_busy);
    }

    /// Bit-exact determinism: the same configuration always produces the
    /// same report.
    #[test]
    fn same_seed_same_report(p in params()) {
        let cfg = build(&p);
        prop_assume!(cfg.validate().is_ok());
        let a = MergeSim::run_uniform(cfg).expect("validated");
        let b = MergeSim::run_uniform(cfg).expect("validated");
        prop_assert_eq!(a, b);
    }

    /// For intra-run prefetching the disk request stream is identical in
    /// both sync modes, so unsynchronized can never be slower.
    #[test]
    fn unsync_never_slower_for_intra(
        runs in 1u32..8,
        run_blocks in 1u32..50,
        disks in 1u32..5,
        n in 1u32..6,
        seed in any::<u64>(),
    ) {
        let mut cfg = ScenarioBuilder::new(runs, disks).intra(n).build().unwrap();
        cfg.run_blocks = run_blocks;
        cfg.seed = seed;
        prop_assume!(cfg.validate().is_ok());
        cfg.sync = SyncMode::Synchronized;
        let sync = MergeSim::run_uniform(cfg).expect("validated");
        cfg.sync = SyncMode::Unsynchronized;
        let unsync = MergeSim::run_uniform(cfg).expect("validated");
        prop_assert!(unsync.total <= sync.total,
            "unsync {} > sync {}", unsync.total, sync.total);
    }

    /// Growing the cache never hurts inter-run prefetching (same seed,
    /// averaged over trials to wash out stream differences).
    #[test]
    fn bigger_cache_never_hurts_much(
        seed in any::<u64>(),
        n in 1u32..6,
    ) {
        let k = 8u32;
        let small = MergeConfig {
            seed,
            run_blocks: 60,
            ..ScenarioBuilder::new(k, 4).inter(n).cache_blocks(k * n).build().unwrap()
        };
        let big = MergeConfig {
            cache_blocks: k * n + 400,
            ..small
        };
        let t_small = run_trials(&small, 3).expect("valid").mean_total_secs;
        let t_big = run_trials(&big, 3).expect("valid").mean_total_secs;
        // Allow a small noise margin: different admission outcomes change
        // the latency draws.
        prop_assert!(t_big <= t_small * 1.10, "big cache {t_big} vs small {t_small}");
    }

    /// The pre-derived seed sequence used by the parallel engine is exactly
    /// the stream the old sequential runner drew incrementally from the
    /// master RNG — for any master seed and trial count.
    #[test]
    fn derived_seeds_equal_incremental_master_stream(
        master in any::<u64>(),
        n in 0usize..200,
    ) {
        let derived = derive_seeds(master, n);
        let mut rng = SimRng::seed_from_u64(master);
        let incremental: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        prop_assert_eq!(derived, incremental);
    }

    /// Prefixes of the derived sequence are stable: trial i's seed does not
    /// depend on how many trials were requested.
    #[test]
    fn derived_seeds_are_prefix_stable(
        master in any::<u64>(),
        short in 0usize..50,
        extra in 0usize..50,
    ) {
        let long = derive_seeds(master, short + extra);
        prop_assert_eq!(derive_seeds(master, short), &long[..short]);
    }

    /// Parallel collection is an index identity: for any item count and
    /// worker count, `run_ordered(n, jobs, f)` is `[f(0), …, f(n-1)]`.
    #[test]
    fn run_ordered_is_index_identity(
        n in 0usize..120,
        jobs in 0usize..12,
        salt in any::<u64>(),
    ) {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        let expected: Vec<u64> = (0..n).map(f).collect();
        prop_assert_eq!(parallel::run_ordered(n, jobs, f), expected);
    }

    /// End to end: `run_trials_parallel` is bit-identical to `run_trials`
    /// for arbitrary valid configurations and any worker count.
    #[test]
    fn parallel_trials_bit_identical_for_arbitrary_configs(
        p in params(),
        trials in 1u32..5,
        jobs in 1usize..9,
    ) {
        let cfg = build(&p);
        prop_assume!(cfg.validate().is_ok());
        let seq = run_trials(&cfg, trials).expect("validated");
        let par = run_trials_parallel(&cfg, trials, jobs).expect("validated");
        prop_assert_eq!(&seq.reports, &par.reports);
        prop_assert_eq!(seq.mean_total_secs.to_bits(), par.mean_total_secs.to_bits());
    }
}
