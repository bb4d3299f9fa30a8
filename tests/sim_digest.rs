//! Whole-report digests of the simulator over a scenario matrix.
//!
//! Every scenario's [`MergeReport`] is rendered with `{:?}` and hashed
//! with 64-bit FNV-1a; `tests/golden/sim_digest.txt` holds one
//! `name hash` line per scenario. Any change to a decision, a timing or
//! a counter of any scenario changes its line, so a refactor of the
//! simulator that claims identical behaviour must leave the file
//! untouched. After an intentional behaviour change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test sim_digest
//! ```
//!
//! The matrix is D ∈ {1, 2, 4, 8, 16, 32} × {none, intra, inter,
//! adaptive} × {random, least-held, head-proximity} choice × {sync,
//! unsync} × {uniform, skewed} depletion (288 scenarios), plus rows for
//! greedy admission, the per-run cap, SSTF and LOOK queues, write
//! traffic, a finite CPU, a striped layout and ragged run lengths.
//! Scenarios are small so the suite stays fast in a debug build; they
//! run on the paper's disk timing with 8-block cylinders, so that even
//! short runs span several cylinders and the depletion order and the
//! head-proximity choice show up in seek times.

use std::fmt::Write as _;
use std::path::PathBuf;

use pm_core::{
    AdmissionPolicy, DataLayout, DiskSpec, MergeConfig, MergeReport, MergeSim, PrefetchChoice,
    PrefetchStrategy, QueueDiscipline, ScenarioBuilder, SimDuration, SkewedDepletion, SyncMode,
    UniformDepletion, WriteSpec,
};

/// The paper's disk with one head and 8 blocks per track.
fn small_disk() -> DiskSpec {
    let mut spec = DiskSpec::paper();
    spec.geometry.heads = 1;
    spec.geometry.blocks_per_track = 8;
    spec
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest(report: &MergeReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

#[derive(Clone, Copy)]
enum Depletion {
    Uniform,
    Skewed,
}

fn run(cfg: MergeConfig, lengths: Option<&[u32]>, depletion: Depletion) -> MergeReport {
    let sim = match lengths {
        Some(lengths) => MergeSim::with_run_lengths(cfg, lengths),
        None => MergeSim::new(cfg),
    }
    .expect("scenario validated before running");
    match depletion {
        Depletion::Uniform => sim.run(&mut UniformDepletion),
        Depletion::Skewed => sim.run(&mut SkewedDepletion::new(0.8)),
    }
}

fn strategies() -> [(&'static str, PrefetchStrategy); 4] {
    [
        ("none", PrefetchStrategy::None),
        ("intra", PrefetchStrategy::IntraRun { n: 4 }),
        ("inter", PrefetchStrategy::InterRun { n: 4 }),
        ("adaptive", PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 6 }),
    ]
}

fn choices() -> [(&'static str, PrefetchChoice); 3] {
    [
        ("random", PrefetchChoice::Random),
        ("least-held", PrefetchChoice::LeastHeld),
        ("head", PrefetchChoice::HeadProximity),
    ]
}

/// The scenario matrix: `(name, config, ragged lengths, depletion)`.
/// Combinations `validate()` rejects are skipped.
fn scenarios() -> Vec<(String, MergeConfig, Option<Vec<u32>>, Depletion)> {
    let mut out = Vec::new();
    for disks in [1u32, 2, 4, 8, 16, 32] {
        for (sname, strategy) in strategies() {
            for (cname, choice) in choices() {
                for (yname, sync) in [
                    ("sync", SyncMode::Synchronized),
                    ("unsync", SyncMode::Unsynchronized),
                ] {
                    for (dname, depletion) in
                        [("uniform", Depletion::Uniform), ("skewed", Depletion::Skewed)]
                    {
                        let cfg = ScenarioBuilder::new(2 * disks + 1, disks)
                            .disk_spec(small_disk())
                            .run_blocks(16)
                            .strategy(strategy)
                            .prefetch_choice(choice)
                            .sync_mode(sync)
                            .seed(u64::from(disks) * 1000 + 7)
                            .build();
                        if let Ok(cfg) = cfg {
                            let name = format!("d{disks}-{sname}-{cname}-{yname}-{dname}");
                            out.push((name, cfg, None, depletion));
                        }
                    }
                }
            }
        }
    }

    let base = || {
        ScenarioBuilder::new(9, 4)
            .disk_spec(small_disk())
            .run_blocks(24)
            .seed(91)
    };
    let mut extra: Vec<(&str, Result<MergeConfig, _>)> = vec![
        (
            "greedy-inter-random",
            base().inter(4).admission(AdmissionPolicy::Greedy).build(),
        ),
        (
            "greedy-inter-sync",
            base()
                .inter(4)
                .admission(AdmissionPolicy::Greedy)
                .synchronized()
                .cache_blocks(60)
                .build(),
        ),
        (
            "greedy-adaptive-least-held",
            base()
                .adaptive(1, 8)
                .admission(AdmissionPolicy::Greedy)
                .prefetch_choice(PrefetchChoice::LeastHeld)
                .cache_blocks(80)
                .build(),
        ),
        ("per-run-cap", base().inter(4).per_run_cap(Some(6)).build()),
        (
            "per-run-cap-head",
            base()
                .inter(4)
                .per_run_cap(Some(5))
                .prefetch_choice(PrefetchChoice::HeadProximity)
                .build(),
        ),
        (
            "sstf-inter",
            base().inter(4).discipline(QueueDiscipline::Sstf).build(),
        ),
        (
            "look-inter",
            base().inter(4).discipline(QueueDiscipline::Look).build(),
        ),
        (
            "sstf-intra-head",
            base()
                .intra(3)
                .discipline(QueueDiscipline::Sstf)
                .prefetch_choice(PrefetchChoice::HeadProximity)
                .build(),
        ),
        (
            "look-adaptive-sync",
            base()
                .adaptive(2, 6)
                .discipline(QueueDiscipline::Look)
                .synchronized()
                .build(),
        ),
        (
            "write-inter",
            base()
                .inter(4)
                .write(Some(WriteSpec { disks: 2, buffer_blocks: 8 }))
                .build(),
        ),
        (
            "write-intra-one-disk",
            base()
                .intra(4)
                .write(Some(WriteSpec { disks: 1, buffer_blocks: 4 }))
                .build(),
        ),
        (
            "cpu-inter",
            base()
                .inter(4)
                .cpu_per_block(SimDuration::from_millis(3))
                .build(),
        ),
        (
            "striped-intra",
            base().intra(4).layout(DataLayout::Striped).build(),
        ),
        (
            "striped-intra-sync",
            base()
                .intra(4)
                .layout(DataLayout::Striped)
                .synchronized()
                .build(),
        ),
        (
            "striped-none",
            base().layout(DataLayout::Striped).cache_blocks(9).build(),
        ),
    ];
    for (name, cfg) in extra.drain(..) {
        let cfg = cfg.unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((name.to_string(), cfg, None, Depletion::Uniform));
    }

    let ragged = vec![40u32, 3, 17, 25, 1, 60, 9, 12, 33];
    for (name, strategy, choice) in [
        ("ragged-intra", PrefetchStrategy::IntraRun { n: 4 }, PrefetchChoice::Random),
        ("ragged-inter", PrefetchStrategy::InterRun { n: 4 }, PrefetchChoice::Random),
        ("ragged-inter-head", PrefetchStrategy::InterRun { n: 4 }, PrefetchChoice::HeadProximity),
        (
            "ragged-adaptive",
            PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 5 },
            PrefetchChoice::LeastHeld,
        ),
    ] {
        let cfg = ScenarioBuilder::new(9, 3)
            .disk_spec(small_disk())
            .run_blocks(60)
            .strategy(strategy)
            .prefetch_choice(choice)
            .seed(77)
            .build()
            .expect("ragged scenario");
        out.push((name.to_string(), cfg, Some(ragged.clone()), Depletion::Uniform));
    }
    out
}

#[test]
fn simulator_reports_match_golden_digests() {
    let mut text = String::new();
    for (name, cfg, lengths, depletion) in scenarios() {
        let report = run(cfg, lengths.as_deref(), depletion);
        writeln!(text, "{name} {:016x}", digest(&report)).unwrap();
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_digest.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden digest missing; rerun with UPDATE_GOLDEN=1 to create it");
    for (got, want) in text.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "simulator report drifted from tests/golden/sim_digest.txt; \
             verify the change is intended and rerun with UPDATE_GOLDEN=1"
        );
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "scenario count differs from tests/golden/sim_digest.txt"
    );
}

#[test]
fn matrix_covers_every_base_combination() {
    let base = scenarios()
        .iter()
        .filter(|(name, ..)| name.starts_with('d'))
        .count();
    assert_eq!(base, 288);
}
