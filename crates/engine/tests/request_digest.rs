//! Golden digests of the engine's merge decisions.
//!
//! For every scenario, the in-memory backend at `jobs` 1 and 4 must
//! produce the same per-disk `(run, block)` request sequences, depletion
//! sequence and demand / fallback / full-prefetch counts, and their
//! 64-bit FNV-1a digest must match the scenario's line in
//! `tests/golden/request_digest.txt`. `sim_parity` checks the engine
//! against the simulator; this file pins the decisions themselves, so an
//! engine-side change in what is read, or when, fails here even if the
//! simulator changed the same way. The scenarios cover what `sim_parity`
//! does not: head-proximity choice, the per-run cap, synchronized
//! inter-run prefetching and a striped layout. After an intentional
//! decision change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pm-engine --test request_digest
//! ```

mod common;

use std::fmt::Write as _;
use std::path::PathBuf;

use pm_core::{AdmissionPolicy, DataLayout, MergeConfig, PrefetchChoice, ScenarioBuilder};
use pm_engine::ExecOutcome;

use common::{assert_sorted_output, engine_for, form_runs, run_memory};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The decisions of one execution, rendered for hashing.
fn decisions(outcome: &ExecOutcome) -> String {
    let r = &outcome.report;
    format!(
        "requests={:?} depletion={:?} demand={} fallback={} full={}",
        outcome.requests, outcome.depletion, r.demand_ops, r.fallback_ops, r.full_prefetch_ops
    )
}

fn scenarios() -> Vec<(&'static str, MergeConfig)> {
    let b = |disks| ScenarioBuilder::new(8, disks);
    vec![
        (
            "no-prefetch",
            b(2).cache_blocks(16).seed(51).build().unwrap(),
        ),
        ("intra", b(2).intra(4).seed(52).build().unwrap()),
        (
            "intra-sync",
            b(3).intra(3).synchronized().seed(53).build().unwrap(),
        ),
        ("inter-random", b(3).inter(4).seed(54).build().unwrap()),
        (
            "inter-sync",
            b(3).inter(4).synchronized().seed(55).build().unwrap(),
        ),
        (
            "inter-sync-tight",
            b(4).inter(3)
                .synchronized()
                .cache_blocks(40)
                .seed(56)
                .build()
                .unwrap(),
        ),
        (
            "inter-greedy-least-held",
            b(3).inter(4)
                .admission(AdmissionPolicy::Greedy)
                .prefetch_choice(PrefetchChoice::LeastHeld)
                .seed(57)
                .build()
                .unwrap(),
        ),
        (
            "inter-head",
            b(3).inter(4)
                .prefetch_choice(PrefetchChoice::HeadProximity)
                .seed(58)
                .build()
                .unwrap(),
        ),
        (
            "inter-head-sync",
            b(4).inter(2)
                .prefetch_choice(PrefetchChoice::HeadProximity)
                .synchronized()
                .seed(59)
                .build()
                .unwrap(),
        ),
        (
            "inter-cap",
            b(3).inter(4).per_run_cap(Some(6)).seed(60).build().unwrap(),
        ),
        (
            "inter-cap-greedy-head",
            b(2).inter(4)
                .per_run_cap(Some(5))
                .admission(AdmissionPolicy::Greedy)
                .prefetch_choice(PrefetchChoice::HeadProximity)
                .seed(61)
                .build()
                .unwrap(),
        ),
        (
            "adaptive",
            b(2).adaptive(1, 8)
                .cache_blocks(96)
                .seed(62)
                .build()
                .unwrap(),
        ),
        (
            "adaptive-sync-least-held",
            b(3).adaptive(1, 6)
                .synchronized()
                .prefetch_choice(PrefetchChoice::LeastHeld)
                .cache_blocks(72)
                .seed(63)
                .build()
                .unwrap(),
        ),
        (
            "intra-striped",
            b(2).intra(4)
                .layout(DataLayout::Striped)
                .seed(64)
                .build()
                .unwrap(),
        ),
        (
            "intra-striped-sync",
            b(3).intra(4)
                .layout(DataLayout::Striped)
                .synchronized()
                .seed(65)
                .build()
                .unwrap(),
        ),
    ]
}

#[test]
fn engine_decisions_match_golden_digests() {
    // Eight runs: seven of 530 records and a ragged one of 290, at 20
    // records per block.
    let runs = form_runs(4000, 530, 29);
    let mut text = String::new();
    for (name, cfg) in scenarios() {
        let mut lines = Vec::new();
        for jobs in [1usize, 4] {
            let engine = engine_for(cfg, &runs, jobs);
            let outcome = run_memory(&engine, &runs, cfg.disks as usize);
            assert_sorted_output(&outcome, &runs);
            lines.push(format!(
                "{name} {:016x}",
                fnv1a(decisions(&outcome).as_bytes())
            ));
        }
        assert_eq!(
            lines[0], lines[1],
            "{name}: decisions depend on the worker count"
        );
        writeln!(text, "{}", lines[0]).unwrap();
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/request_digest.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden digest missing; rerun with UPDATE_GOLDEN=1 to create it");
    for (got, want) in text.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "engine decisions drifted from tests/golden/request_digest.txt; \
             verify the change is intended and rerun with UPDATE_GOLDEN=1"
        );
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "scenario count differs from tests/golden/request_digest.txt"
    );
}
