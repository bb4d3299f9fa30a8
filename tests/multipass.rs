//! Differential tests of multi-pass execution (the PR 6 acceptance
//! harness).
//!
//! Three properties:
//!
//! 1. The planner's pass count matches the analytic `ceil(log_F k)` for
//!    uniform run populations.
//! 2. A multi-pass merge produces output identical to the single-pass
//!    engine (and the sorted reference) across every backend, worker
//!    count, and plan policy.
//! 3. On the latency backend, each pass's modeled busy time lands on
//!    the simulator's per-pass prediction within the engine tolerance.
//!
//! Plus the crash-safety contract: a gracefully failing execution
//! removes its own staging token, only a hard process death leaves one
//! behind, and the next invocation over the same root sweeps dead
//! owners' tokens (never a live sibling's) before producing a correct
//! output.

use std::path::PathBuf;

use pm_core::ScenarioBuilder;
use pm_engine::{
    clean_stale_passes, ExecConfig, MergeEngine, MultiPassExecutor, MultiPassOptions, PassBackend,
    ThreadedQueue,
};
use pm_extsort::plan::{min_passes, plan_merge_tree, PlanPolicy};
use pm_extsort::{generate, run_formation, Record};
use pm_metrics::NullMetrics;

/// Records per on-device block used throughout.
const RPB: u32 = 20;

/// Generates `total` uniform records and forms sorted runs of up to
/// `memory` records each.
fn form_runs(total: usize, memory: usize, seed: u64) -> Vec<Vec<Record>> {
    let input = generate::uniform(total, seed);
    run_formation::load_sort(&input, memory)
}

/// The expected merged output: every input record in key order.
fn reference(runs: &[Vec<Record>]) -> Vec<Record> {
    let mut all: Vec<Record> = runs.iter().flatten().copied().collect();
    all.sort_by_key(|r| (r.key, r.rid));
    all
}

/// Per-run block counts for the test block factor.
fn run_blocks(runs: &[Vec<Record>]) -> Vec<u32> {
    runs.iter()
        .map(|r| (r.len() as u32).div_ceil(RPB).max(1))
        .collect()
}

/// Engine options shared by the differential matrix.
fn opts(jobs: usize, time_scale: f64) -> MultiPassOptions {
    MultiPassOptions {
        records_per_block: RPB,
        queue_depth: 0,
        jobs,
        time_scale,
    }
}

/// A unique scratch directory under the system temp dir.
fn unique_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pm-multipass-test-{}-{n}", std::process::id()))
}

/// One single-pass merge on the memory backend: the reference the
/// multi-pass tree must reproduce byte for byte.
fn single_pass_reference(runs: &[Vec<Record>]) -> Vec<Record> {
    let cfg = ScenarioBuilder::new(runs.len() as u32, 2)
        .inter(2)
        .seed(7)
        .build()
        .unwrap();
    let mut exec = ExecConfig::new(cfg);
    exec.records_per_block = RPB;
    let engine = MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).unwrap();
    let mut queue = ThreadedQueue::memory(
        cfg.disks as usize,
        engine.block_bytes(),
        engine.queue_options(),
    );
    engine.load(&mut queue, runs).unwrap();
    engine.execute(Box::new(queue)).unwrap().output
}

#[test]
fn pass_count_matches_analytic_form_for_uniform_runs() {
    for k in [2u32, 5, 8, 9, 16, 27, 64] {
        for f in [2u32, 3, 4, 8] {
            let lens = vec![10u32; k as usize];
            for policy in [PlanPolicy::GreedyMax, PlanPolicy::Balanced] {
                let plan = plan_merge_tree(&lens, f, policy).unwrap();
                assert_eq!(
                    plan.num_passes() as u32,
                    min_passes(k, f),
                    "k={k} F={f} {policy:?}"
                );
            }
        }
    }
}

#[test]
fn multipass_output_matches_single_pass_across_backends_jobs_policies() {
    // k = 16 runs, fan-in 4: a genuine two-pass tree. Keys are unique
    // with overwhelming probability at this size; assert it so the
    // sorted reference is the only valid merge output and byte-for-byte
    // comparison across paths is meaningful.
    let runs = form_runs(6000, 375, 61);
    assert_eq!(runs.len(), 16);
    let expect = reference(&runs);
    assert!(
        expect.windows(2).all(|w| w[0].key < w[1].key),
        "seed produced duplicate keys; pick another"
    );

    let single = single_pass_reference(&runs);
    assert_eq!(single, expect);

    let base = ScenarioBuilder::new(4, 2).inter(2).seed(7).build().unwrap();
    for policy in [PlanPolicy::GreedyMax, PlanPolicy::Balanced] {
        let plan = plan_merge_tree(&run_blocks(&runs), 4, policy).unwrap();
        assert_eq!(plan.num_passes(), 2, "{policy:?}");
        for jobs in [1usize, 4] {
            for backend_id in ["mem", "file", "latency"] {
                let (backend, scale, root) = match backend_id {
                    "mem" => (PassBackend::Memory, 1.0, None),
                    "latency" => (PassBackend::Latency, 5e-4, None),
                    _ => {
                        let dir = unique_dir();
                        (PassBackend::File { root: dir.clone() }, 1.0, Some(dir))
                    }
                };
                let exec = MultiPassExecutor::new(&plan, base, opts(jobs, scale), backend);
                let out = exec
                    .run(runs.clone())
                    .unwrap_or_else(|e| panic!("{policy:?} jobs={jobs} {backend_id}: {e}"));
                assert_eq!(
                    out.output, single,
                    "{policy:?} jobs={jobs} {backend_id}: diverged from single-pass"
                );
                assert_eq!(out.passes.len(), 2);
                let records: u64 = out.output.len() as u64;
                for p in &out.passes {
                    assert_eq!(
                        p.records_merged, records,
                        "every record moves once per pass"
                    );
                }
                if let Some(dir) = root {
                    // The executor removed each pass's staging directory.
                    let leftover = std::fs::read_dir(&dir).map(|it| it.count()).unwrap_or(0);
                    assert_eq!(leftover, 0, "staging not cleaned under {}", dir.display());
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

#[test]
fn latency_backend_per_pass_busy_matches_prediction() {
    let tol = 0.02;
    let runs = form_runs(4000, 250, 83);
    assert_eq!(runs.len(), 16);
    let base = ScenarioBuilder::new(4, 2)
        .inter(2)
        .seed(29)
        .build()
        .unwrap();
    for policy in [PlanPolicy::GreedyMax, PlanPolicy::Balanced] {
        let plan = plan_merge_tree(&run_blocks(&runs), 4, policy).unwrap();
        let exec = MultiPassExecutor::new(&plan, base, opts(0, 5e-4), PassBackend::Latency);
        let out = exec.run(runs.clone()).unwrap();
        for p in &out.passes {
            let predicted = p.predicted_busy.as_secs_f64();
            let measured = p.modeled_busy.as_secs_f64();
            assert!(predicted > 0.0, "pass {} predicted nothing", p.pass);
            let ratio = measured / predicted;
            assert!(
                (ratio - 1.0).abs() <= tol,
                "{policy:?} pass {}: modeled busy {measured:.4}s vs predicted \
                 {predicted:.4}s (ratio {ratio:.4})",
                p.pass
            );
        }
    }
}

#[test]
fn interrupted_execution_cleans_up_and_stale_tokens_are_swept() {
    let runs = form_runs(3000, 188, 47);
    assert_eq!(runs.len(), 16);
    let expect = reference(&runs);
    let base = ScenarioBuilder::new(4, 2)
        .inter(2)
        .seed(13)
        .build()
        .unwrap();
    let plan = plan_merge_tree(&run_blocks(&runs), 4, PlanPolicy::GreedyMax).unwrap();
    let root = unique_dir();

    // Graceful failure in the window after pass 0 completes but before
    // its staging directory is removed: the error propagates and the
    // invocation removes its own staging token on the way out (a live
    // process's token would otherwise survive every liveness sweep).
    let exec = MultiPassExecutor::new(
        &plan,
        base,
        opts(0, 1.0),
        PassBackend::File { root: root.clone() },
    );
    let err = exec
        .run_metered(runs.clone(), &NullMetrics, |pass| {
            if pass == 0 {
                Err(pm_core::PmError::io(
                    "injected crash between passes",
                    std::io::Error::other("fault injection"),
                ))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
    assert!(err.to_string().contains("injected crash"), "{err}");
    // No partial output and no leftover staging under the root.
    let leftover = std::fs::read_dir(&root).map(|it| it.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "graceful failure left staging behind");

    // A hard crash can't run the error path: simulate its residue — a
    // dead owner's token (pid far beyond pid_max) with pass/group
    // litter, plus a legacy bare pass directory from an old layout.
    let dead = root
        .join("exec-999999999-3")
        .join("pass-00")
        .join("group-00");
    std::fs::create_dir_all(&dead).unwrap();
    std::fs::write(dead.join("disk-00.bin"), b"stale").unwrap();
    std::fs::create_dir_all(root.join("pass-07")).unwrap();

    // The next invocation over the same root sweeps both stale dirs and
    // completes correctly, leaving the root empty.
    let out = exec.run(runs.clone()).unwrap();
    assert_eq!(out.output, expect);
    let leftover = std::fs::read_dir(&root).map(|it| it.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "stale staging survived the rerun");

    // clean_stale_passes is also callable directly and idempotent.
    assert_eq!(clean_stale_passes(&root).unwrap(), 0);
    let _ = std::fs::remove_dir_all(&root);
}
