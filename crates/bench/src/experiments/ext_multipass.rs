//! **Extension E10**: how many merge passes, at what fan-in?
//!
//! The paper's intro says the runs are merged "in a small number of merge
//! passes" but evaluates only one. With a fixed cache the fan-in `F`
//! trades passes against prefetch depth: large `F` reads the data once but
//! leaves a shallow `N` per run (more seeks, lower success ratio); small
//! `F` prefetches deeply but rereads everything each pass. This experiment
//! sweeps `F` for a 64-run merge, and compares the planner's two policies
//! (`greedy-max` and `balanced`, as `pmerge plan` offers them) on
//! replacement-selection-like unequal runs. Every tree is planned by
//! [`plan_merge_tree`] and costed by [`predict_plan`], the same code
//! `pmerge plan` and `pmerge exec` run.

use pm_core::ScenarioBuilder;
use pm_extsort::plan::{plan_merge_tree, predict_plan, MergeTreePlan, PlanPolicy};
use pm_sim::SimRng;

use crate::{Harness, Output};

/// Plans `runs` under `policy` at fan-in cap `f` and returns the tree
/// with its predicted merge time in seconds. The base scenario is the
/// one-pass merge of every run at the prefetch depth the cache buys: a
/// tree of one merge runs it as given, and a larger tree derives each
/// group's scenario from its cache budget, seed and disks.
fn plan_and_predict(
    runs: &[u32],
    f: u32,
    policy: PlanPolicy,
    disks: u32,
    cache: u32,
    seed: u64,
) -> Result<(MergeTreePlan, f64), String> {
    let plan = plan_merge_tree(runs, f, policy).map_err(|e| e.to_string())?;
    let k = runs.len() as u32;
    let base = ScenarioBuilder::new(k, disks)
        .inter((cache / (4 * k)).max(1))
        .cache_blocks(cache)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let secs = predict_plan(&plan, &base)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|p| p.read_time.as_secs_f64())
        .sum();
    Ok((plan, secs))
}

pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let (disks, cache) = (5u32, 640u32);
    let header = [
        "policy",
        "fan-in F",
        "passes",
        "blocks read",
        "N per run",
        "total (s)",
    ];
    let row = |plan: &MergeTreePlan, secs: f64| {
        vec![
            plan.policy.label().to_string(),
            plan.fan_in.to_string(),
            plan.num_passes().to_string(),
            plan.total_blocks_read().to_string(),
            (cache / (4 * plan.fan_in)).max(1).to_string(),
            format!("{secs:.1}"),
        ]
    };

    // Part 1: equal runs (the paper's setup), fan-in sweep.
    let equal_runs = vec![250u32; 64]; // 16,000 blocks = 64 MB at 4 KiB
    let title =
        format!("E10: multi-pass merging — 64 runs x 250 blocks, D={disks}, cache {cache} blocks");
    let mut equal = Output::new("ext_multipass", title, 1, &header);
    for f in [2u32, 4, 8, 16, 32, 64] {
        let seed = h.seed ^ u64::from(f);
        let (plan, secs) =
            plan_and_predict(&equal_runs, f, PlanPolicy::GreedyMax, disks, cache, seed)?;
        equal.row(row(&plan, secs));
    }

    // Part 2: unequal runs — the planner's two policies at one cap.
    let mut rng = SimRng::seed_from_u64(h.seed);
    let unequal_runs: Vec<u32> = (0..48).map(|_| 20 + rng.index(480) as u32).collect();
    let title = "E10: 48 unequal runs (20-500 blocks), fan-in cap 6";
    let mut unequal = Output::new("ext_multipass_unequal", title, 1, &header);
    for (policy, salt) in [(PlanPolicy::GreedyMax, 0xA), (PlanPolicy::Balanced, 0xB)] {
        let (plan, secs) = plan_and_predict(&unequal_runs, 6, policy, disks, cache, h.seed ^ salt)?;
        unequal.row(row(&plan, secs));
    }

    // Part 3: why small merge orders need `MergeConfig::per_run_cap`: a
    // disk holding a single long run otherwise hoards the cache.
    let (k, n) = (8u32, cache / (4 * 8));
    let title = format!(
        "E10: per-run cap — k={k} runs x 2000 blocks, D={disks}, inter N={n}, cache {cache} (trials={})",
        h.trials
    );
    let mut capped = Output::new(
        "ext_multipass_cap",
        title,
        1,
        &["per-run cap", "success ratio", "total (s)"],
    );
    for cap in [None, Some(cache / k)] {
        let cfg = ScenarioBuilder::new(k, disks)
            .inter(n)
            .cache_blocks(cache)
            .run_blocks(2000)
            .per_run_cap(cap)
            .seed(h.seed)
            .build()
            .map_err(|e| e.to_string())?;
        let s = h.run_trials(&cfg)?;
        capped.row(vec![
            cap.map_or_else(|| "none".into(), |c| c.to_string()),
            format!("{:.2}", s.mean_success_ratio.unwrap_or(0.0)),
            format!("{:.1}", s.mean_total_secs),
        ]);
    }
    Ok(vec![equal, unequal, capped])
}
