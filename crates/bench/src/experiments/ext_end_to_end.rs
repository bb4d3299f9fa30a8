//! **Extension E15**: what does merge-phase prefetching buy a *complete*
//! sort?
//!
//! The paper optimizes the merge; a full external sort also pays run
//! formation (one streaming read + write of all data). This experiment
//! combines the analytic formation cost with the simulated merge time for
//! each strategy — the Amdahl view of the paper's contribution.

use pm_analysis::{pipeline, ModelParams};
use pm_core::{MergeConfig, PrefetchStrategy, ScenarioBuilder};

use crate::{right_aligned, Harness};

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let p = ModelParams::paper();
    let (k, d) = (25u32, 5u32);
    let formation = pipeline::formation_secs(&p, k, d);

    let strategies: Vec<(&str, MergeConfig)> = vec![
        ("single disk, no prefetch", ScenarioBuilder::new(k, 1).build().unwrap()),
        ("5 disks, no prefetch", ScenarioBuilder::new(k, d).build().unwrap()),
        ("5 disks, intra N=10", ScenarioBuilder::new(k, d).intra(10).build().unwrap()),
        ("5 disks, inter N=10", ScenarioBuilder::new(k, d).inter(10).cache_blocks(1200).build().unwrap()),
        ("5 disks, adaptive 1..20", {
            let mut cfg = ScenarioBuilder::new(k, d).inter(1).cache_blocks(1200).build().unwrap();
            cfg.strategy = PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 20 };
            cfg
        }),
    ];

    let mut table = right_aligned(1, &[
        "strategy", "merge (s)", "formation (s)", "end-to-end (s)", "merge speedup",
        "end-to-end speedup",
    ]);
    let mut csv = h.csv(
        "ext_end_to_end",
        &["strategy", "merge_secs", "formation_secs", "total_secs", "merge_speedup", "e2e_speedup"],
    )?;

    let mut baseline_merge = None;
    for (label, mut cfg) in strategies {
        cfg.seed = h.seed;
        let merge = h.run_trials(&cfg)?.mean_total_secs;
        let base = *baseline_merge.get_or_insert(merge);
        // The single-disk baseline also forms runs on one disk.
        let f = if cfg.disks == 1 {
            pipeline::formation_secs(&p, k, 1)
        } else {
            formation
        };
        let total = f + merge;
        let base_total = pipeline::formation_secs(&p, k, 1) + base;
        table.add_row(vec![
            label.to_string(),
            format!("{merge:.1}"),
            format!("{f:.1}"),
            format!("{total:.1}"),
            format!("{:.1}x", base / merge),
            format!("{:.1}x", base_total / total),
        ]);
        csv.row(&[
            label.to_string(),
            format!("{merge:.3}"),
            format!("{f:.3}"),
            format!("{total:.3}"),
            format!("{:.3}", base / merge),
            format!("{:.3}", base_total / total),
        ])?;
    }
    println!(
        "== E15: end-to-end sort (formation + merge), k={k}, D={d} (trials={}) ==\n",
        h.trials
    );
    println!("{}", table.render());
    println!(
        "Formation is pure streaming ({formation:.1} s on {d} disks), so once the\n\
         merge is prefetched down to the same order the two phases are\n\
         comparable: the paper's ~22x merge speedup is a ~12x end-to-end\n\
         speedup, and further merge tuning has little left to gain\n\
         (Amdahl bound {:.1}x vs this baseline).",
        pipeline::max_end_to_end_speedup(&p, k, d, baseline_merge.unwrap_or(360.0)),
    );
    csv.finish()
}
