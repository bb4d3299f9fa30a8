//! **Extension E15**: what does merge-phase prefetching buy a *complete*
//! sort?
//!
//! The paper optimizes the merge; a full external sort also pays run
//! formation (one streaming read + write of all data). This experiment
//! combines the analytic formation cost with the simulated merge time for
//! each strategy — the Amdahl view of the paper's contribution.

use pm_analysis::{pipeline, ModelParams};
use pm_core::{MergeConfig, PrefetchStrategy, ScenarioBuilder};

use crate::{Harness, Output};

pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let p = ModelParams::paper();
    let (k, d) = (25u32, 5u32);
    let formation = pipeline::formation_secs(&p, k, d);

    let strategies: Vec<(&str, MergeConfig)> = vec![
        (
            "single disk, no prefetch",
            ScenarioBuilder::new(k, 1).build().unwrap(),
        ),
        (
            "5 disks, no prefetch",
            ScenarioBuilder::new(k, d).build().unwrap(),
        ),
        (
            "5 disks, intra N=10",
            ScenarioBuilder::new(k, d).intra(10).build().unwrap(),
        ),
        (
            "5 disks, inter N=10",
            ScenarioBuilder::new(k, d)
                .inter(10)
                .cache_blocks(1200)
                .build()
                .unwrap(),
        ),
        ("5 disks, adaptive 1..20", {
            let mut cfg = ScenarioBuilder::new(k, d)
                .inter(1)
                .cache_blocks(1200)
                .build()
                .unwrap();
            cfg.strategy = PrefetchStrategy::InterRunAdaptive {
                n_min: 1,
                n_max: 20,
            };
            cfg
        }),
    ];

    let title = format!(
        "E15: end-to-end sort (formation + merge), k={k}, D={d} (trials={})",
        h.trials
    );
    let mut out = Output::new(
        "ext_end_to_end",
        title,
        1,
        &[
            "strategy",
            "merge (s)",
            "formation (s)",
            "end-to-end (s)",
            "merge speedup",
            "end-to-end speedup",
        ],
    );

    let base_formation = pipeline::formation_secs(&p, k, 1);
    let mut base = None;
    let mut row = |label: &str, merge: f64, formation: f64| {
        // The first row, the single-disk sort, is the baseline.
        let (base_merge, base_total) = *base.get_or_insert((merge, base_formation + merge));
        let total = formation + merge;
        let merge_speedup = if merge > 0.0 {
            format!("{:.1}", base_merge / merge)
        } else {
            "-".into()
        };
        out.row(vec![
            label.to_string(),
            format!("{merge:.1}"),
            format!("{formation:.1}"),
            format!("{total:.1}"),
            merge_speedup,
            format!("{:.1}", base_total / total),
        ]);
    };
    for (label, mut cfg) in strategies {
        cfg.seed = h.seed;
        let merge = h.run_trials(&cfg)?.mean_total_secs;
        // The single-disk baseline also forms runs on one disk.
        let f = if cfg.disks == 1 {
            base_formation
        } else {
            formation
        };
        row(label, merge, f);
    }
    // The Amdahl bound: no merge-phase optimization gets past formation.
    row("5 disks, zero-time merge", 0.0, formation);
    Ok(vec![out])
}
