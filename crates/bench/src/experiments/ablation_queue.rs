//! **Ablation A2**: disk queue scheduling discipline (FIFO vs. SSTF vs.
//! LOOK) under inter-run prefetching.
//!
//! The paper services each disk's queue FIFO. Reordering can shorten
//! seeks, but under this workload each queue mostly holds one *contiguous*
//! operation at a time, so the expected benefit is small — this ablation
//! measures it. (Note: with reordering, blocks of one run can complete out
//! of index order; the counting cache approximates block identity, so
//! treat SSTF/LOOK results as an estimate.)

use pm_core::{MergeConfig, QueueDiscipline, ScenarioBuilder};

use crate::{right_aligned, Harness};

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let disciplines = [
        ("FIFO", QueueDiscipline::Fifo),
        ("SSTF", QueueDiscipline::Sstf),
        ("LOOK", QueueDiscipline::Look),
    ];
    let scenarios: Vec<(&str, MergeConfig)> = vec![
        (
            "inter k=25 D=5 N=10 C=600",
            ScenarioBuilder::new(25, 5).inter(10).cache_blocks(600).build().unwrap(),
        ),
        (
            "inter k=50 D=5 N=5 C=700",
            ScenarioBuilder::new(50, 5).inter(5).cache_blocks(700).build().unwrap(),
        ),
        ("no-prefetch k=25 D=5", ScenarioBuilder::new(25, 5).build().unwrap()),
    ];
    let mut table = right_aligned(2, &["scenario", "discipline", "total (s)", "seek total (s)"]);
    let mut csv = h.csv("ablation_queue", &["scenario", "discipline", "total_secs", "seek_secs"])?;

    for (label, base) in scenarios {
        for (dname, discipline) in disciplines {
            let mut cfg = base;
            cfg.discipline = discipline;
            cfg.seed = h.seed;
            let summary = h.run_trials(&cfg)?;
            let seek_secs: f64 = summary
                .reports
                .iter()
                .map(|r| r.seek_total.as_secs_f64())
                .sum::<f64>()
                / summary.reports.len() as f64;
            table.add_row(vec![
                label.to_string(),
                dname.to_string(),
                format!("{:.1}", summary.mean_total_secs),
                format!("{seek_secs:.2}"),
            ]);
            csv.row(&[
                label.to_string(),
                dname.to_string(),
                format!("{:.3}", summary.mean_total_secs),
                format!("{seek_secs:.3}"),
            ])?;
        }
    }
    println!("== A2: disk scheduling discipline ablation (trials={}) ==\n", h.trials);
    println!("{}", table.render());
    csv.finish()
}
