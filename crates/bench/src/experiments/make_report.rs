//! The headline reproduction result: the paper's single-disk baseline
//! against five disks with inter-run prefetching. The T1 and T2 tables are
//! `validation_table` and `concurrency_table`.

use pm_analysis::{bounds, ModelParams};
use pm_core::ScenarioBuilder;

use crate::{Harness, Output};

/// The headline speedup.
pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let secs = |cfg: ScenarioBuilder| {
        let cfg = cfg.seed(h.seed).build().map_err(|e| e.to_string())?;
        Ok::<_, String>(h.run_trials(&cfg)?.mean_total_secs)
    };
    let baseline = secs(ScenarioBuilder::new(25, 1))?;
    let inter = secs(ScenarioBuilder::new(25, 5).inter(10).cache_blocks(1200))?;
    let mut headline = Output::new(
        "make_report",
        "Headline: single-disk baseline vs 5 disks with inter-run prefetching (k=25)",
        0,
        &[
            "1 disk, no prefetch (s)",
            "5 disks, inter N=10, C=1200 (s)",
            "speedup",
            "transfer bound kBT/D (s)",
        ],
    );
    headline.row(vec![
        format!("{baseline:.1}"),
        format!("{inter:.1}"),
        format!("{:.1}", baseline / inter),
        format!(
            "{:.1}",
            bounds::multi_disk_lower_bound_secs(&ModelParams::paper(), 25, 5)
        ),
    ]);
    Ok(vec![headline])
}
