//! A machine-written markdown report of the headline reproduction results
//! (the T1 and T2 tables of EXPERIMENTS.md and the headline speedup) at
//! `<out>/REPORT.md`.

use pm_analysis::{bounds, ModelParams};
use pm_core::ScenarioBuilder;

use super::{concurrency_table, validation_table};
use crate::{Harness, Output};

/// The headline speedup, after writing it to `REPORT.md` under the T1
/// and T2 tables.
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
    let t1 = validation_table::run(h)?.remove(0);
    let t2 = concurrency_table::run(h)?.remove(0);
    let md = format!(
        "# prefetchmerge — regenerated headline results\n\n\
         {} trials per case, master seed {}.\n\n\
         ## T1 — closed forms vs simulation\n\n{}\n\
         ## T2 — urn-game concurrency\n\n{}\n\
         ## Headline\n\n{}",
        h.trials,
        h.seed,
        t1.table().render_markdown(),
        t2.table().render_markdown(),
        headline.table().render_markdown(),
    );
    let path = h.out_path("REPORT.md");
    std::fs::create_dir_all(&h.out_dir)
        .and_then(|()| std::fs::write(&path, &md))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(vec![headline])
}
