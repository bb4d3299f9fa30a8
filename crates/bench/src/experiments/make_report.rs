//! A machine-written markdown report of the headline reproduction results
//! (the T1 and T2 tables of EXPERIMENTS.md and the headline speedup) at
//! `<out>/REPORT.md`.

use pm_analysis::{bounds, ModelParams};
use pm_core::ScenarioBuilder;

use crate::{t1_table, t2_table, Harness};

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let secs = |cfg: ScenarioBuilder| {
        let cfg = cfg.seed(h.seed).build().map_err(|e| e.to_string())?;
        Ok::<_, String>(h.run_trials(&cfg)?.mean_total_secs)
    };
    let baseline = secs(ScenarioBuilder::new(25, 1))?;
    let inter = secs(ScenarioBuilder::new(25, 5).inter(10).cache_blocks(1200))?;
    let md = format!(
        "# prefetchmerge — regenerated headline results\n\n\
         {} trials per case, master seed {}.\n\n\
         ## T1 — closed forms vs simulation\n\n{}\n\
         ## T2 — urn-game concurrency\n\n{}\n\
         ## Headline\n\nSingle-disk baseline {baseline:.1} s → 5 disks with inter-run \
         prefetching {inter:.1} s: **{:.1}× speedup on 5 disks** (superlinear). \
         Transfer-time lower bound: {:.1} s.\n\n",
        h.trials,
        h.seed,
        t1_table(h).render_markdown(),
        t2_table(h).render_markdown(),
        baseline / inter,
        bounds::multi_disk_lower_bound_secs(&ModelParams::paper(), 25, 5),
    );
    let path = h.out_path("REPORT.md");
    std::fs::create_dir_all(&h.out_dir)
        .and_then(|()| std::fs::write(&path, &md))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{md}");
    println!("wrote {}", path.display());
    Ok(())
}
