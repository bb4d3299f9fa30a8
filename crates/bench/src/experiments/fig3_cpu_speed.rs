//! **Figure 3.3**: the effect of a finite-speed CPU. `k = 25` runs,
//! `D = 5` disks, `N = 10`; total execution time vs. the time to merge
//! one block (0–0.7 ms) for the four strategy × sync combinations.

use pm_workload::paper::fig3_cpu_sweep;

use crate::Harness;

pub(super) fn run(h: &Harness) -> Result<(), String> {
    h.run_sweeps(
        "fig3",
        "Fig 3.3: Effect of finite-speed CPU (25 runs, 5 disks, N=10)",
        "total time (s)",
        &fig3_cpu_sweep(h.seed),
        |s| s.mean_total_secs,
    )?;
    Ok(())
}
