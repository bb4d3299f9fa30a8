//! **Figure 3.3**: the effect of a finite-speed CPU. `k = 25` runs,
//! `D = 5` disks, `N = 10`; total execution time vs. the time to merge
//! one block (0–0.7 ms) for the four strategy × sync combinations.

use pm_workload::paper::fig3_cpu_sweep;

use crate::{points_output, Harness, Output};

/// The full series, then each curve at 0, 0.35 and 0.7 ms per block.
pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let title = "Fig 3.3: Effect of finite-speed CPU (25 runs, 5 disks, N=10)";
    let sweeps = fig3_cpu_sweep(h.seed);
    let (out, series) = h.run_sweeps("fig3", title, "total time (s)", &sweeps, |s| {
        s.mean_total_secs
    })?;
    let points = points_output(
        "fig3_points",
        &format!("{title}: total seconds at selected CPU costs"),
        &series,
        &[0.0, 0.35, 0.7],
        |x| format!("{x} ms"),
    );
    Ok(vec![out, points])
}
