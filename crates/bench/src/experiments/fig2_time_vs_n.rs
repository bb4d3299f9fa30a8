//! **Figure 3.2** of Pai & Varman (ICDE 1992): total merge time vs. the
//! prefetch depth `N` (1–30), unsynchronized prefetching, for the
//! intra-run ("Demand Run Only") and combined inter-run ("All Disks One
//! Run") strategies. `--panel a|b|c` runs one panel.

use pm_workload::paper::{fig2_panel, Fig2Panel};

use crate::{points_output, Harness, Output};

/// `--panel` values, in the order of [`FIGURES`].
pub(crate) const PANELS: &[&str] = &["a", "b", "c"];

const FIGURES: [(Fig2Panel, &str, &str); 3] = [
    (
        Fig2Panel::A,
        "fig2a",
        "Fig 3.2(a): Fetching N blocks (25 runs)",
    ),
    (
        Fig2Panel::B,
        "fig2b",
        "Fig 3.2(b): Fetching N blocks (50 runs)",
    ),
    (
        Fig2Panel::C,
        "fig2c",
        "Fig 3.2(c): Expanded view (5 disks, 25 and 50 runs)",
    ),
];

/// Each panel's full series, then its curves at the depths
/// EXPERIMENTS.md quotes (`<key>_points`).
pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let mut outputs = Vec::new();
    for i in h.panel_indices(PANELS)? {
        let (panel, key, title) = FIGURES[i];
        let sweeps = fig2_panel(panel, h.seed);
        let (out, series) =
            h.run_sweeps(key, title, "total time (s)", &sweeps, |s| s.mean_total_secs)?;
        outputs.push(out);
        outputs.push(points_output(
            &format!("{key}_points"),
            &format!("{title}: total seconds at selected N"),
            &series,
            &[1.0, 5.0, 10.0, 20.0, 30.0],
            |x| format!("N={x}"),
        ));
    }
    Ok(outputs)
}
