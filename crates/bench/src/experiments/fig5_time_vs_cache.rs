//! **Figure 3.5**: total execution time vs. cache size for inter-run
//! ("All Disks One Run") prefetching, unsynchronized, with
//! `N ∈ {1, 5, 10}`, in the paper's three configurations: (25 runs,
//! 5 disks), (50 runs, 5 disks), (50 runs, 10 disks). `--panel 1|2|3`
//! runs one panel.

use pm_core::TrialSummary;
use pm_workload::paper::{cache_panel_params, cache_sweep, CachePanel};

use crate::Harness;

/// `--panel` values of Figures 3.5 and 3.6, in the order of [`CACHE_PANELS`].
pub(crate) const PANELS: &[&str] = &["1", "2", "3"];

const CACHE_PANELS: [(CachePanel, char); 3] =
    [(CachePanel::K25D5, 'a'), (CachePanel::K50D5, 'b'), (CachePanel::K50D10, 'c')];

/// Runs the selected panels of Figure 3.`figure` (5 or 6), plotting
/// `measure` as `what` (the title's name for it) in `y_label` units.
pub(super) fn cache_figure(
    h: &Harness,
    figure: u8,
    what: &str,
    y_label: &str,
    measure: impl Fn(&TrialSummary) -> f64 + Copy,
) -> Result<(), String> {
    for i in h.panel_indices(PANELS)? {
        let (panel, letter) = CACHE_PANELS[i];
        let (k, d, _) = cache_panel_params(panel);
        let title = format!("Fig 3.{figure}({letter}): {what} vs cache size ({k} runs, {d} disks)");
        let name = format!("fig{figure}{letter}");
        h.run_sweeps(&name, &title, y_label, &cache_sweep(panel, h.seed), measure)?;
    }
    Ok(())
}

pub(super) fn run(h: &Harness) -> Result<(), String> {
    cache_figure(h, 5, "Time", "total time (s)", |s| s.mean_total_secs)
}
