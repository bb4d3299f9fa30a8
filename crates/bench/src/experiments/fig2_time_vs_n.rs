//! **Figure 3.2** of Pai & Varman (ICDE 1992): total merge time vs. the
//! prefetch depth `N` (1–30), unsynchronized prefetching, for the
//! intra-run ("Demand Run Only") and combined inter-run ("All Disks One
//! Run") strategies. `--panel a|b|c` runs one panel.

use pm_report::Table;
use pm_workload::paper::{fig2_panel, Fig2Panel};
use pm_workload::Sweep;

use crate::{right_aligned, Harness, Series};

/// `--panel` values, in the order of [`FIGURES`].
pub(crate) const PANELS: &[&str] = &["a", "b", "c"];

const FIGURES: [(Fig2Panel, &str, &str); 3] = [
    (Fig2Panel::A, "fig2a", "Fig 3.2(a): Fetching N blocks (25 runs)"),
    (Fig2Panel::B, "fig2b", "Fig 3.2(b): Fetching N blocks (50 runs)"),
    (Fig2Panel::C, "fig2c", "Fig 3.2(c): Expanded view (5 disks, 25 and 50 runs)"),
];

/// The depths EXPERIMENTS.md quotes each curve at.
const SELECTED_N: [f64; 5] = [1.0, 5.0, 10.0, 20.0, 30.0];

/// One row per curve, one column per [`SELECTED_N`] depth the curves
/// were run at: total seconds, to 0.1 s.
fn selected_points(series: &Series) -> Table {
    let xs: Vec<f64> = series
        .first()
        .map(|(_, pts)| pts.iter().map(|p| p.0).filter(|x| SELECTED_N.contains(x)).collect())
        .unwrap_or_default();
    let mut header = vec!["series".to_string()];
    header.extend(xs.iter().map(|x| format!("N={x}")));
    let mut table = right_aligned(1, &header);
    for (label, pts) in series {
        let mut row = vec![label.clone()];
        row.extend(xs.iter().map(|x| {
            pts.iter().find(|p| p.0 == *x).map_or_else(|| "-".into(), |p| format!("{:.1}", p.1))
        }));
        table.add_row(row);
    }
    table
}

/// The Fig. 3.2 table EXPERIMENTS.md shows for `panel`: total seconds of
/// each curve at `N` = 1, 5, 10, 20 and 30 (those of them the panel
/// sweeps), simulated with the harness's trials and seed. Only those
/// points run; each is the point the full sweep runs.
///
/// # Panics
///
/// Panics if a point of the panel is invalid.
#[must_use]
pub fn fig2_points(h: &Harness, panel: Fig2Panel) -> Table {
    let sweeps: Vec<Sweep> = fig2_panel(panel, h.seed)
        .into_iter()
        .map(|mut s| {
            s.points.retain(|p| SELECTED_N.contains(&p.x));
            s
        })
        .collect();
    let series = h
        .sweep_series("fig2", &sweeps, |s| s.mean_total_secs)
        .expect("every Fig. 3.2 point is valid");
    selected_points(&series)
}

pub(super) fn run(h: &Harness) -> Result<(), String> {
    for i in h.panel_indices(PANELS)? {
        let (panel, name, title) = FIGURES[i];
        let sweeps = fig2_panel(panel, h.seed);
        let series = h.run_sweeps(name, title, "total time (s)", &sweeps, |s| s.mean_total_secs)?;
        println!("{}", selected_points(&series).render());
    }
    Ok(())
}
