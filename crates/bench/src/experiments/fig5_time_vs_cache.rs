//! **Figures 3.5 and 3.6**: total execution time, and the success ratio
//! (probability that an inter-run prefetch could be fully admitted to the
//! cache), vs. cache size for inter-run ("All Disks One Run")
//! prefetching, unsynchronized, with `N ∈ {1, 5, 10}`, in the paper's
//! three configurations: (25 runs, 5 disks), (50 runs, 5 disks),
//! (50 runs, 10 disks). Both figures read the same runs. `--panel 1|2|3`
//! runs one panel.

use pm_workload::paper::{cache_panel_params, cache_sweep, CachePanel};
use pm_workload::Sweep;

use crate::{format_num, series_output, Harness, Output, Series};

/// `--panel` values, in the order of [`CACHE_PANELS`].
pub(crate) const PANELS: &[&str] = &["1", "2", "3"];

const CACHE_PANELS: [(CachePanel, char); 3] = [
    (CachePanel::K25D5, 'a'),
    (CachePanel::K50D5, 'b'),
    (CachePanel::K50D10, 'c'),
];

/// Each curve's value at its first, middle and last cache size.
fn ends_and_middle(key: &str, title: &str, series: &Series, precision: usize) -> Output {
    let mut out = Output::new(
        key,
        title,
        1,
        &[
            "series",
            "min cache",
            "at min",
            "mid cache",
            "at mid",
            "max cache",
            "at max",
        ],
    );
    for (label, pts) in series {
        let mut row = vec![label.clone()];
        for (x, y) in [pts[0], pts[pts.len() / 2], pts[pts.len() - 1]] {
            row.extend([format_num(x), format!("{y:.precision$}")]);
        }
        out.row(row);
    }
    out
}

/// Figure number, title and axis names, and excerpt precision of the two
/// measures read off the same runs.
const MEASURES: [(u8, &str, &str, usize); 2] = [
    (5, "Time", "total time (s)", 1),
    (6, "Success ratio", "success ratio", 2),
];

/// Per panel, the Fig. 3.5 and Fig. 3.6 series (`fig5<p>`, `fig6<p>`);
/// then each figure's first, middle and last point of every curve run
/// (`fig5_points`, `fig6_points`).
pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let mut figures = Vec::new();
    let mut excerpts: [Series; 2] = Default::default();
    for i in h.panel_indices(PANELS)? {
        let (panel, letter) = CACHE_PANELS[i];
        let (k, d, _) = cache_panel_params(panel);
        let sweeps: Vec<Sweep> = cache_sweep(panel, h.seed)
            .iter()
            .map(|s| h.thin(s))
            .collect();
        let both = h.sweep_series(&format!("fig5{letter}"), &sweeps, |s| {
            [s.mean_total_secs, s.mean_success_ratio.unwrap_or(0.0)]
        })?;
        for (m, (figure, what, y_label, _)) in MEASURES.into_iter().enumerate() {
            let series: Series = both
                .iter()
                .map(|(label, pts)| (label.clone(), pts.iter().map(|&(x, v)| (x, v[m])).collect()))
                .collect();
            let title =
                format!("Fig 3.{figure}({letter}): {what} vs cache size ({k} runs, {d} disks)");
            let key = format!("fig{figure}{letter}");
            figures.push(series_output(
                &key,
                &title,
                &sweeps[0].x_label,
                y_label,
                &series,
            ));
            excerpts[m].extend(series);
        }
    }
    for ((figure, what, _, precision), series) in MEASURES.into_iter().zip(&excerpts) {
        let title = format!("Fig 3.{figure}: {what} at the first, middle and last cache size");
        figures.push(ends_and_middle(
            &format!("fig{figure}_points"),
            &title,
            series,
            precision,
        ));
    }
    Ok(figures)
}
