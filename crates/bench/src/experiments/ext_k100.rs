//! **Extension E9**: the `k = 100` results the paper omitted.
//!
//! The paper simulated 25-, 50-, and 100-run merges but notes "for reasons
//! of space, the results for k = 100 are not presented here". This
//! experiment produces them: total time vs. `N` for 100 runs on 5 and 10
//! disks (100 runs do not fit on a single paper disk, so the single-disk
//! baseline is analytic only).

use pm_analysis::{bounds, equations, ModelParams};
use pm_core::ScenarioBuilder;
use pm_workload::Sweep;

use crate::{points_output, Harness, Output};

pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let k = 100u32;
    let seed = h.seed;
    let curve = |label: &str, d: u32, inter: bool, salt: u64| {
        Sweep::build(label, "N", (1..=30).map(f64::from), move |x| {
            let n = x as u32;
            let builder = ScenarioBuilder::new(k, d);
            let builder = if inter {
                builder.inter(n).cache_blocks(4 * k * n)
            } else {
                builder.intra(n)
            };
            let mut cfg = builder.build().unwrap();
            cfg.seed = seed ^ salt ^ u64::from(n);
            cfg
        })
    };
    let sweeps = vec![
        curve("All Disks One Run (100 runs, 10 disks)", 10, true, 0x10),
        curve("All Disks One Run (100 runs, 5 disks)", 5, true, 0x20),
        curve("Demand Run Only (100 runs, 10 disks)", 10, false, 0x30),
        curve("Demand Run Only (100 runs, 5 disks)", 5, false, 0x40),
    ];
    let title = "E9: Fetching N blocks (100 runs — the panel the paper omitted)";
    let (out, series) = h.run_sweeps("ext_k100", title, "total time (s)", &sweeps, |s| {
        s.mean_total_secs
    })?;
    let points = points_output(
        "ext_k100_points",
        &format!("{title}: total seconds at selected N"),
        &series,
        &[1.0, 10.0, 30.0],
        |x| format!("N={x}"),
    );
    let p = ModelParams::paper();
    let mut anchors = Output::new(
        "ext_k100_analytic",
        "E9: analytic anchors for k=100",
        1,
        &["anchor", "seconds"],
    );
    for (anchor, secs) in [
        (
            "single disk, no prefetch (eq. 1; does not fit one paper disk)",
            equations::total_seconds(&p, k, equations::tau_single_no_prefetch(&p, k)),
        ),
        (
            "10 disks, no prefetch (eq. 3)",
            equations::total_seconds(&p, k, equations::tau_multi_no_prefetch(&p, k, 10)),
        ),
        (
            "transfer bound kBT/D, 5 disks",
            bounds::multi_disk_lower_bound_secs(&p, k, 5),
        ),
        (
            "transfer bound kBT/D, 10 disks",
            bounds::multi_disk_lower_bound_secs(&p, k, 10),
        ),
    ] {
        anchors.row(vec![anchor.to_string(), format!("{secs:.1}")]);
    }
    Ok(vec![out, points, anchors])
}
