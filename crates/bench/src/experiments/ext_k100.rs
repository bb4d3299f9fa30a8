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

use crate::Harness;

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let k = 100u32;
    let ns: Vec<f64> = (1..=30).map(f64::from).collect();
    let seed = h.seed;
    let sweeps = vec![
        Sweep::build("All Disks One Run (100 runs, 10 disks)", "N", ns.iter().copied(), |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, 10).inter(n).cache_blocks(4 * k * n).build().unwrap();
            cfg.seed = seed ^ 0x10 ^ u64::from(n);
            cfg
        }),
        Sweep::build("All Disks One Run (100 runs, 5 disks)", "N", ns.iter().copied(), |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, 5).inter(n).cache_blocks(4 * k * n).build().unwrap();
            cfg.seed = seed ^ 0x20 ^ u64::from(n);
            cfg
        }),
        Sweep::build("Demand Run Only (100 runs, 10 disks)", "N", ns.iter().copied(), |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, 10).intra(n).build().unwrap();
            cfg.seed = seed ^ 0x30 ^ u64::from(n);
            cfg
        }),
        Sweep::build("Demand Run Only (100 runs, 5 disks)", "N", ns.iter().copied(), |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, 5).intra(n).build().unwrap();
            cfg.seed = seed ^ 0x40 ^ u64::from(n);
            cfg
        }),
    ];
    h.run_sweeps(
        "ext_k100",
        "E9: Fetching N blocks (100 runs — the panel the paper omitted)",
        "total time (s)",
        &sweeps,
        |s| s.mean_total_secs,
    )?;
    let p = ModelParams::paper();
    println!(
        "analytic anchors for k=100: single-disk no-prefetch {:.0} s (eq. 1,\n\
         does not fit one paper disk); transfer bounds {:.1} s (5 disks),\n\
         {:.1} s (10 disks); D-disk no-prefetch {:.1} s (D=10, eq. 3).",
        equations::total_seconds(&p, k, equations::tau_single_no_prefetch(&p, k)),
        bounds::multi_disk_lower_bound_secs(&p, k, 5),
        bounds::multi_disk_lower_bound_secs(&p, k, 10),
        equations::total_seconds(&p, k, equations::tau_multi_no_prefetch(&p, k, 10)),
    );
    Ok(())
}
