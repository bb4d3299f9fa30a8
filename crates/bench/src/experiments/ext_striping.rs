//! **Extension E11**: block striping vs. the paper's independent-disk
//! layout.
//!
//! The paper's related work (Salem & García-Molina's disk striping, Kim's
//! synchronized interleaving) places *every* run across *all* disks; the
//! paper instead gives each run a home disk and wins back parallelism with
//! inter-run prefetching. This experiment stages the debate directly:
//! total time vs. `N` for
//!
//! * concatenated layout, intra-run prefetching (the paper's baseline),
//! * striped layout, intra-run prefetching (declustering),
//! * concatenated layout, inter-run prefetching (the paper's proposal),
//!
//! all at the same cache budget, plus the striped closed form derived in
//! `pm_analysis::equations::tau_striped_intra_sync`.

use pm_analysis::{equations, ModelParams};
use pm_core::{DataLayout, ScenarioBuilder};
use pm_workload::Sweep;

use crate::Harness;

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let (k, d) = (25u32, 5u32);
    let ns: Vec<f64> = (1..=30).map(f64::from).collect();
    let seed = h.seed;
    let cache = |n: u32| 4 * k * n;

    let sweeps = vec![
        Sweep::build("Striped, intra-run", "N", ns.iter().copied(), |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, d).intra(n).build().unwrap();
            cfg.layout = DataLayout::Striped;
            cfg.cache_blocks = cache(n);
            cfg.seed = seed ^ 0x51 ^ u64::from(n);
            cfg
        }),
        Sweep::build("Concatenated, intra-run", "N", ns.iter().copied(), |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, d).intra(n).build().unwrap();
            cfg.cache_blocks = cache(n);
            cfg.seed = seed ^ 0x52 ^ u64::from(n);
            cfg
        }),
        Sweep::build("Concatenated, inter-run (paper)", "N", ns.iter().copied(), |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, d).inter(n).cache_blocks(cache(n)).build().unwrap();
            cfg.seed = seed ^ 0x53 ^ u64::from(n);
            cfg
        }),
    ];
    h.run_sweeps(
        "ext_striping",
        "E11: striping vs independent disks (25 runs, 5 disks, cache 4kN)",
        "total time (s)",
        &sweeps,
        |s| s.mean_total_secs,
    )?;
    let p = ModelParams::paper();
    for n in [5u32, 10, 30] {
        println!(
            "striped closed form at N={n}: {:.1} s (synchronized)",
            equations::total_seconds(&p, k, equations::tau_striped_intra_sync(&p, k, d, n))
        );
    }
    println!(
        "\nStriping buys in-operation parallelism without inter-run cache\n\
         games, but every operation pays the maximum of D rotational\n\
         latencies over only N blocks; inter-run prefetching amortizes that\n\
         maximum over D*N blocks and wins across the sweep — the paper's\n\
         independent-disk design is the right call for merging."
    );
    Ok(())
}
