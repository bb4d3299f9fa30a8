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

use crate::{points_output, Harness, Output};

pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
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
        Sweep::build(
            "Concatenated, inter-run (paper)",
            "N",
            ns.iter().copied(),
            |x| {
                let n = x as u32;
                let mut cfg = ScenarioBuilder::new(k, d)
                    .inter(n)
                    .cache_blocks(cache(n))
                    .build()
                    .unwrap();
                cfg.seed = seed ^ 0x53 ^ u64::from(n);
                cfg
            },
        ),
    ];
    let title = "E11: striping vs independent disks (25 runs, 5 disks, cache 4kN)";
    let (out, mut series) =
        h.run_sweeps("ext_striping", title, "total time (s)", &sweeps, |s| {
            s.mean_total_secs
        })?;
    let p = ModelParams::paper();
    let closed_form = |n: f64| {
        let tau = equations::tau_striped_intra_sync(&p, k, d, n as u32);
        (n, equations::total_seconds(&p, k, tau))
    };
    let xs: Vec<f64> = series[0].1.iter().map(|&(x, _)| x).collect();
    series.push((
        "Striped closed form (synchronized)".into(),
        xs.into_iter().map(closed_form).collect(),
    ));
    let points = points_output(
        "ext_striping_points",
        &format!("{title}: total seconds at selected N"),
        &series,
        &[1.0, 10.0, 30.0],
        |x| format!("N={x}"),
    );
    Ok(vec![out, points])
}
