//! The paper's experiment families: one builder per figure, and the
//! validation cases of its tables T1 and T2 ([`t1_cases`], [`t2_cases`]).
//!
//! All builders return [`Sweep`]s whose points are ready-to-run
//! [`MergeConfig`]s. Design choices the paper leaves implicit are made
//! here, once:
//!
//! * **Cache sizes.** Fig. 3.2 plots time vs. `N` with "unsynchronized
//!   prefetching"; for the inter-run curves we provision an ample cache
//!   (`4·k·N`) so the success ratio stays ≈ 1 and the curve shows the pure
//!   effect of `N`, as in the paper. Intra-run curves use the canonical
//!   `C = k·N`. Fig. 3.3 uses `N = 10` with the cache at the Fig. 3.5(a)
//!   asymptote (1200 blocks) for the inter-run curves.
//! * **Seeds.** Every sweep point derives its seed from the caller's
//!   master seed, the curve label, and `x`, so figures are reproducible
//!   point-by-point yet no two points share a random stream.

use pm_core::{MergeConfig, PrefetchStrategy, ScenarioBuilder, SimDuration, SyncMode};

use crate::Sweep;

/// Panels of Figure 3.2 (total time vs. `N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig2Panel {
    /// 25 runs: intra 1 disk, intra 5 disks, inter 5 disks.
    A,
    /// 50 runs: intra 1 disk, intra 10 disks, inter 5 disks, inter 10 disks.
    B,
    /// Expanded view, 5 disks: intra and inter for 25 and 50 runs.
    C,
}

/// Panels of Figures 3.5/3.6 (cache-size sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePanel {
    /// 25 runs, 5 disks, cache up to 1200 blocks.
    K25D5,
    /// 50 runs, 5 disks, cache up to 1600 blocks.
    K50D5,
    /// 50 runs, 10 disks, cache up to 3500 blocks.
    K50D10,
}

/// Deterministically mixes a master seed with a curve label and point.
fn point_seed(master: u64, label: &str, x: u64) -> u64 {
    let mut h = master ^ 0x9E37_79B9_7F4A_7C15;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    (h ^ x).wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

/// Ample cache for an inter-run point so the success ratio is ≈ 1.
fn ample_cache(k: u32, n: u32) -> u32 {
    4 * k * n
}

fn intra_sweep(label: &str, k: u32, d: u32, ns: &[u32], master: u64) -> Sweep {
    let owned = label.to_string();
    Sweep::build(
        label,
        "N (blocks fetched per run)",
        ns.iter().map(|&n| f64::from(n)),
        move |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, d).intra(n).build().unwrap();
            cfg.seed = point_seed(master, &owned, u64::from(n));
            cfg
        },
    )
}

fn inter_sweep(label: &str, k: u32, d: u32, ns: &[u32], master: u64) -> Sweep {
    let owned = label.to_string();
    Sweep::build(
        label,
        "N (blocks fetched per run)",
        ns.iter().map(|&n| f64::from(n)),
        move |x| {
            let n = x as u32;
            let mut cfg = ScenarioBuilder::new(k, d)
                .inter(n)
                .cache_blocks(ample_cache(k, n))
                .build()
                .unwrap();
            cfg.seed = point_seed(master, &owned, u64::from(n));
            cfg
        },
    )
}

/// Figure 3.2: total time vs. `N ∈ 1..=30`, unsynchronized.
///
/// # Examples
///
/// ```
/// use pm_workload::paper::{fig2_panel, Fig2Panel};
///
/// let sweeps = fig2_panel(Fig2Panel::A, 1992);
/// assert_eq!(sweeps.len(), 3); // inter 5 disks, intra 5 disks, intra 1 disk
/// for sweep in &sweeps {
///     assert_eq!(sweep.len(), 30);
///     sweep.validate().unwrap();
/// }
/// ```
#[must_use]
pub fn fig2_panel(panel: Fig2Panel, master_seed: u64) -> Vec<Sweep> {
    let full: Vec<u32> = (1..=30).collect();
    let expanded: Vec<u32> = (5..=30).collect();
    match panel {
        Fig2Panel::A => vec![
            inter_sweep(
                "All Disks One Run (25 runs, 5 disks)",
                25,
                5,
                &full,
                master_seed,
            ),
            intra_sweep(
                "Demand Run Only (25 runs, 5 disks)",
                25,
                5,
                &full,
                master_seed,
            ),
            intra_sweep(
                "Demand Run Only (25 runs, 1 disk)",
                25,
                1,
                &full,
                master_seed,
            ),
        ],
        Fig2Panel::B => vec![
            inter_sweep(
                "All Disks One Run (50 runs, 10 disks)",
                50,
                10,
                &full,
                master_seed,
            ),
            inter_sweep(
                "All Disks One Run (50 runs, 5 disks)",
                50,
                5,
                &full,
                master_seed,
            ),
            intra_sweep(
                "Demand Run Only (50 runs, 10 disks)",
                50,
                10,
                &full,
                master_seed,
            ),
            intra_sweep(
                "Demand Run Only (50 runs, 1 disk)",
                50,
                1,
                &full,
                master_seed,
            ),
        ],
        Fig2Panel::C => vec![
            inter_sweep(
                "All Disks One Run (25 runs, 5 disks)",
                25,
                5,
                &expanded,
                master_seed,
            ),
            inter_sweep(
                "All Disks One Run (50 runs, 5 disks)",
                50,
                5,
                &expanded,
                master_seed,
            ),
            intra_sweep(
                "Demand Run Only (25 runs, 5 disks)",
                25,
                5,
                &expanded,
                master_seed,
            ),
            intra_sweep(
                "Demand Run Only (50 runs, 5 disks)",
                50,
                5,
                &expanded,
                master_seed,
            ),
        ],
    }
}

/// Figure 3.3: total time vs. CPU time per block (0–0.7 ms),
/// `k = 25`, `D = 5`, `N = 10`, four strategy/sync combinations.
#[must_use]
pub fn fig3_cpu_sweep(master_seed: u64) -> Vec<Sweep> {
    let (k, d, n) = (25u32, 5u32, 10u32);
    let cpu_ms: Vec<f64> = (0..=14).map(|i| f64::from(i) * 0.05).collect();
    let curve = move |label: &'static str, strategy: PrefetchStrategy, sync: SyncMode| {
        let cache = if strategy.is_inter_run() { 1200 } else { k * n };
        Sweep::build(
            label,
            "CPU time to merge one block (ms)",
            cpu_ms.iter().copied(),
            move |x| {
                let mut cfg = ScenarioBuilder::new(k, d).build().unwrap();
                cfg.strategy = strategy;
                cfg.sync = sync;
                cfg.cache_blocks = cache;
                cfg.cpu_per_block = SimDuration::from_millis_f64(x);
                cfg.seed = point_seed(master_seed, label, (x * 1000.0) as u64);
                cfg
            },
        )
    };
    vec![
        curve(
            "All Disks One Run (Unsynchronized)",
            PrefetchStrategy::InterRun { n },
            SyncMode::Unsynchronized,
        ),
        curve(
            "All Disks One Run (Synchronized)",
            PrefetchStrategy::InterRun { n },
            SyncMode::Synchronized,
        ),
        curve(
            "Demand Run Only (Unsynchronized)",
            PrefetchStrategy::IntraRun { n },
            SyncMode::Unsynchronized,
        ),
        curve(
            "Demand Run Only (Synchronized)",
            PrefetchStrategy::IntraRun { n },
            SyncMode::Synchronized,
        ),
    ]
}

/// Parameters of a cache panel: `(k, d, max cache)`.
#[must_use]
pub fn cache_panel_params(panel: CachePanel) -> (u32, u32, u32) {
    match panel {
        CachePanel::K25D5 => (25, 5, 1200),
        CachePanel::K50D5 => (50, 5, 1600),
        CachePanel::K50D10 => (50, 10, 3500),
    }
}

/// Figures 3.5 and 3.6: inter-run prefetching (unsynchronized), cache size
/// swept from the minimum (`k·N`) to the panel maximum, for
/// `N ∈ {1, 5, 10}`. Figure 3.5 reads total time off these runs and
/// Figure 3.6 the success ratio.
#[must_use]
pub fn cache_sweep(panel: CachePanel, master_seed: u64) -> Vec<Sweep> {
    let (k, d, max_cache) = cache_panel_params(panel);
    [1u32, 5, 10]
        .iter()
        .map(|&n| {
            let label = format!("N={n} ({k} runs, {d} disks)");
            let min_cache = k * n;
            let steps = 24u32;
            let xs: Vec<f64> = (0..=steps)
                .map(|i| {
                    let c = min_cache + (max_cache - min_cache) * i / steps;
                    f64::from(c)
                })
                .collect();
            let owned = label.clone();
            Sweep::build(label, "Cache size (blocks)", xs, move |x| {
                let mut cfg = ScenarioBuilder::new(k, d)
                    .inter(n)
                    .cache_blocks(x as u32)
                    .build()
                    .unwrap();
                cfg.seed = point_seed(master_seed, &owned, x as u64);
                cfg
            })
        })
        .collect()
}

/// One of the paper's validation cases: a labelled, seeded configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperCase {
    /// Case label; its prefix (`eqN`, `urn asymptote`, `bound kBT/D`,
    /// `urn E[D]`) names the analytical result it is checked against.
    pub label: String,
    /// The configuration to simulate, seeded with the master seed.
    pub config: MergeConfig,
    /// The simulated total time the paper publishes for this case, in
    /// seconds (every T1 case has one; the T2 cases do not).
    pub paper_secs: Option<f64>,
}

fn case(
    label: impl Into<String>,
    mut config: MergeConfig,
    paper_secs: Option<f64>,
    seed: u64,
) -> PaperCase {
    config.seed = seed;
    PaperCase {
        label: label.into(),
        config,
        paper_secs,
    }
}

/// Table T1: every estimated-vs-simulated comparison quoted in the
/// paper's §3.1–3.2 — eqs. (1)–(5), the unsynchronized intra-run urn
/// asymptote and the `kBT/D` transfer bound — seeded with `master_seed`.
///
/// # Examples
///
/// ```
/// let cases = pm_workload::paper::t1_cases(1992);
/// assert_eq!(cases.len(), 13);
/// assert!(cases.iter().all(|c| c.paper_secs.is_some() && c.config.seed == 1992));
/// ```
#[must_use]
pub fn t1_cases(master_seed: u64) -> Vec<PaperCase> {
    let s = master_seed;
    let mut v = Vec::new();
    for (k, paper) in [(25u32, 360.9), (50, 916.0)] {
        let cfg = ScenarioBuilder::new(k, 1).build().unwrap();
        v.push(case(
            format!("eq1: no prefetch, k={k}, D=1"),
            cfg,
            Some(paper),
            s,
        ));
    }
    for (k, n, paper) in [
        (25u32, 16u32, 73.0),
        (50, 16, 158.0),
        (25, 30, 64.0),
        (50, 30, 135.0),
    ] {
        let cfg = ScenarioBuilder::new(k, 1).intra(n).build().unwrap();
        v.push(case(
            format!("eq2: intra, k={k}, D=1, N={n}"),
            cfg,
            Some(paper),
            s,
        ));
    }
    for (k, d, paper) in [(25u32, 5u32, 281.9), (50, 10, 563.5)] {
        let cfg = ScenarioBuilder::new(k, d).build().unwrap();
        v.push(case(
            format!("eq3: no prefetch, k={k}, D={d}"),
            cfg,
            Some(paper),
            s,
        ));
    }
    let mut cfg = ScenarioBuilder::new(25, 5).intra(30).build().unwrap();
    cfg.sync = SyncMode::Synchronized;
    v.push(case("eq4: intra sync, k=25, D=5, N=30", cfg, Some(61.6), s));
    let mut cfg = ScenarioBuilder::new(25, 5)
        .inter(10)
        .cache_blocks(2000)
        .build()
        .unwrap();
    cfg.sync = SyncMode::Synchronized;
    v.push(case("eq5: inter sync, k=25, D=5, N=10", cfg, Some(17.4), s));
    // Unsynchronized intra-run at N=30: eq. (4)'s time over the urn
    // concurrency, an asymptote in N.
    let cfg = ScenarioBuilder::new(25, 5).intra(30).build().unwrap();
    v.push(case(
        "urn asymptote: intra unsync, k=25, D=5, N=30",
        cfg,
        Some(28.5),
        s,
    ));
    // Unsynchronized inter-run with a huge cache approaches kBT/D.
    let cfg = ScenarioBuilder::new(25, 5)
        .inter(50)
        .cache_blocks(5000)
        .build()
        .unwrap();
    v.push(case(
        "bound kBT/D: inter unsync, k=25, D=5, N=50",
        cfg,
        Some(12.2),
        s,
    ));
    let cfg = ScenarioBuilder::new(50, 5)
        .inter(50)
        .cache_blocks(10_000)
        .build()
        .unwrap();
    v.push(case(
        "bound kBT/D: inter unsync, k=50, D=5, N=50",
        cfg,
        Some(23.6),
        s,
    ));
    v
}

/// Table T2: average I/O concurrency of unsynchronized intra-run
/// prefetching at `N = 30` for `D = 5, 10, 20`, checked against the urn
/// model. `k` keeps several runs per disk: the paper's `k = 25` at
/// `D = 5` and `k = 50` at `D = 10`, and `k = 60` at `D = 20`.
#[must_use]
pub fn t2_cases(master_seed: u64) -> Vec<PaperCase> {
    [(25u32, 5u32), (50, 10), (60, 20)]
        .into_iter()
        .map(|(k, d)| {
            let cfg = ScenarioBuilder::new(k, d).intra(30).build().unwrap();
            case(
                format!("urn E[D]: intra unsync, k={k}, D={d}, N=30"),
                cfg,
                None,
                master_seed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_panels_validate() {
        for panel in [Fig2Panel::A, Fig2Panel::B, Fig2Panel::C] {
            for sweep in fig2_panel(panel, 1) {
                sweep.validate().unwrap_or_else(|(x, e)| {
                    panic!("{}: invalid at x={x}: {e}", sweep.label);
                });
            }
        }
    }

    #[test]
    fn fig2_panel_a_structure() {
        let sweeps = fig2_panel(Fig2Panel::A, 1);
        assert_eq!(sweeps.len(), 3);
        assert_eq!(sweeps[0].len(), 30);
        // Inter-run sweeps provision ample cache.
        let p = &sweeps[0].points[9]; // N = 10
        assert_eq!(p.config.cache_blocks, 4 * 25 * 10);
        assert!(p.config.strategy.is_inter_run());
        // Intra-run sweeps use C = kN.
        let q = &sweeps[1].points[9];
        assert_eq!(q.config.cache_blocks, 250);
    }

    #[test]
    fn fig3_sweep_structure() {
        let sweeps = fig3_cpu_sweep(2);
        assert_eq!(sweeps.len(), 4);
        for s in &sweeps {
            assert_eq!(s.len(), 15);
            s.validate().unwrap();
            assert_eq!(s.points[0].config.cpu_per_block, SimDuration::ZERO);
            let last = s.points.last().unwrap();
            assert!((last.x - 0.7).abs() < 1e-9);
        }
        // Sync and unsync variants are present.
        assert!(sweeps
            .iter()
            .any(|s| s.points[0].config.sync == SyncMode::Synchronized));
        assert!(sweeps
            .iter()
            .any(|s| s.points[0].config.sync == SyncMode::Unsynchronized));
    }

    #[test]
    fn cache_sweeps_validate_and_start_at_minimum() {
        for panel in [CachePanel::K25D5, CachePanel::K50D5, CachePanel::K50D10] {
            let (k, _, max) = cache_panel_params(panel);
            for (i, sweep) in cache_sweep(panel, 3).into_iter().enumerate() {
                sweep.validate().unwrap_or_else(|(x, e)| {
                    panic!("{}: invalid at x={x}: {e}", sweep.label);
                });
                let n = [1u32, 5, 10][i];
                assert_eq!(sweep.points[0].x, f64::from(k * n));
                assert_eq!(sweep.points.last().unwrap().x, f64::from(max));
            }
        }
    }

    #[test]
    fn seeds_differ_across_points_and_curves() {
        let sweeps = fig2_panel(Fig2Panel::A, 7);
        let s0 = sweeps[0].points[0].config.seed;
        let s1 = sweeps[0].points[1].config.seed;
        let t0 = sweeps[1].points[0].config.seed;
        assert_ne!(s0, s1);
        assert_ne!(s0, t0);
    }

    #[test]
    fn paper_cases_are_distinct_valid_and_seeded() {
        let t1 = t1_cases(5);
        let t2 = t2_cases(5);
        assert_eq!((t1.len(), t2.len()), (13, 3));
        for needle in ["eq1", "eq2", "eq3", "eq4", "eq5", "urn asymptote", "kBT/D"] {
            assert!(t1.iter().any(|c| c.label.contains(needle)), "{needle}");
        }
        assert!(t2.iter().all(|c| c.paper_secs.is_none()));
        let all: Vec<&PaperCase> = t1.iter().chain(&t2).collect();
        for (i, c) in all.iter().enumerate() {
            c.config.validate().unwrap();
            assert_eq!(c.config.seed, 5);
            assert!(all[..i].iter().all(|o| o.label != c.label), "{}", c.label);
        }
        let disks: Vec<u32> = t2.iter().map(|c| c.config.disks).collect();
        assert_eq!(disks, [5, 10, 20]);
    }

    #[test]
    fn master_seed_changes_everything() {
        let a = fig2_panel(Fig2Panel::A, 1)[0].points[0].config.seed;
        let b = fig2_panel(Fig2Panel::A, 2)[0].points[0].config.seed;
        assert_ne!(a, b);
    }
}
