//! The paper's experiment families, one builder per figure.
//!
//! All builders return [`Sweep`]s whose points are ready-to-run
//! [`MergeConfig`](pm_core::MergeConfig)s. Design choices the paper leaves implicit are made
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

use pm_core::{PrefetchStrategy, ScenarioBuilder, SimDuration, SyncMode};

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
    Sweep::build(label, "N (blocks fetched per run)", ns.iter().map(|&n| f64::from(n)), move |x| {
        let n = x as u32;
        let mut cfg = ScenarioBuilder::new(k, d).intra(n).build().unwrap();
        cfg.seed = point_seed(master, &owned, u64::from(n));
        cfg
    })
}

fn inter_sweep(label: &str, k: u32, d: u32, ns: &[u32], master: u64) -> Sweep {
    let owned = label.to_string();
    Sweep::build(label, "N (blocks fetched per run)", ns.iter().map(|&n| f64::from(n)), move |x| {
        let n = x as u32;
        let mut cfg = ScenarioBuilder::new(k, d).inter(n).cache_blocks(ample_cache(k, n)).build().unwrap();
        cfg.seed = point_seed(master, &owned, u64::from(n));
        cfg
    })
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
            inter_sweep("All Disks One Run (25 runs, 5 disks)", 25, 5, &full, master_seed),
            intra_sweep("Demand Run Only (25 runs, 5 disks)", 25, 5, &full, master_seed),
            intra_sweep("Demand Run Only (25 runs, 1 disk)", 25, 1, &full, master_seed),
        ],
        Fig2Panel::B => vec![
            inter_sweep("All Disks One Run (50 runs, 10 disks)", 50, 10, &full, master_seed),
            inter_sweep("All Disks One Run (50 runs, 5 disks)", 50, 5, &full, master_seed),
            intra_sweep("Demand Run Only (50 runs, 10 disks)", 50, 10, &full, master_seed),
            intra_sweep("Demand Run Only (50 runs, 1 disk)", 50, 1, &full, master_seed),
        ],
        Fig2Panel::C => vec![
            inter_sweep("All Disks One Run (25 runs, 5 disks)", 25, 5, &expanded, master_seed),
            inter_sweep("All Disks One Run (50 runs, 5 disks)", 50, 5, &expanded, master_seed),
            intra_sweep("Demand Run Only (25 runs, 5 disks)", 25, 5, &expanded, master_seed),
            intra_sweep("Demand Run Only (50 runs, 5 disks)", 50, 5, &expanded, master_seed),
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
        Sweep::build(label, "CPU time to merge one block (ms)", cpu_ms.iter().copied(), move |x| {
            let mut cfg = ScenarioBuilder::new(k, d).build().unwrap();
            cfg.strategy = strategy;
            cfg.sync = sync;
            cfg.cache_blocks = cache;
            cfg.cpu_per_block = SimDuration::from_millis_f64(x);
            cfg.seed = point_seed(master_seed, label, (x * 1000.0) as u64);
            cfg
        })
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
                let mut cfg = ScenarioBuilder::new(k, d).inter(n).cache_blocks(x as u32).build().unwrap();
                cfg.seed = point_seed(master_seed, &owned, x as u64);
                cfg
            })
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
        assert!(sweeps.iter().any(|s| s.points[0].config.sync == SyncMode::Synchronized));
        assert!(sweeps.iter().any(|s| s.points[0].config.sync == SyncMode::Unsynchronized));
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
    fn master_seed_changes_everything() {
        let a = fig2_panel(Fig2Panel::A, 1)[0].points[0].config.seed;
        let b = fig2_panel(Fig2Panel::A, 2)[0].points[0].config.seed;
        assert_ne!(a, b);
    }
}
