//! Shape tests for the reproduced figures: without matching absolute
//! numbers point-by-point, each figure must exhibit the qualitative
//! structure the paper reports — who wins, what saturates, where the
//! orderings lie.

use pm_core::run_trials;
use pm_workload::paper::{cache_sweep, fig2_panel, fig3_cpu_sweep, CachePanel, Fig2Panel};
use pm_workload::Sweep;

const TRIALS: u32 = 2;

/// Runs a thinned version of a sweep (first, middle, last points).
fn run_thin(sweep: &Sweep) -> Vec<(f64, f64, Option<f64>)> {
    let idx = [0, sweep.points.len() / 2, sweep.points.len() - 1];
    idx.iter()
        .map(|&i| {
            let p = &sweep.points[i];
            let s = run_trials(&p.config, TRIALS).expect("valid");
            (p.x, s.mean_total_secs, s.mean_success_ratio)
        })
        .collect()
}

#[test]
fn fig2a_orderings_hold() {
    let sweeps = fig2_panel(Fig2Panel::A, 11);
    let inter5 = run_thin(&sweeps[0]);
    let intra5 = run_thin(&sweeps[1]);
    let intra1 = run_thin(&sweeps[2]);
    for ((i5, d5), d1) in inter5.iter().zip(&intra5).zip(&intra1) {
        // At every N: inter-run (5 disks) <= intra-run (5 disks) <= 1 disk.
        assert!(
            i5.1 <= d5.1 * 1.02,
            "N={}: inter {} vs intra5 {}",
            i5.0,
            i5.1,
            d5.1
        );
        assert!(
            d5.1 < d1.1,
            "N={}: intra5 {} vs intra1 {}",
            d5.0,
            d5.1,
            d1.1
        );
    }
    // Time decreases with N for each curve.
    for curve in [&inter5, &intra5, &intra1] {
        assert!(curve[0].1 > curve[2].1, "time must fall with N: {curve:?}");
    }
}

#[test]
fn fig2b_more_disks_help_inter_run() {
    let sweeps = fig2_panel(Fig2Panel::B, 12);
    let inter10 = run_thin(&sweeps[0]);
    let inter5 = run_thin(&sweeps[1]);
    // At large N, 10 disks beat 5 disks for the same k.
    let last10 = inter10.last().unwrap();
    let last5 = inter5.last().unwrap();
    assert!(
        last10.1 < last5.1,
        "10 disks {} vs 5 disks {}",
        last10.1,
        last5.1
    );
}

#[test]
fn fig3_sync_hierarchy() {
    let sweeps = fig3_cpu_sweep(13);
    // Curves: inter-unsync, inter-sync, intra-unsync, intra-sync.
    let results: Vec<Vec<(f64, f64, Option<f64>)>> = sweeps.iter().map(run_thin).collect();
    for (((iu, is_), du), ds) in results[0]
        .iter()
        .zip(&results[1])
        .zip(&results[2])
        .zip(&results[3])
    {
        let inter_unsync = iu.1;
        let inter_sync = is_.1;
        let intra_unsync = du.1;
        let intra_sync = ds.1;
        // The paper's figure 3.3 ordering at every CPU speed:
        assert!(inter_unsync <= inter_sync * 1.02);
        assert!(
            inter_sync < intra_unsync * 1.25,
            "inter sync should be competitive"
        );
        assert!(intra_unsync < intra_sync);
        // Inter-run (either mode) beats intra-run across the whole range.
        assert!(inter_unsync < intra_unsync);
    }
    // Total time grows with CPU cost for the I/O-efficient strategy.
    assert!(results[0][2].1 > results[0][0].1);
}

#[test]
fn fig5_time_falls_and_saturates_with_cache() {
    for sweep in cache_sweep(CachePanel::K25D5, 14) {
        let pts = run_thin(&sweep);
        // More cache never hurts (tolerate 3% noise).
        assert!(pts[1].1 <= pts[0].1 * 1.03, "{}: {:?}", sweep.label, pts);
        assert!(pts[2].1 <= pts[1].1 * 1.03, "{}: {:?}", sweep.label, pts);
        // The minimum-cache point is much slower than the asymptote.
        assert!(
            pts[0].1 > pts[2].1 * 1.15,
            "{}: no cache effect? {:?}",
            sweep.label,
            pts
        );
    }
}

#[test]
fn fig6_success_ratio_rises_to_one() {
    for sweep in cache_sweep(CachePanel::K25D5, 15) {
        let pts = run_thin(&sweep);
        let r0 = pts[0].2.expect("inter-run reports ratios");
        let r2 = pts[2].2.expect("inter-run reports ratios");
        assert!(r0 < 0.5, "{}: minimum cache ratio {r0}", sweep.label);
        assert!(r2 > 0.9, "{}: max cache ratio {r2}", sweep.label);
        assert!(r2 > r0);
    }
}

#[test]
fn fig5_optimal_n_depends_on_cache() {
    // At a small cache, shallow prefetching wins; at a large cache, deep
    // prefetching wins — the paper's central trade-off.
    let sweeps = cache_sweep(CachePanel::K25D5, 16);
    let at = |sweep: &Sweep, cache: f64| {
        let p = sweep
            .points
            .iter()
            .min_by(|a, b| (a.x - cache).abs().total_cmp(&(b.x - cache).abs()))
            .unwrap();
        run_trials(&p.config, TRIALS).unwrap().mean_total_secs
    };
    // N = 5 vs N = 10 at a 400-block cache: the shallower depth wins
    // (N = 10's success ratio is still near zero there).
    let n5_small = at(&sweeps[1], 400.0);
    let n10_small = at(&sweeps[2], 400.0);
    assert!(
        n5_small < n10_small,
        "small cache: N=5 {n5_small} vs N=10 {n10_small}"
    );
    // At 1200 blocks: the deeper depth wins.
    let n5_big = at(&sweeps[1], 1200.0);
    let n10_big = at(&sweeps[2], 1200.0);
    assert!(
        n10_big < n5_big,
        "big cache: N=10 {n10_big} vs N=5 {n5_big}"
    );
}
