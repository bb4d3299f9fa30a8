//! End-to-end validation: the simulator must reproduce the paper's
//! closed-form predictions (eqs. 1–5) and quoted simulation results at the
//! paper's full scale (25/50 runs × 1000 blocks).
//!
//! Tolerances: the equations are exact for the no-overlap strategies, so we
//! allow a few percent (finite-sample noise plus the paper's own
//! `k/3` seek approximation); the eq. (5) inter-run estimate is itself a
//! "crude approximation" (mean instead of max of seeks), so it gets a wider
//! band.

use pm_analysis::{bounds, equations, ModelParams};
use pm_core::{run_trials, MergeConfig, ScenarioBuilder, SyncMode};
use pm_stats::relative_error;

const TRIALS: u32 = 3;

fn params() -> ModelParams {
    ModelParams::paper()
}

fn sim_secs(cfg: &MergeConfig) -> f64 {
    run_trials(cfg, TRIALS)
        .expect("valid config")
        .mean_total_secs
}

#[test]
fn eq1_single_disk_no_prefetch_k25() {
    let sim = sim_secs(&ScenarioBuilder::new(25, 1).build().unwrap());
    let analytic = equations::total_seconds(
        &params(),
        25,
        equations::tau_single_no_prefetch(&params(), 25),
    );
    // Paper: estimated 360.0 s, simulated ≈ 361 s.
    assert!(
        relative_error(sim, analytic) < 0.02,
        "sim={sim:.1}s analytic={analytic:.1}s"
    );
}

#[test]
fn eq1_single_disk_no_prefetch_k50() {
    let sim = sim_secs(&ScenarioBuilder::new(50, 1).build().unwrap());
    let analytic = equations::total_seconds(
        &params(),
        50,
        equations::tau_single_no_prefetch(&params(), 50),
    );
    // Paper: ≈ 915 s.
    assert!(
        relative_error(sim, analytic) < 0.02,
        "sim={sim:.1}s analytic={analytic:.1}s"
    );
}

#[test]
fn eq2_single_disk_intra_run() {
    for (k, n, _paper_secs) in [(25u32, 16u32, 73.1), (25, 30, 64.2), (50, 16, 158.4)] {
        let sim = sim_secs(&ScenarioBuilder::new(k, 1).intra(n).build().unwrap());
        let analytic =
            equations::total_seconds(&params(), k, equations::tau_single_intra(&params(), k, n));
        assert!(
            relative_error(sim, analytic) < 0.03,
            "k={k} N={n}: sim={sim:.1}s analytic={analytic:.1}s"
        );
    }
}

#[test]
fn eq3_multi_disk_no_prefetch() {
    for (k, d) in [(25u32, 5u32), (50, 10)] {
        let sim = sim_secs(&ScenarioBuilder::new(k, d).build().unwrap());
        let analytic = equations::total_seconds(
            &params(),
            k,
            equations::tau_multi_no_prefetch(&params(), k, d),
        );
        // Paper: 281.9 s (k=25, D=5) and 563.5 s (k=50, D=10).
        assert!(
            relative_error(sim, analytic) < 0.02,
            "k={k} D={d}: sim={sim:.1}s analytic={analytic:.1}s"
        );
    }
}

#[test]
fn eq4_multi_disk_intra_synchronized() {
    for (k, d, n) in [(25u32, 5u32, 30u32), (25, 5, 10)] {
        let mut cfg = ScenarioBuilder::new(k, d).intra(n).build().unwrap();
        cfg.sync = SyncMode::Synchronized;
        let sim = sim_secs(&cfg);
        let analytic = equations::total_seconds(
            &params(),
            k,
            equations::tau_multi_intra_sync(&params(), k, d, n),
        );
        // Paper quotes 61.6 s for k=25, D=5, N=30.
        assert!(
            relative_error(sim, analytic) < 0.03,
            "k={k} D={d} N={n}: sim={sim:.1}s analytic={analytic:.1}s"
        );
    }
}

#[test]
fn eq5_inter_run_synchronized() {
    // k=25, D=5, N=10, cache large enough for success ratio ≈ 1.
    let mut cfg = ScenarioBuilder::new(25, 5)
        .inter(10)
        .cache_blocks(2000)
        .build()
        .unwrap();
    cfg.sync = SyncMode::Synchronized;
    let summary = run_trials(&cfg, TRIALS).unwrap();
    let sim = summary.mean_total_secs;
    let analytic = equations::total_seconds(
        &params(),
        25,
        equations::tau_inter_sync(&params(), 25, 5, 10),
    );
    // Paper: estimate 18.1 s, simulated ≈ 17.4 s. Eq. (5) approximates the
    // max of D seeks by the mean, so allow a wider band.
    assert!(
        relative_error(sim, analytic) < 0.10,
        "sim={sim:.1}s analytic={analytic:.1}s"
    );
    let ratio = summary.mean_success_ratio.unwrap();
    assert!(ratio > 0.98, "success ratio {ratio} should be ~1");
}

#[test]
fn urn_game_concurrency_of_unsync_intra() {
    // Unsynchronized intra-run prefetching at large N: measured disk
    // concurrency approaches the urn-game prediction (exact E[L]:
    // 2.51 for D=5).
    let cfg = ScenarioBuilder::new(25, 5).intra(30).build().unwrap();
    let summary = run_trials(&cfg, TRIALS).unwrap();
    let predicted = pm_analysis::urn::expected_concurrency(5);
    assert!(
        (summary.mean_concurrency - predicted).abs() < 0.5,
        "measured {:.2} vs urn prediction {predicted:.2}",
        summary.mean_concurrency
    );
}

#[test]
fn unsync_intra_asymptotic_time() {
    // Paper: k=25, D=5, N=30 unsynchronized ≈ 28-29 s simulated (the
    // asymptotic estimate 24.9 s is not yet reached at N=30).
    let sim = sim_secs(&ScenarioBuilder::new(25, 5).intra(30).build().unwrap());
    let asymptotic = bounds::intra_unsync_asymptotic_secs(&params(), 25, 5, 30);
    assert!(
        sim > asymptotic,
        "sim={sim:.1}s must exceed asymptote {asymptotic:.1}s"
    );
    assert!(
        sim < asymptotic * 1.35,
        "sim={sim:.1}s too far above asymptote {asymptotic:.1}s"
    );
}

#[test]
fn inter_run_approaches_transfer_bound_with_big_cache() {
    // k=25, D=5, N=50, huge cache: the paper reports ≈ 12.2 s against the
    // 10.8 s lower bound.
    let cfg = ScenarioBuilder::new(25, 5)
        .inter(50)
        .cache_blocks(4000)
        .build()
        .unwrap();
    let sim = sim_secs(&cfg);
    let bound = bounds::multi_disk_lower_bound_secs(&params(), 25, 5);
    assert!(sim >= bound, "sim={sim:.1}s below bound {bound:.1}s");
    assert!(
        sim < bound * 1.25,
        "sim={sim:.1}s should be within 25% of the bound {bound:.1}s"
    );
}

#[test]
fn superlinear_speedup_over_single_disk_baseline() {
    // The headline claim: prefetching with D disks yields superlinear
    // speedup over the single-disk demand baseline (seek reduction +
    // latency amortization + concurrency).
    let baseline = sim_secs(&ScenarioBuilder::new(25, 1).build().unwrap());
    let inter = sim_secs(
        &ScenarioBuilder::new(25, 5)
            .inter(10)
            .cache_blocks(1200)
            .build()
            .unwrap(),
    );
    let speedup = baseline / inter;
    assert!(speedup > 5.0, "speedup {speedup:.1} should exceed D = 5");
}
