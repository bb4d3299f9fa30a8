//! Equations (1)–(5): average per-block I/O time `τ` for each strategy.
//!
//! For the strategies without disk overlap (everything synchronized, plus
//! the single-disk cases), the total merge time for an infinitely fast CPU
//! is simply `τ × (total blocks)`. Each function returns `τ` in
//! milliseconds; the `total_*` companions return seconds.

use crate::ModelParams;

/// Eq. (1) — single disk, no prefetching (the Kwan–Baer baseline):
/// `τ = m·(k/3)·S + R + T`.
#[must_use]
pub fn tau_single_no_prefetch(p: &ModelParams, k: u32) -> f64 {
    p.run_cylinders * (f64::from(k) / 3.0) * p.seek_ms_per_cyl + p.avg_latency_ms + p.transfer_ms
}

/// Eq. (2) — single disk, intra-run prefetching of `N` blocks:
/// `τ = m·(k/3N)·S + R/N + T`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn tau_single_intra(p: &ModelParams, k: u32, n: u32) -> f64 {
    assert!(n > 0, "prefetch depth must be positive");
    let nf = f64::from(n);
    p.run_cylinders * (f64::from(k) / (3.0 * nf)) * p.seek_ms_per_cyl
        + p.avg_latency_ms / nf
        + p.transfer_ms
}

/// Eq. (3) — `D` disks, no prefetching:
/// `τ = m·(k/3D)·S + R + T`.
///
/// # Panics
///
/// Panics if `d == 0`.
#[must_use]
pub fn tau_multi_no_prefetch(p: &ModelParams, k: u32, d: u32) -> f64 {
    assert!(d > 0, "need at least one disk");
    p.run_cylinders * (f64::from(k) / (3.0 * f64::from(d))) * p.seek_ms_per_cyl
        + p.avg_latency_ms
        + p.transfer_ms
}

/// Eq. (4) — `D` disks, intra-run prefetching of `N` blocks, synchronized:
/// `τ = m·(k/3ND)·S + R/N + T`.
///
/// # Panics
///
/// Panics if `n == 0` or `d == 0`.
#[must_use]
pub fn tau_multi_intra_sync(p: &ModelParams, k: u32, d: u32, n: u32) -> f64 {
    assert!(n > 0, "prefetch depth must be positive");
    assert!(d > 0, "need at least one disk");
    let nf = f64::from(n);
    p.run_cylinders * (f64::from(k) / (3.0 * nf * f64::from(d))) * p.seek_ms_per_cyl
        + p.avg_latency_ms / nf
        + p.transfer_ms
}

/// Eq. (5) — `D` disks, inter-run prefetching of `N` blocks per disk,
/// synchronized: `τ = m·k·S/(3ND²) + 2R/(N(D+1)) + T/D`.
///
/// The middle term is the expected *maximum* of `D` independent uniform
/// latencies, `2R·D/(D+1)`, amortized over the `N·D` blocks fetched; the
/// paper approximates the seek term by its expectation.
///
/// # Panics
///
/// Panics if `n == 0` or `d == 0`.
#[must_use]
pub fn tau_inter_sync(p: &ModelParams, k: u32, d: u32, n: u32) -> f64 {
    assert!(n > 0, "prefetch depth must be positive");
    assert!(d > 0, "need at least one disk");
    let nf = f64::from(n);
    let df = f64::from(d);
    p.run_cylinders * f64::from(k) * p.seek_ms_per_cyl / (3.0 * nf * df * df)
        + 2.0 * p.avg_latency_ms / (nf * (df + 1.0))
        + p.transfer_ms / df
}

/// Extension — `D` disks, **block-striped** layout, intra-run prefetching
/// of `N` blocks, synchronized:
/// `τ = m·k·S/(3ND) + 2R·D/((D+1)·N) + ⌈N/D⌉·T/N`.
///
/// Every operation drives all `D` disks (each reads `⌈N/D⌉` of the run's
/// blocks in parallel) and completes when the slowest finishes, so each
/// operation pays the *maximum* of `D` uniform latencies, `2R·D/(D+1)`,
/// amortized over only `N` blocks — inter-run prefetching (eq. 5)
/// amortizes the same maximum over `N·D` blocks, which is why it wins the
/// latency term. Each disk holds a `1/D` share of every run, so the seek
/// term shrinks by `D` like eq. (4).
///
/// # Panics
///
/// Panics if `n == 0` or `d == 0`.
#[must_use]
pub fn tau_striped_intra_sync(p: &ModelParams, k: u32, d: u32, n: u32) -> f64 {
    assert!(n > 0, "prefetch depth must be positive");
    assert!(d > 0, "need at least one disk");
    let nf = f64::from(n);
    let df = f64::from(d);
    p.run_cylinders * f64::from(k) * p.seek_ms_per_cyl / (3.0 * nf * df)
        + 2.0 * p.avg_latency_ms * df / ((df + 1.0) * nf)
        + f64::from(n.div_ceil(d)) * p.transfer_ms / nf
}

/// Converts a per-block time `τ` (ms) into a total merge time in seconds
/// for `k` runs of `p.run_blocks` blocks.
#[must_use]
pub fn total_seconds(p: &ModelParams, k: u32, tau_ms: f64) -> f64 {
    tau_ms * p.total_blocks(k) as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::paper()
    }

    // The expected values below are the numbers quoted in the paper's text
    // (reconstructed from the OCR as documented in DESIGN.md §2).

    #[test]
    fn eq1_paper_values() {
        // k = 25: τ = 15.625·(25/3)·0.03 + 8.33 + 2.16 = 14.396 ms
        let tau25 = tau_single_no_prefetch(&p(), 25);
        assert!((tau25 - 14.3958).abs() < 1e-3, "tau25={tau25}");
        // Total ≈ 360 s.
        let total25 = total_seconds(&p(), 25, tau25);
        assert!((total25 - 359.9).abs() < 0.5, "total25={total25}");

        // k = 50: τ ≈ 18.30 ms, total ≈ 915 s.
        let tau50 = tau_single_no_prefetch(&p(), 50);
        assert!((tau50 - 18.3021).abs() < 1e-3, "tau50={tau50}");
        let total50 = total_seconds(&p(), 50, tau50);
        assert!((total50 - 915.1).abs() < 1.0, "total50={total50}");
    }

    #[test]
    fn eq2_paper_values() {
        // k = 25, N = 16: total ≈ 73 s.
        let tau = tau_single_intra(&p(), 25, 16);
        let total = total_seconds(&p(), 25, tau);
        assert!((total - 73.1).abs() < 0.5, "total={total}");
        // k = 50, N = 16: total ≈ 158 s.
        let total50 = total_seconds(&p(), 50, tau_single_intra(&p(), 50, 16));
        assert!((total50 - 158.4).abs() < 1.0, "total50={total50}");
        // N = 30, k = 25: ≈ 64.2 s; k = 50: ≈ 134.9 s.
        let t25 = total_seconds(&p(), 25, tau_single_intra(&p(), 25, 30));
        assert!((t25 - 64.2).abs() < 0.3, "t25={t25}");
        let t50 = total_seconds(&p(), 50, tau_single_intra(&p(), 50, 30));
        assert!((t50 - 134.9).abs() < 0.5, "t50={t50}");
    }

    #[test]
    fn eq2_approaches_transfer_bound_as_n_grows() {
        let tau = tau_single_intra(&p(), 25, 10_000);
        assert!((tau - 2.16).abs() < 0.01);
    }

    #[test]
    fn eq3_paper_values() {
        // k = 25, D = 5: total ≈ 282 s.
        let total = total_seconds(&p(), 25, tau_multi_no_prefetch(&p(), 25, 5));
        assert!((total - 281.7).abs() < 0.5, "total={total}");
        // k = 50, D = 10: total ≈ 563.5 s.
        let total50 = total_seconds(&p(), 50, tau_multi_no_prefetch(&p(), 50, 10));
        assert!((total50 - 563.5).abs() < 1.0, "total50={total50}");
    }

    #[test]
    fn eq4_paper_values() {
        // k = 25, D = 5, N = 30: total ≈ 61.6 s.
        let total = total_seconds(&p(), 25, tau_multi_intra_sync(&p(), 25, 5, 30));
        assert!((total - 61.6).abs() < 0.3, "total={total}");
        // k = 25, D = 5, N = 10 also quoted (Fig. 3.3 anchor ≈ 64-65 s):
        let t10 = total_seconds(&p(), 25, tau_multi_intra_sync(&p(), 25, 5, 10));
        assert!(t10 > 61.0 && t10 < 80.0, "t10={t10}");
    }

    #[test]
    fn eq5_paper_values() {
        // k = 25, D = 5, N = 10: τ ≈ 0.725 ms, total ≈ 18.1 s.
        let tau = tau_inter_sync(&p(), 25, 5, 10);
        assert!((tau - 0.7254).abs() < 1e-3, "tau={tau}");
        let total = total_seconds(&p(), 25, tau);
        assert!((total - 18.1).abs() < 0.2, "total={total}");
    }

    #[test]
    fn equations_nest_consistently() {
        // Eq (2) with N = 1 reduces to eq (1); eq (4) with D = 1 to eq (2);
        // eq (3) with D = 1 to eq (1); eq (4) with N = 1 to eq (3).
        let pp = p();
        for k in [25u32, 50] {
            assert!((tau_single_intra(&pp, k, 1) - tau_single_no_prefetch(&pp, k)).abs() < 1e-12);
            assert!(
                (tau_multi_no_prefetch(&pp, k, 1) - tau_single_no_prefetch(&pp, k)).abs() < 1e-12
            );
            for n in [2u32, 10] {
                assert!(
                    (tau_multi_intra_sync(&pp, k, 1, n) - tau_single_intra(&pp, k, n)).abs()
                        < 1e-12
                );
            }
            for d in [2u32, 5] {
                assert!(
                    (tau_multi_intra_sync(&pp, k, d, 1) - tau_multi_no_prefetch(&pp, k, d)).abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn more_disks_and_deeper_prefetch_never_hurt() {
        let pp = p();
        assert!(tau_multi_no_prefetch(&pp, 25, 5) < tau_single_no_prefetch(&pp, 25));
        assert!(tau_multi_intra_sync(&pp, 25, 5, 10) < tau_multi_intra_sync(&pp, 25, 5, 5));
        assert!(tau_inter_sync(&pp, 25, 10, 10) < tau_inter_sync(&pp, 25, 5, 10));
    }

    #[test]
    fn striped_extension_behaviour() {
        let pp = p();
        // D = 1 striped degenerates to eq (2).
        for n in [1u32, 10] {
            assert!(
                (tau_striped_intra_sync(&pp, 25, 1, n) - tau_single_intra(&pp, 25, n)).abs()
                    < 1e-12
            );
        }
        // Striping beats concatenated intra-run at equal N (parallel
        // transfer) but loses to inter-run's latency amortization.
        let striped = tau_striped_intra_sync(&pp, 25, 5, 10);
        assert!(striped < tau_multi_intra_sync(&pp, 25, 5, 10));
        assert!(striped > tau_inter_sync(&pp, 25, 5, 10));
        // Large N approaches T/D.
        let tau_inf = tau_striped_intra_sync(&pp, 25, 5, 1000);
        assert!((tau_inf - 2.16 / 5.0).abs() < 0.05, "tau_inf={tau_inf}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_rejected() {
        let _ = tau_single_intra(&p(), 25, 0);
    }
}
