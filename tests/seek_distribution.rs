//! Fidelity of the seek model: the simulator's measured seek-distance
//! distribution under the no-prefetch baseline must match the Kwan–Baer
//! closed form the paper builds on (`P(x=0) = 1/k`,
//! `P(x=i) = 2(k−i)/k²`).

use pm_core::{MergeConfig, MergeSim, NullSink, ScenarioBuilder, UniformDepletion};
use pm_disk::{DiskArray, DiskId};
use pm_sim::SimRng;

/// Replays the baseline merge and returns the empirical pmf over
/// run-width moves, measured directly from the per-request seek distances.
fn measured_move_pmf(k: u32, seed: u64) -> Vec<f64> {
    // Reconstruct the per-access seek distances by running the same
    // access pattern against a standalone disk: contiguous runs, uniform
    // random run choice, one block per access, each run's pointer
    // advancing independently — the Kwan–Baer setting.
    let run_blocks = 1000u64;
    let blocks_per_cyl = 64.0;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut array = DiskArray::new(
        1,
        pm_disk::DiskSpec::paper(),
        pm_disk::QueueDiscipline::Fifo,
        seed,
    );
    let mut next_block = vec![0u64; k as usize];
    let mut counts = vec![0u64; k as usize];
    let mut now = pm_sim::SimTime::ZERO;
    let mut last_cyl: Option<f64> = None;
    let accesses = 60_000usize;
    for i in 0..accesses {
        let r = rng.index(k as usize);
        let lba = r as u64 * run_blocks + (next_block[r] % run_blocks);
        next_block[r] += 1;
        let (_, started) = array.submit(
            now,
            pm_disk::DiskRequest {
                disk: DiskId(0),
                start: pm_disk::BlockAddr(lba),
                len: 1,
                sequential_hint: false,
                tag: i as u64,
            },
            &mut NullSink,
        );
        let s = started.expect("serial access");
        now = s.completion_at;
        array.complete(now, DiskId(0), &mut NullSink);
        let cyl = lba as f64 / blocks_per_cyl;
        if let Some(prev) = last_cyl {
            // Convert cylinder distance back to run-width moves.
            let moves = ((cyl - prev).abs() / (run_blocks as f64 / blocks_per_cyl)).round();
            counts[(moves as usize).min(k as usize - 1)] += 1;
        }
        last_cyl = Some(cyl);
    }
    let total: u64 = counts.iter().sum();
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

#[test]
fn seek_moves_match_kwan_baer_pmf() {
    let k = 25u32;
    let pmf = measured_move_pmf(k, 17);
    for i in 0..k {
        let expected = pm_analysis::seek::move_pmf(k, i);
        let got = pmf[i as usize];
        assert!(
            (got - expected).abs() < 0.01,
            "move {i}: measured {got:.4} vs Kwan-Baer {expected:.4}"
        );
    }
    // The empirical mean matches E[x] = k/3 - 1/(3k).
    let mean: f64 = pmf.iter().enumerate().map(|(i, &p)| i as f64 * p).sum();
    let expected = pm_analysis::seek::expected_moves(k);
    assert!(
        (mean - expected).abs() / expected < 0.02,
        "mean {mean:.3} vs {expected:.3}"
    );
}

#[test]
fn simulator_seek_totals_match_the_formulas_seek_term() {
    // The eq-1 seek term alone: m·(k/3)·S per access. Compare against the
    // simulator's aggregated seek time for the single-disk baseline.
    let k = 25u32;
    let cfg = ScenarioBuilder::new(k, 1).build().unwrap();
    let report = MergeSim::new(MergeConfig { seed: 23, ..cfg })
        .unwrap()
        .run(&mut UniformDepletion);
    let accesses = report.disk_requests as f64;
    let measured_ms = report.seek_total.as_millis_f64() / accesses;
    let expected_ms = 15.625 * (f64::from(k) / 3.0) * 0.03;
    assert!(
        (measured_ms - expected_ms).abs() / expected_ms < 0.03,
        "per-access seek {measured_ms:.3} ms vs {expected_ms:.3} ms"
    );
}
