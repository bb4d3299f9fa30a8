//! Block-depletion models.
//!
//! The paper (following Kwan & Baer) replaces real merge data with a
//! *random depletion model*: at every step, the run whose leading block is
//! consumed next is chosen uniformly at random among the runs that still
//! have unmerged blocks. [`UniformDepletion`] implements that model.
//!
//! Two further models extend the study:
//!
//! * [`TraceDepletion`] replays a recorded depletion order — `pm-extsort`
//!   produces such traces from a *real* multiway merge, which lets the A3
//!   experiment test how well the random model predicts data-driven
//!   behaviour.
//! * [`SkewedDepletion`] draws runs with non-uniform (power-law) weights,
//!   modeling merges whose inputs contribute at very different rates.

use pm_cache::RunId;
use pm_sim::SimRng;

/// Chooses which live run's leading block is depleted next.
pub trait DepletionModel {
    /// Returns the run to deplete. `live` is the non-empty set of runs
    /// that still have undepleted blocks; implementations must return one
    /// of its elements.
    fn next_run(&mut self, rng: &mut SimRng, live: &[RunId]) -> RunId;
}

/// The paper's model: uniform over live runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformDepletion;

impl DepletionModel for UniformDepletion {
    fn next_run(&mut self, rng: &mut SimRng, live: &[RunId]) -> RunId {
        *rng.choose(live)
    }
}

/// Replays a pre-recorded depletion sequence.
///
/// The trace must be *consistent*: it must deplete each run exactly as many
/// times as the run has blocks. `pm-extsort` guarantees this for traces it
/// extracts from real merges.
#[derive(Debug, Clone)]
pub struct TraceDepletion {
    trace: Vec<RunId>,
    pos: usize,
}

impl TraceDepletion {
    /// Wraps a recorded sequence of run depletions.
    #[must_use]
    pub fn new(trace: Vec<RunId>) -> Self {
        TraceDepletion { trace, pos: 0 }
    }

    /// Length of the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// `true` if the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

impl DepletionModel for TraceDepletion {
    fn next_run(&mut self, _rng: &mut SimRng, live: &[RunId]) -> RunId {
        let run = *self
            .trace
            .get(self.pos)
            .expect("depletion trace exhausted before the merge finished");
        self.pos += 1;
        assert!(
            live.contains(&run),
            "trace depletes run {run:?} which has no blocks left"
        );
        run
    }
}

/// Draws live runs with weights `1 / (r + 1)^theta` — a Zipf-like skew in
/// which low-numbered runs deplete faster. `theta = 0` reduces to the
/// uniform model.
///
/// Weights are memoized per run id and the total weight is cached between
/// draws instead of re-summed over all live runs on every call. The live
/// set only changes when a run dies (its length shrinks by one), so the
/// cache is refreshed exactly then — by re-summing the memoized weights in
/// the caller's current live order, which reproduces the draw-by-draw
/// re-summation of the naive implementation bit-for-bit (floating-point
/// summation order included). A regression test pins the draw sequence
/// against the naive reference.
#[derive(Debug, Clone)]
pub struct SkewedDepletion {
    theta: f64,
    /// `weights[r] = (r + 1)^-theta`, extended lazily as run ids appear.
    weights: Vec<f64>,
    /// Cached sum of live weights, valid while `live.len() == cached_len`.
    total: f64,
    cached_len: usize,
}

impl SkewedDepletion {
    /// Creates a skewed model with exponent `theta ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite.
    #[must_use]
    pub fn new(theta: f64) -> Self {
        assert!(theta.is_finite() && theta >= 0.0, "theta must be >= 0");
        SkewedDepletion {
            theta,
            weights: Vec::new(),
            total: 0.0,
            cached_len: usize::MAX,
        }
    }

    /// Ensures every run in `live` has a memoized weight.
    fn extend_weights(&mut self, live: &[RunId]) {
        let max_id = live.iter().map(|r| r.0 as usize).max().unwrap_or(0);
        if max_id >= self.weights.len() {
            for id in self.weights.len()..=max_id {
                self.weights.push((id as f64 + 1.0).powf(-self.theta));
            }
        }
    }
}

impl DepletionModel for SkewedDepletion {
    fn next_run(&mut self, rng: &mut SimRng, live: &[RunId]) -> RunId {
        if live.len() != self.cached_len {
            self.extend_weights(live);
            // Summed in the caller's live order so the cached total carries
            // the exact bits a per-draw re-summation would produce.
            self.total = live.iter().map(|r| self.weights[r.0 as usize]).sum();
            self.cached_len = live.len();
        }
        debug_assert_eq!(
            self.total,
            live.iter().map(|r| self.weights[r.0 as usize]).sum::<f64>(),
            "cached total is stale: the live set changed without a length change"
        );
        let mut target = rng.uniform_f64() * self.total;
        for &r in live {
            target -= self.weights[r.0 as usize];
            if target <= 0.0 {
                return r;
            }
        }
        // Floating-point slack: fall back to the last live run.
        *live.last().expect("live set must be non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(n: u32) -> Vec<RunId> {
        (0..n).map(RunId).collect()
    }

    #[test]
    fn uniform_covers_all_runs() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut model = UniformDepletion;
        let runs = live(10);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[model.next_run(&mut rng, &runs).0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut model = UniformDepletion;
        let runs = live(5);
        let mut counts = [0u32; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[model.next_run(&mut rng, &runs).0 as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 5.0;
            assert!(
                (f64::from(c) - expected).abs() < 0.05 * expected,
                "{counts:?}"
            );
        }
    }

    #[test]
    fn trace_replays_in_order() {
        let mut rng = SimRng::seed_from_u64(3);
        let seq = vec![RunId(2), RunId(0), RunId(2), RunId(1)];
        let mut model = TraceDepletion::new(seq.clone());
        assert_eq!(model.len(), 4);
        let runs = live(3);
        for want in seq {
            assert_eq!(model.next_run(&mut rng, &runs), want);
        }
    }

    #[test]
    #[should_panic(expected = "trace exhausted")]
    fn trace_exhaustion_panics() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut model = TraceDepletion::new(vec![RunId(0)]);
        let runs = live(1);
        model.next_run(&mut rng, &runs);
        model.next_run(&mut rng, &runs);
    }

    #[test]
    #[should_panic(expected = "no blocks left")]
    fn trace_depleting_dead_run_panics() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut model = TraceDepletion::new(vec![RunId(7)]);
        let runs = live(3);
        model.next_run(&mut rng, &runs);
    }

    #[test]
    fn skewed_prefers_low_runs() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut model = SkewedDepletion::new(1.5);
        let runs = live(8);
        let mut counts = [0u32; 8];
        for _ in 0..20_000 {
            counts[model.next_run(&mut rng, &runs).0 as usize] += 1;
        }
        assert!(counts[0] > counts[3]);
        assert!(counts[3] > counts[7]);
    }

    #[test]
    fn skew_zero_is_uniform() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut model = SkewedDepletion::new(0.0);
        let runs = live(4);
        let mut counts = [0u32; 4];
        let n = 40_000;
        for _ in 0..n {
            counts[model.next_run(&mut rng, &runs).0 as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 4.0;
            assert!(
                (f64::from(c) - expected).abs() < 0.05 * expected,
                "{counts:?}"
            );
        }
    }

    /// The naive `SkewedDepletion` this module used to ship: re-derives
    /// every weight and the total with `powf` on each draw. The cached
    /// implementation must reproduce its draw sequence bit-for-bit.
    struct NaiveSkewed {
        theta: f64,
    }

    impl DepletionModel for NaiveSkewed {
        fn next_run(&mut self, rng: &mut SimRng, live: &[RunId]) -> RunId {
            let total: f64 = live
                .iter()
                .map(|r| (f64::from(r.0) + 1.0).powf(-self.theta))
                .sum();
            let mut target = rng.uniform_f64() * total;
            for &r in live {
                target -= (f64::from(r.0) + 1.0).powf(-self.theta);
                if target <= 0.0 {
                    return r;
                }
            }
            *live.last().expect("live set must be non-empty")
        }
    }

    #[test]
    fn cached_skewed_matches_naive_draw_sequence() {
        for theta in [0.0, 0.7, 1.5, 3.0] {
            let mut cached = SkewedDepletion::new(theta);
            let mut naive = NaiveSkewed { theta };
            let mut rng_a = SimRng::seed_from_u64(1992);
            let mut rng_b = SimRng::seed_from_u64(1992);
            // Deplete a 12-run merge to exhaustion, killing runs as their
            // blocks drain, exactly as the simulator does (swap_remove
            // reorders the live slice, exercising order-sensitive sums).
            let mut blocks = [40u32; 12];
            let mut live: Vec<RunId> = (0..12).map(RunId).collect();
            while !live.is_empty() {
                let a = cached.next_run(&mut rng_a, &live);
                let b = naive.next_run(&mut rng_b, &live);
                assert_eq!(a, b, "theta={theta} live={live:?}");
                blocks[a.0 as usize] -= 1;
                if blocks[a.0 as usize] == 0 {
                    let idx = live.iter().position(|&r| r == a).unwrap();
                    live.swap_remove(idx);
                }
            }
        }
    }

    #[test]
    fn skewed_only_returns_live_runs() {
        let mut rng = SimRng::seed_from_u64(8);
        let mut model = SkewedDepletion::new(2.0);
        let runs = vec![RunId(3), RunId(9)];
        for _ in 0..200 {
            let r = model.next_run(&mut rng, &runs);
            assert!(runs.contains(&r));
        }
    }
}
