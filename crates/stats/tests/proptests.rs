//! Property-based tests of the statistics toolkit.

use proptest::prelude::*;

use pm_stats::{ConfidenceInterval, OnlineStats, TimeWeighted};

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, 1..200)
}

proptest! {
    /// Welford matches the naive two-pass algorithm.
    #[test]
    fn online_stats_match_two_pass(values in finite_samples()) {
        let s = OnlineStats::from_slice(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.population_variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        prop_assert_eq!(s.min(), values.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merging two accumulators equals accumulating the concatenation.
    #[test]
    fn merge_is_concatenation(a in finite_samples(), b in finite_samples()) {
        let mut merged = OnlineStats::from_slice(&a);
        merged.merge(&OnlineStats::from_slice(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let direct = OnlineStats::from_slice(&all);
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert!((merged.mean() - direct.mean()).abs() <= 1e-6 * (1.0 + direct.mean().abs()));
        prop_assert!(
            (merged.population_variance() - direct.population_variance()).abs()
                <= 1e-4 * (1.0 + direct.population_variance().abs())
        );
    }

    /// The sample mean always lies inside its own confidence interval, and
    /// the interval widens with confidence.
    #[test]
    fn confidence_interval_sanity(values in prop::collection::vec(-1.0e3f64..1.0e3, 2..60)) {
        let ci90 = ConfidenceInterval::from_samples(&values, 0.90);
        let ci99 = ConfidenceInterval::from_samples(&values, 0.99);
        prop_assert!(ci90.contains(ci90.mean));
        prop_assert!(ci99.half_width >= ci90.half_width);
        prop_assert!(ci90.half_width >= 0.0);
    }

    /// A time-weighted average is bracketed by the extreme recorded values.
    #[test]
    fn time_weighted_average_is_bracketed(
        steps in prop::collection::vec((0.0f64..100.0, -50.0f64..50.0), 1..50),
        tail in 0.001f64..100.0,
    ) {
        let mut times: Vec<f64> = steps.iter().map(|&(dt, _)| dt).collect();
        // Build a non-decreasing time sequence from the deltas.
        let mut acc = 0.0;
        for t in &mut times {
            acc += *t;
            *t = acc;
        }
        let mut tw = TimeWeighted::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (t, &(_, v)) in times.iter().zip(steps.iter()) {
            tw.record(*t, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let end = times.last().unwrap() + tail;
        let avg = tw.average_until(end).unwrap();
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} outside [{lo}, {hi}]");
    }
}
