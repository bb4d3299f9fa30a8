//! The three metric primitives: counter, gauge, histogram.
//!
//! All hot-path operations are single atomic instructions (or a short CAS
//! loop for float gauge arithmetic) on pre-bound handles — no locks, no
//! allocation, no formatting. Aggregation is commutative by construction:
//! counters and histogram bucket counts are `u64` additions and the
//! histogram sum is accumulated in fixed-point nanounits, so totals are
//! identical regardless of the interleaving of recording threads. That is
//! what makes exposition output byte-identical across `--jobs` for
//! workloads whose *set* of observations is jobs-invariant.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-point scale for histogram sums: 1e9 units per 1.0 observed.
///
/// Nine fractional digits cover nanosecond resolution for the
/// seconds-valued durations this workspace records while leaving headroom
/// up to ~18.4e9 seconds of accumulated sum before saturation.
const SUM_SCALE: f64 = 1e9;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn inc_by(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A float-valued gauge that can move in either direction.
///
/// The value is stored as `f64` bits in an `AtomicU64`; `set` is a single
/// store and `add`/`inc`/`dec` are short CAS loops. Small-integer
/// arithmetic (queue depths counted by ±1) is exact in `f64`, so integer
/// gauges behave like integers.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (negative to subtract).
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of non-negative `f64` observations.
///
/// Bucket upper bounds are chosen at construction and never change; the
/// final `+Inf` bucket is implicit. Counts are kept per bucket
/// (non-cumulative) and the sum in saturating fixed-point nanounits, so
/// every `observe` is two relaxed atomic adds and concurrent recording
/// commutes exactly.
#[derive(Debug)]
pub struct Histogram {
    /// Finite upper bounds, strictly ascending.
    bounds: Vec<f64>,
    /// One slot per finite bound plus the trailing `+Inf` bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observations in fixed-point `SUM_SCALE` units.
    sum_fixed: AtomicU64,
}

impl Histogram {
    /// A histogram with the given finite bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        for pair in bounds.windows(2) {
            assert!(
                pair[0] < pair[1],
                "bucket bounds must be strictly ascending"
            );
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite (+Inf is implicit)"
        );
        let mut counts = Vec::with_capacity(bounds.len() + 1);
        counts.resize_with(bounds.len() + 1, AtomicU64::default);
        Histogram {
            bounds: bounds.to_vec(),
            counts,
            sum_fixed: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    ///
    /// Negative and NaN observations clamp into the first bucket with a
    /// zero sum contribution — callers record durations, which are never
    /// negative on a sane clock, and a poisoned sample must not poison the
    /// whole series.
    #[inline]
    pub fn observe(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        let mut idx = self.bounds.len();
        for (i, b) in self.bounds.iter().enumerate() {
            if v <= *b {
                idx = i;
                break;
            }
        }
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let fixed = (v * SUM_SCALE).round() as u64;
        // Saturate instead of wrapping: an overflowing sum freezes at max
        // rather than corrupting the series.
        let mut cur = self.sum_fixed.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(fixed);
            match self.sum_fixed.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The finite bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative counts per finite bound, the `+Inf` count, total count,
    /// and the observation sum.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(self.bounds.len());
        let mut running = 0u64;
        for (i, b) in self.bounds.iter().enumerate() {
            running += self.counts[i].load(Ordering::Relaxed);
            cumulative.push((*b, running));
        }
        let inf = running + self.counts[self.bounds.len()].load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: cumulative,
            count: inf,
            sum: self.sum_fixed.load(Ordering::Relaxed) as f64 / SUM_SCALE,
        }
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observations (fixed-point accumulated, so thread-order
    /// independent).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum_fixed.load(Ordering::Relaxed) as f64 / SUM_SCALE
    }
}

/// A point-in-time view of one histogram, cumulative per Prometheus
/// convention.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// `(upper_bound, cumulative_count)` per finite bound, ascending.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations (the implicit `+Inf` cumulative count).
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

/// `count` exponentially spaced bucket bounds: `start`, `start*factor`,
/// `start*factor^2`, …
///
/// Mirrors `prometheus_client`'s helper of the same name.
///
/// # Panics
///
/// Panics if `start <= 0`, `factor <= 1`, or `count == 0`.
#[must_use]
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0, "start must be positive");
    assert!(factor > 1.0, "factor must exceed 1");
    assert!(count > 0, "need at least one bucket");
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        bounds.push(b);
        b *= factor;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.inc_by(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(5.0);
        g.inc();
        g.dec();
        g.add(-2.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_places_observations() {
        let h = Histogram::new(&[0.1, 1.0, 10.0]);
        h.observe(0.05); // bucket 0
        h.observe(0.1); // le is inclusive: bucket 0
        h.observe(0.5); // bucket 1
        h.observe(100.0); // +Inf
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(0.1, 2), (1.0, 3), (10.0, 3)]);
        assert_eq!(s.count, 4);
        assert!((s.sum - 100.65).abs() < 1e-9);
    }

    #[test]
    fn histogram_clamps_garbage() {
        let h = Histogram::new(&[1.0]);
        h.observe(-3.0);
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[0].1, 2);
        assert_eq!(s.sum, 0.0);
    }

    #[test]
    fn exponential_bounds_multiply() {
        assert_eq!(exponential_buckets(1.0, 2.0, 4), vec![1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn exponential_edges_are_inclusive() {
        // An observation exactly on a bound lands in that bound's bucket
        // (Prometheus `le` semantics); one ulp above spills into the next.
        let bounds = exponential_buckets(0.01, 4.0, 5);
        let h = Histogram::new(&bounds);
        for &b in &bounds {
            h.observe(b);
            h.observe(b * (1.0 + 1e-12));
        }
        let s = h.snapshot();
        // Bucket i cumulatively holds its own edge hit plus every earlier
        // pair: on-edge i, plus both observations of each bound below it.
        for (i, &(bound, cumulative)) in s.buckets.iter().enumerate() {
            assert_eq!(bound, bounds[i]);
            assert_eq!(cumulative, 2 * i as u64 + 1, "bound {bound}");
        }
        // The last bound's just-above observation is only in +Inf.
        assert_eq!(s.count, 2 * bounds.len() as u64);
        assert_eq!(s.buckets.last().unwrap().1, s.count - 1);
    }

    #[test]
    fn cumulative_counts_are_monotone_and_end_at_count() {
        let h = Histogram::new(&exponential_buckets(1e-5, 4.0, 10));
        for i in 0..500 {
            h.observe(f64::from(i) * 1e-4);
        }
        h.observe(1e9); // far past the last bound: +Inf only
        let s = h.snapshot();
        for pair in s.buckets.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "cumulative counts must not drop");
        }
        assert_eq!(s.count, 501);
        assert_eq!(s.buckets.last().unwrap().1, 500);
        assert_eq!(h.count(), s.count);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_bounds_rejected() {
        let _ = Histogram::new(&[1.0, 1.0]);
    }

    #[test]
    fn concurrent_observations_commute() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new(&exponential_buckets(0.001, 10.0, 4)));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe(f64::from(i % 17) * 0.01 + f64::from(t) * 0.001);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
