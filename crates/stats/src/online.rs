//! Single-pass (online) moment accumulation using Welford's algorithm.

/// Accumulates count, mean, variance, and extrema of a stream of samples in
/// a single pass, without storing the samples.
///
/// Uses Welford's numerically-stable recurrence for the second central
/// moment. Two accumulators can be [merged](OnlineStats::merge) (Chan et
/// al.'s parallel variant), which the experiment harness uses to combine
/// per-trial statistics.
///
/// # Examples
///
/// ```
/// use pm_stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a slice of samples.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the samples; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of the samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Smallest sample; `+inf` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; `-inf` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance (divide by `n`); `0.0` when empty.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divide by `n - 1`); `0.0` with fewer than 2 samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `s / sqrt(n)`; `0.0` with fewer than 2
    /// samples.
    #[must_use]
    pub fn standard_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.sample_stddev() / (self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one, as if all of its samples
    /// had been pushed here.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_variance(values: &[f64]) -> f64 {
        let m = values.iter().sum::<f64>() / values.len() as f64;
        values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn matches_naive_two_pass() {
        let values: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 5.0)
            .collect();
        let s = OnlineStats::from_slice(&values);
        assert!((s.population_variance() - naive_variance(&values)).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f64> = (0..37).map(|i| i as f64 * 1.5 - 3.0).collect();
        let b: Vec<f64> = (0..53).map(|i| (i as f64).sqrt()).collect();
        let mut merged = OnlineStats::from_slice(&a);
        merged.merge(&OnlineStats::from_slice(&b));

        let mut seq = OnlineStats::from_slice(&a);
        for &v in &b {
            seq.push(v);
        }
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-9);
        assert!((merged.population_variance() - seq.population_variance()).abs() < 1e-9);
        assert_eq!(merged.min(), seq.min());
        assert_eq!(merged.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = OnlineStats::from_slice(&[1.0, 2.0, 3.0]);
        let mut m = a;
        m.merge(&OnlineStats::new());
        assert_eq!(m, a);

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn sum_is_mean_times_count() {
        let s = OnlineStats::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.sum() - 10.0).abs() < 1e-12);
    }
}
