//! Statistics utilities for the `prefetchmerge` simulator.
//!
//! The simulation experiments in Pai & Varman (ICDE 1992) average several
//! independent trials per data point and report time-averaged quantities
//! (e.g. the average number of concurrently busy disks). This crate provides
//! the small, allocation-light statistical toolkit those experiments need:
//!
//! * [`OnlineStats`] — single-pass mean/variance/extrema (Welford's method),
//!   used for per-trial aggregation.
//! * [`ConfidenceInterval`] — Student-t confidence intervals over a set of
//!   trial results.
//! * [`TimeWeighted`] — time-weighted average of a step function, used for
//!   disk-concurrency and utilization metrics.
//! * [`Counter`] — ratio bookkeeping (e.g. the paper's *success ratio*).
//!
//! All types are `f64`-based, deterministic, and have no dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ci;
mod counter;
mod online;
mod timeweighted;

pub use ci::ConfidenceInterval;
pub use counter::Counter;
pub use online::OnlineStats;
pub use timeweighted::TimeWeighted;

/// Relative difference `|a - b| / max(|a|, |b|)`, with `0.0` when both are 0.
///
/// Used throughout the test suites to compare simulated results against the
/// paper's closed-form predictions with a tolerance.
#[must_use]
pub fn relative_error(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// Arithmetic mean of a slice; `None` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!((relative_error(100.0, 110.0) - 10.0 / 110.0).abs() < 1e-12);
        // Symmetric.
        assert_eq!(relative_error(3.0, 4.0), relative_error(4.0, 3.0));
    }

    #[test]
    fn relative_error_with_zero_side() {
        assert_eq!(relative_error(0.0, 5.0), 1.0);
        assert_eq!(relative_error(-5.0, 0.0), 1.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }
}
