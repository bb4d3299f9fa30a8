//! Convergence-controlled trial counts.
//!
//! Instead of a fixed trial count per experiment point, [`TrialsMode::Auto`]
//! keeps adding batches of trials until the Student-t confidence interval
//! on the mean total time is narrow *relative to the mean* — the standard
//! relative-half-width stopping rule — or a trial budget is exhausted.
//!
//! Determinism is preserved: trial seeds are prefix-stable
//! (`pm_core::run_trial_range`), so "run 3 trials, then 2 more" produces
//! bit-identical reports to "run 5 trials", the stopping decision is a pure
//! function of those reports, and therefore the chosen trial count and the
//! final summary are identical for every `--jobs` value.

use pm_core::{run_trial_range, ConfigError, MergeConfig, MergeReport, TrialSummary};
use pm_stats::{ConfidenceInterval, OnlineStats};

/// How many trials to run per experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrialsMode {
    /// Exactly this many trials.
    Fixed(u32),
    /// Adaptive: stop when the CI is relatively narrow (or at the cap).
    Auto(ConvergencePolicy),
}

/// Stopping rule for [`TrialsMode::Auto`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePolicy {
    /// Confidence level of the interval the rule evaluates.
    pub confidence: f64,
    /// Stop once `half_width / |mean| <= rel_ci`.
    pub rel_ci: f64,
    /// Trials to run before the first evaluation (at least 2, so a spread
    /// estimate exists).
    pub min_trials: u32,
    /// Hard cap; the rule reports `converged: false` if it is hit first.
    pub max_trials: u32,
    /// Trials added per additional batch.
    pub batch: u32,
}

impl Default for ConvergencePolicy {
    fn default() -> Self {
        ConvergencePolicy {
            confidence: 0.95,
            rel_ci: 0.01,
            min_trials: 3,
            max_trials: 30,
            batch: 2,
        }
    }
}

/// What the stopping rule decided for one experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceDecision {
    /// Trials actually run.
    pub trials: u32,
    /// `true` if the relative-half-width target was met.
    pub converged: bool,
    /// Final `half_width / |mean|`; `None` if the mean was exactly zero.
    pub rel_half_width: Option<f64>,
    /// The target the rule compared against.
    pub target_rel_ci: f64,
    /// The trial cap in force.
    pub max_trials: u32,
}

fn interval(reports: &[MergeReport], confidence: f64) -> ConfidenceInterval {
    let mut totals = OnlineStats::new();
    for r in reports {
        totals.push(r.total.as_secs_f64());
    }
    ConfidenceInterval::from_stats(&totals, confidence)
}

/// Runs trials of `cfg` under the given mode and aggregates them.
///
/// The decision is `None` for [`TrialsMode::Fixed`] and `Some` for
/// [`TrialsMode::Auto`]. `on_trial` is forwarded to
/// [`pm_core::run_trial_range`] — observational only, invoked per finished
/// trial from worker threads (wire a progress sink here).
///
/// # Errors
///
/// Returns a [`ConfigError`] if `cfg` is invalid.
///
/// # Panics
///
/// Panics if a fixed count is 0, or an auto policy has `max_trials == 0`,
/// `batch == 0`, or a non-positive `rel_ci`.
pub fn run_trials_converged(
    cfg: &MergeConfig,
    mode: TrialsMode,
    jobs: usize,
    on_trial: &(dyn Fn(u32, &MergeReport) + Sync),
) -> Result<(TrialSummary, Option<ConvergenceDecision>), ConfigError> {
    match mode {
        TrialsMode::Fixed(n) => {
            assert!(n > 0, "need at least one trial");
            let reports = run_trial_range(cfg, 0, n, jobs, on_trial)?;
            Ok((TrialSummary::from_reports(reports), None))
        }
        TrialsMode::Auto(policy) => {
            assert!(policy.max_trials > 0, "need a positive trial cap");
            assert!(policy.batch > 0, "need a positive batch size");
            assert!(policy.rel_ci > 0.0, "need a positive relative-CI target");
            // Fewer than two trials cannot estimate spread.
            let start = policy.min_trials.max(2).min(policy.max_trials);
            let mut reports = run_trial_range(cfg, 0, start, jobs, on_trial)?;
            let decision = loop {
                let n = u32::try_from(reports.len()).expect("trial count fits u32");
                let ci = interval(&reports, policy.confidence);
                let rel = ci.relative_half_width();
                // A zero mean has zero spread in this domain (total time);
                // treat it as converged rather than looping to the cap.
                let converged = rel.map_or(true, |r| r <= policy.rel_ci);
                if converged || n >= policy.max_trials {
                    break ConvergenceDecision {
                        trials: n,
                        converged,
                        rel_half_width: rel,
                        target_rel_ci: policy.rel_ci,
                        max_trials: policy.max_trials,
                    };
                }
                let add = policy.batch.min(policy.max_trials - n);
                reports.extend(run_trial_range(cfg, n, add, jobs, on_trial)?);
            };
            Ok((TrialSummary::from_reports(reports), Some(decision)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::ScenarioBuilder;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn cfg() -> MergeConfig {
        let mut c = ScenarioBuilder::new(4, 2).intra(5).build().unwrap();
        c.run_blocks = 40;
        c.seed = 7;
        c
    }

    #[test]
    fn fixed_mode_matches_run_trials() {
        let (summary, decision) =
            run_trials_converged(&cfg(), TrialsMode::Fixed(4), 1, &|_, _| {}).unwrap();
        let plain = pm_core::run_trials(&cfg(), 4).unwrap();
        assert_eq!(summary.reports, plain.reports);
        assert!(decision.is_none());
    }

    #[test]
    fn auto_mode_reports_a_decision_and_prefix_stable_trials() {
        let policy = ConvergencePolicy {
            rel_ci: 0.05,
            ..ConvergencePolicy::default()
        };
        let (summary, decision) =
            run_trials_converged(&cfg(), TrialsMode::Auto(policy), 1, &|_, _| {}).unwrap();
        let decision = decision.unwrap();
        assert_eq!(decision.trials as usize, summary.trials());
        assert!(decision.trials >= 3 && decision.trials <= policy.max_trials);
        if decision.converged {
            assert!(decision.rel_half_width.unwrap() <= policy.rel_ci);
        }
        // The chosen trials are the prefix of the derived-seed sequence.
        let direct = pm_core::run_trials(&cfg(), decision.trials).unwrap();
        assert_eq!(summary.reports, direct.reports);
    }

    #[test]
    fn auto_mode_is_jobs_invariant() {
        let mode = TrialsMode::Auto(ConvergencePolicy {
            rel_ci: 0.03,
            max_trials: 12,
            ..ConvergencePolicy::default()
        });
        let (seq, d_seq) = run_trials_converged(&cfg(), mode, 1, &|_, _| {}).unwrap();
        for jobs in [2, 4, 0] {
            let (par, d_par) = run_trials_converged(&cfg(), mode, jobs, &|_, _| {}).unwrap();
            assert_eq!(seq.reports, par.reports, "jobs={jobs}");
            assert_eq!(d_seq, d_par, "jobs={jobs}");
        }
    }

    #[test]
    fn unreachable_target_stops_at_cap() {
        let policy = ConvergencePolicy {
            rel_ci: 1e-9,
            max_trials: 7,
            ..ConvergencePolicy::default()
        };
        let (summary, decision) =
            run_trials_converged(&cfg(), TrialsMode::Auto(policy), 1, &|_, _| {}).unwrap();
        let decision = decision.unwrap();
        assert_eq!(decision.trials, 7);
        assert_eq!(summary.trials(), 7);
        assert!(!decision.converged);
        assert!(decision.rel_half_width.unwrap() > policy.rel_ci);
    }

    #[test]
    fn loose_target_stops_at_min_trials() {
        let policy = ConvergencePolicy {
            rel_ci: 10.0,
            ..ConvergencePolicy::default()
        };
        let (_, decision) =
            run_trials_converged(&cfg(), TrialsMode::Auto(policy), 1, &|_, _| {}).unwrap();
        let decision = decision.unwrap();
        assert_eq!(decision.trials, 3);
        assert!(decision.converged);
    }

    #[test]
    fn observer_counts_every_trial() {
        let count = AtomicU32::new(0);
        let mode = TrialsMode::Auto(ConvergencePolicy {
            rel_ci: 1e-9,
            max_trials: 6,
            ..ConvergencePolicy::default()
        });
        let (summary, _) = run_trials_converged(&cfg(), mode, 2, &|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed) as usize, summary.trials());
    }

    #[test]
    fn min_trials_is_clamped_into_range() {
        let policy = ConvergencePolicy {
            min_trials: 0,
            rel_ci: 10.0,
            ..ConvergencePolicy::default()
        };
        let (_, decision) =
            run_trials_converged(&cfg(), TrialsMode::Auto(policy), 1, &|_, _| {}).unwrap();
        assert_eq!(decision.unwrap().trials, 2);

        let policy = ConvergencePolicy {
            min_trials: 50,
            max_trials: 4,
            rel_ci: 1e-9,
            ..ConvergencePolicy::default()
        };
        let (_, decision) =
            run_trials_converged(&cfg(), TrialsMode::Auto(policy), 1, &|_, _| {}).unwrap();
        assert_eq!(decision.unwrap().trials, 4);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_fixed_trials_panics() {
        let _ = run_trials_converged(&cfg(), TrialsMode::Fixed(0), 1, &|_, _| {});
    }
}
