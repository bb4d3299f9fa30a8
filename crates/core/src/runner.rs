//! Multi-trial experiment driver.
//!
//! Trials are seeded independently: the configuration's master seed
//! expands to one seed per trial via [`pm_sim::derive_seeds`], so trial
//! `i` is the same simulation whether it runs in a sequential loop
//! ([`run_trials`]) or on a worker pool ([`run_trials_parallel`]). The
//! parallel path is bit-identical to the sequential one by construction —
//! reports come back in trial-index order — which the
//! `parallel_determinism` integration suite enforces.

use pm_stats::{ConfidenceInterval, OnlineStats};
use pm_trace::RecordingSink;

use crate::{parallel, ConfigError, MergeConfig, MergeReport, MergeSim, UniformDepletion};

/// Aggregated results of several independent trials of one configuration.
///
/// The paper averages a handful of independent simulation trials per data
/// point; this mirrors that procedure, deriving each trial's seed from the
/// configuration's master seed.
#[derive(Debug, Clone)]
pub struct TrialSummary {
    /// Per-trial reports, in trial order.
    pub reports: Vec<MergeReport>,
    /// Mean total execution time in seconds.
    pub mean_total_secs: f64,
    /// 95% confidence interval on the total time (seconds).
    pub ci_total_secs: ConfidenceInterval,
    /// Mean success ratio across trials, if the strategy reports one.
    pub mean_success_ratio: Option<f64>,
    /// Mean I/O concurrency (busy disks averaged over busy time).
    pub mean_concurrency: f64,
    /// Mean busy-disk count averaged over the whole run.
    pub mean_busy_disks: f64,
}

/// Runs `trials` independent simulations of `cfg` under the uniform
/// depletion model and aggregates the results.
///
/// # Examples
///
/// ```
/// use pm_core::{run_trials, ScenarioBuilder};
///
/// let cfg = ScenarioBuilder::new(4, 2).intra(5).run_blocks(40).build().unwrap();
/// let summary = run_trials(&cfg, 3).unwrap();
/// assert_eq!(summary.trials(), 3);
/// assert!(summary.mean_total_secs > 0.0);
/// assert!(summary.ci_total_secs.contains(summary.mean_total_secs));
/// ```
///
/// # Errors
///
/// Returns a [`ConfigError`] if `cfg` is invalid.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn run_trials(cfg: &MergeConfig, trials: u32) -> Result<TrialSummary, ConfigError> {
    run_trials_parallel(cfg, trials, 1)
}

/// Runs `trials` independent simulations of `cfg` over up to `jobs`
/// worker threads and aggregates the results.
///
/// Bit-identical to [`run_trials`] for every `jobs` value: all trial
/// seeds are pre-derived from `cfg.seed` (the exact sequence the
/// sequential driver consumes, see [`pm_sim::derive_seeds`]), each trial
/// is an isolated simulation, and reports are collected in trial-index
/// order before aggregation. `jobs == 0` uses all available cores;
/// `jobs == 1` runs inline on the calling thread.
///
/// # Examples
///
/// ```
/// use pm_core::{run_trials, run_trials_parallel, ScenarioBuilder};
///
/// let cfg = ScenarioBuilder::new(4, 2).intra(5).run_blocks(40).build().unwrap();
/// let sequential = run_trials(&cfg, 3).unwrap();
/// let parallel = run_trials_parallel(&cfg, 3, 2).unwrap();
/// assert_eq!(sequential.reports, parallel.reports);
/// ```
///
/// # Errors
///
/// Returns a [`ConfigError`] if `cfg` is invalid.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn run_trials_parallel(
    cfg: &MergeConfig,
    trials: u32,
    jobs: usize,
) -> Result<TrialSummary, ConfigError> {
    assert!(trials > 0, "need at least one trial");
    let reports = run_trial_range(cfg, 0, trials, jobs, &|_, _| {})?;
    Ok(TrialSummary::from_reports(reports))
}

/// Runs trials `first .. first + count` of `cfg` over up to `jobs` worker
/// threads, returning the reports in trial-index order.
///
/// Trial `i`'s seed is element `i` of the sequence
/// [`pm_sim::derive_seeds`] expands from `cfg.seed` — and that sequence is
/// **prefix-stable**, so running trials `0..a` and then `a..b` in two
/// calls produces exactly the reports of one `0..b` call. Incremental
/// experiment drivers (convergence-controlled trial counts) rely on this
/// to add trials without invalidating the ones already run.
///
/// `on_trial` is invoked once per finished trial with the trial index and
/// its report. It runs on the worker threads (hence `Sync`), in
/// completion order — *not* necessarily index order — and is purely
/// observational: the returned reports are bit-identical for every `jobs`
/// value regardless of what it does. Use it for progress reporting or to
/// record each trial into a metrics sink (whose counters aggregate
/// commutatively), not to aggregate the reports.
///
/// `count == 0` validates `cfg` and returns no reports.
///
/// # Errors
///
/// Returns a [`ConfigError`] if `cfg` is invalid.
///
/// # Panics
///
/// Panics if `first + count` overflows `u32`.
pub fn run_trial_range(
    cfg: &MergeConfig,
    first: u32,
    count: u32,
    jobs: usize,
    on_trial: &(dyn Fn(u32, &MergeReport) + Sync),
) -> Result<Vec<MergeReport>, ConfigError> {
    let end = first.checked_add(count).expect("trial range overflows u32");
    cfg.validate()?;
    let seeds = pm_sim::derive_seeds(cfg.seed, end as usize);
    let base = *cfg;
    Ok(parallel::run_ordered(count as usize, jobs, |i| {
        let trial = first + i as u32;
        let mut trial_cfg = base;
        trial_cfg.seed = seeds[trial as usize];
        // `validate()` is seed-independent, so the per-trial config is
        // exactly as valid as `cfg` checked above.
        let report = MergeSim::new(trial_cfg)
            .expect("seed change cannot invalidate a validated config")
            .run(&mut UniformDepletion);
        on_trial(trial, &report);
        report
    }))
}

/// [`run_trials_parallel`] with the **first trial traced**: trial 0 runs
/// on the calling thread with a [`RecordingSink`] (ring-buffered to
/// `limit` events when given, unbounded otherwise) and the recorded trace
/// is returned alongside the summary. Trials `1..trials` come untraced
/// from [`run_trial_range`] over up to `jobs` workers.
///
/// Tracing is observational only, so the summary is bit-identical to
/// [`run_trials_parallel`]'s, and the recorded trace is the same for
/// every `jobs` value.
///
/// # Errors
///
/// Returns a [`ConfigError`] if `cfg` is invalid.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn run_trials_traced(
    cfg: &MergeConfig,
    trials: u32,
    jobs: usize,
    limit: Option<usize>,
) -> Result<(TrialSummary, RecordingSink), ConfigError> {
    assert!(trials > 0, "need at least one trial");
    let rest = run_trial_range(cfg, 1, trials - 1, jobs, &|_, _| {})?;
    // Trial 0's seed is the first element of `derive_seeds(cfg.seed, _)`:
    // the first draw of a stream seeded with `cfg.seed`.
    let mut first = *cfg;
    first.seed = pm_sim::SimRng::seed_from_u64(cfg.seed).next_u64();
    let recorder = match limit {
        Some(cap) => RecordingSink::with_capacity(cap),
        None => RecordingSink::unbounded(),
    };
    let (report, trace) = MergeSim::new(first)?
        .replace_sink(recorder)
        .run_with_sink(&mut UniformDepletion);
    let reports = std::iter::once(report).chain(rest).collect();
    Ok((TrialSummary::from_reports(reports), trace))
}

impl TrialSummary {
    /// Aggregates pre-computed per-trial reports.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    #[must_use]
    pub fn from_reports(reports: Vec<MergeReport>) -> Self {
        assert!(!reports.is_empty(), "need at least one report");
        let mut totals = OnlineStats::new();
        let mut concurrency = OnlineStats::new();
        let mut busy = OnlineStats::new();
        let mut ratios = OnlineStats::new();
        for r in &reports {
            totals.push(r.total.as_secs_f64());
            concurrency.push(r.avg_concurrency);
            busy.push(r.avg_busy_disks);
            if let Some(s) = r.success_ratio {
                ratios.push(s);
            }
        }
        TrialSummary {
            mean_total_secs: totals.mean(),
            ci_total_secs: ConfidenceInterval::from_stats(&totals, 0.95),
            mean_success_ratio: if ratios.is_empty() {
                None
            } else {
                Some(ratios.mean())
            },
            mean_concurrency: concurrency.mean(),
            mean_busy_disks: busy.mean(),
            reports,
        }
    }

    /// Number of trials aggregated.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.reports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrefetchStrategy, SyncMode};
    use pm_cache::AdmissionPolicy;
    use pm_sim::SimDuration;

    fn cfg() -> MergeConfig {
        MergeConfig {
            runs: 6,
            run_blocks: 30,
            disks: 3,
            layout: crate::DataLayout::Concatenated,
            strategy: PrefetchStrategy::InterRun { n: 3 },
            sync: SyncMode::Unsynchronized,
            cache_blocks: 60,
            cpu_per_block: SimDuration::ZERO,
            admission: AdmissionPolicy::AllOrNothing,
            prefetch_choice: crate::PrefetchChoice::Random,
            per_run_cap: None,
            discipline: pm_disk::QueueDiscipline::Fifo,
            disk_spec: pm_disk::DiskSpec::paper(),
            write: None,
            seed: 9,
        }
    }

    #[test]
    fn trials_are_independent_but_reproducible() {
        let a = run_trials(&cfg(), 4).unwrap();
        assert_eq!(a.trials(), 4);
        // Different trials see different random streams.
        assert!(a.reports.windows(2).any(|w| w[0].total != w[1].total));
        // The whole procedure is reproducible.
        let b = run_trials(&cfg(), 4).unwrap();
        assert_eq!(a.mean_total_secs, b.mean_total_secs);
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let s = run_trials(&cfg(), 5).unwrap();
        assert!(s.mean_total_secs > 0.0);
        assert!(s.ci_total_secs.contains(s.mean_total_secs));
        assert!(s.mean_concurrency >= s.mean_busy_disks);
        let ratio = s.mean_success_ratio.unwrap();
        assert!((0.0..=1.0).contains(&ratio));
    }

    #[test]
    fn invalid_config_propagates() {
        let mut c = cfg();
        c.cache_blocks = 1;
        assert!(run_trials(&c, 2).is_err());
        assert!(run_trials_parallel(&c, 2, 4).is_err());
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let seq = run_trials(&cfg(), 6).unwrap();
        for jobs in [1, 2, 4, 64, 0] {
            let par = run_trials_parallel(&cfg(), 6, jobs).unwrap();
            assert_eq!(seq.reports, par.reports, "jobs={jobs}");
            assert_eq!(seq.mean_total_secs.to_bits(), par.mean_total_secs.to_bits());
            assert_eq!(
                seq.mean_concurrency.to_bits(),
                par.mean_concurrency.to_bits()
            );
        }
    }

    #[test]
    fn trial_seeds_follow_derived_sequence() {
        let c = cfg();
        let summary = run_trials(&c, 3).unwrap();
        let seeds = pm_sim::derive_seeds(c.seed, 3);
        for (report, seed) in summary.reports.iter().zip(seeds) {
            let mut trial_cfg = c;
            trial_cfg.seed = seed;
            let direct = MergeSim::new(trial_cfg).unwrap().run(&mut UniformDepletion);
            assert_eq!(*report, direct);
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = run_trials(&cfg(), 0);
    }

    #[test]
    fn trial_ranges_are_prefix_stable() {
        let whole = run_trial_range(&cfg(), 0, 6, 1, &|_, _| {}).unwrap();
        let mut pieces = run_trial_range(&cfg(), 0, 2, 1, &|_, _| {}).unwrap();
        pieces.extend(run_trial_range(&cfg(), 2, 4, 2, &|_, _| {}).unwrap());
        assert_eq!(whole, pieces);
    }

    #[test]
    fn an_empty_trial_range_only_validates() {
        assert!(run_trial_range(&cfg(), 5, 0, 2, &|_, _| {})
            .unwrap()
            .is_empty());
        let mut bad = cfg();
        bad.cache_blocks = 1;
        assert!(run_trial_range(&bad, 0, 0, 1, &|_, _| {}).is_err());
    }

    #[test]
    fn tracing_one_trial_matches_the_untraced_run() {
        let plain = run_trials(&cfg(), 1).unwrap();
        let (traced, sink) = run_trials_traced(&cfg(), 1, 2, None).unwrap();
        assert_eq!(plain.reports, traced.reports);
        assert!(sink.total_emitted() > 0);
    }

    #[test]
    fn trial_range_observer_sees_every_trial_once() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let reports = run_trial_range(&cfg(), 3, 4, 2, &|trial, report| {
            seen.lock().unwrap().push((trial, report.total));
        })
        .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(t, _)| t);
        assert_eq!(
            seen.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        for (i, &(_, total)) in seen.iter().enumerate() {
            assert_eq!(total, reports[i].total);
        }
    }

    #[test]
    fn traced_trials_match_untraced_and_record_trial_zero() {
        let plain = run_trials(&cfg(), 3).unwrap();
        let (traced, sink) = run_trials_traced(&cfg(), 3, 1, None).unwrap();
        assert_eq!(plain.reports, traced.reports);
        assert_eq!(sink.dropped(), 0);
        assert!(sink.total_emitted() > 0);
        // The trace is trial 0's: reconstructing its timeline accounts for
        // exactly trial 0's block count.
        let consumed = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, pm_trace::EventKind::CpuConsume { .. }))
            .count() as u64;
        assert_eq!(consumed, plain.reports[0].blocks_merged);
    }

    #[test]
    fn traced_trace_is_identical_across_jobs() {
        let (_, seq) = run_trials_traced(&cfg(), 4, 1, None).unwrap();
        for jobs in [2, 4, 0] {
            let (_, par) = run_trials_traced(&cfg(), 4, jobs, None).unwrap();
            assert_eq!(seq.events(), par.events(), "jobs={jobs}");
        }
    }

    #[test]
    fn traced_limit_caps_the_ring() {
        let (_, sink) = run_trials_traced(&cfg(), 1, 1, Some(16)).unwrap();
        assert_eq!(sink.events().len(), 16);
        assert!(sink.dropped() > 0);
        assert_eq!(
            sink.total_emitted(),
            sink.dropped() + sink.events().len() as u64
        );
    }
}
