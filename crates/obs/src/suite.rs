//! The validation suite: experiment points, execution, and recording.
//!
//! [`validation_points`] enumerates the reproduction's standing validation
//! set — the paper's T1 estimated-vs-simulated cases (eqs. 1–5, the urn
//! asymptote, the `kBT/D` bounds), the T2 urn-concurrency cases, and the
//! Fig. 3.2 panel-A curves. [`run_suite`] executes any point list under a
//! [`SuiteOptions`] policy and produces one [`ManifestRecord`] per point,
//! ready for [`crate::manifest::render_manifest`] /
//! [`crate::html::render_report`].

use pm_analysis::predict::PredictionKind;
use pm_core::{run_trials_traced, MergeConfig, PmError, ScenarioBuilder, SyncMode, TrialSummary};
use pm_trace::TraceMetrics;
use pm_workload::paper::{fig2_panel, Fig2Panel};
use pm_workload::spec::ScenarioSpec;

use crate::convergence::{run_trials_converged, TrialsMode};
use crate::manifest::{
    DiskRollup, ManifestRecord, PointMetrics, RecordKind, TraceRollup, SCHEMA_VERSION,
};
use crate::progress::ProgressSink;
use crate::residual::{check, closed_form, Bound, ResidualCheck, TolerancePolicy};

/// One experiment point to run: identity plus a ready configuration.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Record kind the result is filed under.
    pub kind: RecordKind,
    /// Case label (unique within a suite).
    pub label: String,
    /// Curve name, for sweep points.
    pub sweep: Option<String>,
    /// Independent-variable value, for sweep points.
    pub x: Option<f64>,
    /// Independent-variable axis label, for sweep points.
    pub x_label: Option<String>,
    /// The configuration to simulate (seed already set).
    pub config: MergeConfig,
}

/// Execution policy for a suite run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteOptions {
    /// Trials per point (fixed or convergence-controlled).
    pub trials: TrialsMode,
    /// Worker threads per point (0 = all cores). Results and manifests
    /// are bit-identical for every value.
    pub jobs: usize,
    /// Residual tolerances.
    pub tolerance: TolerancePolicy,
    /// Record per-disk trace rollups (re-runs trial 0 traced).
    pub trace: bool,
    /// The master seed the point seeds were derived from (recorded in
    /// every manifest line).
    pub master_seed: u64,
}

impl SuiteOptions {
    /// Default policy: 5 fixed trials, sequential, default tolerances,
    /// no tracing.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        SuiteOptions {
            trials: TrialsMode::Fixed(5),
            jobs: 1,
            tolerance: TolerancePolicy::default(),
            trace: false,
            master_seed,
        }
    }
}

fn t1(label: impl Into<String>, config: MergeConfig) -> PointSpec {
    PointSpec {
        kind: RecordKind::T1Case,
        label: label.into(),
        sweep: None,
        x: None,
        x_label: None,
        config,
    }
}

/// The T1 table: every estimated-vs-simulated comparison quoted in the
/// paper's §3.1–3.2, as runnable points seeded with `master_seed`.
#[must_use]
pub fn t1_points(master_seed: u64) -> Vec<PointSpec> {
    let seeded = |mut cfg: MergeConfig| {
        cfg.seed = master_seed;
        cfg
    };
    let mut v = Vec::new();
    for k in [25u32, 50] {
        v.push(t1(
            format!("eq1: no prefetch, k={k}, D=1"),
            seeded(ScenarioBuilder::new(k, 1).build().unwrap()),
        ));
    }
    for (k, n) in [(25u32, 16u32), (50, 16), (25, 30), (50, 30)] {
        v.push(t1(
            format!("eq2: intra, k={k}, D=1, N={n}"),
            seeded(ScenarioBuilder::new(k, 1).intra(n).build().unwrap()),
        ));
    }
    for (k, d) in [(25u32, 5u32), (50, 10)] {
        v.push(t1(
            format!("eq3: no prefetch, k={k}, D={d}"),
            seeded(ScenarioBuilder::new(k, d).build().unwrap()),
        ));
    }
    {
        let mut cfg = ScenarioBuilder::new(25, 5).intra(30).build().unwrap();
        cfg.sync = SyncMode::Synchronized;
        v.push(t1("eq4: intra sync, k=25, D=5, N=30", seeded(cfg)));
    }
    {
        let mut cfg = ScenarioBuilder::new(25, 5).inter(10).cache_blocks(2000).build().unwrap();
        cfg.sync = SyncMode::Synchronized;
        v.push(t1("eq5: inter sync, k=25, D=5, N=10", seeded(cfg)));
    }
    v.push(t1(
        "urn asymptote: intra unsync, k=25, D=5, N=30",
        seeded(ScenarioBuilder::new(25, 5).intra(30).build().unwrap()),
    ));
    v.push(t1(
        "bound kBT/D: inter unsync, k=25, D=5, N=50",
        seeded(ScenarioBuilder::new(25, 5).inter(50).cache_blocks(5000).build().unwrap()),
    ));
    v.push(t1(
        "bound kBT/D: inter unsync, k=50, D=5, N=50",
        seeded(ScenarioBuilder::new(50, 5).inter(50).cache_blocks(10_000).build().unwrap()),
    ));
    v
}

/// The T2 table: average I/O concurrency of unsynchronized intra-run
/// prefetching vs. the urn model, at `N = 30`.
#[must_use]
pub fn t2_points(master_seed: u64) -> Vec<PointSpec> {
    [(5u32, 25u32), (10, 50), (20, 60)]
        .into_iter()
        .map(|(d, k)| {
            let mut cfg = ScenarioBuilder::new(k, d).intra(30).build().unwrap();
            cfg.seed = master_seed;
            PointSpec {
                kind: RecordKind::T2Concurrency,
                label: format!("urn E[D]: intra unsync, k={k}, D={d}, N=30"),
                sweep: None,
                x: None,
                x_label: None,
                config: cfg,
            }
        })
        .collect()
}

/// Stride used by quick mode to thin the Fig. 3.2 curves.
const QUICK_SWEEP_STRIDE: usize = 6;

/// The full validation set: T1, T2, and the Fig. 3.2 panel-A curves.
///
/// `quick` thins each curve to every `QUICK_SWEEP_STRIDE`-th point plus
/// the endpoint (kept points are identical to the full sweep's, including
/// seeds — a quick run's records are a subset of a full run's).
#[must_use]
pub fn validation_points(master_seed: u64, quick: bool) -> Vec<PointSpec> {
    let mut pts = t1_points(master_seed);
    pts.extend(t2_points(master_seed));
    for sweep in fig2_panel(Fig2Panel::A, master_seed) {
        let sweep = if quick {
            sweep.thinned(QUICK_SWEEP_STRIDE)
        } else {
            sweep
        };
        for p in &sweep.points {
            pts.push(PointSpec {
                kind: RecordKind::SweepPoint,
                label: format!("{} @ N={}", sweep.label, p.x as u32),
                sweep: Some(sweep.label.clone()),
                x: Some(p.x),
                x_label: Some(sweep.x_label.clone()),
                config: p.config,
            });
        }
    }
    pts
}

/// The residual check applicable to one finished point, if any.
///
/// T1 cases check total time against their closed form. T2 cases check
/// mean concurrency against the urn model's exact expectation. Sweep
/// points check total time only where the prediction is valid at *every*
/// point of the curve — the exact equations and the hard `kBT/D` lower
/// bound; the urn asymptote holds only for large `N`, so sweep points skip
/// it rather than false-failing out of regime.
fn residual_for(
    spec: &PointSpec,
    summary: &TrialSummary,
    policy: &TolerancePolicy,
) -> Option<ResidualCheck> {
    match spec.kind {
        RecordKind::T2Concurrency => {
            let predicted = pm_analysis::urn::expected_concurrency(spec.config.disks);
            Some(ResidualCheck::evaluate(
                "urn-E[D]",
                predicted,
                summary.mean_concurrency,
                policy.concurrency_rel,
                Bound::Upper,
            ))
        }
        RecordKind::T1Case => {
            closed_form(&spec.config).map(|p| check(&p, summary.mean_total_secs, policy))
        }
        RecordKind::SweepPoint => {
            let pred = closed_form(&spec.config)?;
            if pred.kind == PredictionKind::UrnAsymptote {
                return None;
            }
            Some(check(&pred, summary.mean_total_secs, policy))
        }
        // Engine and contention runs attach their residual at execution
        // time (the sim-vs-engine cross-check), not from a closed form
        // here — the paper's equations model one merge owning the disks.
        RecordKind::EngineExec | RecordKind::Contend => None,
    }
}

fn trace_rollup(cfg: &MergeConfig) -> Result<TraceRollup, PmError> {
    let (_, sink) = run_trials_traced(cfg, 1, 1, None)?;
    let m = TraceMetrics::from_events(&sink.events());
    let span_ns = m.span_end.as_nanos() as f64;
    let disks = m
        .input_disks
        .iter()
        .map(|lane| DiskRollup {
            utilization: lane.utilization(m.span_end),
            requests: lane.requests,
            sequential: lane.sequential,
            avg_queue_depth: lane.queue_depth.average_until(span_ns).unwrap_or(0.0),
        })
        .collect();
    Ok(TraceRollup { disks })
}

/// Runs one point and produces its manifest record.
///
/// `index`/`total` position the point within its suite for progress
/// display only.
///
/// # Errors
///
/// Returns [`PmError::Config`] if the point's configuration is invalid.
pub fn run_point(
    spec: &PointSpec,
    opts: &SuiteOptions,
    progress: &dyn ProgressSink,
    index: usize,
    total: usize,
) -> Result<ManifestRecord, PmError> {
    progress.point_started(index, total, &spec.label);
    let (summary, decision) =
        run_trials_converged(&spec.config, opts.trials, opts.jobs, &|_, _| {
            progress.trial_finished();
        })?;
    let trials = u32::try_from(summary.trials()).expect("trial count fits u32");
    let trace = if opts.trace {
        Some(trace_rollup(&spec.config)?)
    } else {
        None
    };
    let analytic = residual_for(spec, &summary, &opts.tolerance);
    let metrics = PointMetrics {
        mean_total_secs: summary.mean_total_secs,
        ci_half_width_secs: summary.ci_total_secs.half_width,
        confidence: summary.ci_total_secs.confidence,
        mean_concurrency: summary.mean_concurrency,
        mean_busy_disks: summary.mean_busy_disks,
        mean_success_ratio: summary.mean_success_ratio,
        blocks_merged: summary.reports[0].blocks_merged,
    };
    progress.point_finished(index, total, &spec.label, trials, summary.mean_total_secs);
    Ok(ManifestRecord {
        schema: SCHEMA_VERSION,
        kind: spec.kind,
        label: spec.label.clone(),
        pass: None,
        tenant: None,
        sweep: spec.sweep.clone(),
        x: spec.x,
        x_label: spec.x_label.clone(),
        scenario: ScenarioSpec::from_config(spec.label.clone(), &spec.config),
        master_seed: opts.master_seed,
        trials,
        auto: decision,
        metrics,
        analytic,
        trace,
    })
}

/// Runs every point in order and collects the records.
///
/// # Errors
///
/// Returns the first invalid point's [`PmError::Config`].
pub fn run_suite(
    points: &[PointSpec],
    opts: &SuiteOptions,
    progress: &dyn ProgressSink,
) -> Result<Vec<ManifestRecord>, PmError> {
    progress.begin(points.len());
    let mut records = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        records.push(run_point(p, opts, progress, i, points.len())?);
    }
    progress.end();
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::render_manifest;
    use crate::progress::NullProgress;

    /// A few seconds-scale points that stay fast in debug builds.
    fn tiny_points() -> Vec<PointSpec> {
        let mut intra = ScenarioBuilder::new(4, 2).intra(5).build().unwrap();
        intra.run_blocks = 40;
        intra.seed = 11;
        let mut inter = ScenarioBuilder::new(4, 2).inter(5).cache_blocks(80).build().unwrap();
        inter.run_blocks = 40;
        inter.seed = 11;
        vec![
            PointSpec {
                kind: RecordKind::T1Case,
                label: "tiny intra".into(),
                sweep: None,
                x: None,
                x_label: None,
                config: intra,
            },
            PointSpec {
                kind: RecordKind::SweepPoint,
                label: "tiny inter @ N=5".into(),
                sweep: Some("tiny inter".into()),
                x: Some(5.0),
                x_label: Some("N".into()),
                config: inter,
            },
        ]
    }

    fn tiny_opts() -> SuiteOptions {
        SuiteOptions {
            trials: TrialsMode::Fixed(3),
            ..SuiteOptions::new(11)
        }
    }

    #[test]
    fn suite_shapes() {
        let quick = validation_points(1992, true);
        let full = validation_points(1992, false);
        // 13 T1 + 3 T2 + 3 curves.
        assert_eq!(quick.len(), 13 + 3 + 3 * 6);
        assert_eq!(full.len(), 13 + 3 + 3 * 30);
        // Quick points are a subset of full points (identical configs).
        for q in &quick {
            assert!(
                full.iter().any(|f| f.label == q.label && f.config == q.config),
                "{} missing from the full suite",
                q.label
            );
        }
        for p in &quick {
            p.config.validate().unwrap();
        }
        // T1 cases carry the master seed directly.
        assert!(quick[..13].iter().all(|p| p.config.seed == 1992));
    }

    #[test]
    fn t1_labels_cover_every_equation() {
        let labels: Vec<String> = t1_points(1).into_iter().map(|p| p.label).collect();
        for needle in ["eq1", "eq2", "eq3", "eq4", "eq5", "urn asymptote", "kBT/D"] {
            assert!(labels.iter().any(|l| l.contains(needle)), "{needle}");
        }
        assert_eq!(labels.len(), 13);
    }

    #[test]
    fn run_point_fills_the_record() {
        let points = tiny_points();
        let rec = run_point(&points[0], &tiny_opts(), &NullProgress, 0, 2).unwrap();
        assert_eq!(rec.schema, SCHEMA_VERSION);
        assert_eq!(rec.trials, 3);
        assert_eq!(rec.master_seed, 11);
        assert!(rec.auto.is_none());
        assert!(rec.metrics.mean_total_secs > 0.0);
        assert_eq!(rec.metrics.blocks_merged, 4 * 40);
        assert_eq!(rec.scenario.to_config(), points[0].config);
        // Tiny config is far outside the paper's asymptotic regime; intra
        // unsync d>1 maps to the urn asymptote, which T1 does check.
        assert!(rec.analytic.is_some());
        assert!(rec.trace.is_none());
    }

    #[test]
    fn trace_rollup_covers_every_input_disk() {
        let mut opts = tiny_opts();
        opts.trace = true;
        let rec = run_point(&tiny_points()[0], &opts, &NullProgress, 0, 1).unwrap();
        let rollup = rec.trace.unwrap();
        assert_eq!(rollup.disks.len(), 2);
        for d in &rollup.disks {
            assert!(d.utilization > 0.0 && d.utilization <= 1.0);
            assert!(d.requests > 0);
            assert!(d.sequential <= d.requests);
            assert!(d.avg_queue_depth >= 0.0);
        }
    }

    #[test]
    fn sweep_points_skip_the_urn_asymptote() {
        // tiny intra point as a *sweep* point: intra unsync d>1 → urn
        // asymptote → no residual attached.
        let mut p = tiny_points()[0].clone();
        p.kind = RecordKind::SweepPoint;
        let rec = run_point(&p, &tiny_opts(), &NullProgress, 0, 1).unwrap();
        assert!(rec.analytic.is_none());
        // The inter sweep point keeps its kBT/D bound check.
        let rec = run_point(&tiny_points()[1], &tiny_opts(), &NullProgress, 0, 1).unwrap();
        let a = rec.analytic.unwrap();
        assert_eq!(a.kind, "kBT/D");
        assert_eq!(a.bound, Bound::Lower);
    }

    #[test]
    fn t2_points_check_concurrency_against_the_urn_model() {
        let mut p = tiny_points()[0].clone();
        p.kind = RecordKind::T2Concurrency;
        let rec = run_point(&p, &tiny_opts(), &NullProgress, 0, 1).unwrap();
        let a = rec.analytic.unwrap();
        assert_eq!(a.kind, "urn-E[D]");
        assert_eq!(a.bound, Bound::Upper, "the urn game is an idealized ceiling");
        let expected = pm_analysis::urn::expected_concurrency(2);
        assert!((a.predicted - expected).abs() < 1e-12);
    }

    #[test]
    fn manifests_are_byte_identical_across_jobs() {
        let points = tiny_points();
        let render = |jobs: usize| {
            let opts = SuiteOptions {
                jobs,
                trials: TrialsMode::Fixed(4),
                ..SuiteOptions::new(11)
            };
            render_manifest(&run_suite(&points, &opts, &NullProgress).unwrap())
        };
        let seq = render(1);
        for jobs in [2, 8, 0] {
            assert_eq!(seq, render(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn progress_sees_points_and_trials() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counting {
            begun: AtomicUsize,
            started: AtomicUsize,
            trials: AtomicUsize,
            finished: AtomicUsize,
            ended: AtomicUsize,
        }
        impl ProgressSink for Counting {
            fn begin(&self, total: usize) {
                self.begun.store(total, Ordering::Relaxed);
            }
            fn point_started(&self, _: usize, _: usize, _: &str) {
                self.started.fetch_add(1, Ordering::Relaxed);
            }
            fn trial_finished(&self) {
                self.trials.fetch_add(1, Ordering::Relaxed);
            }
            fn point_finished(&self, _: usize, _: usize, _: &str, _: u32, _: f64) {
                self.finished.fetch_add(1, Ordering::Relaxed);
            }
            fn end(&self) {
                self.ended.fetch_add(1, Ordering::Relaxed);
            }
        }
        let sink = Counting::default();
        let records = run_suite(&tiny_points(), &tiny_opts(), &sink).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(sink.begun.load(Ordering::Relaxed), 2);
        assert_eq!(sink.started.load(Ordering::Relaxed), 2);
        assert_eq!(sink.finished.load(Ordering::Relaxed), 2);
        assert_eq!(sink.trials.load(Ordering::Relaxed), 6);
        assert_eq!(sink.ended.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn invalid_point_propagates() {
        let mut points = tiny_points();
        points[0].config.cache_blocks = 1;
        assert!(run_suite(&points, &tiny_opts(), &NullProgress).is_err());
    }
}
