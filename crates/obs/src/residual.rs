//! Sim-vs-analytic residual monitoring.
//!
//! [`closed_form`] maps a runnable [`MergeConfig`] onto the paper's
//! analytical prediction for it — when the configuration is inside the
//! analysis' modelling assumptions — and [`check`] turns a prediction plus
//! a measured mean into a pass/fail [`ResidualCheck`] under a
//! [`TolerancePolicy`]. Exact results (eqs. 1–5 and the striped extension)
//! are checked two-sided; the transfer bound and the urn asymptote are
//! one-sided (simulation may exceed them freely, but must not undercut
//! them beyond numerical slack).

use pm_analysis::predict::{predict_total_secs, Prediction, PredictionKind, StrategyShape};
use pm_analysis::ModelParams;
use pm_core::{
    AdmissionPolicy, DataLayout, DiskSpec, MergeConfig, PrefetchStrategy, QueueDiscipline, SyncMode,
};

/// Per-kind residual tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TolerancePolicy {
    /// Two-sided relative tolerance for eqs. (1)–(5): `|sim/analytic − 1|`.
    pub equation_rel: f64,
    /// Two-sided relative tolerance for the striped extension of eq. (4).
    pub striped_rel: f64,
    /// One-sided slack for lower bounds/asymptotes: fail only when
    /// `sim/analytic < 1 − bound_slack`.
    pub bound_slack: f64,
    /// One-sided slack on mean I/O concurrency vs. the urn model's
    /// expected value (the paper's T2 comparison). The urn game idealizes
    /// a merge round — every run has a fetchable block, no cache
    /// blocking, no start-up or drain phases — so the measured
    /// concurrency approaches `E[D]` from *below* (and the gap widens
    /// with `D` at finite run counts). The check is therefore an upper
    /// bound: fail only when `sim/E[D] > 1 + concurrency_rel`.
    pub concurrency_rel: f64,
}

impl Default for TolerancePolicy {
    fn default() -> Self {
        TolerancePolicy {
            equation_rel: 0.02,
            striped_rel: 0.05,
            bound_slack: 0.005,
            concurrency_rel: 0.10,
        }
    }
}

impl TolerancePolicy {
    /// The `(tolerance, bound)` pair that applies to a prediction kind.
    #[must_use]
    pub fn for_kind(&self, kind: PredictionKind) -> (f64, Bound) {
        match kind {
            PredictionKind::Equation(_) => (self.equation_rel, Bound::TwoSided),
            PredictionKind::StripedEquation => (self.striped_rel, Bound::TwoSided),
            PredictionKind::UrnAsymptote | PredictionKind::TransferBound => {
                (self.bound_slack, Bound::Lower)
            }
        }
    }
}

/// Direction of an analytical comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The prediction is exact: deviation in either direction fails.
    TwoSided,
    /// The prediction is a lower bound (or an asymptote approached from
    /// above): only undershoot beyond the slack fails.
    Lower,
    /// The prediction is an idealized upper bound: only overshoot beyond
    /// the slack fails.
    Upper,
}

impl Bound {
    /// Stable wire name, used in manifests.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Bound::TwoSided => "two-sided",
            Bound::Lower => "lower",
            Bound::Upper => "upper",
        }
    }

    /// Inverse of [`Bound::as_str`].
    pub(crate) fn from_str(s: &str) -> Option<Self> {
        match s {
            "two-sided" => Some(Bound::TwoSided),
            "lower" => Some(Bound::Lower),
            "upper" => Some(Bound::Upper),
            _ => None,
        }
    }
}

/// One evaluated residual: a measured mean against an analytical value.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualCheck {
    /// Stable label of the analytical result (`"eq4"`, `"kBT/D"`,
    /// `"urn-E[D]"`, …).
    pub kind: String,
    /// The analytical prediction (seconds, or disks for concurrency).
    pub predicted: f64,
    /// `measured / predicted`.
    pub ratio: f64,
    /// Direction of the comparison.
    pub bound: Bound,
    /// Tolerance applied (relative deviation, or slack for one-sided).
    pub tolerance: f64,
    /// Whether the measurement is within tolerance.
    pub pass: bool,
}

impl ResidualCheck {
    /// Evaluates a measurement against an analytical value.
    ///
    /// Two-sided: passes iff `|measured/predicted − 1| <= tolerance`.
    /// Lower bound: passes iff `measured/predicted >= 1 − tolerance`.
    /// Upper bound: passes iff `measured/predicted <= 1 + tolerance`.
    ///
    /// # Panics
    ///
    /// Panics if `predicted` is not a positive finite number (every
    /// analytical result in the paper is).
    #[must_use]
    pub fn evaluate(
        kind: impl Into<String>,
        predicted: f64,
        measured: f64,
        tolerance: f64,
        bound: Bound,
    ) -> Self {
        assert!(
            predicted.is_finite() && predicted > 0.0,
            "analytic value must be positive"
        );
        let ratio = measured / predicted;
        let pass = match bound {
            Bound::TwoSided => (ratio - 1.0).abs() <= tolerance,
            Bound::Lower => ratio >= 1.0 - tolerance,
            Bound::Upper => ratio <= 1.0 + tolerance,
        };
        ResidualCheck {
            kind: kind.into(),
            predicted,
            ratio,
            bound,
            tolerance,
            pass,
        }
    }
}

/// Evaluates a closed-form total-time prediction against a measured mean.
#[must_use]
pub fn check(pred: &Prediction, mean_total_secs: f64, policy: &TolerancePolicy) -> ResidualCheck {
    let (tolerance, bound) = policy.for_kind(pred.kind);
    ResidualCheck::evaluate(
        pred.kind.label(),
        pred.secs,
        mean_total_secs,
        tolerance,
        bound,
    )
}

/// Returns the paper's closed-form prediction for `cfg`'s total time, or
/// `None` when `cfg` falls outside the analysis' modelling assumptions.
///
/// The analysis models pure I/O on the paper's disk: any of the following
/// disqualifies a configuration (no residual is checked rather than a
/// wrong one):
///
/// * a non-zero CPU cost per block, or modelled write traffic;
/// * greedy admission, a per-run prefetch cap, or a non-FIFO queue;
/// * a disk other than [`DiskSpec::paper`];
/// * the adaptive strategy (no closed form exists);
/// * for eq. (5) — synchronized inter-run — a cache below `4·k·N`:
///   the equation assumes every prefetch batch is admitted, which the
///   all-or-nothing cache only guarantees with ample capacity.
#[must_use]
pub fn closed_form(cfg: &MergeConfig) -> Option<Prediction> {
    if !cfg.cpu_per_block.is_zero()
        || cfg.write.is_some()
        || cfg.admission != AdmissionPolicy::AllOrNothing
        || cfg.per_run_cap.is_some()
        || cfg.discipline != QueueDiscipline::Fifo
        || cfg.disk_spec != DiskSpec::paper()
    {
        return None;
    }
    let strategy = match cfg.strategy {
        PrefetchStrategy::None => StrategyShape::NoPrefetch,
        PrefetchStrategy::IntraRun { n } => StrategyShape::IntraRun { n },
        PrefetchStrategy::InterRun { n } => {
            if cfg.sync == SyncMode::Synchronized && cfg.cache_blocks < 4 * cfg.runs * n {
                return None;
            }
            StrategyShape::InterRun { n }
        }
        PrefetchStrategy::InterRunAdaptive { .. } => return None,
    };
    let p = ModelParams::from_spec(&cfg.disk_spec, u64::from(cfg.run_blocks));
    predict_total_secs(
        &p,
        cfg.runs,
        cfg.disks,
        strategy,
        cfg.sync == SyncMode::Synchronized,
        cfg.layout == DataLayout::Striped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::{ScenarioBuilder, SimDuration};

    #[test]
    fn maps_the_validation_cases_to_their_equations() {
        // Each T1 label's prefix names the result it is checked against;
        // the tables that print a T1 case's analytic value rely on it.
        for case in pm_workload::paper::t1_cases(1992) {
            let pred = closed_form(&case.config).unwrap_or_else(|| panic!("{}", case.label));
            let (prefix, _) = case.label.split_once(':').unwrap();
            let expected = match prefix {
                "urn asymptote" => PredictionKind::UrnAsymptote,
                "bound kBT/D" => PredictionKind::TransferBound,
                eq => PredictionKind::Equation(eq.strip_prefix("eq").unwrap().parse().unwrap()),
            };
            assert_eq!(pred.kind, expected, "{}", case.label);
            assert!(pred.secs > 0.0);
        }
    }

    #[test]
    fn out_of_model_configs_have_no_prediction() {
        let base = ScenarioBuilder::new(25, 5).intra(10).build().unwrap();
        let mut cpu = base;
        cpu.cpu_per_block = SimDuration::from_millis_f64(0.2);
        assert!(closed_form(&cpu).is_none());

        let mut greedy = base;
        greedy.admission = AdmissionPolicy::Greedy;
        assert!(closed_form(&greedy).is_none());

        let mut capped = base;
        capped.per_run_cap = Some(4);
        assert!(closed_form(&capped).is_none());

        let mut adaptive = ScenarioBuilder::new(25, 5)
            .inter(10)
            .cache_blocks(2000)
            .build()
            .unwrap();
        adaptive.strategy = PrefetchStrategy::InterRunAdaptive {
            n_min: 2,
            n_max: 10,
        };
        assert!(closed_form(&adaptive).is_none());

        let mut written = base;
        written.write = Some(pm_core::WriteSpec {
            disks: 1,
            buffer_blocks: 64,
        });
        assert!(closed_form(&written).is_none());

        // Synchronized inter-run with a tight cache breaks eq. 5's
        // every-batch-admitted assumption.
        let mut tight = ScenarioBuilder::new(25, 5)
            .inter(10)
            .cache_blocks(250)
            .build()
            .unwrap();
        tight.sync = SyncMode::Synchronized;
        assert!(closed_form(&tight).is_none());
    }

    #[test]
    fn striped_intra_sync_uses_the_extension() {
        let mut cfg = ScenarioBuilder::new(25, 5).intra(10).build().unwrap();
        cfg.sync = SyncMode::Synchronized;
        cfg.layout = DataLayout::Striped;
        assert_eq!(closed_form(&cfg).unwrap().kind.label(), "eq4-striped");
        cfg.sync = SyncMode::Unsynchronized;
        assert!(closed_form(&cfg).is_none());
    }

    #[test]
    fn two_sided_check_brackets_the_prediction() {
        let policy = TolerancePolicy::default();
        let pred = Prediction {
            kind: PredictionKind::Equation(4),
            secs: 100.0,
        };
        assert!(check(&pred, 101.9, &policy).pass);
        assert!(check(&pred, 98.1, &policy).pass);
        assert!(!check(&pred, 102.1, &policy).pass);
        assert!(!check(&pred, 97.9, &policy).pass);
        let c = check(&pred, 101.0, &policy);
        assert_eq!(c.kind, "eq4");
        assert!((c.ratio - 1.01).abs() < 1e-12);
        assert_eq!(c.bound, Bound::TwoSided);
    }

    #[test]
    fn lower_bound_check_allows_overshoot_only() {
        let policy = TolerancePolicy::default();
        let pred = Prediction {
            kind: PredictionKind::TransferBound,
            secs: 10.0,
        };
        assert!(check(&pred, 30.0, &policy).pass, "far above a lower bound");
        assert!(check(&pred, 9.96, &policy).pass, "within slack");
        assert!(!check(&pred, 9.9, &policy).pass, "undercuts the bound");
        assert_eq!(check(&pred, 30.0, &policy).bound, Bound::Lower);
    }

    #[test]
    fn upper_bound_check_allows_undershoot_only() {
        let c = ResidualCheck::evaluate("urn-E[D]", 4.0, 3.2, 0.10, Bound::Upper);
        assert!(c.pass, "well below an idealized upper bound");
        assert!(ResidualCheck::evaluate("urn-E[D]", 4.0, 4.3, 0.10, Bound::Upper).pass);
        assert!(!ResidualCheck::evaluate("urn-E[D]", 4.0, 4.5, 0.10, Bound::Upper).pass);
    }

    #[test]
    fn policy_kind_mapping() {
        let p = TolerancePolicy::default();
        assert_eq!(
            p.for_kind(PredictionKind::Equation(1)),
            (p.equation_rel, Bound::TwoSided)
        );
        assert_eq!(
            p.for_kind(PredictionKind::StripedEquation),
            (p.striped_rel, Bound::TwoSided)
        );
        assert_eq!(
            p.for_kind(PredictionKind::UrnAsymptote),
            (p.bound_slack, Bound::Lower)
        );
        assert_eq!(
            p.for_kind(PredictionKind::TransferBound),
            (p.bound_slack, Bound::Lower)
        );
    }

    #[test]
    fn bound_wire_names_round_trip() {
        for b in [Bound::TwoSided, Bound::Lower, Bound::Upper] {
            assert_eq!(Bound::from_str(b.as_str()), Some(b));
        }
        assert_eq!(Bound::from_str("sideways"), None);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_prediction_panics() {
        let _ = ResidualCheck::evaluate("x", 0.0, 1.0, 0.02, Bound::TwoSided);
    }
}
