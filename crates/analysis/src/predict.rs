//! Closed-form total-time predictions keyed by scenario shape.
//!
//! The equations, bounds, and asymptotics of this crate each apply to one
//! strategy/synchronization combination. This module encodes that mapping
//! once, so experiment drivers (the validation tables, the residual
//! monitor in `pm-obs`) can ask "what does the paper predict for this
//! scenario, and how tight is the prediction?" without duplicating the
//! case analysis.
//!
//! Predictions come in two strengths:
//!
//! * [`PredictionKind::is_exact`] — eqs. (1)–(5) and the striped
//!   extension: the model predicts the total time itself (the paper's T1
//!   table compares these within a few percent).
//! * One-sided — the `kBT/D` transfer bound (simulation can only be
//!   slower) and the urn-game asymptote for unsynchronized intra-run
//!   prefetching (valid for large `N`; simulation approaches it from
//!   above).

use crate::bounds::{intra_unsync_asymptotic_secs, multi_disk_lower_bound_secs};
use crate::equations::{
    tau_inter_sync, tau_multi_intra_sync, tau_multi_no_prefetch, tau_single_intra,
    tau_single_no_prefetch, tau_striped_intra_sync, total_seconds,
};
use crate::ModelParams;

/// Scenario shape the closed forms are keyed on: the prefetching strategy
/// with its depth, as the analysis sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyShape {
    /// Demand fetching only (eqs. 1 and 3).
    NoPrefetch,
    /// Intra-run ("Demand Run Only") prefetching of `n` blocks.
    IntraRun {
        /// Prefetch depth `N`.
        n: u32,
    },
    /// Inter-run ("All Disks One Run") prefetching of `n` blocks per disk.
    InterRun {
        /// Prefetch depth `N` per run.
        n: u32,
    },
}

/// Which analytical result produced a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionKind {
    /// One of eqs. (1)–(5); the payload is the equation number.
    Equation(u8),
    /// The striped-layout extension of eq. (4).
    StripedEquation,
    /// The urn-game asymptote `eq4 / (√(πD/2) − 1/3)` — a large-`N`
    /// estimate the simulation approaches from above.
    UrnAsymptote,
    /// The transfer-time lower bound `kBT/D` — simulation can only exceed
    /// it.
    TransferBound,
}

impl PredictionKind {
    /// `true` for the equations the paper validates two-sided (within a
    /// few percent); `false` for the one-sided asymptote/bound cases.
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            PredictionKind::Equation(_) | PredictionKind::StripedEquation
        )
    }

    /// Short stable label, e.g. `"eq4"` or `"kBT/D"`, used in manifests
    /// and reports.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            PredictionKind::Equation(n) => format!("eq{n}"),
            PredictionKind::StripedEquation => "eq4-striped".to_string(),
            PredictionKind::UrnAsymptote => "urn-asymptote".to_string(),
            PredictionKind::TransferBound => "kBT/D".to_string(),
        }
    }
}

/// A closed-form prediction of total merge time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Which analytical result applies.
    pub kind: PredictionKind,
    /// Predicted total time in seconds.
    pub secs: f64,
}

/// Returns the paper's closed-form prediction for a `k`-run merge over
/// `d` disks with the given strategy, synchronization, and layout — or
/// `None` when no analytical result covers the combination (striped
/// non-intra layouts, unsynchronized no-prefetch on multiple disks is
/// covered by eq. 3 since there is nothing to overlap, etc.).
///
/// The mapping:
///
/// | strategy | layout | sync | prediction |
/// |---|---|---|---|
/// | none | concat | any | eq. 1 (`d = 1`) / eq. 3 (`d > 1`) |
/// | intra | concat | any, `d = 1` | eq. 2 |
/// | intra | concat | sync, `d > 1` | eq. 4 |
/// | intra | concat | unsync, `d > 1` | urn asymptote (one-sided) |
/// | intra | striped | sync | striped extension of eq. 4 |
/// | inter | concat | sync | eq. 5 |
/// | inter | concat | unsync | `kBT/D` bound (one-sided) |
///
/// No-prefetch runs fetch one block at a time, so the CPU never overlaps
/// I/O and synchronization is irrelevant; likewise on a single disk there
/// is no cross-disk overlap and eqs. 1–2 hold for both modes.
///
/// # Panics
///
/// Panics if `d == 0` or a strategy depth is 0 (the underlying equations
/// assert on degenerate inputs).
#[must_use]
pub fn predict_total_secs(
    p: &ModelParams,
    k: u32,
    d: u32,
    strategy: StrategyShape,
    synchronized: bool,
    striped: bool,
) -> Option<Prediction> {
    let exact = |kind: PredictionKind, tau: f64| {
        Some(Prediction {
            kind,
            secs: total_seconds(p, k, tau),
        })
    };
    if striped {
        // Only the synchronized intra-run extension has a closed form.
        return match strategy {
            StrategyShape::IntraRun { n } if synchronized => exact(
                PredictionKind::StripedEquation,
                tau_striped_intra_sync(p, k, d, n),
            ),
            _ => None,
        };
    }
    match strategy {
        StrategyShape::NoPrefetch => {
            if d == 1 {
                exact(PredictionKind::Equation(1), tau_single_no_prefetch(p, k))
            } else {
                exact(PredictionKind::Equation(3), tau_multi_no_prefetch(p, k, d))
            }
        }
        StrategyShape::IntraRun { n } => {
            if d == 1 {
                exact(PredictionKind::Equation(2), tau_single_intra(p, k, n))
            } else if synchronized {
                exact(
                    PredictionKind::Equation(4),
                    tau_multi_intra_sync(p, k, d, n),
                )
            } else {
                Some(Prediction {
                    kind: PredictionKind::UrnAsymptote,
                    secs: intra_unsync_asymptotic_secs(p, k, d, n),
                })
            }
        }
        StrategyShape::InterRun { n } => {
            if synchronized {
                exact(PredictionKind::Equation(5), tau_inter_sync(p, k, d, n))
            } else {
                Some(Prediction {
                    kind: PredictionKind::TransferBound,
                    secs: multi_disk_lower_bound_secs(p, k, d),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equations;

    fn p() -> ModelParams {
        ModelParams::paper()
    }

    #[test]
    fn equation_mapping_matches_direct_calls() {
        let pp = p();
        let cases: [(StrategyShape, u32, bool, PredictionKind, f64); 7] = [
            (
                StrategyShape::NoPrefetch,
                1,
                false,
                PredictionKind::Equation(1),
                equations::tau_single_no_prefetch(&pp, 25),
            ),
            (
                StrategyShape::NoPrefetch,
                5,
                true,
                PredictionKind::Equation(3),
                equations::tau_multi_no_prefetch(&pp, 25, 5),
            ),
            (
                StrategyShape::IntraRun { n: 16 },
                1,
                false,
                PredictionKind::Equation(2),
                equations::tau_single_intra(&pp, 25, 16),
            ),
            (
                StrategyShape::IntraRun { n: 16 },
                1,
                true,
                PredictionKind::Equation(2),
                equations::tau_single_intra(&pp, 25, 16),
            ),
            (
                StrategyShape::IntraRun { n: 30 },
                5,
                true,
                PredictionKind::Equation(4),
                equations::tau_multi_intra_sync(&pp, 25, 5, 30),
            ),
            (
                StrategyShape::InterRun { n: 10 },
                5,
                true,
                PredictionKind::Equation(5),
                equations::tau_inter_sync(&pp, 25, 5, 10),
            ),
            (
                StrategyShape::IntraRun { n: 10 },
                5,
                true,
                PredictionKind::Equation(4),
                equations::tau_multi_intra_sync(&pp, 25, 5, 10),
            ),
        ];
        for (strategy, d, sync, kind, tau) in cases {
            let pred = predict_total_secs(&pp, 25, d, strategy, sync, false).unwrap();
            assert_eq!(pred.kind, kind, "{strategy:?} d={d} sync={sync}");
            assert!(
                (pred.secs - equations::total_seconds(&pp, 25, tau)).abs() < 1e-9,
                "{strategy:?}"
            );
            assert!(pred.kind.is_exact());
        }
    }

    #[test]
    fn one_sided_cases() {
        let pp = p();
        let urn = predict_total_secs(&pp, 25, 5, StrategyShape::IntraRun { n: 30 }, false, false)
            .unwrap();
        assert_eq!(urn.kind, PredictionKind::UrnAsymptote);
        assert!(!urn.kind.is_exact());
        assert!(
            (urn.secs - crate::bounds::intra_unsync_asymptotic_secs(&pp, 25, 5, 30)).abs() < 1e-9
        );

        let bound = predict_total_secs(&pp, 25, 5, StrategyShape::InterRun { n: 50 }, false, false)
            .unwrap();
        assert_eq!(bound.kind, PredictionKind::TransferBound);
        assert!((bound.secs - 10.8).abs() < 1e-9);
    }

    #[test]
    fn striped_mapping() {
        let pp = p();
        let pred =
            predict_total_secs(&pp, 25, 5, StrategyShape::IntraRun { n: 10 }, true, true).unwrap();
        assert_eq!(pred.kind, PredictionKind::StripedEquation);
        let expected =
            equations::total_seconds(&pp, 25, equations::tau_striped_intra_sync(&pp, 25, 5, 10));
        assert!((pred.secs - expected).abs() < 1e-9);
        // Unsynchronized striped and striped no-prefetch have no closed form.
        assert!(
            predict_total_secs(&pp, 25, 5, StrategyShape::IntraRun { n: 10 }, false, true)
                .is_none()
        );
        assert!(predict_total_secs(&pp, 25, 5, StrategyShape::NoPrefetch, true, true).is_none());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PredictionKind::Equation(4).label(), "eq4");
        assert_eq!(PredictionKind::StripedEquation.label(), "eq4-striped");
        assert_eq!(PredictionKind::UrnAsymptote.label(), "urn-asymptote");
        assert_eq!(PredictionKind::TransferBound.label(), "kBT/D");
    }
}
