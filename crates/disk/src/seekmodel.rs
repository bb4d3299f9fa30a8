//! Seek-time models.
//!
//! The paper uses a **linear** seek model (`S` per cylinder), noting that
//! "such a linear relationship overestimates the seek penalty" but adopting
//! it for simplicity. Real arms accelerate and settle, so measured seek
//! curves are closer to `settle + c·√d`. Both models are provided; the
//! `ablation_seek` experiment quantifies how much the model choice moves
//! the paper's results.

use pm_sim::SimDuration;

/// How seek time depends on cylinder distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekModel {
    /// `seek(d) = per_cylinder · d` — the paper's model.
    Linear {
        /// Cost per cylinder of distance (`S`).
        per_cylinder: SimDuration,
    },
    /// `seek(0) = 0`, `seek(d) = settle + per_sqrt_cylinder · √d` — the
    /// acceleration-limited model with a fixed head-settle component.
    SettleSqrt {
        /// Fixed settle time charged on any non-zero move.
        settle: SimDuration,
        /// Cost per √cylinder of distance.
        per_sqrt_cylinder: SimDuration,
    },
}

impl SeekModel {
    /// The paper's linear model at `S = 0.03 ms/cylinder`.
    #[must_use]
    pub fn paper() -> Self {
        SeekModel::Linear {
            per_cylinder: SimDuration::from_millis_f64(0.03),
        }
    }

    /// Seek time for a move of `distance` cylinders. Zero distance is
    /// always free (the head is already there).
    #[must_use]
    pub fn seek_time(&self, distance: u32) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        match *self {
            SeekModel::Linear { per_cylinder } => per_cylinder * u64::from(distance),
            SeekModel::SettleSqrt {
                settle,
                per_sqrt_cylinder,
            } => {
                let sqrt_ns = per_sqrt_cylinder.as_nanos() as f64 * f64::from(distance).sqrt();
                settle + SimDuration::from_nanos(sqrt_ns.round() as u64)
            }
        }
    }

    /// The linear coefficient `S`, if this is the linear model. The
    /// closed-form analysis of `pm-analysis` is only valid for linear
    /// seeks.
    #[must_use]
    pub fn linear_per_cylinder(&self) -> Option<SimDuration> {
        match *self {
            SeekModel::Linear { per_cylinder } => Some(per_cylinder),
            SeekModel::SettleSqrt { .. } => None,
        }
    }

    /// A settle+√d model calibrated to cross the linear model at
    /// `crossover` cylinders: cheaper for long seeks, costlier for short
    /// ones — the qualitative shape of measured seek curves.
    ///
    /// # Panics
    ///
    /// Panics if `crossover == 0`.
    #[must_use]
    pub fn sqrt_calibrated(linear_per_cylinder: SimDuration, crossover: u32) -> Self {
        assert!(crossover > 0, "crossover must be positive");
        // Split the linear cost at the crossover evenly between the settle
        // term and the sqrt term: settle + c·√x = S·x with settle = S·x/2.
        let at_crossover = linear_per_cylinder * u64::from(crossover);
        let settle = at_crossover / 2;
        let c_ns = (at_crossover.as_nanos() / 2) as f64 / f64::from(crossover).sqrt();
        SeekModel::SettleSqrt {
            settle,
            per_sqrt_cylinder: SimDuration::from_nanos(c_ns.round() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_is_free_for_both_models() {
        assert_eq!(SeekModel::paper().seek_time(0), SimDuration::ZERO);
        let sqrt = SeekModel::sqrt_calibrated(SimDuration::from_millis_f64(0.03), 100);
        assert_eq!(sqrt.seek_time(0), SimDuration::ZERO);
    }

    #[test]
    fn linear_scales_with_distance() {
        let m = SeekModel::paper();
        assert_eq!(m.seek_time(100).as_millis_f64(), 3.0);
        assert_eq!(m.seek_time(200).as_millis_f64(), 6.0);
        assert_eq!(
            m.linear_per_cylinder(),
            Some(SimDuration::from_millis_f64(0.03))
        );
    }

    #[test]
    fn sqrt_model_is_concave() {
        let m = SeekModel::SettleSqrt {
            settle: SimDuration::from_millis(1),
            per_sqrt_cylinder: SimDuration::from_millis_f64(0.2),
        };
        let t100 = m.seek_time(100).as_millis_f64();
        let t400 = m.seek_time(400).as_millis_f64();
        // 4x the distance costs only 2x the sqrt component.
        assert!((t100 - 3.0).abs() < 1e-6, "t100={t100}");
        assert!((t400 - 5.0).abs() < 1e-6, "t400={t400}");
        assert_eq!(m.linear_per_cylinder(), None);
    }

    #[test]
    fn calibration_crosses_the_linear_model() {
        let s = SimDuration::from_millis_f64(0.03);
        let linear = SeekModel::Linear { per_cylinder: s };
        let sqrt = SeekModel::sqrt_calibrated(s, 100);
        // Equal at the crossover (within rounding)...
        let a = linear.seek_time(100).as_millis_f64();
        let b = sqrt.seek_time(100).as_millis_f64();
        assert!((a - b).abs() < 0.01, "{a} vs {b}");
        // ...costlier below, cheaper above.
        assert!(sqrt.seek_time(10) > linear.seek_time(10));
        assert!(sqrt.seek_time(800) < linear.seek_time(800));
    }
}
