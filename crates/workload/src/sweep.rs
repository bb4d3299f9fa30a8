//! Parameter-sweep scaffolding.

use pm_core::MergeConfig;
#[cfg(test)]
use pm_core::ScenarioBuilder;

/// One point of a sweep: the independent variable's value and the
/// fully-built configuration to simulate there.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The independent variable (e.g. `N`, cache blocks, CPU ms/block).
    pub x: f64,
    /// Configuration to simulate.
    pub config: MergeConfig,
}

/// A named series of sweep points (one curve of a figure).
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Legend label, e.g. `"All Disks One Run (25 runs, 5 disks)"`.
    pub label: String,
    /// Axis label of the independent variable.
    pub x_label: String,
    /// The points, in ascending `x`.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Builds a sweep by applying `make` to each value of `xs`.
    pub fn build<I, F>(
        label: impl Into<String>,
        x_label: impl Into<String>,
        xs: I,
        mut make: F,
    ) -> Self
    where
        I: IntoIterator<Item = f64>,
        F: FnMut(f64) -> MergeConfig,
    {
        let points = xs
            .into_iter()
            .map(|x| SweepPoint { x, config: make(x) })
            .collect();
        Sweep {
            label: label.into(),
            x_label: x_label.into(),
            points,
        }
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the sweep has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Validates every point's configuration.
    ///
    /// # Errors
    ///
    /// Returns the first invalid point's error together with its `x`.
    pub fn validate(&self) -> Result<(), (f64, pm_core::ConfigError)> {
        for p in &self.points {
            p.config.validate().map_err(|e| (p.x, e))?;
        }
        Ok(())
    }

    /// Returns a copy keeping every `stride`-th point plus the last one, so
    /// quick modes preserve a curve's shape and both endpoints. Each kept
    /// point is unchanged (same `x`, same config, same seed), so a thinned
    /// sweep's results are a subset of the full sweep's.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    #[must_use]
    pub fn thinned(&self, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        let last = self.points.len().saturating_sub(1);
        let points = self
            .points
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % stride == 0 || i == last)
            .map(|(_, p)| p.clone())
            .collect();
        Sweep {
            label: self.label.clone(),
            x_label: self.x_label.clone(),
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_maps_values() {
        let s = Sweep::build("demo", "N", (1..=5).map(f64::from), |x| {
            ScenarioBuilder::new(25, 5).intra(x as u32).build().unwrap()
        });
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.points[2].x, 3.0);
        assert_eq!(s.points[2].config.cache_blocks, 75);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn thinned_keeps_stride_and_endpoints() {
        let s = Sweep::build("demo", "N", (1..=10).map(f64::from), |x| {
            ScenarioBuilder::new(25, 5).intra(x as u32).build().unwrap()
        });
        let t = s.thinned(4);
        assert_eq!(
            t.points.iter().map(|p| p.x).collect::<Vec<_>>(),
            vec![1.0, 5.0, 9.0, 10.0]
        );
        assert_eq!(t.label, s.label);
        // Kept points are unchanged.
        assert_eq!(t.points[1].config, s.points[4].config);
        // Stride 1 is the identity.
        assert_eq!(s.thinned(1).len(), s.len());
    }

    #[test]
    fn validate_reports_offending_x() {
        let mut s = Sweep::build("bad", "N", [4.0], |x| {
            ScenarioBuilder::new(25, 5).intra(x as u32).build().unwrap()
        });
        s.points[0].config.cache_blocks = 1;
        let err = s.validate().unwrap_err();
        assert_eq!(err.0, 4.0);
    }
}
