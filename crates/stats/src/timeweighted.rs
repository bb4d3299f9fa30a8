//! Time-weighted averaging of a step function.

/// Accumulates the time-weighted average of a piecewise-constant signal.
///
/// The merge simulator uses this to compute the paper's *average I/O
/// concurrency* (the time-averaged number of simultaneously busy disks) and
/// per-disk utilization. Time is supplied by the caller as a monotonically
/// non-decreasing `f64` (the simulator passes simulated nanoseconds).
///
/// The value recorded at time `t` is taken to hold from `t` until the next
/// recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: Option<f64>,
    last_time: f64,
    last_value: f64,
    weighted_sum: f64,
    max_value: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            start: None,
            last_time: 0.0,
            last_value: 0.0,
            weighted_sum: 0.0,
            max_value: f64::NEG_INFINITY,
        }
    }

    /// Records that the signal takes `value` from time `time` onward.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous recording.
    pub fn record(&mut self, time: f64, value: f64) {
        match self.start {
            None => {
                self.start = Some(time);
            }
            Some(_) => {
                assert!(
                    time >= self.last_time,
                    "time must be non-decreasing: {} < {}",
                    time,
                    self.last_time
                );
                self.weighted_sum += self.last_value * (time - self.last_time);
            }
        }
        self.last_time = time;
        self.last_value = value;
        self.max_value = self.max_value.max(value);
    }

    /// Closes the observation window at `end` and returns the time-weighted
    /// average over `[first_record, end]`.
    ///
    /// Returns `None` if nothing was recorded or the window has zero length.
    ///
    /// # Panics
    ///
    /// Panics if `end` is earlier than the last recording.
    #[must_use]
    pub fn average_until(&self, end: f64) -> Option<f64> {
        let start = self.start?;
        assert!(
            end >= self.last_time,
            "end must not precede the last recording"
        );
        let span = end - start;
        if span <= 0.0 {
            return None;
        }
        let total = self.weighted_sum + self.last_value * (end - self.last_time);
        Some(total / span)
    }

    /// Largest value ever recorded; `None` if nothing recorded.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.start.map(|_| self.max_value)
    }

    /// The most recently recorded value; `0.0` before any recording.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal() {
        let mut tw = TimeWeighted::new();
        tw.record(0.0, 3.0);
        assert_eq!(tw.average_until(10.0), Some(3.0));
    }

    #[test]
    fn step_signal() {
        let mut tw = TimeWeighted::new();
        tw.record(0.0, 0.0);
        tw.record(5.0, 10.0);
        // 0 for 5 time units, 10 for 5 time units => average 5.
        assert_eq!(tw.average_until(10.0), Some(5.0));
        assert_eq!(tw.max(), Some(10.0));
    }

    #[test]
    fn window_starts_at_first_record() {
        let mut tw = TimeWeighted::new();
        tw.record(100.0, 2.0);
        tw.record(110.0, 4.0);
        // [100,110): 2, [110,120): 4 => 3 over 20 units.
        assert_eq!(tw.average_until(120.0), Some(3.0));
    }

    #[test]
    fn empty_yields_none() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.average_until(10.0), None);
        assert_eq!(tw.max(), None);
    }

    #[test]
    fn zero_span_yields_none() {
        let mut tw = TimeWeighted::new();
        tw.record(5.0, 1.0);
        assert_eq!(tw.average_until(5.0), None);
    }

    #[test]
    fn repeated_time_records_are_allowed() {
        let mut tw = TimeWeighted::new();
        tw.record(0.0, 1.0);
        tw.record(0.0, 2.0); // instantaneous overwrite
        assert_eq!(tw.average_until(10.0), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut tw = TimeWeighted::new();
        tw.record(10.0, 1.0);
        tw.record(5.0, 2.0);
    }

    #[test]
    fn current_tracks_last_value() {
        let mut tw = TimeWeighted::new();
        assert_eq!(tw.current(), 0.0);
        tw.record(0.0, 7.0);
        assert_eq!(tw.current(), 7.0);
    }
}
