//! The simulation executive: clock + future-event list.

use crate::{EventQueue, SimDuration, SimTime};

/// Drives a simulation: owns the clock and the event list, enforces
/// monotonically non-decreasing time, and counts dispatched events.
///
/// Components schedule events with [`Executive::schedule_at`] /
/// [`Executive::schedule_in`]; the main loop repeatedly calls
/// [`Executive::next`], which advances the clock to the fire time and hands
/// the event back for dispatch. This is the calendar-queue equivalent of
/// CSIM's process scheduler.
///
/// # Examples
///
/// ```
/// use pm_sim::{Executive, SimDuration};
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut exec = Executive::new();
/// exec.schedule_in(SimDuration::from_millis(2), Ev::Pong);
/// exec.schedule_in(SimDuration::from_millis(1), Ev::Ping);
/// assert_eq!(exec.next(), Some(Ev::Ping));
/// assert_eq!(exec.now().as_millis_f64(), 1.0);
/// assert_eq!(exec.next(), Some(Ev::Pong));
/// assert_eq!(exec.next(), None);
/// ```
pub struct Executive<E> {
    queue: EventQueue<E>,
    now: SimTime,
    dispatched: u64,
}

impl<E: Copy> Default for Executive<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> Executive<E> {
    /// Creates an executive with the clock at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        Executive {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Creates an executive whose event list has room for `capacity`
    /// pending events, so a simulation with a known event-list bound
    /// (O(D) for the merge simulator) never reallocates it.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Executive {
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the simulated past.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {} < {}",
            time.as_nanos(),
            self.now.as_nanos()
        );
        self.queue.schedule(time, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Advances the clock to the next event and returns it, or `None` when
    /// the event list is exhausted (simulation complete).
    // Deliberately named like `Iterator::next`: the executive *is* a
    // stream of events, but implementing `Iterator` would hide the clock
    // side effect behind trait genericity.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<E> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event list produced a past event");
        self.now = time;
        self.dispatched += 1;
        Some(event)
    }

    /// Fire time of the next pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut exec: Executive<u32> = Executive::new();
        exec.schedule_in(SimDuration::from_millis(5), 1);
        exec.schedule_in(SimDuration::from_millis(3), 2);
        assert_eq!(exec.next(), Some(2));
        let t1 = exec.now();
        assert_eq!(exec.next(), Some(1));
        assert!(exec.now() >= t1);
        assert_eq!(exec.dispatched(), 2);
    }

    #[test]
    fn schedule_relative_to_advanced_clock() {
        let mut exec: Executive<&str> = Executive::new();
        exec.schedule_in(SimDuration::from_millis(1), "first");
        exec.next();
        exec.schedule_in(SimDuration::from_millis(1), "second");
        exec.next();
        assert_eq!(exec.now().as_millis_f64(), 2.0);
    }

    #[test]
    fn empty_executive_is_done() {
        let mut exec: Executive<()> = Executive::new();
        assert_eq!(exec.next(), None);
        assert_eq!(exec.pending(), 0);
        assert_eq!(exec.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut exec: Executive<()> = Executive::new();
        exec.schedule_in(SimDuration::from_millis(10), ());
        exec.next();
        exec.schedule_at(SimTime::from_nanos(1), ());
    }

    #[test]
    fn zero_delay_event_fires_now() {
        let mut exec: Executive<&str> = Executive::new();
        exec.schedule_in(SimDuration::from_millis(4), "later");
        exec.next();
        exec.schedule_in(SimDuration::ZERO, "now");
        assert_eq!(exec.next(), Some("now"));
        assert_eq!(exec.now().as_millis_f64(), 4.0);
    }

    #[test]
    fn events_at_same_time_fifo_through_executive() {
        let mut exec: Executive<u32> = Executive::new();
        for i in 0..10 {
            exec.schedule_at(SimTime::from_nanos(100), i);
        }
        for i in 0..10 {
            assert_eq!(exec.next(), Some(i));
        }
    }
}
