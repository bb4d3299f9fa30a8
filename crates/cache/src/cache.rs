//! The counting block cache.

use pm_sim::SimTime;
use pm_trace::{EventKind, TraceEvent, TraceSink};

/// Identifies one sorted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(pub u32);

/// Per-run occupancy bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RunSlots {
    /// Blocks that have arrived and not yet been depleted.
    resident: u32,
    /// Blocks reserved for in-flight I/O.
    reserved: u32,
}

/// A cache of `capacity` block frames shared by `k` runs.
///
/// Maintains the invariant `Σ resident + Σ reserved + free == capacity`.
/// All mutations assert their preconditions — a violation indicates a bug
/// in the simulator driving the cache, so it panics rather than continuing
/// with corrupt accounting.
///
/// # Examples
///
/// ```
/// use pm_cache::{BlockCache, RunId};
/// use pm_sim::SimTime;
/// use pm_trace::NullSink;
///
/// let mut cache = BlockCache::new(10, 2);
/// assert!(cache.try_reserve(RunId(0), 4));
/// assert_eq!(cache.free(), 6);
/// cache.block_arrived(RunId(0));
/// assert_eq!(cache.resident(RunId(0)), 1);
/// cache.deplete(RunId(0), SimTime::ZERO, &mut NullSink);
/// assert_eq!(cache.free(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCache {
    capacity: u32,
    free: u32,
    runs: Vec<RunSlots>,
}

impl BlockCache {
    /// Creates an empty cache of `capacity` block frames for `num_runs`
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `num_runs` is zero.
    #[must_use]
    pub fn new(capacity: u32, num_runs: u32) -> Self {
        assert!(capacity > 0, "cache needs at least one frame");
        assert!(num_runs > 0, "cache needs at least one run");
        BlockCache {
            capacity,
            free: capacity,
            runs: vec![RunSlots::default(); num_runs as usize],
        }
    }

    /// Total frame count `C`.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Frames neither resident nor reserved.
    #[must_use]
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Number of runs the cache tracks.
    #[must_use]
    pub fn num_runs(&self) -> u32 {
        self.runs.len() as u32
    }

    /// Resident (arrived, undepleted) blocks of `run`.
    #[must_use]
    pub fn resident(&self, run: RunId) -> u32 {
        self.slots(run).resident
    }

    /// Reserved (in-flight) blocks of `run`.
    #[must_use]
    pub fn reserved(&self, run: RunId) -> u32 {
        self.slots(run).reserved
    }

    /// Resident plus reserved blocks of `run` — the paper's `a(i)` counter,
    /// which is incremented at issue time.
    #[must_use]
    pub fn held(&self, run: RunId) -> u32 {
        let s = self.slots(run);
        s.resident + s.reserved
    }

    /// Total resident blocks across all runs.
    #[must_use]
    pub fn total_resident(&self) -> u32 {
        self.runs.iter().map(|s| s.resident).sum()
    }

    /// Total reserved blocks across all runs.
    #[must_use]
    pub fn total_reserved(&self) -> u32 {
        self.runs.iter().map(|s| s.reserved).sum()
    }

    /// Reserves `n` frames for an I/O issued on behalf of `run`, if the
    /// free space allows. Returns whether the reservation was made.
    #[must_use]
    pub fn try_reserve(&mut self, run: RunId, n: u32) -> bool {
        if self.free < n {
            return false;
        }
        self.free -= n;
        self.slots_mut(run).reserved += n;
        true
    }

    /// Reserves `n` frames that the caller has already proven available.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` frames are free — this indicates the
    /// simulator violated a cache-sizing invariant (e.g. intra-run
    /// prefetching with `C < kN`).
    pub fn reserve(&mut self, run: RunId, n: u32) {
        assert!(
            self.try_reserve(run, n),
            "cache over-committed: need {n} frames, {} free",
            self.free
        );
    }

    /// Atomically reserves every group or none (the paper's all-or-nothing
    /// admission). Returns whether the reservation was made.
    #[must_use]
    pub fn try_reserve_all(&mut self, groups: &[(RunId, u32)]) -> bool {
        let total: u32 = groups.iter().map(|&(_, n)| n).sum();
        if self.free < total {
            return false;
        }
        for &(run, n) in groups {
            self.free -= n;
            self.slots_mut(run).reserved += n;
        }
        true
    }

    /// [`BlockCache::try_reserve_all`] over [`PrefetchGroup`](crate::PrefetchGroup)s directly,
    /// so admission policies need not repack the request into pairs —
    /// this is the allocation-free path the simulator's demand loop uses.
    #[must_use]
    pub fn try_reserve_groups(&mut self, groups: &[crate::PrefetchGroup]) -> bool {
        let total: u32 = groups.iter().map(|g| g.blocks).sum();
        if self.free < total {
            return false;
        }
        for g in groups {
            self.free -= g.blocks;
            self.slots_mut(g.run).reserved += g.blocks;
        }
        true
    }

    /// Converts one reserved frame of `run` into a resident block (an
    /// in-flight block arrived from disk).
    ///
    /// # Panics
    ///
    /// Panics if `run` has no reserved frames.
    pub fn block_arrived(&mut self, run: RunId) {
        let s = self.slots_mut(run);
        assert!(
            s.reserved > 0,
            "arrival for run {run:?} with no reservation"
        );
        s.reserved -= 1;
        s.resident += 1;
    }

    /// Consumes the leading resident block of `run` at `now`, freeing its
    /// frame, and emits a [`EventKind::CacheEvictConsumed`] (with the free
    /// count *after* the frame returned) into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `run` has no resident blocks — the merge must wait for a
    /// demand fetch instead.
    pub fn deplete<S: TraceSink>(&mut self, run: RunId, now: SimTime, sink: &mut S) {
        let s = self.slots_mut(run);
        assert!(
            s.resident > 0,
            "depletion of run {run:?} with no resident block"
        );
        s.resident -= 1;
        self.free += 1;
        if S::ENABLED {
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::CacheEvictConsumed {
                    run: run.0,
                    free: self.free,
                },
            });
        }
    }

    /// Releases `n` reserved frames of `run` without an arrival (used when
    /// an issued I/O is clamped at end-of-run).
    ///
    /// # Panics
    ///
    /// Panics if `run` has fewer than `n` reserved frames.
    pub fn cancel_reservation(&mut self, run: RunId, n: u32) {
        let s = self.slots_mut(run);
        assert!(s.reserved >= n, "cancel of {n} exceeds reservation");
        s.reserved -= n;
        self.free += n;
    }

    /// Debug check of the accounting invariant.
    #[must_use]
    pub fn invariant_holds(&self) -> bool {
        self.total_resident() + self.total_reserved() + self.free == self.capacity
    }

    fn slots(&self, run: RunId) -> &RunSlots {
        &self.runs[run.0 as usize]
    }

    fn slots_mut(&mut self, run: RunId) -> &mut RunSlots {
        &mut self.runs[run.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_trace::NullSink;

    #[test]
    fn new_cache_is_all_free() {
        let c = BlockCache::new(100, 5);
        assert_eq!(c.capacity(), 100);
        assert_eq!(c.free(), 100);
        assert_eq!(c.total_resident(), 0);
        assert!(c.invariant_holds());
    }

    #[test]
    fn reserve_arrive_deplete_cycle() {
        let mut c = BlockCache::new(10, 2);
        assert!(c.try_reserve(RunId(1), 3));
        assert_eq!(c.free(), 7);
        assert_eq!(c.reserved(RunId(1)), 3);
        assert_eq!(c.held(RunId(1)), 3);
        assert!(c.invariant_holds());

        c.block_arrived(RunId(1));
        assert_eq!(c.reserved(RunId(1)), 2);
        assert_eq!(c.resident(RunId(1)), 1);
        assert_eq!(c.held(RunId(1)), 3);
        assert!(c.invariant_holds());

        c.deplete(RunId(1), SimTime::ZERO, &mut NullSink);
        assert_eq!(c.resident(RunId(1)), 0);
        assert_eq!(c.free(), 8);
        assert!(c.invariant_holds());
    }

    #[test]
    fn try_reserve_fails_without_space() {
        let mut c = BlockCache::new(5, 1);
        assert!(c.try_reserve(RunId(0), 5));
        assert!(!c.try_reserve(RunId(0), 1));
        assert_eq!(c.free(), 0);
        assert!(c.invariant_holds());
    }

    #[test]
    fn all_or_nothing_reserves_everything_or_nothing() {
        let mut c = BlockCache::new(10, 3);
        let groups = [(RunId(0), 4), (RunId(1), 4), (RunId(2), 4)];
        assert!(!c.try_reserve_all(&groups));
        // Nothing was taken.
        assert_eq!(c.free(), 10);
        assert_eq!(c.total_reserved(), 0);

        let smaller = [(RunId(0), 4), (RunId(1), 4)];
        assert!(c.try_reserve_all(&smaller));
        assert_eq!(c.free(), 2);
        assert_eq!(c.reserved(RunId(0)), 4);
        assert_eq!(c.reserved(RunId(1)), 4);
        assert!(c.invariant_holds());
    }

    #[test]
    fn cancel_returns_frames() {
        let mut c = BlockCache::new(10, 1);
        c.reserve(RunId(0), 6);
        c.cancel_reservation(RunId(0), 2);
        assert_eq!(c.reserved(RunId(0)), 4);
        assert_eq!(c.free(), 6);
        assert!(c.invariant_holds());
    }

    #[test]
    #[should_panic(expected = "no resident block")]
    fn depleting_empty_run_panics() {
        let mut c = BlockCache::new(10, 1);
        c.deplete(RunId(0), SimTime::ZERO, &mut NullSink);
    }

    #[test]
    #[should_panic(expected = "no reservation")]
    fn arrival_without_reservation_panics() {
        let mut c = BlockCache::new(10, 1);
        c.block_arrived(RunId(0));
    }

    #[test]
    #[should_panic(expected = "over-committed")]
    fn reserve_beyond_capacity_panics() {
        let mut c = BlockCache::new(4, 1);
        c.reserve(RunId(0), 5);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = BlockCache::new(0, 1);
    }

    #[test]
    fn multiple_runs_are_independent() {
        let mut c = BlockCache::new(6, 3);
        c.reserve(RunId(0), 2);
        c.reserve(RunId(2), 2);
        c.block_arrived(RunId(0));
        assert_eq!(c.resident(RunId(0)), 1);
        assert_eq!(c.resident(RunId(2)), 0);
        assert_eq!(c.reserved(RunId(2)), 2);
        assert_eq!(c.free(), 2);
        assert!(c.invariant_holds());
    }
}
