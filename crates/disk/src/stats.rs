//! Per-disk service statistics.

use pm_sim::SimDuration;
use pm_stats::{Histogram, HistogramSlot, OnlineStats};

/// Accumulated statistics for one disk.
///
/// Everything the experiments report about a drive: how many requests it
/// served, where the service time went (seek / rotational latency /
/// transfer), how long requests waited in queue, total busy time, and the
/// distribution of seek distances (compared against the Kwan–Baer
/// closed form by the test suite).
#[derive(Debug, Clone)]
pub struct DiskStats {
    requests: u64,
    sequential_requests: u64,
    blocks: u64,
    seek_total: SimDuration,
    latency_total: SimDuration,
    transfer_total: SimDuration,
    /// Queue-wait moments in raw nanoseconds. Accumulated in integer
    /// arithmetic — exact, associative under [`DiskStats::merge`], and
    /// cheaper per request than a floating-point Welford update — then
    /// converted to an [`OnlineStats`] summary on demand.
    queue_wait_sum_ns: u128,
    queue_wait_sumsq_ns: u128,
    queue_wait_min_ns: u64,
    queue_wait_max_ns: u64,
    seek_distance: Histogram,
    /// `seek_slots[d]` is the histogram slot for a seek of `d` cylinders,
    /// precomputed with `Histogram::slot_of` over the whole (small,
    /// integer) seek-distance domain — the per-request float conversion
    /// and bin division collapse to one table load with bit-identical
    /// counts.
    seek_slots: Vec<HistogramSlot>,
}

impl DiskStats {
    /// Creates zeroed statistics; `max_cylinder` bounds the seek-distance
    /// histogram.
    #[must_use]
    pub fn new(max_cylinder: u32) -> Self {
        let seek_distance = Histogram::new(0.0, f64::from(max_cylinder.max(1)), 64);
        let seek_slots = (0..=max_cylinder)
            .map(|d| seek_distance.slot_of(f64::from(d)))
            .collect();
        DiskStats {
            requests: 0,
            sequential_requests: 0,
            blocks: 0,
            seek_total: SimDuration::ZERO,
            latency_total: SimDuration::ZERO,
            transfer_total: SimDuration::ZERO,
            queue_wait_sum_ns: 0,
            queue_wait_sumsq_ns: 0,
            queue_wait_min_ns: u64::MAX,
            queue_wait_max_ns: 0,
            seek_distance,
            seek_slots,
        }
    }

    #[inline]
    pub(crate) fn record_service(
        &mut self,
        breakdown: crate::ServiceBreakdown,
        blocks: u64,
        seek_cylinders: u32,
        queue_wait: SimDuration,
        sequential: bool,
    ) {
        self.requests += 1;
        self.sequential_requests += u64::from(sequential);
        self.blocks += blocks;
        self.seek_total += breakdown.seek;
        self.latency_total += breakdown.latency;
        self.transfer_total += breakdown.transfer;
        let wait_ns = queue_wait.as_nanos();
        self.queue_wait_sum_ns += u128::from(wait_ns);
        self.queue_wait_sumsq_ns += u128::from(wait_ns) * u128::from(wait_ns);
        self.queue_wait_min_ns = self.queue_wait_min_ns.min(wait_ns);
        self.queue_wait_max_ns = self.queue_wait_max_ns.max(wait_ns);
        if !sequential {
            match self.seek_slots.get(seek_cylinders as usize) {
                Some(&slot) => self.seek_distance.record_slot(slot),
                // Distances beyond the advertised cylinder count (callers
                // are free to pass them) fall back to direct classification.
                None => self.seek_distance.record(f64::from(seek_cylinders)),
            }
        }
    }

    /// Requests served.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests that streamed sequentially (no seek, no latency).
    #[must_use]
    pub fn sequential_requests(&self) -> u64 {
        self.sequential_requests
    }

    /// Blocks transferred.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Total seek time.
    #[must_use]
    pub fn seek_total(&self) -> SimDuration {
        self.seek_total
    }

    /// Total rotational latency.
    #[must_use]
    pub fn latency_total(&self) -> SimDuration {
        self.latency_total
    }

    /// Total transfer time.
    #[must_use]
    pub fn transfer_total(&self) -> SimDuration {
        self.transfer_total
    }

    /// Total time the disk spent servicing requests.
    ///
    /// Derived on demand: every service's busy time is exactly
    /// `seek + latency + transfer`, and the nanosecond sums are integer
    /// additions, so summing the three components equals summing per-request
    /// totals bit-for-bit — one less field on the per-completion hot path.
    #[must_use]
    pub fn busy_total(&self) -> SimDuration {
        self.seek_total + self.latency_total + self.transfer_total
    }

    /// Queue-wait statistics, in milliseconds (one sample per request),
    /// summarized from the exact integer moments.
    #[must_use]
    pub fn queue_wait_ms(&self) -> OnlineStats {
        const NS_PER_MS: f64 = 1.0e6;
        OnlineStats::from_moments(
            self.requests,
            self.queue_wait_sum_ns as f64 / NS_PER_MS,
            self.queue_wait_sumsq_ns as f64 / (NS_PER_MS * NS_PER_MS),
            self.queue_wait_min_ns as f64 / NS_PER_MS,
            self.queue_wait_max_ns as f64 / NS_PER_MS,
        )
    }

    /// Seek-distance histogram (cylinders; non-sequential requests only).
    #[must_use]
    pub fn seek_distance(&self) -> &Histogram {
        &self.seek_distance
    }

    /// Mean service time per request in milliseconds; `None` if idle.
    #[must_use]
    pub fn mean_service_ms(&self) -> Option<f64> {
        if self.requests == 0 {
            None
        } else {
            Some(self.busy_total().as_millis_f64() / self.requests as f64)
        }
    }

    /// Merges another disk's statistics into this one (for array-level
    /// aggregation).
    pub fn merge(&mut self, other: &DiskStats) {
        self.requests += other.requests;
        self.sequential_requests += other.sequential_requests;
        self.blocks += other.blocks;
        self.seek_total += other.seek_total;
        self.latency_total += other.latency_total;
        self.transfer_total += other.transfer_total;
        self.queue_wait_sum_ns += other.queue_wait_sum_ns;
        self.queue_wait_sumsq_ns += other.queue_wait_sumsq_ns;
        self.queue_wait_min_ns = self.queue_wait_min_ns.min(other.queue_wait_min_ns);
        self.queue_wait_max_ns = self.queue_wait_max_ns.max(other.queue_wait_max_ns);
        self.seek_distance.merge(&other.seek_distance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceBreakdown;

    fn sample_breakdown() -> ServiceBreakdown {
        ServiceBreakdown {
            seek: SimDuration::from_millis(1),
            latency: SimDuration::from_millis(8),
            transfer: SimDuration::from_millis(2),
        }
    }

    #[test]
    fn records_accumulate() {
        let mut s = DiskStats::new(840);
        s.record_service(
            sample_breakdown(),
            1,
            33,
            SimDuration::from_millis(4),
            false,
        );
        s.record_service(
            ServiceBreakdown {
                transfer: SimDuration::from_millis(2),
                ..Default::default()
            },
            1,
            0,
            SimDuration::ZERO,
            true,
        );
        assert_eq!(s.requests(), 2);
        assert_eq!(s.sequential_requests(), 1);
        assert_eq!(s.blocks(), 2);
        assert_eq!(s.seek_total(), SimDuration::from_millis(1));
        assert_eq!(s.busy_total(), SimDuration::from_millis(13));
        assert_eq!(s.mean_service_ms(), Some(6.5));
        // Only the non-sequential request contributes a seek distance.
        assert_eq!(s.seek_distance().count(), 1);
    }

    #[test]
    fn idle_disk_has_no_mean() {
        assert_eq!(DiskStats::new(10).mean_service_ms(), None);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = DiskStats::new(840);
        let mut b = DiskStats::new(840);
        a.record_service(sample_breakdown(), 1, 5, SimDuration::ZERO, false);
        b.record_service(sample_breakdown(), 3, 7, SimDuration::from_millis(1), false);
        a.merge(&b);
        assert_eq!(a.requests(), 2);
        assert_eq!(a.blocks(), 4);
        assert_eq!(a.busy_total(), SimDuration::from_millis(22));
        assert_eq!(a.queue_wait_ms().count(), 2);
    }
}
