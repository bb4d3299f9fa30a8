//! Per-disk service statistics.

use pm_sim::SimDuration;

/// Accumulated statistics for one disk.
///
/// The paper prices every request as seek + rotational latency + transfer,
/// and every per-drive figure the simulator reports is a sum of those
/// terms: how many requests the drive served, how many of them streamed
/// sequentially, and where its service time went. These five sums are all
/// the disk keeps; busy time is derived from the last three.
#[derive(Debug, Clone, Default)]
pub struct DiskStats {
    requests: u64,
    sequential_requests: u64,
    seek_total: SimDuration,
    latency_total: SimDuration,
    transfer_total: SimDuration,
}

impl DiskStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_service(&mut self, breakdown: crate::ServiceBreakdown, sequential: bool) {
        self.requests += 1;
        self.sequential_requests += u64::from(sequential);
        self.seek_total += breakdown.seek;
        self.latency_total += breakdown.latency;
        self.transfer_total += breakdown.transfer;
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
    /// totals bit-for-bit.
    #[must_use]
    pub fn busy_total(&self) -> SimDuration {
        self.seek_total + self.latency_total + self.transfer_total
    }

    /// Merges another disk's statistics into this one (for array-level
    /// aggregation).
    pub fn merge(&mut self, other: &DiskStats) {
        self.requests += other.requests;
        self.sequential_requests += other.sequential_requests;
        self.seek_total += other.seek_total;
        self.latency_total += other.latency_total;
        self.transfer_total += other.transfer_total;
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
        let mut s = DiskStats::new();
        s.record_service(sample_breakdown(), false);
        s.record_service(
            ServiceBreakdown {
                transfer: SimDuration::from_millis(2),
                ..Default::default()
            },
            true,
        );
        assert_eq!(s.requests(), 2);
        assert_eq!(s.sequential_requests(), 1);
        assert_eq!(s.seek_total(), SimDuration::from_millis(1));
        assert_eq!(s.busy_total(), SimDuration::from_millis(13));
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = DiskStats::new();
        let mut b = DiskStats::new();
        a.record_service(sample_breakdown(), false);
        b.record_service(sample_breakdown(), false);
        a.merge(&b);
        assert_eq!(a.requests(), 2);
        assert_eq!(a.busy_total(), SimDuration::from_millis(22));
    }
}
