//! Simulation output.

use pm_sim::SimDuration;

/// Everything one simulation run reports.
///
/// The two measures the paper plots are [`MergeReport::total`] (total
/// execution time) and [`MergeReport::success_ratio`]; the rest support the
/// analysis sections (concurrency, cost breakdown) and general diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Total execution time: from `t = 0` (initial load issued) until the
    /// CPU finishes merging the last block.
    pub total: SimDuration,
    /// Blocks merged (must equal `runs × run_blocks`).
    pub blocks_merged: u64,
    /// Demand-fetch operations (merge stalls that issued I/O).
    pub demand_ops: u64,
    /// Demand fetches that fell back to a single block because the cache
    /// could not admit the full prefetch.
    pub fallback_ops: u64,
    /// Prefetch operations admitted in full.
    pub full_prefetch_ops: u64,
    /// The paper's success ratio: `full_prefetch_ops / demand_ops`.
    /// `None` when no demand operation was issued.
    pub success_ratio: Option<f64>,
    /// Time-averaged number of busy disks over the whole run.
    pub avg_busy_disks: f64,
    /// Time-averaged number of busy disks over the intervals when at least
    /// one disk was busy (the paper's I/O concurrency).
    pub avg_concurrency: f64,
    /// Largest number of simultaneously busy disks observed.
    pub peak_busy_disks: u32,
    /// CPU time spent merging (`blocks_merged × cpu_per_block`).
    pub cpu_busy: SimDuration,
    /// Time the merge was stalled waiting for I/O.
    pub cpu_stall: SimDuration,
    /// Total seek time across all disks.
    pub seek_total: SimDuration,
    /// Total rotational latency across all disks.
    pub latency_total: SimDuration,
    /// Total transfer time across all disks.
    pub transfer_total: SimDuration,
    /// Disk requests serviced (one per block in this model).
    pub disk_requests: u64,
    /// Requests that streamed sequentially (no seek / latency).
    pub sequential_requests: u64,
    /// Per-disk busy time, indexed by disk.
    pub per_disk_busy: Vec<SimDuration>,
    /// Output blocks written (0 when write traffic is not modeled).
    pub write_blocks: u64,
    /// Total write-disk service time.
    pub write_busy: SimDuration,
}

impl MergeReport {
    /// Total execution time in seconds (the unit of the paper's figures).
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// Mean I/O time per merged block in milliseconds — comparable to the
    /// paper's `τ` for the strategies without overlap.
    #[must_use]
    pub fn tau_ms(&self) -> f64 {
        self.total.as_millis_f64() / self.blocks_merged as f64
    }

    /// Fraction of total time the CPU was stalled on I/O.
    #[must_use]
    pub fn stall_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.cpu_stall.as_secs_f64() / self.total.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MergeReport {
        MergeReport {
            total: SimDuration::from_millis(10_000),
            blocks_merged: 1_000,
            demand_ops: 100,
            fallback_ops: 25,
            full_prefetch_ops: 75,
            success_ratio: Some(0.75),
            avg_busy_disks: 2.0,
            avg_concurrency: 2.5,
            peak_busy_disks: 5,
            cpu_busy: SimDuration::ZERO,
            cpu_stall: SimDuration::from_millis(9_000),
            seek_total: SimDuration::from_millis(100),
            latency_total: SimDuration::from_millis(200),
            transfer_total: SimDuration::from_millis(2_160),
            disk_requests: 1_000,
            sequential_requests: 900,
            per_disk_busy: vec![SimDuration::from_millis(5_000); 5],
            write_blocks: 0,
            write_busy: SimDuration::ZERO,
        }
    }

    #[test]
    fn derived_quantities() {
        let r = report();
        assert_eq!(r.total_secs(), 10.0);
        assert_eq!(r.tau_ms(), 10.0);
        assert_eq!(r.stall_fraction(), 0.9);
    }

    #[test]
    fn zero_total_is_benign() {
        let mut r = report();
        r.total = SimDuration::ZERO;
        assert_eq!(r.stall_fraction(), 0.0);
    }
}
