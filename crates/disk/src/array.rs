//! A set of independently operating disks.

use pm_sim::SimTime;
use pm_trace::TraceSink;

use crate::{
    CompletedRequest, Disk, DiskId, DiskRequest, DiskSpec, DiskStats, QueueDiscipline, RequestId,
    StartedService,
};

/// `D` independent drives with a common specification.
///
/// The paper's input subsystem: the disks share no mechanism (each has its
/// own head, queue, and latency stream) and the channel is assumed wide
/// enough for all of them to transfer concurrently — so the array simply
/// routes requests to the addressed drive.
#[derive(Debug, Clone)]
pub struct DiskArray {
    disks: Vec<Disk>,
    /// Drives currently servicing a request, maintained incrementally on
    /// submit/complete so the per-event busy query is O(1), not O(D).
    busy: usize,
}

impl DiskArray {
    /// Creates `count` identical disks. Each disk's private random stream
    /// is derived from `seed` and its position, so array behaviour is fully
    /// reproducible and independent of request interleaving.
    #[must_use]
    pub fn new(count: usize, spec: DiskSpec, discipline: QueueDiscipline, seed: u64) -> Self {
        assert!(count > 0, "an array needs at least one disk");
        assert!(count <= u16::MAX as usize, "too many disks");
        let disks = (0..count)
            .map(|i| {
                Disk::new(
                    DiskId(i as u16),
                    spec,
                    discipline,
                    // Distinct, well-separated seeds per disk.
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64 + 1),
                )
            })
            .collect();
        DiskArray { disks, busy: 0 }
    }

    /// Number of drives.
    #[must_use]
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Always `false`: construction requires at least one disk.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Immutable access to one drive.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn disk(&self, id: DiskId) -> &Disk {
        &self.disks[id.0 as usize]
    }

    /// Routes a request to its addressed drive (see [`Disk::submit`]).
    pub fn submit<S: TraceSink>(
        &mut self,
        now: SimTime,
        req: DiskRequest,
        sink: &mut S,
    ) -> (RequestId, Option<StartedService>) {
        let (id, started) = self.disks[req.disk.0 as usize].submit(now, req, sink);
        if started.is_some() {
            // The drive was idle and went straight into service.
            self.busy += 1;
        }
        debug_assert_eq!(self.busy, self.scan_busy());
        (id, started)
    }

    /// Completes the in-service request on `id` (see [`Disk::complete`]).
    pub fn complete<S: TraceSink>(
        &mut self,
        now: SimTime,
        id: DiskId,
        sink: &mut S,
    ) -> (CompletedRequest, Option<StartedService>) {
        let (done, next) = self.disks[id.0 as usize].complete(now, sink);
        if next.is_none() {
            // The drive's queue drained; it fell idle.
            self.busy -= 1;
        }
        debug_assert_eq!(self.busy, self.scan_busy());
        (done, next)
    }

    /// Number of drives currently servicing a request (O(1): maintained
    /// incrementally, verified against a full scan in debug builds).
    #[must_use]
    pub fn busy_count(&self) -> usize {
        self.busy
    }

    /// Reference count of busy drives by scanning every disk.
    fn scan_busy(&self) -> usize {
        self.disks.iter().filter(|d| d.is_busy()).count()
    }

    /// Total requests waiting across all queues.
    #[must_use]
    pub fn queued_count(&self) -> usize {
        self.disks.iter().map(Disk::queue_len).sum()
    }

    /// Iterator over the drives.
    pub fn iter(&self) -> impl Iterator<Item = &Disk> {
        self.disks.iter()
    }

    /// Statistics aggregated over all drives.
    #[must_use]
    pub fn aggregate_stats(&self) -> DiskStats {
        let mut agg = DiskStats::new();
        for d in &self.disks {
            agg.merge(d.stats());
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockAddr;
    use pm_trace::NullSink;

    fn array(n: usize) -> DiskArray {
        DiskArray::new(n, DiskSpec::paper(), QueueDiscipline::Fifo, 123)
    }

    fn req(disk: u16, start: u64) -> DiskRequest {
        DiskRequest {
            disk: DiskId(disk),
            start: BlockAddr(start),
            len: 1,
            sequential_hint: false,
            tag: 0,
        }
    }

    #[test]
    fn routes_to_addressed_disk() {
        let mut a = array(3);
        a.submit(SimTime::ZERO, req(1, 0), &mut NullSink);
        assert!(!a.disk(DiskId(0)).is_busy());
        assert!(a.disk(DiskId(1)).is_busy());
        assert!(!a.disk(DiskId(2)).is_busy());
        assert_eq!(a.busy_count(), 1);
    }

    #[test]
    fn disks_operate_concurrently() {
        let mut a = array(4);
        let mut completions = Vec::new();
        for d in 0..4 {
            let (_, s) = a.submit(SimTime::ZERO, req(d, 0), &mut NullSink);
            completions.push(s.unwrap().completion_at);
        }
        assert_eq!(a.busy_count(), 4);
        // Independent latency streams: not all completions identical.
        let first = completions[0];
        assert!(completions.iter().any(|&c| c != first));
    }

    #[test]
    fn queued_count_spans_disks() {
        let mut a = array(2);
        a.submit(SimTime::ZERO, req(0, 0), &mut NullSink);
        a.submit(SimTime::ZERO, req(0, 100), &mut NullSink);
        a.submit(SimTime::ZERO, req(1, 0), &mut NullSink);
        a.submit(SimTime::ZERO, req(1, 100), &mut NullSink);
        a.submit(SimTime::ZERO, req(1, 200), &mut NullSink);
        assert_eq!(a.queued_count(), 3);
    }

    #[test]
    fn busy_count_tracks_submit_complete_cycle() {
        let mut a = array(2);
        assert_eq!(a.busy_count(), 0);
        let (_, s0) = a.submit(SimTime::ZERO, req(0, 0), &mut NullSink);
        assert_eq!(a.busy_count(), 1);
        // Second request on the same disk queues: still one busy drive.
        a.submit(SimTime::ZERO, req(0, 100), &mut NullSink);
        assert_eq!(a.busy_count(), 1);
        let (_, s1) = a.submit(SimTime::ZERO, req(1, 0), &mut NullSink);
        assert_eq!(a.busy_count(), 2);
        // Disk 0 chains into its queued request: stays busy.
        let t0 = s0.unwrap().completion_at;
        let (_, next) = a.complete(t0, DiskId(0), &mut NullSink);
        assert!(next.is_some());
        assert_eq!(a.busy_count(), 2);
        // Disk 1 drains: falls idle.
        let t1 = s1.unwrap().completion_at;
        let (_, next) = a.complete(t1, DiskId(1), &mut NullSink);
        assert!(next.is_none());
        assert_eq!(a.busy_count(), 1);
    }

    #[test]
    fn aggregate_stats_sum_over_disks() {
        let mut a = array(2);
        let (_, s0) = a.submit(SimTime::ZERO, req(0, 0), &mut NullSink);
        let (_, s1) = a.submit(SimTime::ZERO, req(1, 0), &mut NullSink);
        a.complete(s0.unwrap().completion_at, DiskId(0), &mut NullSink);
        a.complete(s1.unwrap().completion_at, DiskId(1), &mut NullSink);
        let agg = a.aggregate_stats();
        assert_eq!(agg.requests(), 2);
    }

    #[test]
    fn same_seed_reproduces_array_behaviour() {
        let run = || {
            let mut a = array(3);
            let mut times = Vec::new();
            for i in 0..30u64 {
                let (_, s) = a.submit(SimTime::ZERO, req((i % 3) as u16, i * 50), &mut NullSink);
                if let Some(s) = s {
                    times.push(s.completion_at);
                }
            }
            times
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        let _ = DiskArray::new(0, DiskSpec::paper(), QueueDiscipline::Fifo, 1);
    }
}
