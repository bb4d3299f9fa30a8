//! Output (write) traffic modeling.
//!
//! The paper assumes "a separate set of disks for writing the sorted
//! output" and excludes write traffic from the study. This module makes
//! that assumption testable: when a [`WriteSpec`] is configured, every
//! merged block produces one output block that is appended round-robin
//! across `W` dedicated write disks through a bounded output buffer. If
//! the buffer is full, the merge stalls — so an undersized write subsystem
//! becomes the bottleneck, and the experiment `ext_write_traffic`
//! quantifies how many write disks the paper's configurations implicitly
//! require.
//!
//! Output on each write disk is a single append stream, so all writes
//! after a disk's first are sequential (no seek, no rotational latency) —
//! the most favourable realistic layout.

use pm_disk::{BlockAddr, DiskArray, DiskId, DiskRequest, DiskSpec, StartedService};
use pm_sim::{SimDuration, SimTime};
use pm_trace::TraceSink;

/// Configuration of the output subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSpec {
    /// Number of dedicated write disks `W`.
    pub disks: u32,
    /// Output-buffer capacity in blocks; the merge stalls when it fills.
    pub buffer_blocks: u32,
}

/// Runtime state of the write subsystem.
#[derive(Debug)]
pub(crate) struct Writer {
    array: DiskArray,
    buffer_capacity: u32,
    /// Blocks occupying buffer slots: queued, in service, or awaiting
    /// issue. A slot frees when its write completes.
    occupied: u32,
    next_disk: u16,
    next_offset: Vec<u64>,
}

impl Writer {
    /// Creates the write subsystem.
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero disks or a zero buffer — callers
    /// validate via [`WriteSpec`] checks in `MergeConfig::validate`.
    pub(crate) fn new(spec: WriteSpec, disk_spec: DiskSpec, seed: u64) -> Self {
        assert!(spec.disks > 0, "write subsystem needs at least one disk");
        assert!(
            spec.buffer_blocks > 0,
            "write buffer needs at least one block"
        );
        Writer {
            array: DiskArray::new(
                spec.disks as usize,
                disk_spec,
                pm_disk::QueueDiscipline::Fifo,
                seed,
            ),
            buffer_capacity: spec.buffer_blocks,
            occupied: 0,
            next_disk: 0,
            next_offset: vec![0; spec.disks as usize],
        }
    }

    /// Whether the output buffer has room for another block.
    pub(crate) fn has_space(&self) -> bool {
        self.occupied < self.buffer_capacity
    }

    /// Whether any output blocks are still buffered or in flight.
    pub(crate) fn is_draining(&self) -> bool {
        self.occupied > 0
    }

    /// Accepts one output block and issues its write. Returns the service
    /// start if the target disk was idle (the caller schedules the
    /// completion event). The caller wraps its sink in
    /// [`pm_trace::OutputSide`] so the emitted disk events are stamped as
    /// the output array's.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (the caller must gate on
    /// [`Writer::has_space`]) or the write disk is out of capacity.
    pub(crate) fn produce_block<S: TraceSink>(
        &mut self,
        now: SimTime,
        sink: &mut S,
    ) -> Option<(DiskId, StartedService)> {
        assert!(self.has_space(), "write buffer overflow");
        self.occupied += 1;
        let disk = DiskId(self.next_disk);
        self.next_disk = (self.next_disk + 1) % self.array.len() as u16;
        let offset = self.next_offset[disk.0 as usize];
        self.next_offset[disk.0 as usize] += 1;
        let req = DiskRequest {
            disk,
            start: BlockAddr(offset),
            len: 1,
            // Appends after the first block on a disk stream sequentially.
            sequential_hint: offset > 0,
            tag: offset,
        };
        let (_, started) = self.array.submit(now, req, sink);
        started.map(|s| (disk, s))
    }

    /// Completes the in-service write on `disk`, freeing its buffer slot.
    /// Returns the next write started on that disk, if any.
    pub(crate) fn complete<S: TraceSink>(
        &mut self,
        now: SimTime,
        disk: DiskId,
        sink: &mut S,
    ) -> Option<StartedService> {
        let (_, next) = self.array.complete(now, disk, sink);
        debug_assert!(self.occupied > 0);
        self.occupied -= 1;
        next
    }

    /// Blocks written so far: every write request is one block.
    pub(crate) fn blocks_written(&self) -> u64 {
        self.array.aggregate_stats().requests()
    }

    /// Total write-disk service time.
    pub(crate) fn busy_total(&self) -> SimDuration {
        self.array.aggregate_stats().busy_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_trace::NullSink;

    fn writer(disks: u32, buffer: u32) -> Writer {
        Writer::new(
            WriteSpec {
                disks,
                buffer_blocks: buffer,
            },
            DiskSpec::paper(),
            7,
        )
    }

    #[test]
    fn blocks_round_robin_across_disks() {
        let mut w = writer(3, 10);
        let t = SimTime::ZERO;
        let d0 = w.produce_block(t, &mut NullSink).unwrap().0;
        let d1 = w.produce_block(t, &mut NullSink).unwrap().0;
        let d2 = w.produce_block(t, &mut NullSink).unwrap().0;
        assert_eq!((d0, d1, d2), (DiskId(0), DiskId(1), DiskId(2)));
        // Fourth block goes back to disk 0 — which is busy, so no start.
        assert!(w.produce_block(t, &mut NullSink).is_none());
        assert_eq!(w.occupied, 4);
    }

    #[test]
    fn appends_stream_sequentially() {
        let mut w = writer(1, 10);
        let (d, s1) = w.produce_block(SimTime::ZERO, &mut NullSink).unwrap();
        assert!(!s1.breakdown.is_sequential(), "first write pays mechanics");
        w.produce_block(SimTime::ZERO, &mut NullSink); // queued behind the first
        let next = w.complete(s1.completion_at, d, &mut NullSink);
        let s2 = next.unwrap();
        assert!(s2.breakdown.is_sequential(), "append streams");
        assert!(w.has_space());
        assert_eq!(w.blocks_written(), 1);
    }

    #[test]
    fn buffer_fills_and_drains() {
        let mut w = writer(1, 2);
        let (d, s1) = w.produce_block(SimTime::ZERO, &mut NullSink).unwrap();
        w.produce_block(SimTime::ZERO, &mut NullSink);
        assert!(!w.has_space());
        assert!(w.is_draining());
        w.complete(s1.completion_at, d, &mut NullSink);
        assert!(w.has_space());
    }

    #[test]
    #[should_panic(expected = "write buffer overflow")]
    fn overflow_panics() {
        let mut w = writer(1, 1);
        w.produce_block(SimTime::ZERO, &mut NullSink);
        w.produce_block(SimTime::ZERO, &mut NullSink);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut w = writer(2, 4);
        let (d, s) = w.produce_block(SimTime::ZERO, &mut NullSink).unwrap();
        w.complete(s.completion_at, d, &mut NullSink);
        assert_eq!(w.busy_total(), s.breakdown.total());
    }
}
