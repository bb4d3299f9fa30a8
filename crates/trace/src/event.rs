//! The trace-event taxonomy.

use pm_sim::SimTime;

use crate::unpack_tag;

/// One traced occurrence: what happened ([`EventKind`]) and the simulated
/// instant it is stamped with.
///
/// Most events are stamped with the simulation clock at the moment they
/// were emitted; [`EventKind::DiskSeekDone`] is emitted retroactively (the
/// mechanical delay is only known once the request completes) and stamped
/// with the instant positioning actually finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated instant of the occurrence.
    pub at: SimTime,
    /// What occurred.
    pub kind: EventKind,
}

/// Everything the instrumented simulator reports.
///
/// Disk events carry the submitter's request `tag` rather than decoded
/// run/block ids so that this crate need not depend on the crates defining
/// those id types; input-side tags follow the [`crate::pack_tag`]
/// convention and decode via [`EventKind::run`] / [`EventKind::block`].
/// The `span` is the disk's request id — monotonically increasing per
/// disk — and ties the issue of a request to its completion events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request was submitted to a disk (it may queue before service).
    DiskIssue {
        /// Servicing disk.
        disk: u16,
        /// `true` for the output (write) array's disk-id space.
        output: bool,
        /// Submitter's request tag.
        tag: u64,
        /// Request span id, monotone per disk.
        span: u64,
    },
    /// The mechanical part of a request's service (seek + rotational
    /// latency) finished; the transfer begins at this instant. For a
    /// sequentially streaming request this coincides with service start.
    DiskSeekDone {
        /// Servicing disk.
        disk: u16,
        /// `true` for the output (write) array.
        output: bool,
        /// Submitter's request tag.
        tag: u64,
        /// Request span id.
        span: u64,
        /// When service (and the seek) began.
        started: SimTime,
    },
    /// A request's transfer — and therefore its whole service — finished.
    DiskTransferDone {
        /// Servicing disk.
        disk: u16,
        /// `true` for the output (write) array.
        output: bool,
        /// Submitter's request tag.
        tag: u64,
        /// Request span id.
        span: u64,
        /// When service began (the event's own stamp is the end).
        started: SimTime,
        /// Whether the request streamed sequentially (no seek/latency).
        sequential: bool,
    },
    /// The merge depleted a run's last cached block and stalled on a
    /// demand fetch.
    DemandMiss {
        /// Starved run.
        run: u32,
        /// Block index the demand fetch will read.
        block: u32,
        /// Cache free-frame count at the miss (before reservation).
        free: u32,
    },
    /// An inter-run prefetch operation was assembled (before admission).
    PrefetchBatch {
        /// Number of per-run groups in the operation.
        groups: u32,
        /// Total blocks requested.
        blocks: u32,
        /// Per-run prefetch depth in effect.
        depth: u32,
    },
    /// The admission policy reserved frames for one group of a prefetch.
    CacheAdmit {
        /// Run the group belongs to.
        run: u32,
        /// Blocks admitted.
        blocks: u32,
    },
    /// The admission policy turned away (part of) one group.
    CacheReject {
        /// Run the group belongs to.
        run: u32,
        /// Blocks rejected.
        blocks: u32,
    },
    /// A consumed block's frame returned to the free pool.
    CacheEvictConsumed {
        /// Run whose block was consumed.
        run: u32,
        /// Cache free-frame count after the frame was freed.
        free: u32,
    },
    /// The CPU merged one block.
    CpuConsume {
        /// Run the block came from.
        run: u32,
        /// Block index within the run.
        block: u32,
    },
    /// A run's final block was merged; the run leaves the merge.
    RunExhausted {
        /// The exhausted run.
        run: u32,
    },
    /// A multi-pass execution started a new merge pass; subsequent
    /// events belong to it. Emitted by the engine's pass loop, never by
    /// the single-pass simulator.
    PassBoundary {
        /// Pass index now starting (0-based).
        pass: u32,
        /// Merge groups the pass executes.
        groups: u32,
    },
}

impl EventKind {
    /// Short stable name of the variant (used by the CSV exporter and
    /// Chrome-trace labels).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            EventKind::DiskIssue { .. } => "disk_issue",
            EventKind::DiskSeekDone { .. } => "disk_seek_done",
            EventKind::DiskTransferDone { .. } => "disk_transfer_done",
            EventKind::DemandMiss { .. } => "demand_miss",
            EventKind::PrefetchBatch { .. } => "prefetch_batch",
            EventKind::CacheAdmit { .. } => "cache_admit",
            EventKind::CacheReject { .. } => "cache_reject",
            EventKind::CacheEvictConsumed { .. } => "cache_evict_consumed",
            EventKind::CpuConsume { .. } => "cpu_consume",
            EventKind::RunExhausted { .. } => "run_exhausted",
            EventKind::PassBoundary { .. } => "pass_boundary",
        }
    }

    /// The run id the event concerns, if any. Input-side disk events
    /// decode it from the tag; output-side disk events have no run.
    #[must_use]
    pub const fn run(&self) -> Option<u32> {
        match *self {
            EventKind::DiskIssue { output, tag, .. }
            | EventKind::DiskSeekDone { output, tag, .. }
            | EventKind::DiskTransferDone { output, tag, .. } => {
                if output {
                    None
                } else {
                    Some(unpack_tag(tag).0)
                }
            }
            EventKind::DemandMiss { run, .. }
            | EventKind::CacheAdmit { run, .. }
            | EventKind::CacheReject { run, .. }
            | EventKind::CacheEvictConsumed { run, .. }
            | EventKind::CpuConsume { run, .. }
            | EventKind::RunExhausted { run } => Some(run),
            EventKind::PrefetchBatch { .. } | EventKind::PassBoundary { .. } => None,
        }
    }

    /// The block index the event concerns, if any. For output-side disk
    /// events this is the disk-local output block offset.
    #[must_use]
    pub const fn block(&self) -> Option<u32> {
        match *self {
            EventKind::DiskIssue { output, tag, .. }
            | EventKind::DiskSeekDone { output, tag, .. }
            | EventKind::DiskTransferDone { output, tag, .. } => {
                if output {
                    Some(tag as u32)
                } else {
                    Some(unpack_tag(tag).1)
                }
            }
            EventKind::DemandMiss { block, .. } | EventKind::CpuConsume { block, .. } => {
                Some(block)
            }
            _ => None,
        }
    }

    /// The disk the event concerns, with its side (`true` = output
    /// array), if it is a disk event.
    #[must_use]
    pub const fn disk(&self) -> Option<(u16, bool)> {
        match *self {
            EventKind::DiskIssue { disk, output, .. }
            | EventKind::DiskSeekDone { disk, output, .. }
            | EventKind::DiskTransferDone { disk, output, .. } => Some((disk, output)),
            _ => None,
        }
    }

    /// The span id, if the event is a disk event.
    #[must_use]
    pub const fn span(&self) -> Option<u64> {
        match *self {
            EventKind::DiskIssue { span, .. }
            | EventKind::DiskSeekDone { span, .. }
            | EventKind::DiskTransferDone { span, .. } => Some(span),
            _ => None,
        }
    }

    /// Re-stamps a disk event as output-side; other kinds pass through.
    /// Used by [`crate::OutputSide`].
    #[must_use]
    pub const fn as_output(self) -> Self {
        match self {
            EventKind::DiskIssue {
                disk, tag, span, ..
            } => EventKind::DiskIssue {
                disk,
                output: true,
                tag,
                span,
            },
            EventKind::DiskSeekDone {
                disk,
                tag,
                span,
                started,
                ..
            } => EventKind::DiskSeekDone {
                disk,
                output: true,
                tag,
                span,
                started,
            },
            EventKind::DiskTransferDone {
                disk,
                tag,
                span,
                started,
                sequential,
                ..
            } => EventKind::DiskTransferDone {
                disk,
                output: true,
                tag,
                span,
                started,
                sequential,
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_tag;

    #[test]
    fn accessors_decode_input_side_tags() {
        let kind = EventKind::DiskIssue {
            disk: 3,
            output: false,
            tag: pack_tag(5, 17),
            span: 99,
        };
        assert_eq!(kind.run(), Some(5));
        assert_eq!(kind.block(), Some(17));
        assert_eq!(kind.disk(), Some((3, false)));
        assert_eq!(kind.span(), Some(99));
        assert_eq!(kind.name(), "disk_issue");
    }

    #[test]
    fn output_side_has_no_run() {
        let kind = EventKind::DiskTransferDone {
            disk: 0,
            output: false,
            tag: 42,
            span: 1,
            started: SimTime::ZERO,
            sequential: true,
        }
        .as_output();
        assert_eq!(kind.run(), None);
        assert_eq!(kind.block(), Some(42));
        assert_eq!(kind.disk(), Some((0, true)));
    }

    #[test]
    fn as_output_leaves_non_disk_events_alone() {
        let kind = EventKind::CpuConsume { run: 1, block: 2 };
        assert_eq!(kind.as_output(), kind);
    }

    #[test]
    fn cpu_and_cache_events_report_runs() {
        assert_eq!(EventKind::RunExhausted { run: 9 }.run(), Some(9));
        assert_eq!(
            EventKind::CacheEvictConsumed { run: 2, free: 7 }.run(),
            Some(2)
        );
        assert_eq!(
            EventKind::PrefetchBatch {
                groups: 2,
                blocks: 10,
                depth: 5
            }
            .run(),
            None
        );
    }
}
