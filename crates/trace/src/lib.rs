//! Structured event tracing for the `prefetchmerge` simulator.
//!
//! The simulator's end-of-run aggregates say *how much* time went to seek,
//! rotation, transfer and CPU stalls; they cannot say *where* — which disk
//! sat idle while the merge starved, which prefetch was rejected a moment
//! before its run demanded a block. This crate turns every simulated I/O
//! and cache decision into a typed, sim-time-stamped [`TraceEvent`] that
//! instrumented components emit into a [`TraceSink`]:
//!
//! * [`NullSink`] — the default. Its `emit` is an empty inline function
//!   and [`TraceSink::ENABLED`] is `false`, so instrumented code
//!   monomorphizes to exactly the uninstrumented hot path (the perf-smoke
//!   harness holds the line at zero steady-state allocations per block).
//! * [`RecordingSink`] — an in-memory buffer, either unbounded or a
//!   pre-sized ring that keeps the most recent events and counts drops.
//! * [`OutputSide`] — an adapter that re-stamps disk events as belonging
//!   to the *output* (write) disk array before forwarding them, since
//!   input and output arrays use overlapping disk-id spaces.
//!
//! From one recorded event stream you can then derive:
//!
//! * [`TraceMetrics`] — one [`DiskLaneMetrics`] per disk (utilization,
//!   queue depth over time via `pm-stats` [`pm_stats::TimeWeighted`],
//!   queue wait), and demand-miss / admission-reject rates;
//! * [`export::chrome_trace_json`] — a Chrome `chrome://tracing` /
//!   Perfetto-loadable JSON trace with one "process" per disk and one
//!   thread lane per request phase (queue, position, transfer);
//! * [`export::csv`] — one row per event for downstream analysis;
//! * [`export::gantt`] — an ASCII Gantt chart of the actual event
//!   intervals, rendered through `pm_report::Gantt`.
//!
//! Events identify work with raw ids (disk `u16`, the submitter's request
//! `tag`, and a span id) so this crate sits below `pm-disk`/`pm-cache` in
//! the dependency graph. The tag convention is owned here: see
//! [`pack_tag`] / [`unpack_tag`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod export;
mod registry;
mod sink;

pub use event::{EventKind, TraceEvent};
pub use registry::{DiskLaneMetrics, TraceMetrics};
pub use sink::{NullSink, OutputSide, RecordingSink, TraceSink};

/// Packs a run id and a block index into a request tag
/// (`run << 32 | block`). This is the convention every *input*-side disk
/// request in the workspace uses; output-side requests use the raw output
/// block offset instead (distinguished by the event's `output` flag).
#[must_use]
pub const fn pack_tag(run: u32, block: u32) -> u64 {
    ((run as u64) << 32) | block as u64
}

/// Reverses [`pack_tag`]: returns `(run, block)`.
#[must_use]
pub const fn unpack_tag(tag: u64) -> (u32, u32) {
    ((tag >> 32) as u32, tag as u32)
}

/// Run ids a tenant-tagged request can carry: [`pack_tenant_tag`] steals
/// the top 16 bits of [`pack_tag`]'s run field for the tenant id.
pub const TENANT_TAG_MAX_RUN: u32 = (1 << 16) - 1;

/// Packs a tenant id on top of the [`pack_tag`] convention
/// (`tenant << 48 | run << 32 | block`). Multi-tenant runs cap the run id
/// at [`TENANT_TAG_MAX_RUN`] — far above any feasible fan-in — so a
/// tenant-tagged stream still unpacks run/block via [`unpack_tag`], and
/// tenant 0's tags are bit-identical to untagged single-job tags.
#[must_use]
pub const fn pack_tenant_tag(tenant: u16, run: u32, block: u32) -> u64 {
    ((tenant as u64) << 48) | (((run & TENANT_TAG_MAX_RUN) as u64) << 32) | block as u64
}

/// Reverses [`pack_tenant_tag`]: returns `(tenant, run, block)`.
#[must_use]
pub const fn unpack_tenant_tag(tag: u64) -> (u16, u32, u32) {
    (
        (tag >> 48) as u16,
        ((tag >> 32) as u32) & TENANT_TAG_MAX_RUN,
        tag as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        assert_eq!(unpack_tag(pack_tag(0, 0)), (0, 0));
        assert_eq!(unpack_tag(pack_tag(7, 1234)), (7, 1234));
        assert_eq!(
            unpack_tag(pack_tag(u32::MAX, u32::MAX)),
            (u32::MAX, u32::MAX)
        );
    }

    #[test]
    fn tenant_tag_round_trips_and_nests_in_pack_tag() {
        assert_eq!(unpack_tenant_tag(pack_tenant_tag(0, 7, 9)), (0, 7, 9));
        assert_eq!(
            unpack_tenant_tag(pack_tenant_tag(u16::MAX, TENANT_TAG_MAX_RUN, u32::MAX)),
            (u16::MAX, TENANT_TAG_MAX_RUN, u32::MAX)
        );
        // Tenant 0 is the untagged single-job convention, bit for bit.
        assert_eq!(pack_tenant_tag(0, 7, 1234), pack_tag(7, 1234));
        // Run/block stay readable through the tenant-blind unpacker.
        let (run, block) = unpack_tag(pack_tenant_tag(3, 7, 1234));
        assert_eq!((run & TENANT_TAG_MAX_RUN, block), (7, 1234));
    }
}
