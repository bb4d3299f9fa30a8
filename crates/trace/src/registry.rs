//! Metrics aggregation over a recorded event stream.

use std::collections::HashMap;

use pm_sim::{SimDuration, SimTime};
use pm_stats::{Counter, TimeWeighted};

use crate::{EventKind, TraceEvent};

/// One disk's figures, folded from its [`EventKind::DiskIssue`] and
/// [`EventKind::DiskTransferDone`] events: the one place a trace's
/// per-disk figures are computed.
#[derive(Debug, Clone, Default)]
pub struct DiskLaneMetrics {
    /// Total service (busy) time.
    pub busy: SimDuration,
    /// Requests completed.
    pub requests: u64,
    /// Requests that streamed sequentially.
    pub sequential: u64,
    /// Outstanding-request count over time (queued + in service),
    /// stepped at every issue and completion.
    pub queue_depth: TimeWeighted,
    /// Summed wait from issue to service start of the paired requests.
    pub queue_wait: SimDuration,
    /// Requests paired with their issue (its `(disk, span)`).
    pub waited: u64,
    /// Requests issued and not yet completed.
    outstanding: u32,
    /// Issue instant of each outstanding request, by span; removed at
    /// completion, so a span a later merge group reuses pairs afresh.
    issued: HashMap<u64, SimTime>,
}

impl DiskLaneMetrics {
    /// Folds in the issue of read `span` at `at`.
    pub fn issue(&mut self, at: SimTime, span: u64) {
        self.outstanding += 1;
        self.queue_depth
            .record(at.as_nanos() as f64, f64::from(self.outstanding));
        self.issued.insert(span, at);
    }

    /// Folds in the completion at `at` of read `span`, in service since
    /// `started`; returns the read's issue instant if the stream has it.
    pub fn complete(
        &mut self,
        at: SimTime,
        span: u64,
        started: SimTime,
        sequential: bool,
    ) -> Option<SimTime> {
        self.busy += at - started;
        self.requests += 1;
        self.sequential += u64::from(sequential);
        // A bounded recording may have dropped the issue.
        self.outstanding = self.outstanding.saturating_sub(1);
        self.queue_depth
            .record(at.as_nanos() as f64, f64::from(self.outstanding));
        let issued = self.issued.remove(&span)?;
        self.queue_wait += started - issued;
        self.waited += 1;
        Some(issued)
    }

    /// Fraction of `[0, span_end)` this disk spent servicing requests.
    #[must_use]
    pub fn utilization(&self, span_end: SimTime) -> f64 {
        if span_end == SimTime::ZERO {
            0.0
        } else {
            self.busy.as_nanos() as f64 / span_end.as_nanos() as f64
        }
    }

    /// Time-averaged outstanding-request count from the first issue to
    /// `span_end`; `0.0` over an empty window.
    #[must_use]
    pub fn mean_queue_depth(&self, span_end: SimTime) -> f64 {
        self.queue_depth
            .average_until(span_end.as_nanos() as f64)
            .unwrap_or(0.0)
    }

    /// Mean wait from issue to service start, in seconds, over the
    /// paired requests; `0.0` when none paired.
    #[must_use]
    pub fn mean_queue_wait(&self) -> f64 {
        if self.waited == 0 {
            0.0
        } else {
            self.queue_wait.as_secs_f64() / self.waited as f64
        }
    }
}

/// Counter/gauge registry computed from a recorded trace.
///
/// All quantities derive from the same [`TraceEvent`] stream the
/// exporters consume, so a number here is always explainable by pointing
/// at events in the exported trace.
#[derive(Debug, Clone, Default)]
pub struct TraceMetrics {
    /// End of the last stamped event (the observed span).
    pub span_end: SimTime,
    /// Input-side per-disk aggregates, indexed by disk id.
    pub input_disks: Vec<DiskLaneMetrics>,
    /// Output-side per-disk aggregates, indexed by disk id.
    pub output_disks: Vec<DiskLaneMetrics>,
    /// Demand misses (merge stalls that issued I/O).
    pub demand_misses: u64,
    /// Inter-run prefetch operations assembled.
    pub prefetch_batches: u64,
    /// Blocks admitted by the cache across all prefetch groups.
    pub admitted_blocks: u64,
    /// Blocks rejected by the cache across all prefetch groups.
    pub rejected_blocks: u64,
    /// Per-group admission outcomes (hit = group fully admitted).
    pub group_admission: Counter,
    /// Blocks merged by the CPU.
    pub blocks_consumed: u64,
    /// Runs that finished merging.
    pub runs_exhausted: u64,
    /// Smallest cache free-frame count observed at a demand miss.
    pub min_free_at_miss: Option<u32>,
}

impl TraceMetrics {
    /// Aggregates an event stream (oldest first, as produced by
    /// [`crate::RecordingSink::events`]).
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut m = TraceMetrics::default();
        for ev in events {
            m.span_end = m.span_end.max(ev.at);
            match ev.kind {
                EventKind::DiskIssue {
                    disk, output, span, ..
                } => m.lane(disk, output).issue(ev.at, span),
                EventKind::DiskTransferDone {
                    disk,
                    output,
                    span,
                    started,
                    sequential,
                    ..
                } => {
                    m.lane(disk, output)
                        .complete(ev.at, span, started, sequential);
                }
                EventKind::DiskSeekDone { .. } => {}
                EventKind::DemandMiss { free, .. } => {
                    m.demand_misses += 1;
                    m.min_free_at_miss = Some(m.min_free_at_miss.map_or(free, |lo| lo.min(free)));
                }
                EventKind::PrefetchBatch { .. } => m.prefetch_batches += 1,
                EventKind::CacheAdmit { blocks, .. } => {
                    m.admitted_blocks += u64::from(blocks);
                    m.group_admission.hit();
                }
                EventKind::CacheReject { blocks, .. } => {
                    m.rejected_blocks += u64::from(blocks);
                    m.group_admission.miss();
                }
                EventKind::CacheEvictConsumed { .. } => {}
                EventKind::CpuConsume { .. } => m.blocks_consumed += 1,
                EventKind::RunExhausted { .. } => m.runs_exhausted += 1,
                // Pass boundaries partition the stream but carry no
                // metric of their own.
                EventKind::PassBoundary { .. } => {}
            }
        }
        m
    }

    /// The lane of `disk` on the output side if `output`, else the input.
    fn lane(&mut self, disk: u16, output: bool) -> &mut DiskLaneMetrics {
        let lanes = if output {
            &mut self.output_disks
        } else {
            &mut self.input_disks
        };
        let d = usize::from(disk);
        if lanes.len() <= d {
            lanes.resize_with(d + 1, DiskLaneMetrics::default);
        }
        &mut lanes[d]
    }

    /// Mean wait from issue to service start over every input disk's
    /// paired requests, in seconds; `0.0` when none paired.
    #[must_use]
    pub fn mean_input_queue_wait(&self) -> f64 {
        let all = DiskLaneMetrics {
            queue_wait: self.input_disks.iter().map(|l| l.queue_wait).sum(),
            waited: self.input_disks.iter().map(|l| l.waited).sum(),
            ..DiskLaneMetrics::default()
        };
        all.mean_queue_wait()
    }

    /// Fraction of prefetch-group admissions that succeeded, if any group
    /// decision was traced.
    #[must_use]
    pub fn admit_rate(&self) -> Option<f64> {
        self.group_admission.ratio()
    }

    /// Demand misses per consumed block, if anything was consumed.
    #[must_use]
    pub fn miss_rate(&self) -> Option<f64> {
        if self.blocks_consumed == 0 {
            None
        } else {
            Some(self.demand_misses as f64 / self.blocks_consumed as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_tag;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn issue(at: u64, disk: u16, span: u64) -> TraceEvent {
        TraceEvent {
            at: t(at),
            kind: EventKind::DiskIssue {
                disk,
                output: false,
                tag: pack_tag(0, span as u32),
                span,
            },
        }
    }

    fn done(at: u64, disk: u16, span: u64, started: u64, sequential: bool) -> TraceEvent {
        TraceEvent {
            at: t(at),
            kind: EventKind::DiskTransferDone {
                disk,
                output: false,
                tag: pack_tag(0, span as u32),
                span,
                started: t(started),
                sequential,
            },
        }
    }

    #[test]
    fn busy_and_queue_depth_accumulate() {
        let events = vec![
            issue(0, 0, 0),
            issue(0, 0, 1),
            done(10, 0, 0, 0, false),
            done(25, 0, 1, 10, true),
        ];
        let m = TraceMetrics::from_events(&events);
        assert_eq!(m.span_end, t(25));
        let d0 = &m.input_disks[0];
        assert_eq!(d0.busy.as_nanos(), 25);
        assert_eq!(d0.requests, 2);
        assert_eq!(d0.sequential, 1);
        assert!((d0.utilization(t(25)) - 1.0).abs() < 1e-12);
        // Depth stepped 2 -> 1 -> 0 over [0, 25): avg = (2*10 + 1*15)/25.
        let avg = d0.queue_depth.average_until(25.0).unwrap();
        assert!((avg - 35.0 / 25.0).abs() < 1e-12, "{avg}");
        assert_eq!(d0.queue_depth.max(), Some(2.0));
    }

    #[test]
    fn queue_wait_pairs_each_completion_with_its_issue() {
        let events = vec![
            // A completion whose issue the recording dropped pairs nothing.
            done(5, 0, 9, 2, false),
            issue(10, 0, 0),
            issue(10, 0, 1),
            done(20, 0, 0, 10, false),
            done(30, 0, 1, 20, true),
            // A later group numbers its spans from 0 again.
            issue(40, 0, 0),
            done(60, 0, 0, 45, false),
        ];
        let m = TraceMetrics::from_events(&events);
        let d0 = &m.input_disks[0];
        assert_eq!(d0.requests, 4);
        assert_eq!(d0.waited, 3);
        // Waits 0, 10 and 5 ns.
        assert_eq!(d0.queue_wait.as_nanos(), 15);
        assert!((d0.mean_queue_wait() - 5e-9).abs() < 1e-18);
        assert!((m.mean_input_queue_wait() - 5e-9).abs() < 1e-18);
        assert_eq!(d0.queue_depth.current(), 0.0);
        assert_eq!(d0.queue_depth.max(), Some(2.0));
    }

    #[test]
    fn cache_and_cpu_counters() {
        let events = vec![
            TraceEvent {
                at: t(1),
                kind: EventKind::DemandMiss {
                    run: 0,
                    block: 3,
                    free: 8,
                },
            },
            TraceEvent {
                at: t(1),
                kind: EventKind::PrefetchBatch {
                    groups: 2,
                    blocks: 10,
                    depth: 5,
                },
            },
            TraceEvent {
                at: t(1),
                kind: EventKind::CacheAdmit { run: 0, blocks: 5 },
            },
            TraceEvent {
                at: t(1),
                kind: EventKind::CacheReject { run: 1, blocks: 5 },
            },
            TraceEvent {
                at: t(2),
                kind: EventKind::CpuConsume { run: 0, block: 3 },
            },
            TraceEvent {
                at: t(2),
                kind: EventKind::DemandMiss {
                    run: 1,
                    block: 0,
                    free: 2,
                },
            },
            TraceEvent {
                at: t(3),
                kind: EventKind::RunExhausted { run: 0 },
            },
        ];
        let m = TraceMetrics::from_events(&events);
        assert_eq!(m.demand_misses, 2);
        assert_eq!(m.prefetch_batches, 1);
        assert_eq!(m.admitted_blocks, 5);
        assert_eq!(m.rejected_blocks, 5);
        assert_eq!(m.admit_rate(), Some(0.5));
        assert_eq!(m.blocks_consumed, 1);
        assert_eq!(m.miss_rate(), Some(2.0));
        assert_eq!(m.runs_exhausted, 1);
        assert_eq!(m.min_free_at_miss, Some(2));
    }

    #[test]
    fn output_disks_tracked_separately() {
        let events = vec![
            issue(0, 0, 0),
            TraceEvent {
                at: t(0),
                kind: EventKind::DiskIssue {
                    disk: 0,
                    output: true,
                    tag: 0,
                    span: 0,
                },
            },
            done(10, 0, 0, 0, false),
            TraceEvent {
                at: t(30),
                kind: EventKind::DiskTransferDone {
                    disk: 0,
                    output: true,
                    tag: 0,
                    span: 0,
                    started: t(5),
                    sequential: false,
                },
            },
        ];
        let m = TraceMetrics::from_events(&events);
        assert_eq!(m.input_disks[0].busy.as_nanos(), 10);
        assert_eq!(m.output_disks[0].busy.as_nanos(), 25);
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let m = TraceMetrics::from_events(&[]);
        assert_eq!(m.span_end, SimTime::ZERO);
        assert!(m.input_disks.is_empty());
        assert_eq!(m.admit_rate(), None);
        assert_eq!(m.miss_rate(), None);
    }
}
