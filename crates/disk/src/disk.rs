//! A single simulated drive.

use std::collections::VecDeque;

use pm_sim::{SimDuration, SimRng, SimTime};
use pm_trace::{EventKind, TraceEvent, TraceSink};

use crate::discipline::{QueueDiscipline, SweepDirection};
use crate::geometry::Cylinder;
use crate::{BlockAddr, DiskId, DiskRequest, DiskSpec, DiskStats, RequestId, ServiceBreakdown};

/// Returned when a request enters service: when it will finish and what the
/// service time consists of. The caller schedules a completion event at
/// `completion_at` and calls [`Disk::complete`] when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedService {
    /// The request now in service.
    pub request_id: RequestId,
    /// Absolute completion time.
    pub completion_at: SimTime,
    /// Service-time composition.
    pub breakdown: ServiceBreakdown,
}

/// A finished request and what its service cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// Identifier assigned at submission.
    pub id: RequestId,
    /// The original request (including the caller's `tag`).
    pub request: DiskRequest,
    /// Service-time composition.
    pub breakdown: ServiceBreakdown,
    /// Whether the request streamed sequentially after the previous one.
    pub sequential: bool,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    id: RequestId,
    req: DiskRequest,
}

#[derive(Debug, Clone, Copy)]
struct InService {
    id: RequestId,
    req: DiskRequest,
    started: SimTime,
    completes: SimTime,
    breakdown: ServiceBreakdown,
    sequential: bool,
}

/// One independently operating drive.
///
/// The drive services at most one request at a time; waiting requests sit
/// in an arrival-ordered queue from which the configured
/// [`QueueDiscipline`] picks the next request (FIFO reproduces the paper).
///
/// **Sequential streaming:** a request carrying
/// [`sequential_hint`](crate::DiskRequest::sequential_hint) whose first
/// block is exactly the block following the previously serviced request's
/// last block pays no seek and no rotational latency. This is how a demand
/// fetch of `N` contiguous blocks, submitted as `N` single-block requests
/// (the first unhinted, the rest hinted), costs `seek + latency + N·T` in
/// total — and why an intervening request from a different run breaks the
/// stream and forces a fresh mechanical delay, exactly the queueing
/// interference the paper describes.
#[derive(Debug, Clone)]
pub struct Disk {
    id: DiskId,
    spec: DiskSpec,
    discipline: QueueDiscipline,
    sweep: SweepDirection,
    rng: SimRng,
    head: Cylinder,
    next_sequential: Option<BlockAddr>,
    queue: VecDeque<Queued>,
    in_service: Option<InService>,
    next_request_seq: u64,
    stats: DiskStats,
}

impl Disk {
    /// Creates an idle disk with its head parked at cylinder 0.
    ///
    /// `seed` initializes the disk's private latency stream; give each disk
    /// in an array a distinct seed.
    #[must_use]
    pub fn new(id: DiskId, spec: DiskSpec, discipline: QueueDiscipline, seed: u64) -> Self {
        Disk {
            id,
            spec,
            discipline,
            sweep: SweepDirection::default(),
            rng: SimRng::seed_from_u64(seed),
            head: Cylinder(0),
            next_sequential: None,
            queue: VecDeque::new(),
            in_service: None,
            next_request_seq: 0,
            stats: DiskStats::new(),
        }
    }

    /// This disk's identifier.
    #[must_use]
    pub fn id(&self) -> DiskId {
        self.id
    }

    /// The disk's specification.
    #[must_use]
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Current head cylinder.
    #[must_use]
    pub fn head(&self) -> Cylinder {
        self.head
    }

    /// Whether a request is in service.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Number of requests waiting (excluding the one in service).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Submits a request at `now`, emitting an [`EventKind::DiskIssue`]
    /// into `sink`. Returns its assigned id and, if the disk was idle, the
    /// service it immediately entered. Callers without a trace pass
    /// [`NullSink`](pm_trace::NullSink), for which the emission compiles
    /// away.
    ///
    /// # Panics
    ///
    /// Panics if the request is empty, targets another disk, or does not
    /// fit on the platter.
    pub fn submit<S: TraceSink>(
        &mut self,
        now: SimTime,
        req: DiskRequest,
        sink: &mut S,
    ) -> (RequestId, Option<StartedService>) {
        assert_eq!(req.disk, self.id, "request routed to wrong disk");
        assert!(req.len > 0, "empty disk request");
        assert!(
            self.spec
                .geometry
                .contains_span(req.start, u64::from(req.len)),
            "request [{}, +{}) beyond disk capacity",
            req.start.0,
            req.len
        );
        let id = RequestId((u64::from(self.id.0) << 48) | self.next_request_seq);
        self.next_request_seq += 1;
        if S::ENABLED {
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::DiskIssue {
                    disk: self.id.0,
                    output: false,
                    tag: req.tag,
                    span: id.0,
                },
            });
        }
        let queued = Queued { id, req };
        if self.in_service.is_none() {
            let started = self.begin_service(now, queued);
            (id, Some(started))
        } else {
            self.queue.push_back(queued);
            (id, None)
        }
    }

    /// Completes the request in service, emitting
    /// [`EventKind::DiskSeekDone`] (stamped with the instant positioning
    /// finished, which for a sequential stream is the service start) and
    /// [`EventKind::DiskTransferDone`] into `sink`. `now` must equal the
    /// completion time previously returned. Returns the completed request
    /// and, if the queue was non-empty, the next service started.
    ///
    /// # Panics
    ///
    /// Panics if the disk is idle or `now` is not the completion instant.
    pub fn complete<S: TraceSink>(
        &mut self,
        now: SimTime,
        sink: &mut S,
    ) -> (CompletedRequest, Option<StartedService>) {
        let svc = self.in_service.take().expect("complete() on an idle disk");
        assert_eq!(
            svc.completes,
            now,
            "complete() at {} but service finishes at {}",
            now.as_nanos(),
            svc.completes.as_nanos()
        );
        self.stats.record_service(svc.breakdown, svc.sequential);
        let done = CompletedRequest {
            id: svc.id,
            request: svc.req,
            breakdown: svc.breakdown,
            sequential: svc.sequential,
        };
        if S::ENABLED {
            sink.emit(TraceEvent {
                // Positioning ended when the transfer began; the delay is
                // only known at completion, so the event is emitted now but
                // stamped then.
                at: svc.started + svc.breakdown.seek + svc.breakdown.latency,
                kind: EventKind::DiskSeekDone {
                    disk: self.id.0,
                    output: false,
                    tag: svc.req.tag,
                    span: svc.id.0,
                    started: svc.started,
                },
            });
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::DiskTransferDone {
                    disk: self.id.0,
                    output: false,
                    tag: svc.req.tag,
                    span: svc.id.0,
                    started: svc.started,
                    sequential: svc.sequential,
                },
            });
        }
        let next = self.start_next(now);
        (done, next)
    }

    fn start_next(&mut self, now: SimTime) -> Option<StartedService> {
        let queued = if self.discipline == QueueDiscipline::Fifo {
            // The paper's model: the head of the queue, in O(1).
            self.queue.pop_front()?
        } else {
            // The reordering disciplines read targets straight from the
            // queue, with no per-completion allocation.
            let geometry = &self.spec.geometry;
            let queue = &self.queue;
            let (idx, sweep) = self.discipline.select_indexed(
                queue.len(),
                |i| geometry.cylinder_of(queue[i].req.start),
                self.head,
                self.sweep,
            )?;
            self.sweep = sweep;
            self.queue.remove(idx).expect("selected index in range")
        };
        Some(self.begin_service(now, queued))
    }

    fn begin_service(&mut self, now: SimTime, queued: Queued) -> StartedService {
        debug_assert!(self.in_service.is_none());
        let geometry = &self.spec.geometry;
        let params = &self.spec.params;
        let target = geometry.cylinder_of(queued.req.start);
        let sequential =
            queued.req.sequential_hint && self.next_sequential == Some(queued.req.start);
        let (seek, latency) = if sequential {
            (SimDuration::ZERO, SimDuration::ZERO)
        } else {
            let d = target.distance(self.head);
            let latency = if params.rotation_period.is_zero() {
                SimDuration::ZERO
            } else {
                self.rng.uniform_duration(params.rotation_period)
            };
            (params.seek_time(d), latency)
        };
        let breakdown = ServiceBreakdown {
            seek,
            latency,
            transfer: params.transfer_time(u64::from(queued.req.len)),
        };
        let completes = now + breakdown.total();
        let last_block = queued.req.start.offset(u64::from(queued.req.len) - 1);
        self.head = geometry.cylinder_of(last_block);
        self.next_sequential = Some(last_block.offset(1));
        self.in_service = Some(InService {
            id: queued.id,
            req: queued.req,
            started: now,
            completes,
            breakdown,
            sequential,
        });
        StartedService {
            request_id: queued.id,
            completion_at: completes,
            breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_trace::NullSink;

    fn disk() -> Disk {
        Disk::new(DiskId(0), DiskSpec::paper(), QueueDiscipline::Fifo, 42)
    }

    fn req(start: u64, len: u32) -> DiskRequest {
        DiskRequest {
            disk: DiskId(0),
            start: BlockAddr(start),
            len,
            sequential_hint: false,
            tag: 0,
        }
    }

    fn seq_req(start: u64, len: u32) -> DiskRequest {
        DiskRequest {
            sequential_hint: true,
            ..req(start, len)
        }
    }

    #[test]
    fn idle_disk_starts_service_immediately() {
        let mut d = disk();
        let (id, started) = d.submit(SimTime::ZERO, req(0, 1), &mut NullSink);
        let s = started.expect("idle disk should start service");
        assert_eq!(s.request_id, id);
        assert!(d.is_busy());
        assert_eq!(d.queue_len(), 0);
        // First request from cylinder 0 to cylinder 0: no seek, but latency
        // and transfer are due (head starts parked, not streaming).
        assert_eq!(s.breakdown.seek, SimDuration::ZERO);
        assert!(!s.breakdown.latency.is_zero());
        assert_eq!(s.breakdown.transfer, SimDuration::from_millis_f64(2.16));
    }

    #[test]
    fn busy_disk_queues() {
        let mut d = disk();
        let (_, s1) = d.submit(SimTime::ZERO, req(0, 1), &mut NullSink);
        let (_, s2) = d.submit(SimTime::ZERO, req(500, 1), &mut NullSink);
        assert!(s1.is_some());
        assert!(s2.is_none());
        assert_eq!(d.queue_len(), 1);
    }

    #[test]
    fn fifo_completion_chain() {
        let mut d = disk();
        let (id1, s1) = d.submit(SimTime::ZERO, req(0, 1), &mut NullSink);
        let (id2, _) = d.submit(SimTime::ZERO, req(100, 1), &mut NullSink);
        let (id3, _) = d.submit(SimTime::ZERO, req(200, 1), &mut NullSink);
        let t1 = s1.unwrap().completion_at;
        let (done1, s2) = d.complete(t1, &mut NullSink);
        assert_eq!(done1.id, id1);
        let s2 = s2.unwrap();
        assert_eq!(s2.request_id, id2);
        let (done2, s3) = d.complete(s2.completion_at, &mut NullSink);
        assert_eq!(done2.id, id2);
        assert_eq!(s3.unwrap().request_id, id3);
    }

    #[test]
    fn sequential_request_streams_for_free() {
        let mut d = disk();
        let (_, s1) = d.submit(SimTime::ZERO, req(10, 1), &mut NullSink);
        let t1 = s1.unwrap().completion_at;
        let (_, next) = d.complete(t1, &mut NullSink);
        assert!(next.is_none());
        // Hinted continuation immediately after the previous block: zero
        // mechanical cost.
        let (_, s2) = d.submit(t1, seq_req(11, 1), &mut NullSink);
        let b = s2.unwrap().breakdown;
        assert!(b.is_sequential());
        assert_eq!(b.total(), SimDuration::from_millis_f64(2.16));
    }

    #[test]
    fn unhinted_sequential_position_still_pays_latency() {
        // Separate operations pay the mechanical delay even when they are
        // position-sequential (Kwan–Baer model: every access pays R).
        let mut d = disk();
        let (_, s1) = d.submit(SimTime::ZERO, req(10, 1), &mut NullSink);
        let t1 = s1.unwrap().completion_at;
        d.complete(t1, &mut NullSink);
        let (_, s2) = d.submit(t1, req(11, 1), &mut NullSink);
        let b = s2.unwrap().breakdown;
        assert!(!b.is_sequential());
        assert!(!b.latency.is_zero());
        assert_eq!(b.seek, SimDuration::ZERO); // same cylinder
    }

    #[test]
    fn intervening_request_breaks_the_stream() {
        let mut d = disk();
        let (_, s1) = d.submit(SimTime::ZERO, req(10, 1), &mut NullSink);
        let t1 = s1.unwrap().completion_at;
        d.complete(t1, &mut NullSink);
        // Jump elsewhere.
        let (_, s2) = d.submit(t1, req(5000, 1), &mut NullSink);
        let t2 = s2.unwrap().completion_at;
        d.complete(t2, &mut NullSink);
        // Back to the block after 10: the hint no longer matches the head.
        let (_, s3) = d.submit(t2, seq_req(11, 1), &mut NullSink);
        assert!(!s3.unwrap().breakdown.is_sequential());
    }

    #[test]
    fn n_block_burst_costs_seek_latency_plus_n_transfers() {
        // Submit N contiguous single-block requests while the disk is busy
        // with the first; total service = one seek + one latency + N*T.
        let n = 10u64;
        let mut d = disk();
        let mut completion = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        let (_, s0) = d.submit(SimTime::ZERO, req(640, 1), &mut NullSink); // cylinder 10
        let s0 = s0.unwrap();
        total += s0.breakdown.total();
        for i in 1..n {
            d.submit(SimTime::ZERO, seq_req(640 + i, 1), &mut NullSink);
        }
        let mut started = Some(s0);
        while let Some(s) = started {
            completion = s.completion_at;
            let (_, next) = d.complete(completion, &mut NullSink);
            if let Some(nx) = &next {
                total += nx.breakdown.total();
            }
            started = next;
        }
        let expected_mechanical = d.stats().seek_total() + d.stats().latency_total();
        let expected = expected_mechanical + SimDuration::from_millis_f64(2.16) * n;
        assert_eq!(total, expected);
        assert_eq!(completion, SimTime::ZERO + total);
        // Exactly one request paid mechanical costs.
        assert_eq!(d.stats().sequential_requests(), n - 1);
    }

    #[test]
    fn seek_time_matches_distance() {
        let mut d = disk();
        // First move the head deterministically to cylinder 10 (block 640).
        let (_, s1) = d.submit(SimTime::ZERO, req(640, 1), &mut NullSink);
        let t1 = s1.unwrap().completion_at;
        d.complete(t1, &mut NullSink);
        assert_eq!(d.head(), Cylinder(10));
        // Request at cylinder 30 (block 1920): seek distance 20 cylinders.
        let (_, s2) = d.submit(t1, req(1920, 1), &mut NullSink);
        let b = s2.unwrap().breakdown;
        assert_eq!(b.seek, SimDuration::from_millis_f64(0.03) * 20);
    }

    #[test]
    fn multi_block_request_transfers_scale() {
        let mut d = disk();
        let (_, s) = d.submit(SimTime::ZERO, req(0, 5), &mut NullSink);
        let b = s.unwrap().breakdown;
        assert_eq!(b.transfer, SimDuration::from_millis_f64(2.16) * 5);
        let t = s.unwrap().completion_at;
        d.complete(t, &mut NullSink);
        // Head ends on the cylinder of the last block.
        assert_eq!(d.head(), Cylinder(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut d = disk();
            let (_, s) = d.submit(SimTime::ZERO, req(0, 1), &mut NullSink);
            let mut t = s.unwrap().completion_at;
            for i in 1..50 {
                d.submit(t, req(i * 97 % 3000, 1), &mut NullSink);
                let (_, s) = d.complete(t, &mut NullSink);
                t = s.unwrap().completion_at;
            }
            t
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sstf_services_nearest_first() {
        let mut d = Disk::new(DiskId(0), DiskSpec::paper(), QueueDiscipline::Sstf, 1);
        let (_, s1) = d.submit(SimTime::ZERO, req(640, 1), &mut NullSink); // head -> cyl 10
        let (far, _) = d.submit(SimTime::ZERO, req(640 * 80, 1), &mut NullSink); // cyl 800
        let (near, _) = d.submit(SimTime::ZERO, req(640 + 64, 1), &mut NullSink); // cyl 11
        let t1 = s1.unwrap().completion_at;
        let (_, s2) = d.complete(t1, &mut NullSink);
        assert_eq!(s2.unwrap().request_id, near);
        let (_, s3) = d.complete(s2.unwrap().completion_at, &mut NullSink);
        assert_eq!(s3.unwrap().request_id, far);
    }

    #[test]
    fn fifo_serves_in_submission_order_while_sstf_and_look_reorder() {
        // The head goes to cylinder 10 (64 blocks per cylinder) while four
        // requests queue behind it, at cylinders 800, 11, 5 and 400.
        let order = |discipline| {
            let mut d = Disk::new(DiskId(0), DiskSpec::paper(), discipline, 3);
            let (_, first) = d.submit(SimTime::ZERO, req(64 * 10, 1), &mut NullSink);
            let cylinders = [800, 11, 5, 400];
            let ids: Vec<RequestId> = cylinders
                .iter()
                .map(|&c| d.submit(SimTime::ZERO, req(64 * c, 1), &mut NullSink).0)
                .collect();
            let mut served = Vec::new();
            let mut next = first;
            while let Some(s) = next {
                let (done, n) = d.complete(s.completion_at, &mut NullSink);
                if let Some(i) = ids.iter().position(|&id| id == done.id) {
                    served.push(cylinders[i]);
                }
                next = n;
            }
            served
        };
        assert_eq!(order(QueueDiscipline::Fifo), [800, 11, 5, 400]);
        assert_eq!(order(QueueDiscipline::Sstf), [11, 5, 400, 800]);
        assert_eq!(order(QueueDiscipline::Look), [11, 400, 800, 5]);
    }

    #[test]
    #[should_panic(expected = "idle disk")]
    fn complete_on_idle_disk_panics() {
        let mut d = disk();
        d.complete(SimTime::ZERO, &mut NullSink);
    }

    #[test]
    #[should_panic(expected = "wrong disk")]
    fn wrong_disk_rejected() {
        let mut d = disk();
        d.submit(
            SimTime::ZERO,
            DiskRequest {
                disk: DiskId(9),
                start: BlockAddr(0),
                len: 1,
                sequential_hint: false,
                tag: 0,
            },
            &mut NullSink,
        );
    }

    #[test]
    #[should_panic(expected = "beyond disk capacity")]
    fn oversized_request_rejected() {
        let mut d = disk();
        let cap = d.spec().geometry.capacity_blocks();
        d.submit(SimTime::ZERO, req(cap - 1, 2), &mut NullSink);
    }

    #[test]
    fn request_ids_are_unique_and_disk_scoped() {
        let mut d0 = disk();
        let mut d1 = Disk::new(DiskId(1), DiskSpec::paper(), QueueDiscipline::Fifo, 7);
        let (a, _) = d0.submit(SimTime::ZERO, req(0, 1), &mut NullSink);
        let (b, _) = d0.submit(SimTime::ZERO, req(1, 1), &mut NullSink);
        let (c, _) = d1.submit(
            SimTime::ZERO,
            DiskRequest {
                disk: DiskId(1),
                start: BlockAddr(0),
                len: 1,
                sequential_hint: false,
                tag: 0,
            },
            &mut NullSink,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
