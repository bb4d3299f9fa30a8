//! The engine's trace, derived when it is read.
//!
//! Every decision a merge makes is a function of its depletion sequence
//! (see the [`crate::MergeEngine`] docs), so a merge does not record its
//! decision events as they happen. It keeps only what the decisions
//! cannot reproduce, a [`MergeRecord`]:
//!
//! * the clock reading of each depletion;
//! * the clock reading of each non-empty submission, the initial load
//!   included;
//! * one [`Arrival`] per block read: its disk, span, tag, service
//!   interval, sequential flag and, for a modelled seek, when positioning
//!   ended.
//!
//! [`EngineTrace`] turns those records into the event stream on its first
//! read, and keeps the stream. It replays a clone of the plan's initial
//! [`DecisionCore`] over the recorded depletions, stamped with the
//! recorded clock readings, and re-emits each `DiskIssue` with the span
//! and tenant tag the merge gave it: both advance the same
//! [`DecisionLoop`], the core plus its issue bookkeeping ([`Issuer`]).
//! Each replayed issue is checked against the arrival with the same
//! `(disk, span)`; a different tag is an internal-invariant
//! panic naming the run and block, so the trace never comes out silently
//! different. The replay delivers every issued block at once: no decision
//! and no event payload depends on when a block arrives, which is what
//! [`crate::MergeEngine::predict`] relies on too. The completion events
//! are rebuilt from the arrivals, in arrival order, and the two streams
//! merge by time ([`merge_trace`]).
//!
//! A multi-pass tree's trace is a list of [`Segment`]s, its pass markers
//! and its groups' records, each at its offset on the tree's time axis,
//! joined when read.

use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use pm_cache::RunId;
use pm_core::{DecisionCore, Wait};
use pm_disk::{Cylinder, DiskGeometry, DiskId, DiskRequest};
use pm_sim::{SimDuration, SimTime};
use pm_trace::{
    pack_tenant_tag, unpack_tag, unpack_tenant_tag, EventKind, RecordingSink, TraceEvent, TraceSink,
};

/// An engine run's trace-event stream, built from the run's records on
/// its first read and kept from then on (see the module docs). It derefs
/// to `[TraceEvent]`.
#[derive(Clone)]
pub struct EngineTrace {
    segments: Vec<Segment>,
    events: OnceLock<Vec<TraceEvent>>,
}

impl EngineTrace {
    /// The trace of one merge.
    pub(crate) fn merge(record: MergeRecord) -> Self {
        Self::join(vec![Segment::Group {
            offset: SimDuration::ZERO,
            record: Box::new(record),
        }])
    }

    /// The trace of `segments`, in order.
    pub(crate) fn join(segments: Vec<Segment>) -> Self {
        EngineTrace {
            segments,
            events: OnceLock::new(),
        }
    }

    /// The records this trace is built from.
    pub(crate) fn into_segments(self) -> Vec<Segment> {
        self.segments
    }
}

impl Deref for EngineTrace {
    type Target = [TraceEvent];

    fn deref(&self) -> &[TraceEvent] {
        self.events.get_or_init(|| {
            let mut out = Vec::new();
            for segment in &self.segments {
                match segment {
                    Segment::Marker(event) => out.push(*event),
                    Segment::Group { offset, record } => {
                        let mut events = record.derive();
                        for event in &mut events {
                            event.at += *offset;
                            if let EventKind::DiskSeekDone { started, .. }
                            | EventKind::DiskTransferDone { started, .. } = &mut event.kind
                            {
                                *started += *offset;
                            }
                        }
                        if out.is_empty() {
                            out = events;
                        } else {
                            out.extend_from_slice(&events);
                        }
                    }
                }
            }
            out
        })
    }
}

impl<'a> IntoIterator for &'a EngineTrace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for EngineTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One piece of an [`EngineTrace`].
#[derive(Debug, Clone)]
pub(crate) enum Segment {
    /// One event, as is (a multi-pass tree's pass boundary).
    Marker(TraceEvent),
    /// One merge's events, shifted by `offset`.
    Group {
        offset: SimDuration,
        record: Box<MergeRecord>,
    },
}

impl Segment {
    /// This segment moved `by` later.
    pub(crate) fn shifted(self, by: SimDuration) -> Self {
        match self {
            Segment::Marker(mut event) => {
                event.at += by;
                Segment::Marker(event)
            }
            Segment::Group { offset, record } => Segment::Group {
                offset: offset + by,
                record,
            },
        }
    }
}

/// What one merge keeps for its trace (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct MergeRecord {
    /// The plan's decision state before the first decision.
    pub(crate) core: DecisionCore,
    /// The tenant stamped into the merge's tags.
    pub(crate) tenant: u16,
    /// The run depleted at each depletion, in merge order.
    pub(crate) depletion: Vec<RunId>,
    /// The clock reading of each depletion.
    pub(crate) depleted_at: Vec<SimTime>,
    /// The clock reading of each non-empty submission.
    pub(crate) submitted_at: Vec<SimTime>,
    /// One record per block read, in arrival order.
    pub(crate) arrivals: Vec<Arrival>,
}

impl MergeRecord {
    /// An empty record of a merge that starts from `core`.
    pub(crate) fn new(core: DecisionCore, tenant: u16) -> Self {
        let blocks = core.layout().total_blocks() as usize;
        MergeRecord {
            core,
            tenant,
            depletion: Vec::with_capacity(blocks),
            depleted_at: Vec::with_capacity(blocks),
            submitted_at: Vec::new(),
            arrivals: Vec::with_capacity(blocks),
        }
    }

    /// The merge's events: its own, replayed, merged by time with the
    /// completion events rebuilt from the arrivals.
    ///
    /// # Panics
    ///
    /// Panics if the replay issues a read the merge did not.
    fn derive(&self) -> Vec<TraceEvent> {
        let disks = self.core.config().disks as usize;
        let mut by_span = vec![Vec::new(); disks];
        for (i, arrival) in self.arrivals.iter().enumerate() {
            let slots: &mut Vec<usize> = &mut by_span[usize::from(arrival.disk)];
            let span = arrival.span as usize;
            if slots.len() <= span {
                slots.resize(span + 1, usize::MAX);
            }
            slots[span] = i;
        }
        let replay = Replay {
            record: self,
            steps: DecisionLoop::new(self.core.clone(), self.tenant),
            submitted: self.submitted_at.iter(),
            by_span,
            delivered: Vec::new(),
            own: RecordingSink::unbounded(),
        };
        replay.run()
    }
}

/// One block read as it came back from the queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) tag: u64,
    pub(crate) span: u64,
    pub(crate) started: SimTime,
    pub(crate) finished: SimTime,
    /// When the positioning of a modelled seek ended (read only when
    /// `sought`).
    pub(crate) seek_done: SimTime,
    pub(crate) disk: u16,
    pub(crate) sequential: bool,
    pub(crate) sought: bool,
}

impl Arrival {
    /// This read's completion events, in emission order: a modelled
    /// seek's `DiskSeekDone`, then the `DiskTransferDone`.
    pub(crate) fn events(&self) -> impl Iterator<Item = TraceEvent> {
        let seek = self.sought.then_some(TraceEvent {
            at: self.seek_done,
            kind: EventKind::DiskSeekDone {
                disk: self.disk,
                output: false,
                tag: self.tag,
                span: self.span,
                started: self.started,
            },
        });
        let transfer = TraceEvent {
            at: self.finished,
            kind: EventKind::DiskTransferDone {
                disk: self.disk,
                output: false,
                tag: self.tag,
                span: self.span,
                started: self.started,
                sequential: self.sequential,
            },
        };
        seek.into_iter().chain([transfer])
    }
}

/// Issue bookkeeping shared by the merge and the trace replay: tenant
/// tags, spans, head cylinders and the request log.
#[derive(Debug)]
pub(crate) struct Issuer {
    tenant: u16,
    /// Per disk, the cylinder of the last issued block: the head
    /// position that head-proximity choice scores against.
    head_cyl: Vec<Cylinder>,
    /// Per disk, the `(run, block)` of every issued read in order; a
    /// read's span is its index here.
    pub(crate) requests: Vec<Vec<(u32, u32)>>,
}

impl Issuer {
    pub(crate) fn new(disks: usize, tenant: u16) -> Self {
        Issuer {
            tenant,
            head_cyl: vec![Cylinder(0); disks],
            requests: vec![Vec::new(); disks],
        }
    }

    /// The head position of `disk`.
    pub(crate) fn head(&self, disk: DiskId) -> Cylinder {
        self.head_cyl[usize::from(disk.0)]
    }

    /// Tags `req` with the tenant, logs it and moves its disk's head
    /// there; returns its span.
    pub(crate) fn issue(&mut self, req: &mut DiskRequest, geometry: &DiskGeometry) -> u64 {
        let d = usize::from(req.disk.0);
        let (run, index) = unpack_tag(req.tag);
        req.tag = pack_tenant_tag(self.tenant, run, index);
        let log = &mut self.requests[d];
        let span = log.len() as u64;
        log.push((run, index));
        self.head_cyl[d] = geometry.cylinder_of(req.start);
        span
    }

    /// Whether `tag` is what this issuer tagged read `span` of `disk`
    /// with.
    pub(crate) fn issued(&self, disk: usize, span: u64, tag: u64) -> bool {
        self.requests
            .get(disk)
            .and_then(|log| usize::try_from(span).ok().and_then(|s| log.get(s)))
            .is_some_and(|&(run, index)| pack_tenant_tag(self.tenant, run, index) == tag)
    }
}

/// The decision loop a merge and its trace replay both run: the core,
/// the reads it decides on, and their issue bookkeeping. Each runs
/// [`DecisionLoop::initial_load`], then one [`DecisionLoop::step`] per
/// depletion, and hands each step's reads out through
/// [`DecisionLoop::issue`]; a new input to the decisions is fed here, once.
#[derive(Debug)]
pub(crate) struct DecisionLoop {
    pub(crate) core: DecisionCore,
    reads: Vec<DiskRequest>,
    pub(crate) issuer: Issuer,
}

impl DecisionLoop {
    /// A loop from `core`'s state, tagging reads with `tenant`.
    pub(crate) fn new(core: DecisionCore, tenant: u16) -> Self {
        DecisionLoop {
            reads: Vec::with_capacity(core.max_reads()),
            issuer: Issuer::new(core.config().disks as usize, tenant),
            core,
        }
    }

    /// Decides the initial load; returns how many blocks it reads.
    pub(crate) fn initial_load(&mut self) -> u64 {
        self.core.initial_load(&mut self.reads)
    }

    /// The leading block of `j` was consumed at `at`: deplete it and
    /// decide what to read and what to wait for.
    pub(crate) fn step<S: TraceSink>(&mut self, j: RunId, at: SimTime, sink: &mut S) -> Wait {
        self.core.consume(j, at, sink);
        let issuer = &self.issuer;
        self.core
            .decide(j, at, |d| issuer.head(d), &mut self.reads, sink)
    }

    /// Whether reads are waiting to be issued.
    pub(crate) fn has_reads(&self) -> bool {
        !self.reads.is_empty()
    }

    /// Issues the reads decided since the last call, in order: each
    /// tagged and logged by the issuer, with its span.
    pub(crate) fn issue(&mut self) -> impl Iterator<Item = (DiskRequest, u64)> + '_ {
        let geometry = &self.core.config().disk_spec.geometry;
        let issuer = &mut self.issuer;
        self.reads.drain(..).map(move |mut req| {
            let span = issuer.issue(&mut req, geometry);
            (req, span)
        })
    }
}

/// The `DiskIssue` event of `req`, issued at `at` as read `span` of its
/// disk.
pub(crate) fn disk_issue(at: SimTime, req: &DiskRequest, span: u64) -> TraceEvent {
    TraceEvent {
        at,
        kind: EventKind::DiskIssue {
            disk: req.disk.0,
            output: false,
            tag: req.tag,
            span,
        },
    }
}

/// A merge replayed over its record.
struct Replay<'a> {
    record: &'a MergeRecord,
    steps: DecisionLoop,
    submitted: std::slice::Iter<'a, SimTime>,
    /// Per disk, the index in `record.arrivals` of each span's arrival
    /// (`usize::MAX` for none).
    by_span: Vec<Vec<usize>>,
    /// The runs of the reads just issued, delivered once all are.
    delivered: Vec<RunId>,
    own: RecordingSink,
}

impl Replay<'_> {
    /// The merge's decision loop over its recorded depletions.
    fn run(mut self) -> Vec<TraceEvent> {
        self.steps.initial_load();
        self.issue();
        let record = self.record;
        for (&j, &at) in record.depletion.iter().zip(&record.depleted_at) {
            self.steps.step(j, at, &mut self.own);
            self.issue();
        }
        let issued: usize = self.steps.issuer.requests.iter().map(Vec::len).sum();
        assert_eq!(
            issued,
            record.arrivals.len(),
            "trace replay issued a different number of reads than the merge"
        );
        assert!(
            self.submitted.next().is_none(),
            "trace replay submitted less often than the merge"
        );
        let completions = record.arrivals.iter().flat_map(Arrival::events).collect();
        merge_trace(self.own.into_events(), completions)
    }

    /// Issues the staged reads at the next submission's clock reading,
    /// each checked against its arrival, and delivers them at once.
    fn issue(&mut self) {
        if !self.steps.has_reads() {
            return;
        }
        let at = *self
            .submitted
            .next()
            .expect("trace replay submitted more often than the merge");
        for (req, span) in self.steps.issue() {
            let d = usize::from(req.disk.0);
            let arrival = self.by_span[d]
                .get(span as usize)
                .and_then(|&i| self.record.arrivals.get(i));
            let (_, run, index) = unpack_tenant_tag(req.tag);
            assert!(
                arrival.is_some_and(|a| a.tag == req.tag),
                "trace replay diverged from the merge: it issued run {run} block {index} \
                 as read {span} of disk {d}, which the merge read as {:?}",
                arrival.map(|a| unpack_tenant_tag(a.tag))
            );
            self.own.emit(disk_issue(at, &req, span));
            self.delivered.push(RunId(run));
        }
        for run in self.delivered.drain(..) {
            self.steps.core.block_arrived(run);
        }
    }
}

/// Merges the merge thread's events (already non-decreasing in `at`)
/// with the completion-stamped ones into one stream ordered by `at`,
/// the merge thread's first at equal `at`.
pub(crate) fn merge_trace(
    mut events: Vec<TraceEvent>,
    mut completions: Vec<TraceEvent>,
) -> Vec<TraceEvent> {
    debug_assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    // Stable, and linear when completions are already in order (one
    // worker publishes its completions as it services them).
    completions.sort_by_key(|e| e.at);
    let Some(&fill) = completions.first() else {
        return events;
    };
    // Merge in place from the back: the later tail goes last, and a
    // completion goes after a merge-thread event with the same `at`.
    let mut own = events.len();
    events.resize(own + completions.len(), fill);
    for k in (0..events.len()).rev() {
        let Some(&done) = completions.last() else {
            break;
        };
        if own > 0 && events[own - 1].at > done.at {
            own -= 1;
            events[k] = events[own];
        } else {
            events[k] = done;
            completions.pop();
        }
    }
    events
}

/// An eager recording as one stream: the completion events, in the order
/// they were processed, merged by time with the merge thread's.
#[cfg(test)]
pub(crate) fn eager_stream(sink: RecordingSink) -> Vec<TraceEvent> {
    let (completions, own) = sink.into_events().into_iter().partition(|e| {
        matches!(
            e.kind,
            EventKind::DiskSeekDone { .. } | EventKind::DiskTransferDone { .. }
        )
    });
    merge_trace(own, completions)
}

/// Asserts two event streams are equal, naming the first difference.
#[cfg(test)]
pub(crate) fn assert_same_events(got: &[TraceEvent], want: &[TraceEvent], what: &str) {
    if let Some(i) = got.iter().zip(want).position(|(g, w)| g != w) {
        panic!(
            "{what}: event {i} differs: derived {:?}, eager {:?}",
            got[i], want[i]
        );
    }
    assert_eq!(got.len(), want.len(), "{what}: stream lengths differ");
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pm_core::{
        AdmissionPolicy, DataLayout, MergeConfig, PrefetchChoice, ScenarioBuilder, SyncMode,
    };
    use pm_extsort::{generate, run_formation, Record};
    use pm_metrics::NullMetrics;
    use pm_service::sched_by_name;

    use super::*;
    use crate::{
        disk_seed_for, ExecConfig, ExecOutcome, IoQueue, MergeEngine, SharedDeviceSet,
        ThreadedQueue,
    };

    /// `(at, run)` of each event of `merge_trace(own, completions)`,
    /// events built as `RunExhausted { run }` at `at` nanoseconds.
    fn merged(own: &[(u64, u32)], completions: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let events = |list: &[(u64, u32)]| -> Vec<TraceEvent> {
            list.iter()
                .map(|&(at, run)| TraceEvent {
                    at: SimTime::from_nanos(at),
                    kind: EventKind::RunExhausted { run },
                })
                .collect()
        };
        merge_trace(events(own), events(completions))
            .iter()
            .map(|ev| match ev.kind {
                EventKind::RunExhausted { run } => (ev.at.as_nanos(), run),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn merge_trace_orders_by_time_with_own_events_first_on_ties() {
        // Completions arrive out of order, one before every own event,
        // one after, and two tie with own events at 4.
        assert_eq!(
            merged(
                &[(2, 0), (4, 1), (4, 2), (9, 3)],
                &[(4, 10), (1, 11), (12, 12), (4, 13), (3, 14)],
            ),
            [
                (1, 11),
                (2, 0),
                (3, 14),
                (4, 1),
                (4, 2),
                (4, 10),
                (4, 13),
                (9, 3),
                (12, 12)
            ]
        );
        assert_eq!(merged(&[], &[(5, 1), (3, 2)]), [(3, 2), (5, 1)]);
        assert_eq!(merged(&[(1, 0), (1, 1)], &[]), [(1, 0), (1, 1)]);
    }

    fn runs(total: usize, memory: usize, seed: u64) -> Vec<Vec<Record>> {
        run_formation::load_sort(&generate::uniform(total, seed), memory)
    }

    fn plan(cfg: MergeConfig, runs: &[Vec<Record>], jobs: usize, time_scale: f64) -> MergeEngine {
        let mut exec = ExecConfig::new(cfg);
        exec.records_per_block = 20;
        exec.jobs = jobs;
        exec.time_scale = time_scale;
        MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).unwrap()
    }

    /// Runs `engine` over `queue` with every event also recorded as it
    /// happens, and requires the derived trace to equal that recording,
    /// on its first read, its second, and in a clone taken before and
    /// after the first.
    fn assert_derived_equals_eager(
        engine: &MergeEngine,
        queue: Box<dyn IoQueue>,
        tenant: u16,
        what: &str,
    ) -> ExecOutcome {
        assert_eq!(queue.tenant(), tenant, "{what}: the queue's tenant");
        let mut eager = RecordingSink::unbounded();
        let outcome = engine.drive(queue, &NullMetrics, &mut eager).unwrap();
        let eager = eager_stream(eager);
        assert!(!eager.is_empty(), "{what}: nothing recorded");
        let early = outcome.events.clone();
        assert_same_events(&outcome.events, &eager, what);
        assert_same_events(&outcome.events, &eager, &format!("{what}, second read"));
        assert_same_events(
            &early,
            &eager,
            &format!("{what}, clone before the first read"),
        );
        let late = outcome.events.clone();
        assert_same_events(
            &late,
            &eager,
            &format!("{what}, clone after the first read"),
        );
        outcome
    }

    fn memory_queue(engine: &MergeEngine) -> Box<dyn IoQueue> {
        let disks = engine.merge_config().disks as usize;
        Box::new(ThreadedQueue::memory(
            disks,
            engine.block_bytes(),
            engine.queue_options(),
        ))
    }

    #[test]
    fn derived_trace_equals_the_eager_one_on_memory_at_jobs_0_and_1() {
        let data = runs(6000, 400, 3);
        let k = data.len() as u32;
        let inter = ScenarioBuilder::new(k, 4).inter(4).seed(7);
        let scenarios = [
            ("inter, random", inter.build().unwrap()),
            (
                "inter, head proximity",
                inter
                    .prefetch_choice(PrefetchChoice::HeadProximity)
                    .build()
                    .unwrap(),
            ),
            (
                "inter, greedy, adaptive",
                ScenarioBuilder::new(k, 4)
                    .adaptive(1, 6)
                    .admission(AdmissionPolicy::Greedy)
                    .cache_blocks(k * 4)
                    .seed(9)
                    .build()
                    .unwrap(),
            ),
            ("inter, synchronized", inter.synchronized().build().unwrap()),
            (
                "intra, striped",
                ScenarioBuilder::new(k, 3)
                    .intra(3)
                    .layout(DataLayout::Striped)
                    .seed(5)
                    .build()
                    .unwrap(),
            ),
        ];
        for (name, cfg) in scenarios {
            assert_eq!(
                cfg.sync == SyncMode::Synchronized,
                name.ends_with("synchronized")
            );
            for jobs in [0, 1] {
                let engine = plan(cfg, &data, jobs, 1.0);
                let mut queue = memory_queue(&engine);
                engine.load(&mut *queue, &data).unwrap();
                assert_derived_equals_eager(&engine, queue, 0, &format!("{name}, jobs {jobs}"));
            }
        }
    }

    #[test]
    fn derived_trace_equals_the_eager_one_on_files() {
        let data = runs(4000, 300, 11);
        let cfg = ScenarioBuilder::new(data.len() as u32, 3)
            .inter(3)
            .seed(13)
            .build()
            .unwrap();
        let engine = plan(cfg, &data, 1, 1.0);
        let dir = std::env::temp_dir().join(format!("pm-engine-derived-{}", std::process::id()));
        let mut queue =
            ThreadedQueue::file(&dir, 3, engine.block_bytes(), engine.queue_options()).unwrap();
        engine.load(&mut queue, &data).unwrap();
        assert_derived_equals_eager(&engine, Box::new(queue), 0, "file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn derived_trace_equals_the_eager_one_with_modelled_latency() {
        let data = runs(3000, 300, 17);
        let cfg = ScenarioBuilder::new(data.len() as u32, 3)
            .inter(3)
            .seed(19)
            .build()
            .unwrap();
        let engine = plan(cfg, &data, 0, 0.001);
        let cfg = *engine.merge_config();
        let mut queue = ThreadedQueue::latency(
            3,
            engine.block_bytes(),
            cfg.disk_spec,
            cfg.discipline,
            disk_seed_for(&cfg),
            engine.queue_options(),
        );
        engine.load(&mut queue, &data).unwrap();
        let outcome = assert_derived_equals_eager(&engine, Box::new(queue), 0, "latency");
        assert!(
            outcome
                .events
                .iter()
                .any(|e| matches!(e.kind, EventKind::DiskSeekDone { .. })),
            "the latency run must model seeks"
        );
    }

    #[test]
    fn derived_trace_equals_the_eager_one_through_a_shared_port() {
        let data = runs(3000, 300, 23);
        let cfg = ScenarioBuilder::new(data.len() as u32, 3)
            .inter(3)
            .seed(29)
            .build()
            .unwrap();
        let engine = plan(cfg, &data, 1, 1.0);
        let mut queue = ThreadedQueue::memory(3, engine.block_bytes(), engine.queue_options());
        engine.load(&mut queue, &data).unwrap();
        let device = queue.into_device();
        let mut set = SharedDeviceSet::start(3, 2, sched_by_name("wfq").unwrap(), 1.0, None);
        let _first = set.port(Arc::clone(&device), 1);
        let port = set.port(device, 2);
        let tenant = port.tenant();
        assert_eq!(tenant, 1);
        let outcome = assert_derived_equals_eager(&engine, Box::new(port), tenant, "shared");
        assert!(outcome.events.iter().all(|e| match e.kind {
            EventKind::DiskIssue { tag, .. } | EventKind::DiskTransferDone { tag, .. } =>
                unpack_tenant_tag(tag).0 == tenant,
            _ => true,
        }));
        set.shutdown();
    }

    #[test]
    #[should_panic(expected = "trace replay diverged from the merge")]
    fn a_replay_that_diverges_from_the_arrivals_panics() {
        let data = runs(2000, 300, 31);
        let cfg = ScenarioBuilder::new(data.len() as u32, 2)
            .inter(3)
            .seed(37)
            .build()
            .unwrap();
        let engine = plan(cfg, &data, 1, 1.0);
        let mut queue = memory_queue(&engine);
        engine.load(&mut *queue, &data).unwrap();
        let outcome = engine.execute(queue).unwrap();
        let mut segments = outcome.events.into_segments();
        let Some(Segment::Group { record, .. }) = segments.first_mut() else {
            panic!("a merge's trace is one group");
        };
        let last = record.arrivals.len() - 1;
        record.arrivals[last].tag ^= 1;
        let _ = EngineTrace::join(segments).len();
    }
}
