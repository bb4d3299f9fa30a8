//! The merge-phase discrete-event simulation.

use pm_cache::RunId;
use pm_disk::{DiskArray, DiskId, DiskRequest};
use pm_sim::{Executive, SimDuration, SimTime};
use pm_trace::{NullSink, OutputSide, TraceSink};

use crate::write::Writer;
use crate::{
    ConfigError, DecisionCore, DepletionModel, MergeConfig, MergeReport, SyncMode,
    UniformDepletion, Wait,
};

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The request in service on an input disk finished.
    DiskDone(DiskId),
    /// The request in service on an output (write) disk finished.
    WriteDone(DiskId),
    /// The CPU is ready to deplete the next block.
    CpuStep,
}

/// What the merge is stalled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Initial load: `first_missing` runs still lack their leading block;
    /// `blocks_remaining` initial blocks are still in flight (synchronized
    /// mode waits for all of them).
    Startup {
        first_missing: u32,
        blocks_remaining: u64,
    },
    /// Synchronized operation: `remaining` blocks still in flight.
    SyncOp { remaining: u32 },
    /// Unsynchronized wait for the next arrival of the depleted run (see
    /// [`Wait::NextBlock`]).
    Block { run: RunId },
    /// The output buffer is full; waiting for a write to complete.
    WriteSpace,
}

/// Time-weighted busy-disk accounting.
#[derive(Debug, Clone, Copy, Default)]
struct BusyTracker {
    last_change_ns: u64,
    last_count: u32,
    /// ∫ busy(t) dt, in disk·ns.
    integral: u128,
    /// Total time with at least one disk busy, in ns.
    active_ns: u64,
    peak: u32,
}

impl BusyTracker {
    fn update(&mut self, now: SimTime, count: u32) {
        let now_ns = now.as_nanos();
        let dt = now_ns - self.last_change_ns;
        self.integral += u128::from(self.last_count) * u128::from(dt);
        if self.last_count > 0 {
            self.active_ns += dt;
        }
        self.last_change_ns = now_ns;
        self.last_count = count;
        self.peak = self.peak.max(count);
    }
}

/// One simulation instance.
///
/// Construct with [`MergeSim::new`], then call [`MergeSim::run`] with a
/// depletion model (or [`MergeSim::run_uniform`] for the paper's random
/// model). The simulation consumes the instance and returns a
/// [`MergeReport`].
///
/// Every decision — demand fetches, prefetch targets, admission, depth —
/// is made by a [`DecisionCore`]; the simulation supplies its clock: the
/// event executive, the simulated disks and writer, and the CPU.
///
/// The instance is generic over a [`TraceSink`] `S` observing every I/O
/// and cache decision (see [`pm_trace`]). The default [`NullSink`] has
/// `ENABLED == false`, so every emission site compiles away and the
/// simulation is exactly the untraced hot path; swap in a recording sink
/// with [`MergeSim::replace_sink`] and run with
/// [`MergeSim::run_with_sink`] to capture the event stream. Sinks are
/// observe-only, so a traced run is bit-identical to an untraced one.
pub struct MergeSim<S: TraceSink = NullSink> {
    core: DecisionCore,
    /// Reads the core decided on, submitted to the disks in order right
    /// after each decision (sized once by [`DecisionCore::max_reads`]).
    reads: Vec<DiskRequest>,
    exec: Executive<Event>,
    disks: DiskArray,
    /// Runs with undepleted blocks. `live_pos[r]` is the run's index here.
    live: Vec<RunId>,
    live_pos: Vec<usize>,
    gate: Option<Gate>,
    cpu_free_at: SimTime,
    cpu_scheduled: bool,
    writer: Option<Writer>,
    /// All blocks merged; waiting only for the write drain.
    cpu_done: bool,
    // Metrics.
    busy: BusyTracker,
    cpu_stall: SimDuration,
    finished_at: Option<SimTime>,
    sink: S,
}

const DEAD: usize = usize::MAX;

impl MergeSim {
    /// Builds a simulation from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's [`ConfigError`] if it is inconsistent.
    pub fn new(cfg: MergeConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Self::with_run_lengths(cfg, &vec![cfg.run_blocks; cfg.runs as usize])
    }

    /// Builds a simulation whose runs have the given (possibly different)
    /// lengths — the shape replacement-selection run formation produces.
    /// `cfg.run_blocks` is ignored; `cfg.runs` must equal `lengths.len()`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent or
    /// the cache cannot hold the initial load of
    /// `Σ min(N, length_r)` blocks (see [`DecisionCore::new`]).
    pub fn with_run_lengths(cfg: MergeConfig, lengths: &[u32]) -> Result<Self, ConfigError> {
        let core = DecisionCore::new(cfg, lengths)?;
        let cfg = *core.config();
        let (disk_seed, writer_seed) = DecisionCore::device_seeds(cfg.seed);
        let disks = DiskArray::new(cfg.disks as usize, cfg.disk_spec, cfg.discipline, disk_seed);
        let writer = cfg
            .write
            .map(|spec| Writer::new(spec, cfg.disk_spec, writer_seed));
        // The event list is O(D): one in-flight completion per read disk,
        // one per write disk, plus the CPU step. Size it once so the
        // steady state never grows the heap.
        let event_capacity = cfg.disks as usize + cfg.write.map_or(0, |w| w.disks) as usize + 1;
        Ok(MergeSim {
            reads: Vec::with_capacity(core.max_reads()),
            core,
            exec: Executive::with_capacity(event_capacity),
            disks,
            live: (0..cfg.runs).map(RunId).collect(),
            live_pos: (0..cfg.runs as usize).collect(),
            gate: None,
            cpu_free_at: SimTime::ZERO,
            cpu_scheduled: false,
            writer,
            cpu_done: false,
            busy: BusyTracker::default(),
            cpu_stall: SimDuration::ZERO,
            finished_at: None,
            sink: NullSink,
        })
    }

    /// Runs the simulation under the paper's uniform random depletion
    /// model.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `cfg` is invalid.
    pub fn run_uniform(cfg: MergeConfig) -> Result<MergeReport, ConfigError> {
        Ok(Self::new(cfg)?.run(&mut UniformDepletion))
    }
}

impl<S: TraceSink> MergeSim<S> {
    /// Swaps the trace sink, preserving all simulation state (including
    /// state [`MergeSim::with_run_lengths`] set up). Must be called before
    /// the run starts.
    pub fn replace_sink<T: TraceSink>(self, sink: T) -> MergeSim<T> {
        MergeSim {
            core: self.core,
            reads: self.reads,
            exec: self.exec,
            disks: self.disks,
            live: self.live,
            live_pos: self.live_pos,
            gate: self.gate,
            cpu_free_at: self.cpu_free_at,
            cpu_scheduled: self.cpu_scheduled,
            writer: self.writer,
            cpu_done: self.cpu_done,
            busy: self.busy,
            cpu_stall: self.cpu_stall,
            finished_at: self.finished_at,
            sink,
        }
    }

    /// Runs the simulation to completion with the given depletion model.
    ///
    /// Generic over the model (`?Sized`, so `&mut dyn DepletionModel`
    /// still works) so that concrete callers like
    /// [`MergeSim::run_uniform`] monomorphize: the model's per-block run
    /// choice inlines into the event loop instead of costing a virtual
    /// call per merged block.
    ///
    /// # Panics
    ///
    /// Panics if the depletion model misbehaves (returns dead runs or
    /// exhausts a trace early) or an internal invariant is violated.
    pub fn run<M: DepletionModel + ?Sized>(self, model: &mut M) -> MergeReport {
        self.run_with_sink(model).0
    }

    /// [`MergeSim::run`], additionally returning the sink with whatever it
    /// recorded. Tracing is observational only, so the report is
    /// bit-identical to [`MergeSim::run`]'s for the same configuration
    /// regardless of the sink.
    ///
    /// # Panics
    ///
    /// As [`MergeSim::run`].
    pub fn run_with_sink<M: DepletionModel + ?Sized>(mut self, model: &mut M) -> (MergeReport, S) {
        self.run_loop(model);
        self.build_report()
    }

    fn run_loop<M: DepletionModel + ?Sized>(&mut self, model: &mut M) {
        // Completion events are coalesced per device: a disk only ever has
        // its *next* completion in the event list and re-arms on dispatch,
        // so the list holds at most one event per read disk, one per write
        // disk, and one CPU step — O(D), independent of in-flight blocks.
        let cfg = self.core.config();
        let event_bound = cfg.disks as usize + cfg.write.map_or(0, |w| w.disks) as usize + 1;
        self.initial_load();
        while let Some(ev) = self.exec.next() {
            match ev {
                Event::DiskDone(d) => self.on_disk_done(d),
                Event::WriteDone(d) => self.on_write_done(d),
                Event::CpuStep => self.on_cpu_step(model),
            }
            debug_assert!(
                self.exec.pending() <= event_bound,
                "event list grew past the O(D) bound: {} > {event_bound}",
                self.exec.pending()
            );
        }
    }

    /// Issues the initial load, all queued at `t = 0`. The CPU starts once
    /// every run has its leading block resident (synchronized mode: once
    /// every initial block has arrived).
    fn initial_load(&mut self) {
        let now = self.exec.now();
        let issued = self.core.initial_load(&mut self.reads);
        self.submit_reads(now);
        self.gate = Some(Gate::Startup {
            first_missing: self.core.config().runs,
            blocks_remaining: issued,
        });
    }

    fn on_disk_done(&mut self, disk: DiskId) {
        let now = self.exec.now();
        let (done, next) = self.disks.complete(now, disk, &mut self.sink);
        if let Some(s) = next {
            self.exec
                .schedule_at(s.completion_at, Event::DiskDone(disk));
        }
        self.busy.update(now, self.disks.busy_count() as u32);
        let (run, _index) = pm_trace::unpack_tag(done.request.tag);
        let run = RunId(run);
        self.core.block_arrived(run);
        self.advance_gate(now, run);
    }

    /// Records an arrival against the current gate and wakes the CPU when
    /// the gate opens.
    fn advance_gate(&mut self, now: SimTime, run: RunId) {
        let opened = match &mut self.gate {
            None => false,
            Some(Gate::Startup {
                first_missing,
                blocks_remaining,
            }) => {
                // During startup nothing depletes, so a run's resident
                // count hits 1 exactly once: on its first arrival.
                if self.core.resident(run) == 1 {
                    *first_missing -= 1;
                }
                *blocks_remaining -= 1;
                match self.core.config().sync {
                    SyncMode::Synchronized => *blocks_remaining == 0,
                    SyncMode::Unsynchronized => *first_missing == 0,
                }
            }
            Some(Gate::SyncOp { remaining }) => {
                *remaining -= 1;
                *remaining == 0
            }
            Some(Gate::Block { run: want_run }) => run == *want_run,
            // Write-space gates open from write completions, not arrivals.
            Some(Gate::WriteSpace) => false,
        };
        if opened {
            self.wake_cpu(now);
        }
    }

    /// Opens the current gate: accounts the stall and schedules the CPU.
    fn wake_cpu(&mut self, now: SimTime) {
        self.gate = None;
        if now > self.cpu_free_at {
            // No trace event: a stall is exactly the gap between one
            // `CpuConsume` stamp plus `cpu_per_block` and the next.
            self.cpu_stall += now - self.cpu_free_at;
        }
        if !self.cpu_scheduled {
            let at = now.max(self.cpu_free_at);
            self.exec.schedule_at(at, Event::CpuStep);
            self.cpu_scheduled = true;
        }
    }

    /// A write completed: free the buffer slot, chain the next write, wake
    /// the CPU if it was stalled on buffer space, and finish the run once
    /// the last output block lands after the merge itself is done.
    fn on_write_done(&mut self, disk: DiskId) {
        let now = self.exec.now();
        let writer = self.writer.as_mut().expect("write event without writer");
        let next = writer.complete(now, disk, &mut OutputSide(&mut self.sink));
        if let Some(s) = next {
            self.exec
                .schedule_at(s.completion_at, Event::WriteDone(disk));
        }
        if self.gate == Some(Gate::WriteSpace) {
            self.wake_cpu(now);
        }
        if self.cpu_done && !self.writer.as_ref().expect("writer").is_draining() {
            self.finished_at = Some(self.cpu_free_at.max(now));
        }
    }

    fn on_cpu_step<M: DepletionModel + ?Sized>(&mut self, model: &mut M) {
        self.cpu_scheduled = false;
        let cpu_per_block = self.core.config().cpu_per_block;
        loop {
            let now = self.exec.now();
            debug_assert!(self.gate.is_none(), "CPU stepped through a closed gate");
            if self.live.is_empty() {
                if self.writer.as_ref().is_some_and(Writer::is_draining) {
                    // Every block is merged; the run ends when the last
                    // output block is written.
                    self.cpu_done = true;
                } else {
                    self.finished_at = Some(self.cpu_free_at.max(now));
                }
                return;
            }
            if self.writer.as_ref().is_some_and(|w| !w.has_space()) {
                self.gate = Some(Gate::WriteSpace);
                return;
            }
            let j = model.next_run(self.core.rng_mut(), &self.live);
            self.deplete_block(now, j);
            self.cpu_free_at = now + cpu_per_block;
            if self.gate.is_some() {
                // Blocked on I/O; an arrival will reschedule the CPU.
                return;
            }
            if cpu_per_block.is_zero() {
                continue; // infinitely fast CPU: merge on at this instant
            }
            self.exec.schedule_at(self.cpu_free_at, Event::CpuStep);
            self.cpu_scheduled = true;
            return;
        }
    }

    /// Consumes the leading block of `j`, produces its output block, and
    /// submits the I/O and sets the gate the core decides on.
    fn deplete_block(&mut self, now: SimTime, j: RunId) {
        self.core.consume(j, now, &mut self.sink);
        if let Some(writer) = &mut self.writer {
            if let Some((disk, s)) = writer.produce_block(now, &mut OutputSide(&mut self.sink)) {
                self.exec
                    .schedule_at(s.completion_at, Event::WriteDone(disk));
            }
        }
        let disks = &self.disks;
        let wait = self.core.decide(
            j,
            now,
            |d| disks.disk(d).head(),
            &mut self.reads,
            &mut self.sink,
        );
        if !self.reads.is_empty() {
            self.submit_reads(now);
        }
        match wait {
            Wait::Ready => {}
            Wait::Blocks(remaining) => self.gate = Some(Gate::SyncOp { remaining }),
            Wait::NextBlock => self.gate = Some(Gate::Block { run: j }),
            Wait::Exhausted => self.remove_live(j),
        }
    }

    /// Submits the reads the core decided on, in order, and schedules
    /// their completion events.
    fn submit_reads(&mut self, now: SimTime) {
        for req in self.reads.drain(..) {
            let disk = req.disk;
            let (_, started) = self.disks.submit(now, req, &mut self.sink);
            if let Some(s) = started {
                self.exec
                    .schedule_at(s.completion_at, Event::DiskDone(disk));
            }
        }
        self.busy.update(now, self.disks.busy_count() as u32);
    }

    fn remove_live(&mut self, run: RunId) {
        let pos = self.live_pos[run.0 as usize];
        debug_assert_ne!(pos, DEAD);
        self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.live_pos[moved.0 as usize] = pos;
        }
        self.live_pos[run.0 as usize] = DEAD;
    }

    fn build_report(mut self) -> (MergeReport, S) {
        let finished = self
            .finished_at
            .expect("simulation ended without completing the merge");
        let counts = self.core.finish();
        if let Some(writer) = &self.writer {
            assert!(!writer.is_draining(), "output blocks left unwritten");
            assert_eq!(writer.blocks_written(), counts.blocks_merged);
        }
        self.busy.update(finished, self.disks.busy_count() as u32);
        let agg = self.disks.aggregate_stats();
        let total = finished - SimTime::ZERO;
        let total_ns = total.as_nanos();
        let avg_busy_disks = if total_ns == 0 {
            0.0
        } else {
            self.busy.integral as f64 / total_ns as f64
        };
        let avg_concurrency = if self.busy.active_ns == 0 {
            0.0
        } else {
            self.busy.integral as f64 / self.busy.active_ns as f64
        };
        let report = MergeReport {
            total,
            blocks_merged: counts.blocks_merged,
            demand_ops: counts.demand_ops,
            fallback_ops: counts.fallback_ops,
            full_prefetch_ops: counts.full_prefetch_ops,
            success_ratio: counts.success_ratio(),
            avg_busy_disks,
            avg_concurrency,
            peak_busy_disks: self.busy.peak,
            cpu_busy: self.core.config().cpu_per_block * counts.blocks_merged,
            cpu_stall: self.cpu_stall,
            seek_total: agg.seek_total(),
            latency_total: agg.latency_total(),
            transfer_total: agg.transfer_total(),
            disk_requests: agg.requests(),
            sequential_requests: agg.sequential_requests(),
            per_disk_busy: self.disks.iter().map(|d| d.stats().busy_total()).collect(),
            write_blocks: self.writer.as_ref().map_or(0, Writer::blocks_written),
            write_busy: self
                .writer
                .as_ref()
                .map_or(SimDuration::ZERO, Writer::busy_total),
        };
        (report, self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrefetchStrategy, TraceDepletion};
    use pm_cache::AdmissionPolicy;

    /// Small, fast scenario helper.
    fn small(strategy: PrefetchStrategy, sync: SyncMode, disks: u32, cache: u32) -> MergeConfig {
        MergeConfig {
            runs: 6,
            run_blocks: 40,
            disks,
            layout: crate::DataLayout::Concatenated,
            strategy,
            sync,
            cache_blocks: cache,
            cpu_per_block: SimDuration::ZERO,
            admission: AdmissionPolicy::AllOrNothing,
            prefetch_choice: crate::PrefetchChoice::Random,
            per_run_cap: None,
            discipline: pm_disk::QueueDiscipline::Fifo,
            disk_spec: pm_disk::DiskSpec::paper(),
            write: None,
            seed: 42,
        }
    }

    #[test]
    fn merges_every_block_no_prefetch() {
        let r = MergeSim::run_uniform(small(
            PrefetchStrategy::None,
            SyncMode::Unsynchronized,
            1,
            6,
        ))
        .unwrap();
        assert_eq!(r.blocks_merged, 240);
        assert_eq!(r.disk_requests, 240);
        assert!(r.total > SimDuration::ZERO);
        // With no prefetch depth every fetch is a fresh operation:
        // no request ever streams.
        assert_eq!(r.sequential_requests, 0);
    }

    #[test]
    fn merges_every_block_intra_run() {
        let r = MergeSim::run_uniform(small(
            PrefetchStrategy::IntraRun { n: 5 },
            SyncMode::Unsynchronized,
            2,
            30,
        ))
        .unwrap();
        assert_eq!(r.blocks_merged, 240);
        // Each 5-block operation streams its last 4 blocks.
        assert_eq!(r.disk_requests, 240);
        assert_eq!(r.sequential_requests, 240 / 5 * 4);
    }

    #[test]
    fn merges_every_block_inter_run() {
        let r = MergeSim::run_uniform(small(
            PrefetchStrategy::InterRun { n: 5 },
            SyncMode::Unsynchronized,
            3,
            120,
        ))
        .unwrap();
        assert_eq!(r.blocks_merged, 240);
        assert!(r.success_ratio.is_some());
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small(
            PrefetchStrategy::InterRun { n: 3 },
            SyncMode::Unsynchronized,
            3,
            60,
        );
        let a = MergeSim::run_uniform(cfg).unwrap();
        let b = MergeSim::run_uniform(cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small(
            PrefetchStrategy::IntraRun { n: 4 },
            SyncMode::Unsynchronized,
            2,
            24,
        );
        let a = MergeSim::run_uniform(cfg).unwrap();
        let mut cfg2 = cfg;
        cfg2.seed = 43;
        let b = MergeSim::run_uniform(cfg2).unwrap();
        assert_ne!(a.total, b.total);
    }

    #[test]
    fn sync_is_never_faster_than_unsync() {
        for strategy in [
            PrefetchStrategy::IntraRun { n: 5 },
            PrefetchStrategy::InterRun { n: 5 },
        ] {
            let cache = 6 * 5 * 4;
            let sync =
                MergeSim::run_uniform(small(strategy, SyncMode::Synchronized, 3, cache)).unwrap();
            let unsync =
                MergeSim::run_uniform(small(strategy, SyncMode::Unsynchronized, 3, cache)).unwrap();
            assert!(
                unsync.total <= sync.total,
                "{strategy:?}: unsync {} > sync {}",
                unsync.total,
                sync.total
            );
        }
    }

    #[test]
    fn total_exceeds_transfer_lower_bound() {
        for disks in [1u32, 2, 3] {
            let r = MergeSim::run_uniform(small(
                PrefetchStrategy::InterRun { n: 5 },
                SyncMode::Unsynchronized,
                disks,
                240,
            ))
            .unwrap();
            // Lower bound: total transfer / D.
            let bound_ms = 240.0 * 2.16 / f64::from(disks);
            assert!(
                r.total.as_millis_f64() >= bound_ms,
                "D={disks}: {} < {bound_ms}",
                r.total.as_millis_f64()
            );
        }
    }

    #[test]
    fn finite_cpu_adds_time() {
        let mut fast = small(
            PrefetchStrategy::IntraRun { n: 5 },
            SyncMode::Unsynchronized,
            2,
            30,
        );
        let mut slow = fast;
        slow.cpu_per_block = SimDuration::from_millis(5);
        fast.cpu_per_block = SimDuration::ZERO;
        let rf = MergeSim::run_uniform(fast).unwrap();
        let rs = MergeSim::run_uniform(slow).unwrap();
        assert!(rs.total > rf.total);
        // CPU-bound floor: 240 blocks × 5 ms.
        assert!(rs.total >= SimDuration::from_millis(1200));
        assert_eq!(rs.cpu_busy, SimDuration::from_millis(1200));
    }

    #[test]
    fn success_ratio_reaches_one_with_huge_cache() {
        let r = MergeSim::run_uniform(small(
            PrefetchStrategy::InterRun { n: 5 },
            SyncMode::Unsynchronized,
            3,
            1200,
        ))
        .unwrap();
        let ratio = r.success_ratio.unwrap();
        assert!(ratio > 0.95, "ratio={ratio}");
        assert_eq!(r.fallback_ops, 0);
    }

    #[test]
    fn success_ratio_near_zero_with_minimal_cache() {
        // C = kN: after the initial load the cache has no room for any
        // D·N prefetch.
        let r = MergeSim::run_uniform(small(
            PrefetchStrategy::InterRun { n: 5 },
            SyncMode::Unsynchronized,
            3,
            30,
        ))
        .unwrap();
        let ratio = r.success_ratio.unwrap();
        // Most operations fall back to single-block demand fetches (the
        // tail of the merge frees space, so the ratio is small, not zero).
        assert!(ratio < 0.3, "ratio={ratio}");
        assert!(r.fallback_ops > r.demand_ops / 2, "{r:?}");
    }

    #[test]
    fn concurrency_bounded_by_disk_count() {
        for disks in [1u32, 2, 3] {
            let r = MergeSim::run_uniform(small(
                PrefetchStrategy::InterRun { n: 5 },
                SyncMode::Unsynchronized,
                disks,
                400,
            ))
            .unwrap();
            assert!(r.avg_concurrency <= f64::from(disks) + 1e-9);
            assert!(r.peak_busy_disks <= disks);
            assert!(r.avg_busy_disks <= r.avg_concurrency + 1e-9);
        }
    }

    #[test]
    fn multiple_disks_cut_seek_time() {
        // Distributing the runs shortens seeks by ~D× (the paper's eq. 3
        // mechanism). Total time in this tiny scenario is dominated by
        // rotational-latency noise, so assert on the seek component.
        let one = MergeSim::run_uniform(small(
            PrefetchStrategy::None,
            SyncMode::Unsynchronized,
            1,
            6,
        ))
        .unwrap();
        let three = MergeSim::run_uniform(small(
            PrefetchStrategy::None,
            SyncMode::Unsynchronized,
            3,
            6,
        ))
        .unwrap();
        assert!(
            three.seek_total.as_millis_f64() < 0.6 * one.seek_total.as_millis_f64(),
            "three={} one={}",
            three.seek_total,
            one.seek_total
        );
    }

    #[test]
    fn trace_model_round_robin() {
        // A strict round-robin trace merges everything deterministically.
        let cfg = small(
            PrefetchStrategy::IntraRun { n: 4 },
            SyncMode::Unsynchronized,
            2,
            24,
        );
        let mut trace = Vec::new();
        for block in 0..40u32 {
            for run in 0..6u32 {
                let _ = block;
                trace.push(RunId(run));
            }
        }
        let mut model = TraceDepletion::new(trace);
        let r = MergeSim::new(cfg).unwrap().run(&mut model);
        assert_eq!(r.blocks_merged, 240);
    }

    #[test]
    fn single_run_single_disk_reads_sequentially() {
        let cfg = MergeConfig {
            runs: 1,
            run_blocks: 64,
            disks: 1,
            layout: crate::DataLayout::Concatenated,
            strategy: PrefetchStrategy::IntraRun { n: 8 },
            sync: SyncMode::Unsynchronized,
            cache_blocks: 8,
            cpu_per_block: SimDuration::ZERO,
            admission: AdmissionPolicy::AllOrNothing,
            prefetch_choice: crate::PrefetchChoice::Random,
            per_run_cap: None,
            discipline: pm_disk::QueueDiscipline::Fifo,
            disk_spec: pm_disk::DiskSpec::paper(),
            write: None,
            seed: 7,
        };
        let r = MergeSim::run_uniform(cfg).unwrap();
        assert_eq!(r.blocks_merged, 64);
        // 8 operations of 8 blocks: 8 mechanical delays, 56 streams.
        assert_eq!(r.sequential_requests, 56);
        assert_eq!(r.seek_total, SimDuration::ZERO); // never leaves the run
    }

    #[test]
    fn variable_run_lengths_merge_completely() {
        let cfg = small(
            PrefetchStrategy::IntraRun { n: 4 },
            SyncMode::Unsynchronized,
            2,
            100,
        );
        let lengths = [40u32, 10, 25, 3, 60, 17];
        let sim = MergeSim::with_run_lengths(cfg, &lengths).unwrap();
        let r = sim.run(&mut crate::UniformDepletion);
        let total: u64 = lengths.iter().map(|&l| u64::from(l)).sum();
        assert_eq!(r.blocks_merged, total);
        assert_eq!(r.disk_requests, total);
    }

    #[test]
    fn variable_lengths_inter_run_strategy() {
        let cfg = small(
            PrefetchStrategy::InterRun { n: 5 },
            SyncMode::Unsynchronized,
            3,
            400,
        );
        let lengths = [80u32, 5, 120, 44, 61, 9];
        let r = MergeSim::with_run_lengths(cfg, &lengths)
            .unwrap()
            .run(&mut crate::UniformDepletion);
        assert_eq!(r.blocks_merged, 319);
    }

    #[test]
    fn variable_lengths_reject_undersized_cache() {
        let cfg = small(
            PrefetchStrategy::IntraRun { n: 10 },
            SyncMode::Unsynchronized,
            2,
            30,
        );
        // Initial load needs min(10, len) per run = 10+10+5 = 25 <= 30: ok.
        assert!(MergeSim::with_run_lengths(cfg, &[40, 40, 5]).is_ok());
        // 10*4 = 40 > 30: rejected.
        let err = MergeSim::with_run_lengths(cfg, &[40, 40, 40, 40])
            .err()
            .unwrap();
        assert!(matches!(err, crate::ConfigError::CacheTooSmall { .. }));
    }

    #[test]
    fn variable_lengths_reject_empty_runs() {
        let cfg = small(PrefetchStrategy::None, SyncMode::Unsynchronized, 1, 10);
        assert!(MergeSim::with_run_lengths(cfg, &[]).is_err());
        assert!(MergeSim::with_run_lengths(cfg, &[5, 0, 3]).is_err());
    }

    #[test]
    fn uniform_lengths_match_plain_constructor() {
        let cfg = small(
            PrefetchStrategy::IntraRun { n: 5 },
            SyncMode::Unsynchronized,
            2,
            30,
        );
        let a = MergeSim::new(cfg)
            .unwrap()
            .run(&mut crate::UniformDepletion);
        let b = MergeSim::with_run_lengths(cfg, &[40; 6])
            .unwrap()
            .run(&mut crate::UniformDepletion);
        assert_eq!(a, b);
    }

    #[test]
    fn per_run_cap_prevents_cache_clogging() {
        // With fewer runs than 2 per disk, the disks holding a single run
        // receive N more blocks on *every* operation; with long runs they
        // hoard the cache and the success ratio collapses. The cap
        // restores full prefetching. (The symmetric one-run-per-disk case
        // self-balances; the asymmetric layout below is the pathological
        // one — see the E10 experiment.)
        let mut cfg = crate::ScenarioBuilder::new(8, 5)
            .run_blocks(2000)
            .inter(20)
            .cache_blocks(640)
            .seed(3)
            .build()
            .unwrap();
        let clogged = MergeSim::run_uniform(cfg).unwrap();
        cfg.per_run_cap = Some(160);
        let capped = MergeSim::run_uniform(cfg).unwrap();
        assert!(
            capped.success_ratio.unwrap() > clogged.success_ratio.unwrap() + 0.3,
            "capped {:?} vs clogged {:?}",
            capped.success_ratio,
            clogged.success_ratio
        );
        assert!(capped.total < clogged.total);
        assert_eq!(capped.blocks_merged, 16_000);
    }

    #[test]
    fn write_traffic_completes_and_counts() {
        let mut cfg = small(
            PrefetchStrategy::InterRun { n: 5 },
            SyncMode::Unsynchronized,
            3,
            200,
        );
        cfg.write = Some(crate::WriteSpec {
            disks: 2,
            buffer_blocks: 16,
        });
        let r = MergeSim::run_uniform(cfg).unwrap();
        assert_eq!(r.blocks_merged, 240);
        assert_eq!(r.write_blocks, 240);
        // Every output block is transferred on the write side too.
        assert!(r.write_busy >= SimDuration::from_millis_f64(2.16) * 240 / 2);
    }

    #[test]
    fn single_write_disk_becomes_the_bottleneck() {
        // Read side: 3 disks with deep prefetching. Write side: one disk
        // must absorb every output block (mostly sequential, so ~T per
        // block), which dominates the read-side bound of total/3.
        let mut cfg = small(
            PrefetchStrategy::InterRun { n: 5 },
            SyncMode::Unsynchronized,
            3,
            400,
        );
        let baseline = MergeSim::run_uniform(cfg).unwrap();
        cfg.write = Some(crate::WriteSpec {
            disks: 1,
            buffer_blocks: 8,
        });
        let with_writes = MergeSim::run_uniform(cfg).unwrap();
        let write_bound = SimDuration::from_millis_f64(2.16) * 240;
        assert!(
            with_writes.total >= write_bound,
            "{} < {}",
            with_writes.total,
            write_bound
        );
        assert!(with_writes.total > baseline.total);
    }

    #[test]
    fn ample_write_disks_cost_little() {
        let mut cfg = small(
            PrefetchStrategy::InterRun { n: 5 },
            SyncMode::Unsynchronized,
            3,
            400,
        );
        let baseline = MergeSim::run_uniform(cfg).unwrap();
        cfg.write = Some(crate::WriteSpec {
            disks: 4,
            buffer_blocks: 64,
        });
        let with_writes = MergeSim::run_uniform(cfg).unwrap();
        // The paper's assumption: with enough write bandwidth the write
        // side is invisible (small tolerance for the final drain).
        assert!(
            with_writes.total.as_secs_f64() <= baseline.total.as_secs_f64() * 1.15,
            "writes added too much: {} vs {}",
            with_writes.total,
            baseline.total
        );
    }

    #[test]
    fn write_traffic_is_deterministic() {
        let mut cfg = small(
            PrefetchStrategy::IntraRun { n: 4 },
            SyncMode::Unsynchronized,
            2,
            24,
        );
        cfg.write = Some(crate::WriteSpec {
            disks: 2,
            buffer_blocks: 4,
        });
        let a = MergeSim::run_uniform(cfg).unwrap();
        let b = MergeSim::run_uniform(cfg).unwrap();
        assert_eq!(a, b);
    }

    /// Runs `cfg` recording every trace event.
    fn recorded(cfg: MergeConfig) -> (MergeReport, Vec<pm_trace::TraceEvent>) {
        let (report, sink) = MergeSim::new(cfg)
            .unwrap()
            .replace_sink(pm_trace::RecordingSink::unbounded())
            .run_with_sink(&mut crate::UniformDepletion);
        (report, sink.into_events())
    }

    #[test]
    fn traced_run_matches_untraced_and_accounts_everything() {
        let cfg = small(
            PrefetchStrategy::InterRun { n: 5 },
            SyncMode::Unsynchronized,
            3,
            120,
        );
        let plain = MergeSim::run_uniform(cfg).unwrap();
        let (traced, events) = recorded(cfg);
        assert_eq!(plain, traced, "tracing must not change behaviour");
        // The paper's k=25, D=8, inter-run N=10, C=1200 case, too.
        let paper = crate::ScenarioBuilder::new(25, 8)
            .inter(10)
            .cache_blocks(1200)
            .build()
            .unwrap();
        assert_eq!(MergeSim::run_uniform(paper).unwrap(), recorded(paper).0);
        let m = pm_trace::TraceMetrics::from_events(&events);
        // The trace's per-disk lanes equal the disks' own accounts.
        assert_eq!(m.input_disks.len(), 3);
        for (d, lane) in m.input_disks.iter().enumerate() {
            assert_eq!(lane.busy, traced.per_disk_busy[d], "busy time of disk {d}");
        }
        let requests: u64 = m.input_disks.iter().map(|l| l.requests).sum();
        let sequential: u64 = m.input_disks.iter().map(|l| l.sequential).sum();
        assert_eq!(requests, traced.disk_requests);
        assert_eq!(requests, 240, "one service per block");
        assert_eq!(sequential, traced.sequential_requests);
        // One miss per demand op, each seeing at most C free frames.
        assert_eq!(m.demand_misses, traced.demand_ops);
        assert!(m.min_free_at_miss.unwrap() <= 120);
        // Service windows never overlap on one disk.
        let mut last_end = [SimTime::ZERO; 3];
        for ev in &events {
            if let pm_trace::EventKind::DiskTransferDone {
                disk,
                output: false,
                started,
                ..
            } = ev.kind
            {
                assert!(
                    last_end[usize::from(disk)] <= started,
                    "overlap on disk {disk}"
                );
                last_end[usize::from(disk)] = ev.at;
            }
        }
    }

    #[test]
    fn traced_write_runs_tag_output_disks() {
        let mut cfg = small(
            PrefetchStrategy::IntraRun { n: 4 },
            SyncMode::Unsynchronized,
            2,
            24,
        );
        cfg.write = Some(crate::WriteSpec {
            disks: 2,
            buffer_blocks: 8,
        });
        let (report, events) = recorded(cfg);
        let m = pm_trace::TraceMetrics::from_events(&events);
        let requests =
            |lanes: &[pm_trace::DiskLaneMetrics]| lanes.iter().map(|l| l.requests).sum::<u64>();
        assert_eq!(m.output_disks.len(), 2);
        assert_eq!(requests(&m.output_disks), 240);
        assert_eq!(requests(&m.output_disks), report.write_blocks);
        assert_eq!(requests(&m.input_disks), 240);
        let busy: SimDuration = m.output_disks.iter().map(|l| l.busy).sum();
        assert_eq!(busy, report.write_busy);
    }

    #[test]
    fn adaptive_depth_completes_and_tracks_fixed_performance() {
        // At an ample cache the adaptive policy should climb toward n_max
        // and perform like the best fixed depth in its range.
        let mut adaptive = small(
            PrefetchStrategy::InterRunAdaptive {
                n_min: 1,
                n_max: 10,
            },
            SyncMode::Unsynchronized,
            3,
            240,
        );
        adaptive.run_blocks = 80;
        let a = MergeSim::run_uniform(adaptive).unwrap();
        assert_eq!(a.blocks_merged, 480);
        let mut fixed = adaptive;
        fixed.strategy = PrefetchStrategy::InterRun { n: 10 };
        let f = MergeSim::run_uniform(fixed).unwrap();
        assert!(
            a.total.as_secs_f64() < f.total.as_secs_f64() * 1.3,
            "adaptive {} vs fixed-10 {}",
            a.total,
            f.total
        );
        // And at a starved cache it must not fall apart (fixed N=10 barely
        // admits anything there).
        let mut starved = adaptive;
        starved.cache_blocks = 30;
        let s = MergeSim::run_uniform(starved).unwrap();
        assert_eq!(s.blocks_merged, 480);
    }

    #[test]
    fn adaptive_depth_validates_bounds() {
        let mut cfg = small(
            PrefetchStrategy::InterRunAdaptive { n_min: 0, n_max: 5 },
            SyncMode::Unsynchronized,
            2,
            100,
        );
        assert!(cfg.validate().is_err());
        cfg.strategy = PrefetchStrategy::InterRunAdaptive { n_min: 6, n_max: 5 };
        assert!(cfg.validate().is_err());
        cfg.strategy = PrefetchStrategy::InterRunAdaptive { n_min: 2, n_max: 2 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = small(
            PrefetchStrategy::IntraRun { n: 5 },
            SyncMode::Unsynchronized,
            2,
            30,
        );
        cfg.cache_blocks = 10;
        assert!(MergeSim::run_uniform(cfg).is_err());
    }

    #[test]
    fn io_cost_components_add_up() {
        let r = MergeSim::run_uniform(small(
            PrefetchStrategy::IntraRun { n: 5 },
            SyncMode::Synchronized,
            1,
            30,
        ))
        .unwrap();
        // On a single disk in fully synchronized mode with an infinitely
        // fast CPU, the disk is never idle and operations never overlap,
        // so the total equals the summed service time exactly.
        let service = r.seek_total + r.latency_total + r.transfer_total;
        assert_eq!(r.total, service);
    }
}
