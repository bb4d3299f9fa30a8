//! The merge engine: the paper's decision procedure driving real block
//! I/O.
//!
//! [`MergeEngine`] executes the paper's merge phase against an
//! [`IoQueue`]. Every decision — the initial load, demand fetches,
//! inter-run prefetch targets, admission, AIMD depth adaptation — is made
//! by a [`pm_core::DecisionCore`], the same type [`pm_core::MergeSim`]
//! drives. Where the simulator advances a virtual clock, the engine
//! submits the reads the core decides on to the queue, blocks on their
//! completions, and merges real records through [`pm_core::LoserTree`].
//!
//! ## Decision parity with the simulator
//!
//! The core's decisions are a pure function of the depletion sequence:
//! their inputs (per-run held counts, free frames, fetch pointers,
//! fetchable lists, depth, the decision RNG) change only at issue and
//! depletion time, never at completion time. The block-request sequence
//! per disk is therefore *deterministic*: independent of the backend,
//! the number of I/O workers, and host timing. [`MergeEngine::predict`]
//! replays the engine's recorded depletion sequence through the
//! simulator, which re-derives the same request sequence (the
//! `sim_parity` tests and `pmerge exec` check this, and perfbench times
//! it).
//!
//! Two caveats: parity holds for FIFO queueing (the engine services each
//! disk one request at a time in submission order), and for
//! [`pm_core::PrefetchChoice::HeadProximity`] only as far as the head
//! positions agree. The core scores candidates against a head position
//! its driver supplies; the engine passes the cylinder of the *last
//! submitted* block per disk, the simulator the *serviced* head, and the
//! two can differ.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use pm_cache::RunId;
use pm_core::{
    DecisionCore, LoserTree, MergeConfig, MergeReport, MergeSim, PmError, PrefetchChoice, SyncMode,
    TraceDepletion, Wait,
};
use pm_extsort::Record;
use pm_metrics::{MetricsSink, NullMetrics};
use pm_sim::{SimDuration, SimTime};
use pm_trace::{
    unpack_tag, unpack_tenant_tag, EventKind, NullSink, TraceEvent, TraceSink, TENANT_TAG_MAX_RUN,
};

use crate::block::{block_bytes, encode_records, BlockCursor, MAX_BLOCK_BYTES};
use crate::derived::{disk_issue, Arrival, DecisionLoop, EngineTrace, MergeRecord};
use crate::ioqueue::{IoCompletion, IoQueue, IoRequest, QueueOptions};

/// How to execute a merge: the scenario plus engine-only knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// The scenario (strategy, admission, cache, disks, seed, …).
    /// `runs` and `run_blocks` are overridden by the actual data.
    pub merge: MergeConfig,
    /// Records per on-device block.
    pub records_per_block: u32,
    /// Per-disk I/O queue depth: how many requests of one disk may wait
    /// for service before submission blocks (ring depth on io_uring).
    /// The bound holds per disk at any [`ExecConfig::jobs`]; a request
    /// holds its slot until its service starts.
    /// `0` negotiates the scenario's prefetch depth — the deepest
    /// backlog the merge's issue discipline creates per disk.
    pub queue_depth: usize,
    /// I/O worker threads (`0` = one per disk; more than one disk may
    /// share a worker when smaller, preserving per-disk FIFO order).
    pub jobs: usize,
    /// Wall-clock scale for injected latency (`0.01` replays the model
    /// at 100× speed; only meaningful with a latency backend).
    pub time_scale: f64,
}

impl ExecConfig {
    /// Engine defaults around a scenario: 40-record blocks, queue depth
    /// negotiated from the prefetch depth, one worker per disk,
    /// unscaled time.
    #[must_use]
    pub fn new(merge: MergeConfig) -> Self {
        ExecConfig {
            merge,
            records_per_block: 40,
            queue_depth: 0,
            jobs: 0,
            time_scale: 1.0,
        }
    }
}

/// What one engine execution measured.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Wall-clock duration of the merge (initial load to last record).
    pub wall: Duration,
    /// Merge-thread time spent blocked on block arrivals.
    pub stall: Duration,
    /// Blocks merged (equals the scenario's total).
    pub blocks_merged: u64,
    /// Records merged.
    pub records_merged: u64,
    /// Demand-fetch operations (merge stalled on an empty run).
    pub demand_ops: u64,
    /// Demand operations degraded to a single-block fallback fetch.
    pub fallback_ops: u64,
    /// Demand operations whose full prefetch was admitted.
    pub full_prefetch_ops: u64,
    /// `full_prefetch_ops / demand_ops`, if any demand ops occurred.
    pub success_ratio: Option<f64>,
    /// Requests serviced per disk.
    pub per_disk_requests: Vec<u64>,
    /// Sequentially-streamed requests per disk (modeled when latency is
    /// injected, otherwise the submission hint).
    pub per_disk_sequential: Vec<u64>,
    /// Modeled busy time per disk (sum of injected service breakdowns,
    /// unscaled; zero without a latency backend).
    pub per_disk_modeled_busy: Vec<SimDuration>,
    /// The `time_scale` the run used.
    pub time_scale: f64,
}

/// Everything one engine execution produced.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The merged (sorted) records.
    pub output: Vec<Record>,
    /// Measurements.
    pub report: ExecReport,
    /// The run-depletion sequence, in merge order (feed to
    /// [`MergeEngine::predict`]).
    pub depletion: Vec<RunId>,
    /// Per disk, the `(run, block)` requests in submission (= FIFO
    /// service) order.
    pub requests: Vec<Vec<(u32, u32)>>,
    /// The trace-event stream, non-decreasing in `at` (wall-clock
    /// nanoseconds since the engine epoch on the simulated-time axis):
    /// the merge thread's own events (decisions, depletions and one
    /// `DiskIssue` per request), stamped when they happen, merged with
    /// the completion-stamped `DiskSeekDone` / `DiskTransferDone`
    /// events. Each stream keeps its emission order among equal
    /// timestamps, and at equal `at` the merge thread's events come
    /// first.
    ///
    /// The merge records only each depletion's and each submission's
    /// clock reading and one record per arrival; the stream is derived
    /// from those on its first read, by replaying the decisions, and
    /// kept. A run whose trace is never read never builds it.
    pub events: EngineTrace,
}

/// The simulator's answer for an engine run's depletion sequence.
#[derive(Debug, Clone)]
pub struct EnginePrediction {
    /// The simulator's report for the replayed merge.
    pub report: MergeReport,
    /// Per disk, the `(run, block)` requests the simulator issued, in
    /// submission order.
    pub requests: Vec<Vec<(u32, u32)>>,
}

/// How far an execution's requests agree with the simulator's replay of
/// its depletion sequence ([`MergeEngine::request_parity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestParity {
    /// Requests the simulator re-derived: per disk, the length of the
    /// common prefix of the engine's and the simulator's sequences,
    /// summed.
    pub matched: u64,
    /// Requests the engine submitted.
    pub total: u64,
    /// Whether both sequences are identical on every disk.
    pub exact: bool,
    /// Whether the scenario promises identical sequences: every prefetch
    /// choice but [`pm_core::PrefetchChoice::HeadProximity`] (see the
    /// module docs).
    pub promised: bool,
}

impl RequestParity {
    /// The sequences differ where the scenario promises they do not.
    #[must_use]
    pub fn broken(&self) -> bool {
        self.promised && !self.exact
    }
}

/// Bytes [`MergeEngine::load`] encodes into one device write, rounded
/// down to whole blocks (at least one): each run's blocks on one disk
/// lie at consecutive addresses and go to the queue in chunks this size.
const LOAD_CHUNK_BYTES: usize = 256 * 1024;

/// The disk-array seed a simulation of `cfg` derives from its master
/// seed (the first draw of the master stream). Seed a
/// [`crate::LatencyDevice`] with this to make its per-disk latency
/// streams bit-identical to the simulator's.
#[must_use]
pub fn disk_seed_for(cfg: &MergeConfig) -> u64 {
    DecisionCore::device_seeds(cfg.seed).0
}

/// A planned engine execution: scenario, data shape, and layout.
///
/// Construct once per data set, then [`MergeEngine::load`] a device and
/// [`MergeEngine::execute`] against it (repeatable: each execution is
/// independent and deterministic).
#[derive(Debug, Clone)]
pub struct MergeEngine {
    cfg: ExecConfig,
    /// The decision state before the first decision; each execution runs
    /// a fresh copy.
    core: DecisionCore,
    run_blocks: Vec<u32>,
    run_records: Vec<usize>,
}

impl MergeEngine {
    /// Plans an execution of `cfg.merge` over runs of the given record
    /// counts. `cfg.merge.runs` / `run_blocks` are replaced by the data's
    /// actual shape and validated by [`DecisionCore::new`], as
    /// [`MergeSim::with_run_lengths`] is.
    ///
    /// # Errors
    ///
    /// [`PmError::Usage`] if the engine cannot execute the scenario
    /// (write modeling, zero records-per-block or a block larger than
    /// [`MAX_BLOCK_BYTES`], more runs than a read's
    /// tag can name: run ids above [`TENANT_TAG_MAX_RUN`]);
    /// [`PmError::Config`] if the adjusted configuration is invalid or
    /// the cache cannot hold the initial load.
    pub fn new(cfg: ExecConfig, run_records: Vec<usize>) -> Result<Self, PmError> {
        if cfg.merge.write.is_some() {
            return Err(PmError::Usage(
                "the execution engine does not model write traffic (set write: None)".into(),
            ));
        }
        if cfg.records_per_block == 0 {
            return Err(PmError::Usage("records-per-block must be positive".into()));
        }
        if block_bytes(cfg.records_per_block) > MAX_BLOCK_BYTES {
            return Err(PmError::Usage(format!(
                "records-per-block {} makes a block over {MAX_BLOCK_BYTES} bytes",
                cfg.records_per_block
            )));
        }
        if cfg.time_scale <= 0.0 || cfg.time_scale.is_nan() {
            return Err(PmError::Usage("time-scale must be positive".into()));
        }
        let max_runs = TENANT_TAG_MAX_RUN as usize + 1;
        if run_records.len() > max_runs {
            return Err(PmError::Usage(format!(
                "the engine merges at most {max_runs} runs, whose ids fit a read's tag \
                 (the data has {} runs)",
                run_records.len()
            )));
        }
        let rpb = cfg.records_per_block;
        let run_blocks: Vec<u32> = run_records
            .iter()
            .map(|&len| (len as u64).div_ceil(u64::from(rpb)) as u32)
            .collect();
        let core = DecisionCore::new(cfg.merge, &run_blocks)?;
        Ok(MergeEngine {
            cfg,
            core,
            run_blocks,
            run_records,
        })
    }

    /// The adjusted scenario this engine executes.
    #[must_use]
    pub fn merge_config(&self) -> &MergeConfig {
        self.core.config()
    }

    /// The execution configuration this engine was planned with.
    #[must_use]
    pub fn exec_config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Per-run block counts.
    #[must_use]
    pub fn run_blocks(&self) -> &[u32] {
        &self.run_blocks
    }

    /// Bytes per on-device block.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        block_bytes(self.cfg.records_per_block)
    }

    /// The [`QueueOptions`] this plan negotiates for its I/O queue:
    /// the configured depth (or, at the `0` sentinel, the scenario's
    /// prefetch depth), worker count, and time scale.
    #[must_use]
    pub fn queue_options(&self) -> QueueOptions {
        QueueOptions {
            depth: if self.cfg.queue_depth == 0 {
                self.merge_config().strategy.depth().max(1) as usize
            } else {
                self.cfg.queue_depth
            },
            jobs: self.cfg.jobs,
            time_scale: self.cfg.time_scale,
        }
    }

    /// Writes `runs` into `queue` at the positions the layout assigns
    /// (the same placement the simulator assumes). Load before
    /// executing: queues treat writes as setup-only.
    ///
    /// Each run is written one disk lane at a time — the whole run for a
    /// concatenated layout, every `D`-th block for a striped one — whose
    /// blocks lie at consecutive addresses, so a lane goes to the queue
    /// in [`IoQueue::write_block`] calls of up to 256 KiB each.
    ///
    /// # Errors
    ///
    /// [`PmError::Usage`] on a shape mismatch, [`PmError::Device`] on a
    /// failed write.
    pub fn load<Q: IoQueue + ?Sized>(
        &self,
        queue: &mut Q,
        runs: &[Vec<Record>],
    ) -> Result<(), PmError> {
        if runs.len() != self.run_records.len()
            || runs
                .iter()
                .zip(&self.run_records)
                .any(|(run, &len)| run.len() != len)
        {
            return Err(PmError::Usage(
                "run data does not match the planned run lengths".into(),
            ));
        }
        let disks = self.merge_config().disks;
        if queue.disks() < disks as usize {
            return Err(PmError::Usage(format!(
                "device has {} disks, scenario needs {disks}",
                queue.disks(),
            )));
        }
        if queue.block_bytes() != self.block_bytes() {
            return Err(PmError::Usage(format!(
                "device block size {} != planned {}",
                queue.block_bytes(),
                self.block_bytes()
            )));
        }
        let rpb = self.cfg.records_per_block as usize;
        let bb = self.block_bytes();
        let chunk_blocks = (LOAD_CHUNK_BYTES / bb).max(1);
        let layout = self.core.layout();
        let stride = layout.same_disk_stride() as usize;
        let mut buf = vec![0u8; chunk_blocks * bb];
        for (r, run) in runs.iter().enumerate() {
            let run_id = RunId(r as u32);
            let blocks = self.run_blocks[r] as usize;
            for lane in 0..stride.min(blocks) {
                let lane_blocks = (blocks - lane).div_ceil(stride);
                let mut done = 0;
                while done < lane_blocks {
                    let n = chunk_blocks.min(lane_blocks - done);
                    let first = lane + done * stride;
                    for (slot, out) in buf.chunks_exact_mut(bb).take(n).enumerate() {
                        let index = first + slot * stride;
                        let end = ((index + 1) * rpb).min(run.len());
                        encode_records(&run[index * rpb..end], out);
                    }
                    let (disk, start) = layout.location(run_id, first as u32);
                    queue
                        .write_block(disk, start, &buf[..n * bb])
                        .map_err(|e| {
                            PmError::device(
                                queue.backend(),
                                format!("write run {r} blocks from {first} to disk {}", disk.0),
                                e,
                            )
                        })?;
                    done += n;
                }
            }
        }
        Ok(())
    }

    /// Executes the merge against a loaded queue: opens it, drives the
    /// merge through batched submit/complete, and shuts it down. Reads
    /// are tagged with the queue's [`IoQueue::tenant`], so a
    /// [`crate::SharedPort`] runs one job of a [`crate::SharedDeviceSet`]
    /// the same way: its set's [`pm_service::IoSched`] picks service
    /// order, and the decisions stay those of the job alone.
    ///
    /// # Errors
    ///
    /// [`PmError::Device`] if a block read fails or the queue's
    /// transport dies (a shared set shutting down with requests
    /// outstanding included).
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant of the decision core breaks.
    pub fn execute(&self, queue: Box<dyn IoQueue>) -> Result<ExecOutcome, PmError> {
        self.execute_metered(queue, &NullMetrics)
    }

    /// [`MergeEngine::execute`] with a metrics sink: every block arrival
    /// records per-disk service time, queue wait (submit to service
    /// start) and bytes read, and a block count and queue wait under the
    /// queue's tenant, into `metrics`; every submission batch and
    /// completion reap records its size, and per-disk in-flight depth is
    /// sampled at both transitions. With [`pm_metrics::NullMetrics`] the
    /// recording compiles away and the run is identical to
    /// [`MergeEngine::execute`].
    ///
    /// # Errors
    ///
    /// As [`MergeEngine::execute`].
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant of the decision core breaks.
    pub fn execute_metered<M: MetricsSink>(
        &self,
        queue: Box<dyn IoQueue>,
        metrics: &M,
    ) -> Result<ExecOutcome, PmError> {
        self.drive(queue, metrics, NullSink)
    }

    /// Opens `queue` and runs the merge on it. Every event also goes to
    /// `sink` as it happens (the public entry points pass a
    /// [`NullSink`], so nothing does).
    pub(crate) fn drive<M: MetricsSink, S: TraceSink>(
        &self,
        mut queue: Box<dyn IoQueue>,
        metrics: &M,
        sink: S,
    ) -> Result<ExecOutcome, PmError> {
        let disks = self.merge_config().disks;
        if queue.disks() < disks as usize {
            return Err(PmError::Usage(format!(
                "queue has {} disks, scenario needs {disks}",
                queue.disks(),
            )));
        }
        let epoch = Instant::now();
        queue
            .open(epoch)
            .map_err(|e| PmError::device(queue.backend(), "opening the queue", e))?;
        ExecState::new(self, queue, epoch, metrics, sink).run()
    }

    /// Replays an engine run's depletion sequence through the
    /// discrete-event simulator, returning its report and request
    /// sequence for cross-validation against the engine's measurements.
    ///
    /// # Errors
    ///
    /// [`PmError::Config`] if the configuration fails simulator
    /// validation.
    ///
    /// # Panics
    ///
    /// Panics if `depletion` is not a consistent depletion sequence for
    /// this engine's runs.
    pub fn predict(&self, depletion: &[RunId]) -> Result<EnginePrediction, PmError> {
        let disks = self.merge_config().disks as usize;
        let sim = MergeSim::with_run_lengths(*self.merge_config(), &self.run_blocks)
            .map_err(PmError::Config)?
            .replace_sink(IssueLog(vec![Vec::new(); disks]));
        let mut model = TraceDepletion::new(depletion.to_vec());
        let (report, IssueLog(requests)) = sim.run_with_sink(&mut model);
        Ok(EnginePrediction { report, requests })
    }

    /// Compares an execution's per-disk `requests` with `prediction`, the
    /// simulator's replay of its depletion sequence.
    #[must_use]
    pub fn request_parity(
        &self,
        requests: &[Vec<(u32, u32)>],
        prediction: &EnginePrediction,
    ) -> RequestParity {
        let matched = requests
            .iter()
            .zip(&prediction.requests)
            .map(|(ours, sim)| ours.iter().zip(sim).take_while(|(a, b)| a == b).count() as u64)
            .sum();
        RequestParity {
            matched,
            total: requests.iter().map(|r| r.len() as u64).sum(),
            exact: requests == prediction.requests.as_slice(),
            promised: self.merge_config().prefetch_choice != PrefetchChoice::HeadProximity,
        }
    }
}

/// The one thing [`MergeEngine::predict`] keeps of the simulator's
/// trace: per disk, the `(run, block)` of every input read it issues.
struct IssueLog(Vec<Vec<(u32, u32)>>);

impl TraceSink for IssueLog {
    fn emit(&mut self, event: TraceEvent) {
        if let EventKind::DiskIssue {
            disk,
            output: false,
            tag,
            ..
        } = event.kind
        {
            self.0[disk as usize].push(unpack_tag(tag));
        }
    }
}

struct ExecState<'a, M: MetricsSink, S: TraceSink> {
    plan: &'a MergeEngine,
    /// The decisions; their reads go to the queue right after each one.
    steps: DecisionLoop,
    port: Box<dyn IoQueue>,
    /// The queue's backend label, for error context.
    backend: &'static str,
    /// Requests staged since the last flush: one decision point's issues
    /// go to the queue as a single batch.
    stage: Vec<IoRequest>,
    /// Completions reaped but not yet processed (batched reaping hands
    /// back more than one at a time).
    pending: VecDeque<IoCompletion>,
    /// Scratch buffer for [`IoQueue::complete`].
    reap_buf: Vec<IoCompletion>,
    /// Outstanding requests per disk: submitted, not yet taken by the
    /// merge. The `disk_queue_depth` gauge of a metered merge on disks of
    /// its own (not [`IoQueue::shared`]).
    inflight: Vec<u64>,
    /// Per disk, whether each issued read (by span) has arrived.
    arrived: Vec<Vec<bool>>,
    /// Per-disk requests of the batch being submitted (metered runs).
    batch: Vec<u64>,
    metrics: &'a M,
    epoch: Instant,
    /// Per run, the arrived payloads not yet taken for merging.
    store: Vec<RunWindow>,
    /// Reads not yet submitted.
    unissued: u64,
    /// Buffers handed back to the queue that no read submitted since
    /// has used: the queue is never given more than the remaining reads
    /// can use, so the pool drains as the merge ends.
    spares: u64,
    /// What the trace is derived from.
    record: MergeRecord,
    /// Every event as it happens: the merge thread's, then each
    /// arrival's completion events when it is processed.
    sink: S,
    stall: Duration,
    per_disk_sequential: Vec<u64>,
    per_disk_modeled_busy: Vec<SimDuration>,
}

impl<'a, M: MetricsSink, S: TraceSink> ExecState<'a, M, S> {
    fn new(
        plan: &'a MergeEngine,
        port: Box<dyn IoQueue>,
        epoch: Instant,
        metrics: &'a M,
        sink: S,
    ) -> Self {
        let backend = port.backend();
        let tenant = port.tenant();
        let d = plan.merge_config().disks as usize;
        let k = plan.merge_config().runs as usize;
        ExecState {
            plan,
            steps: DecisionLoop::new(plan.core.clone(), tenant),
            port,
            backend,
            stage: Vec::new(),
            pending: VecDeque::new(),
            reap_buf: Vec::new(),
            inflight: vec![0; d],
            arrived: vec![Vec::new(); d],
            batch: vec![0; d],
            metrics,
            epoch,
            store: (0..k).map(|_| RunWindow::default()).collect(),
            unissued: plan.run_blocks.iter().map(|&b| u64::from(b)).sum(),
            spares: 0,
            record: MergeRecord::new(plan.core.clone(), tenant),
            sink,
            stall: Duration::ZERO,
            per_disk_sequential: vec![0; d],
            per_disk_modeled_busy: vec![SimDuration::ZERO; d],
        }
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn run(mut self) -> Result<ExecOutcome, PmError> {
        let k = self.plan.run_records.len();
        self.initial_load()?;

        // Build the loser tree from every run's leading block. The heads
        // stay in their blocks: the tree sees their keys, and reads whole
        // heads only to break a tie.
        let mut cursors: Vec<BlockCursor> = Vec::with_capacity(k);
        for r in 0..k {
            cursors.push(self.take_block(RunId(r as u32))?);
        }
        let tie =
            |cursors: &[BlockCursor], a: usize, b: usize| cursors[a].head().cmp(&cursors[b].head());
        let mut tree = LoserTree::new(cursors.iter().map(BlockCursor::key), |a, b| {
            tie(&cursors, a, b)
        });

        let total_records: usize = self.plan.run_records.iter().sum();
        let mut output = Vec::with_capacity(total_records);
        while let Some(src) = tree.winner() {
            let cursor = &mut cursors[src];
            output.push(cursor.head().expect("the winner has a head"));
            cursor.advance();
            let mut key = cursor.key();
            if key.is_none() {
                // The block is used up: its buffer goes back to the queue
                // before the decisions this depletion triggers submit
                // their reads.
                self.recycle(cursor.take_buf());
                if let Some(block) = self.advance_run(RunId(src as u32))? {
                    cursors[src] = block;
                    key = cursors[src].key();
                }
            }
            tree.replace_winner(key, |a, b| tie(&cursors, a, b));
        }
        let wall = self.epoch.elapsed();

        let counts = self.steps.core.finish();
        assert_eq!(output.len(), total_records);

        self.port
            .shutdown()
            .map_err(|e| PmError::device(self.backend, "shutting down the queue", e))?;
        let requests = self.steps.issuer.requests;
        let report = ExecReport {
            wall,
            stall: self.stall,
            blocks_merged: counts.blocks_merged,
            records_merged: output.len() as u64,
            demand_ops: counts.demand_ops,
            fallback_ops: counts.fallback_ops,
            full_prefetch_ops: counts.full_prefetch_ops,
            success_ratio: counts.success_ratio(),
            per_disk_requests: requests.iter().map(|r| r.len() as u64).collect(),
            per_disk_sequential: self.per_disk_sequential,
            per_disk_modeled_busy: self.per_disk_modeled_busy,
            time_scale: self.plan.cfg.time_scale,
        };
        Ok(ExecOutcome {
            output,
            report,
            depletion: self.record.depletion.clone(),
            requests,
            events: EngineTrace::merge(self.record),
        })
    }

    /// Issues the initial load and waits out the startup gate
    /// (unsynchronized: every run has a resident block; synchronized:
    /// every initial block arrived).
    fn initial_load(&mut self) -> Result<(), PmError> {
        let issued = self.steps.initial_load();
        self.submit_reads()?;
        match self.plan.merge_config().sync {
            SyncMode::Synchronized => {
                for _ in 0..issued {
                    self.await_arrival()?;
                }
            }
            SyncMode::Unsynchronized => {
                let mut first_missing = self.plan.merge_config().runs;
                while first_missing > 0 {
                    let run = self.await_arrival()?;
                    if self.steps.core.resident(run) == 1 {
                        first_missing -= 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// The leading block of `j` was fully consumed: deplete it, submit
    /// the I/O the core decides on, wait for what it says to, and hand
    /// back the run's next block (`None` once the run is exhausted).
    fn advance_run(&mut self, j: RunId) -> Result<Option<BlockCursor>, PmError> {
        let now = self.now();
        self.record.depletion.push(j);
        self.record.depleted_at.push(now);
        let wait = self.steps.step(j, now, &mut self.sink);
        self.submit_reads()?;
        match wait {
            Wait::Exhausted => return Ok(None),
            Wait::Ready => {}
            Wait::Blocks(remaining) => {
                for _ in 0..remaining {
                    self.await_arrival()?;
                }
            }
            Wait::NextBlock => while self.await_arrival()? != j {},
        }
        Ok(Some(self.take_block(j)?))
    }

    /// Tags and logs the reads the core decided on and hands them to the
    /// queue as one batch (one decision point = one submission batch),
    /// recording per-disk batch sizes and in-flight depth when metered.
    fn submit_reads(&mut self) -> Result<(), PmError> {
        if !self.steps.has_reads() {
            return Ok(());
        }
        let now = self.now();
        self.record.submitted_at.push(now);
        let submitted = Instant::now();
        for (req, span) in self.steps.issue() {
            if S::ENABLED {
                self.sink.emit(disk_issue(now, &req, span));
            }
            let d = usize::from(req.disk.0);
            self.inflight[d] += 1;
            self.arrived[d].push(false);
            self.stage.push(IoRequest {
                req,
                span,
                submitted,
            });
        }
        if M::ENABLED {
            for r in &self.stage {
                self.batch[usize::from(r.req.disk.0)] += 1;
            }
            for (d, n) in self.batch.iter_mut().enumerate() {
                if *n > 0 {
                    self.metrics.io_submit_batch(d, *n);
                    if !self.port.shared() {
                        self.metrics.disk_queue_depth(d, self.inflight[d] as f64);
                    }
                    *n = 0;
                }
            }
        }
        let n = self.stage.len();
        self.unissued -= n as u64;
        self.spares = self.spares.saturating_sub(n as u64);
        self.port.submit(&self.stage).map_err(|e| {
            PmError::device(self.backend, format!("submitting a batch of {n} reads"), e)
        })?;
        self.stage.clear();
        Ok(())
    }

    /// Hands a consumed payload buffer back to the queue while reads
    /// remain that can use it, and drops it otherwise.
    fn recycle(&mut self, buf: Vec<u8>) {
        if self.spares < self.unissued {
            self.spares += 1;
            self.port.recycle(buf);
        }
    }

    /// Hands back a cursor over run `j`'s next block, waiting for its
    /// arrival if needed (striped layouts deliver a run's blocks out of
    /// index order, so this can wait past the gate).
    fn take_block(&mut self, j: RunId) -> Result<BlockCursor, PmError> {
        let index = self.store[j.0 as usize].next;
        loop {
            if let Some(data) = self.store[j.0 as usize].take() {
                return Ok(BlockCursor::new(data, self.records_in_block(j.0, index)));
            }
            self.await_arrival()?;
        }
    }

    /// Takes the next completion (reaping a batch from the queue when
    /// none is pending), checks it answers a read in flight with one
    /// block, and processes it; returns the run whose block arrived.
    fn await_arrival(&mut self) -> Result<RunId, PmError> {
        let completion = match self.pending.pop_front() {
            Some(c) => c,
            None => {
                let waiting = Instant::now();
                debug_assert!(self.reap_buf.is_empty());
                let n = self
                    .port
                    .complete(&mut self.reap_buf, 1)
                    .map_err(|e| PmError::device(self.backend, "waiting for completions", e))?;
                self.stall += waiting.elapsed();
                if M::ENABLED {
                    self.metrics.io_reap_batch(n as u64);
                }
                self.pending.extend(self.reap_buf.drain(..));
                self.pending.pop_front().ok_or_else(|| {
                    PmError::device(
                        self.backend,
                        "waiting for completions",
                        io::Error::other("the queue reaped no completion"),
                    )
                })?
            }
        };
        let d = usize::from(completion.disk);
        let (_, run, index) = unpack_tenant_tag(completion.tag);
        let landed = self
            .arrived
            .get_mut(d)
            .and_then(|spans| spans.get_mut(completion.span as usize))
            .filter(|landed| {
                !**landed && self.steps.issuer.issued(d, completion.span, completion.tag)
            });
        let Some(landed) = landed else {
            return Err(PmError::device(
                self.backend,
                format!("completion of read {} on disk {d}", completion.span),
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("it names run {run} block {index}, which is not in flight there"),
                ),
            ));
        };
        *landed = true;
        self.inflight[d] -= 1;
        if M::ENABLED && !self.port.shared() {
            self.metrics.disk_queue_depth(d, self.inflight[d] as f64);
        }
        let data = completion.data.map_err(|e| {
            PmError::device(self.backend, format!("read run {run} block {index}"), e)
        })?;
        let bb = self.plan.block_bytes();
        if data.len() != bb {
            return Err(PmError::device(
                self.backend,
                format!("read run {run} block {index}"),
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "the queue returned {} bytes for a {bb}-byte block",
                        data.len()
                    ),
                ),
            ));
        }
        let started = SimTime::ZERO + SimDuration::from_nanos(completion.started_ns);
        let finished = SimTime::ZERO + SimDuration::from_nanos(completion.finished_ns);
        if M::ENABLED {
            const NANOS_PER_SEC: f64 = 1e9;
            let wait = completion
                .started_ns
                .saturating_sub(completion.submitted_ns) as f64
                / NANOS_PER_SEC;
            let service =
                completion.finished_ns.saturating_sub(completion.started_ns) as f64 / NANOS_PER_SEC;
            self.metrics.disk_io(d, bb as u64, wait, service);
            // Dedicated runs carry tenant 0; a sink built without tenants
            // drops these, a shared run's sink attributes them.
            let tenant = usize::from(self.record.tenant);
            self.metrics.tenant_blocks(tenant, 1);
            self.metrics.tenant_wait(tenant, wait);
        }
        let mut arrival = Arrival {
            tag: completion.tag,
            span: completion.span,
            started,
            finished,
            seek_done: started,
            disk: completion.disk,
            sequential: completion.hint,
            sought: false,
        };
        if let Some(inj) = completion.injected {
            self.per_disk_modeled_busy[d] += inj.breakdown.total();
            arrival.sequential = inj.sequential;
            if !inj.sequential {
                // Retroactive, like the simulator: positioning ends
                // seek+latency (scaled) after service start.
                let positioning = inj.breakdown.seek + inj.breakdown.latency;
                arrival.seek_done = started
                    + SimDuration::from_nanos(
                        (positioning.as_nanos() as f64 * self.plan.cfg.time_scale).round() as u64,
                    );
                arrival.sought = true;
            }
        }
        if arrival.sequential {
            self.per_disk_sequential[d] += 1;
        }
        if S::ENABLED {
            for event in arrival.events() {
                self.sink.emit(event);
            }
        }
        self.record.arrivals.push(arrival);
        self.steps.core.block_arrived(RunId(run));
        self.store[run as usize].put(index, data);
        Ok(RunId(run))
    }

    fn records_in_block(&self, run: u32, index: u32) -> usize {
        let rpb = self.plan.cfg.records_per_block as usize;
        let total = self.plan.run_records[run as usize];
        let start = index as usize * rpb;
        debug_assert!(start < total);
        rpb.min(total - start)
    }
}

/// One run's arrived payloads not yet taken for merging: `slots[i]` is
/// block `next + i`, `None` until it arrives. Striped layouts and
/// io_uring deliver a run's blocks out of index order; a block arrives
/// only while it is in flight, so never below `next`.
#[derive(Debug, Default)]
struct RunWindow {
    /// The run's next block to take.
    next: u32,
    slots: VecDeque<Option<Vec<u8>>>,
}

impl RunWindow {
    fn put(&mut self, index: u32, data: Vec<u8>) {
        let at = index
            .checked_sub(self.next)
            .expect("a block arrives only while it is in flight") as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        debug_assert!(self.slots[at].is_none(), "block {index} arrived twice");
        self.slots[at] = Some(data);
    }

    /// Block `next`'s payload, if it arrived; the window then starts at
    /// the block after it.
    fn take(&mut self) -> Option<Vec<u8>> {
        let data = self.slots.front_mut()?.take()?;
        self.slots.pop_front();
        self.next += 1;
        Some(data)
    }
}

#[cfg(test)]
mod tests {
    use std::io;

    use pm_core::{DataLayout, ScenarioBuilder};
    use pm_disk::{BlockAddr, DiskId, DiskRequest};
    use pm_extsort::{generate, run_formation};

    use super::*;
    use crate::ThreadedQueue;

    /// Forwards to `inner`, logging every `write_block` call as
    /// `(disk, start, bytes)`.
    struct CountingQueue<Q> {
        inner: Q,
        writes: Vec<(DiskId, BlockAddr, usize)>,
    }

    impl<Q: IoQueue> IoQueue for CountingQueue<Q> {
        fn backend(&self) -> &'static str {
            self.inner.backend()
        }

        fn block_bytes(&self) -> usize {
            self.inner.block_bytes()
        }

        fn disks(&self) -> usize {
            self.inner.disks()
        }

        fn depth(&self) -> usize {
            self.inner.depth()
        }

        fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
            self.writes.push((disk, start, data.len()));
            self.inner.write_block(disk, start, data)
        }

        fn open(&mut self, epoch: Instant) -> io::Result<()> {
            self.inner.open(epoch)
        }

        fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
            self.inner.submit(reqs)
        }

        fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
            self.inner.complete(out, min_wait)
        }

        fn shutdown(&mut self) -> io::Result<()> {
            self.inner.shutdown()
        }
    }

    /// Three runs longer than one load chunk plus a one-record run, each
    /// ending in a partly filled block, merged on three disks.
    fn shape(layout: DataLayout) -> (MergeEngine, Vec<Vec<Record>>) {
        let runs = run_formation::load_sort(&generate::uniform(3 * 50_010 + 1, 5), 50_010);
        let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
            .intra(4)
            .layout(layout)
            .seed(61)
            .build()
            .unwrap();
        let mut exec = ExecConfig::new(cfg);
        exec.records_per_block = 20;
        let engine = MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).unwrap();
        assert!(engine.run_blocks()[0] as usize > LOAD_CHUNK_BYTES / engine.block_bytes());
        (engine, runs)
    }

    /// Loads `runs` through a [`CountingQueue`], checks each (run, disk
    /// lane) took ⌈lane blocks / chunk blocks⌉ writes covering exactly
    /// its extent, then reads every block back against its own
    /// encoding.
    fn check_extent_load<Q: IoQueue>(engine: &MergeEngine, runs: &[Vec<Record>], inner: Q) {
        let mut queue = CountingQueue {
            inner,
            writes: Vec::new(),
        };
        engine.load(&mut queue, runs).unwrap();

        let bb = engine.block_bytes();
        let chunk_blocks = LOAD_CHUNK_BYTES / bb;
        let layout = engine.core.layout();
        let stride = layout.same_disk_stride() as usize;
        let mut lanes = Vec::new();
        for (r, &blocks) in engine.run_blocks().iter().enumerate() {
            for lane in 0..stride.min(blocks as usize) {
                let (disk, base) = layout.location(RunId(r as u32), lane as u32);
                let lane_blocks = (blocks as usize - lane).div_ceil(stride);
                lanes.push((disk, base.0, lane_blocks, 0usize, 0usize));
            }
        }
        for &(disk, start, bytes) in &queue.writes {
            assert!(bytes > 0 && bytes % bb == 0, "write of {bytes} bytes");
            let lane = lanes
                .iter_mut()
                .find(|l| l.0 == disk && (l.1..l.1 + l.2 as u64).contains(&start.0))
                .expect("write outside every run extent");
            assert!(start.0 + (bytes / bb) as u64 <= lane.1 + lane.2 as u64);
            lane.3 += 1;
            lane.4 += bytes / bb;
        }
        for &(disk, base, lane_blocks, writes, written) in &lanes {
            assert_eq!(
                writes,
                lane_blocks.div_ceil(chunk_blocks),
                "lane at {disk:?}/{base}"
            );
            assert_eq!(written, lane_blocks, "lane at {disk:?}/{base}");
        }

        let mut queue = queue.inner;
        queue.open(Instant::now()).unwrap();
        let rpb = engine.exec_config().records_per_block as usize;
        let mut expected = vec![0u8; bb];
        let mut got = Vec::new();
        for (r, run) in runs.iter().enumerate() {
            let reads: Vec<IoRequest> = (0..engine.run_blocks()[r])
                .map(|index| {
                    let (disk, start) = layout.location(RunId(r as u32), index);
                    IoRequest {
                        req: DiskRequest {
                            disk,
                            start,
                            len: 1,
                            sequential_hint: false,
                            tag: u64::from(index),
                        },
                        span: 0,
                        submitted: Instant::now(),
                    }
                })
                .collect();
            queue.submit(&reads).unwrap();
            got.clear();
            while got.len() < reads.len() {
                queue.complete(&mut got, 1).unwrap();
            }
            for c in &got {
                let index = c.tag as usize;
                let records = &run[index * rpb..((index + 1) * rpb).min(run.len())];
                encode_records(records, &mut expected);
                assert_eq!(c.data.as_ref().unwrap(), &expected, "run {r} block {index}");
            }
        }
        queue.shutdown().unwrap();
    }

    /// A plan of `k` two-record runs of one record per block on four
    /// disks.
    fn two_record_runs(k: usize) -> Result<MergeEngine, PmError> {
        let mut exec = ExecConfig::new(ScenarioBuilder::new(k as u32, 4).run_blocks(2).build()?);
        exec.records_per_block = 1;
        MergeEngine::new(exec, vec![2; k])
    }

    #[test]
    fn run_ids_up_to_the_tag_bound_merge_and_one_more_run_is_rejected() {
        let max_runs = TENANT_TAG_MAX_RUN as usize + 1;
        let runs = run_formation::load_sort(&generate::uniform(2 * max_runs, 3), 2);
        assert_eq!(runs.len(), max_runs);
        let engine = two_record_runs(max_runs).unwrap();
        let mut queue = ThreadedQueue::memory(4, engine.block_bytes(), engine.queue_options());
        engine.load(&mut queue, &runs).unwrap();
        let outcome = engine.execute(Box::new(queue)).unwrap();
        let mut want: Vec<Record> = runs.concat();
        want.sort_unstable();
        assert_eq!(outcome.output, want);

        // One run more and the last run id would alias run 0 in its tags:
        // the plan is refused before any data is loaded.
        match two_record_runs(max_runs + 1) {
            Err(PmError::Usage(msg)) => assert!(msg.contains("65536 runs"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn request_parity_counts_the_common_prefix_and_promises_all_but_head_proximity() {
        let runs = run_formation::load_sort(&generate::uniform(8_000, 9), 1_000);
        for choice in [PrefetchChoice::Random, PrefetchChoice::HeadProximity] {
            let cfg = ScenarioBuilder::new(runs.len() as u32, 2)
                .inter(4)
                .prefetch_choice(choice)
                .build()
                .unwrap();
            let engine = MergeEngine::new(ExecConfig::new(cfg), vec![1_000; runs.len()]).unwrap();
            let mut queue = ThreadedQueue::memory(2, engine.block_bytes(), engine.queue_options());
            engine.load(&mut queue, &runs).unwrap();
            let outcome = engine.execute(Box::new(queue)).unwrap();
            let mut prediction = engine.predict(&outcome.depletion).unwrap();
            let total: u64 = outcome.requests.iter().map(|r| r.len() as u64).sum();

            let parity = engine.request_parity(&outcome.requests, &prediction);
            assert_eq!(parity.total, total);
            if parity.exact {
                assert_eq!(parity.matched, total);
            }
            assert_eq!(parity.promised, choice != PrefetchChoice::HeadProximity);
            assert!(!parity.broken() || choice == PrefetchChoice::HeadProximity);

            // A simulator that diverges at disk 0's third request.
            prediction.requests[0][2].1 += 1_000;
            let parity = engine.request_parity(&outcome.requests, &prediction);
            assert!(!parity.exact);
            assert!(parity.matched <= total - outcome.requests[0].len() as u64 + 2);
            assert_eq!(parity.broken(), choice != PrefetchChoice::HeadProximity);
        }
    }

    #[test]
    fn load_writes_each_lane_in_chunks_on_memory() {
        for layout in [DataLayout::Concatenated, DataLayout::Striped] {
            let (engine, runs) = shape(layout);
            let queue = ThreadedQueue::memory(3, engine.block_bytes(), engine.queue_options());
            check_extent_load(&engine, &runs, queue);
        }
    }

    #[test]
    fn load_writes_each_lane_in_chunks_on_files() {
        for layout in [DataLayout::Concatenated, DataLayout::Striped] {
            let (engine, runs) = shape(layout);
            let dir = std::env::temp_dir()
                .join(format!("pm-engine-load-{}-{layout:?}", std::process::id()));
            let queue =
                ThreadedQueue::file(&dir, 3, engine.block_bytes(), engine.queue_options()).unwrap();
            check_extent_load(&engine, &runs, queue);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
