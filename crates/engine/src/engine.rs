//! The merge engine: the simulator's decision procedure driving real
//! block I/O.
//!
//! [`MergeEngine`] executes the paper's merge phase against a
//! [`BlockDevice`]: the same initial load, demand fetches, inter-run
//! prefetch operations, admission decisions, and AIMD depth adaptation
//! as [`pm_core::MergeSim`], but where the simulator advances a virtual
//! clock, the engine submits requests to per-disk I/O worker threads and
//! merges real records through the pm-extsort loser tree.
//!
//! ## Decision parity with the simulator
//!
//! Every decision the simulator makes at a depletion — whether to issue
//! a demand fetch, which runs to prefetch (including the RNG draws of
//! [`pm_core::PrefetchChoice::Random`] and the greedy shuffle), how much
//! the admission policy accepts, the AIMD depth update — is a pure
//! function of the depletion sequence: its inputs (per-run held counts,
//! free frames, fetch pointers, fetchable lists) change only at issue
//! and depletion time, never at completion time. The engine makes those
//! decisions with the identical code against the identical state,
//! consuming an identically-seeded RNG stream (the simulator's
//! `disk_seed`/`writer_seed` draws are mirrored before the first
//! decision). The block-request sequence per disk is therefore
//! *deterministic*: independent of the backend, the number of I/O
//! workers, and host timing. [`MergeEngine::predict`] replays the
//! engine's recorded depletion sequence through the simulator proper,
//! which must re-derive that exact request sequence — the foundation of
//! the sim-vs-engine cross-validation.
//!
//! Two caveats, both enforced by construction here: parity holds for
//! FIFO queueing (the engine services each disk one request at a time
//! in submission order) and for prefetch choices whose score the engine
//! can evaluate exactly ([`pm_core::PrefetchChoice::HeadProximity`]
//! scores against the cylinder of the *last submitted* block per disk,
//! which can diverge from the simulator's serviced-head position).

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use pm_cache::{AdmissionPolicy, BlockCache, PrefetchGroup, RunId};
use pm_core::{
    DataLayout, MergeConfig, MergeReport, MergeSim, PmError, PrefetchChoice, PrefetchStrategy,
    RunLayout, SyncMode, TraceDepletion,
};
use pm_disk::{Cylinder, DiskId, DiskRequest};
use pm_core::LoserTree;
use pm_extsort::Record;
use pm_metrics::{MetricsSink, NullMetrics};
use pm_sim::{SimDuration, SimRng, SimTime};
use pm_trace::{pack_tenant_tag, unpack_tag, unpack_tenant_tag, EventKind, RecordingSink, TraceEvent, TraceSink};

use crate::block::{block_bytes, decode_records, encode_records};
use crate::ioqueue::{IoCompletion, IoQueue, IoRequest, QueueOptions};
use crate::shared::SharedPort;

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
    /// The trace-event stream, sorted by timestamp (wall-clock
    /// nanoseconds since the engine epoch on the simulated-time axis).
    pub events: Vec<TraceEvent>,
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

/// The disk-array seed a simulation of `cfg` derives from its master
/// seed (the first draw of the master stream). Seed a
/// [`crate::LatencyDevice`] with this to make its per-disk latency
/// streams bit-identical to the simulator's.
#[must_use]
pub fn disk_seed_for(cfg: &MergeConfig) -> u64 {
    SimRng::seed_from_u64(cfg.seed).next_u64()
}

/// A planned engine execution: scenario, data shape, and layout.
///
/// Construct once per data set, then [`MergeEngine::load`] a device and
/// [`MergeEngine::execute`] against it (repeatable: each execution is
/// independent and deterministic).
#[derive(Debug, Clone)]
pub struct MergeEngine {
    cfg: ExecConfig,
    merge: MergeConfig,
    layout: RunLayout,
    run_blocks: Vec<u32>,
    run_records: Vec<usize>,
}

impl MergeEngine {
    /// Plans an execution of `cfg.merge` over runs of the given record
    /// counts. `cfg.merge.runs` / `run_blocks` are replaced by the data's
    /// actual shape (mirroring [`MergeSim::with_run_lengths`]).
    ///
    /// # Errors
    ///
    /// [`PmError::Usage`] if the engine cannot execute the scenario
    /// (write modeling, zero records-per-block); [`PmError::Config`] if
    /// the adjusted configuration is invalid or the cache cannot hold
    /// the initial load.
    pub fn new(cfg: ExecConfig, run_records: Vec<usize>) -> Result<Self, PmError> {
        if cfg.merge.write.is_some() {
            return Err(PmError::Usage(
                "the execution engine does not model write traffic (set write: None)".into(),
            ));
        }
        if cfg.records_per_block == 0 {
            return Err(PmError::Usage("records-per-block must be positive".into()));
        }
        if cfg.time_scale <= 0.0 || cfg.time_scale.is_nan() {
            return Err(PmError::Usage("time-scale must be positive".into()));
        }
        if run_records.is_empty() || run_records.contains(&0) {
            return Err(PmError::Config(pm_core::ConfigError::ZeroParameter(
                "run lengths",
            )));
        }
        let rpb = cfg.records_per_block;
        let run_blocks: Vec<u32> = run_records
            .iter()
            .map(|&len| (len as u64).div_ceil(u64::from(rpb)) as u32)
            .collect();
        let mut merge = cfg.merge;
        merge.runs = run_blocks.len() as u32;
        merge.run_blocks = *run_blocks.iter().max().expect("non-empty");
        merge.validate()?;
        let depth = merge.strategy.depth();
        let need: u64 = run_blocks.iter().map(|&l| u64::from(depth.min(l))).sum();
        if u64::from(merge.cache_blocks) < need {
            return Err(PmError::Config(pm_core::ConfigError::CacheTooSmall {
                have: merge.cache_blocks,
                need: need as u32,
            }));
        }
        let layout = match merge.layout {
            DataLayout::Concatenated => {
                RunLayout::contiguous_lengths(&run_blocks, merge.disks, &merge.disk_spec.geometry)
            }
            DataLayout::Striped => {
                RunLayout::striped(&run_blocks, merge.disks, &merge.disk_spec.geometry)
            }
        };
        Ok(MergeEngine {
            cfg,
            merge,
            layout,
            run_blocks,
            run_records,
        })
    }

    /// The adjusted scenario this engine executes.
    #[must_use]
    pub fn merge_config(&self) -> &MergeConfig {
        &self.merge
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
                self.merge.strategy.depth().max(1) as usize
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
        if queue.disks() < self.merge.disks as usize {
            return Err(PmError::Usage(format!(
                "device has {} disks, scenario needs {}",
                queue.disks(),
                self.merge.disks
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
        let mut buf = vec![0u8; self.block_bytes()];
        for (r, run) in runs.iter().enumerate() {
            let run_id = RunId(r as u32);
            for (index, chunk) in run.chunks(rpb).enumerate() {
                let (disk, start) = self.layout.location(run_id, index as u32);
                encode_records(chunk, &mut buf);
                queue.write_block(disk, start, &buf).map_err(|e| {
                    PmError::device(
                        queue.backend(),
                        format!("write run {r} block {index} to disk {}", disk.0),
                        e,
                    )
                })?;
            }
        }
        Ok(())
    }

    /// Executes the merge against a loaded queue: opens it, drives the
    /// merge through batched submit/complete, and shuts it down.
    ///
    /// # Errors
    ///
    /// [`PmError::Device`] if a block read fails or the queue's
    /// transport dies.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant breaks (mirroring the
    /// simulator's own invariant assertions).
    pub fn execute(&self, queue: Box<dyn IoQueue>) -> Result<ExecOutcome, PmError> {
        self.execute_metered(queue, &NullMetrics)
    }

    /// [`MergeEngine::execute`] with a metrics sink: every block arrival
    /// records per-disk service time, queue wait (submit to service
    /// start) and bytes read into `metrics`; every submission batch and
    /// completion reap records its size, and per-disk in-flight depth is
    /// sampled at both transitions. With [`pm_metrics::NullMetrics`] the
    /// recording compiles away and the run is identical to
    /// [`MergeEngine::execute`].
    ///
    /// # Errors
    ///
    /// [`PmError::Device`] if a block read fails or the queue's
    /// transport dies.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant breaks (mirroring the
    /// simulator's own invariant assertions).
    pub fn execute_metered<M: MetricsSink>(
        &self,
        mut queue: Box<dyn IoQueue>,
        metrics: &M,
    ) -> Result<ExecOutcome, PmError> {
        if queue.disks() < self.merge.disks as usize {
            return Err(PmError::Usage(format!(
                "queue has {} disks, scenario needs {}",
                queue.disks(),
                self.merge.disks
            )));
        }
        let epoch = Instant::now();
        queue
            .open(epoch)
            .map_err(|e| PmError::device(queue.backend(), "opening the queue", e))?;
        let mut state = ExecState::new(self, queue, 0, epoch, metrics);
        state.run()
    }

    /// Executes the merge through a [`crate::SharedDeviceSet`] port:
    /// same decision procedure, but the disks are shared with other
    /// jobs and the set's [`pm_service::IoSched`] picks service order.
    /// Trace event tags carry the port's tenant id
    /// ([`pm_trace::pack_tenant_tag`]); run ids must fit
    /// [`pm_trace::TENANT_TAG_MAX_RUN`].
    ///
    /// # Errors
    ///
    /// [`PmError::Io`] if a block read fails or the set shuts down with
    /// requests outstanding.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant breaks (mirroring the
    /// simulator's own invariant assertions).
    pub fn execute_shared(&self, port: SharedPort) -> Result<ExecOutcome, PmError> {
        self.execute_shared_metered(port, &NullMetrics)
    }

    /// [`MergeEngine::execute_shared`] with a metrics sink: block
    /// arrivals additionally record per-tenant block counts and queue
    /// waits under the port's tenant id.
    ///
    /// # Errors
    ///
    /// [`PmError::Io`] if a block read fails or the set shuts down with
    /// requests outstanding.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant breaks (mirroring the
    /// simulator's own invariant assertions).
    pub fn execute_shared_metered<M: MetricsSink>(
        &self,
        port: SharedPort,
        metrics: &M,
    ) -> Result<ExecOutcome, PmError> {
        if self.merge.runs > pm_trace::TENANT_TAG_MAX_RUN {
            return Err(PmError::Usage(format!(
                "shared execution tags cap runs at {} (scenario has {})",
                pm_trace::TENANT_TAG_MAX_RUN,
                self.merge.runs
            )));
        }
        let tenant = port.tenant();
        let mut port: Box<dyn IoQueue> = Box::new(port);
        let epoch = Instant::now();
        port.open(epoch)
            .map_err(|e| PmError::device("shared", "opening the port", e))?;
        let mut state = ExecState::new(self, port, tenant, epoch, metrics);
        state.run()
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
        let sim = MergeSim::with_run_lengths(self.merge, &self.run_blocks)
            .map_err(PmError::Config)?
            .replace_sink(RecordingSink::unbounded());
        let mut model = TraceDepletion::new(depletion.to_vec());
        let (report, sink) = sim.run_with_sink(&mut model);
        let mut requests = vec![Vec::new(); self.merge.disks as usize];
        for ev in sink.into_events() {
            if let EventKind::DiskIssue {
                disk,
                output: false,
                tag,
                ..
            } = ev.kind
            {
                requests[disk as usize].push(unpack_tag(tag));
            }
        }
        Ok(EnginePrediction { report, requests })
    }
}

#[derive(Debug, Clone, Copy)]
struct RunState {
    total: u32,
    next_fetch: u32,
    depleted: u32,
}

enum Gate {
    SyncOp { remaining: u32 },
    Block { run: RunId },
}

const DEAD: usize = usize::MAX;

struct ExecState<'a, M: MetricsSink> {
    plan: &'a MergeEngine,
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
    /// In-flight requests per disk (queue-depth gauge).
    inflight: Vec<u64>,
    /// Tenant id stamped into trace tags (0 for dedicated runs).
    tenant: u16,
    metrics: &'a M,
    epoch: Instant,
    cache: BlockCache,
    rng: SimRng,
    runs: Vec<RunState>,
    fetchable: Vec<Vec<RunId>>,
    fetchable_pos: Vec<usize>,
    current_depth: u32,
    gate: Option<Gate>,
    /// Arrived, not-yet-consumed block payloads per run, keyed by block
    /// index (striped layouts deliver out of index order).
    store: Vec<BTreeMap<u32, Vec<Record>>>,
    /// Shadow head position per disk: the cylinder of the last
    /// *submitted* block (head-proximity scoring).
    head_cyl: Vec<Cylinder>,
    spans: Vec<u64>,
    sink: RecordingSink,
    stall: Duration,
    per_disk_requests: Vec<u64>,
    per_disk_sequential: Vec<u64>,
    per_disk_modeled_busy: Vec<SimDuration>,
    request_log: Vec<Vec<(u32, u32)>>,
    depletion: Vec<RunId>,
    blocks_merged: u64,
    demand_ops: u64,
    fallback_ops: u64,
    full_prefetch_ops: u64,
}

impl<'a, M: MetricsSink> ExecState<'a, M> {
    fn new(
        plan: &'a MergeEngine,
        port: Box<dyn IoQueue>,
        tenant: u16,
        epoch: Instant,
        metrics: &'a M,
    ) -> Self {
        let backend = port.backend();
        let merge = &plan.merge;
        let d = merge.disks as usize;
        let k = merge.runs as usize;
        // Mirror the simulator's seed derivation: the master stream
        // hands out the disk seed, then the writer seed, before any
        // decision draw.
        let mut rng = SimRng::seed_from_u64(merge.seed);
        let _disk_seed = rng.next_u64();
        let _writer_seed = rng.next_u64();
        let fetchable: Vec<Vec<RunId>> = if plan.layout.is_striped() {
            vec![Vec::new(); d]
        } else {
            (0..d)
                .map(|disk| plan.layout.runs_on_disk(DiskId(disk as u16)).to_vec())
                .collect()
        };
        let mut fetchable_pos = vec![DEAD; k];
        for list in &fetchable {
            for (i, r) in list.iter().enumerate() {
                fetchable_pos[r.0 as usize] = i;
            }
        }
        ExecState {
            plan,
            port,
            backend,
            stage: Vec::new(),
            pending: VecDeque::new(),
            reap_buf: Vec::new(),
            inflight: vec![0; d],
            tenant,
            metrics,
            epoch,
            cache: BlockCache::new(merge.cache_blocks, merge.runs),
            rng,
            runs: plan
                .run_blocks
                .iter()
                .map(|&total| RunState {
                    total,
                    next_fetch: 0,
                    depleted: 0,
                })
                .collect(),
            fetchable,
            fetchable_pos,
            current_depth: merge.strategy.depth(),
            gate: None,
            store: vec![BTreeMap::new(); k],
            head_cyl: vec![Cylinder(0); d],
            spans: vec![0; d],
            sink: RecordingSink::unbounded(),
            stall: Duration::ZERO,
            per_disk_requests: vec![0; d],
            per_disk_sequential: vec![0; d],
            per_disk_modeled_busy: vec![SimDuration::ZERO; d],
            request_log: vec![Vec::new(); d],
            depletion: Vec::with_capacity(plan.layout.total_blocks() as usize),
            blocks_merged: 0,
            demand_ops: 0,
            fallback_ops: 0,
            full_prefetch_ops: 0,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn run(&mut self) -> Result<ExecOutcome, PmError> {
        let merge = &self.plan.merge;
        let k = merge.runs as usize;
        self.initial_load()?;

        // Build the loser tree from every run's leading block.
        let mut cursors: Vec<std::vec::IntoIter<Record>> = Vec::with_capacity(k);
        for r in 0..k {
            cursors.push(self.take_block(RunId(r as u32))?.into_iter());
        }
        let heads: Vec<Option<Record>> = cursors.iter_mut().map(Iterator::next).collect();
        let mut tree = LoserTree::new(heads);

        let total_records: usize = self.plan.run_records.iter().sum();
        let mut output = Vec::with_capacity(total_records);
        while let Some((src, _)) = tree.winner() {
            let next = match cursors[src].next() {
                Some(rec) => Some(rec),
                None => match self.advance_run(RunId(src as u32))? {
                    Some(block) => {
                        cursors[src] = block.into_iter();
                        cursors[src].next()
                    }
                    None => None,
                },
            };
            let (_, rec) = tree.pop_and_replace(next).expect("winner exists");
            output.push(rec);
        }
        let wall = self.epoch.elapsed();

        assert_eq!(
            self.blocks_merged,
            self.plan.layout.total_blocks(),
            "merge ended early"
        );
        assert_eq!(self.cache.total_reserved(), 0, "blocks left in flight");
        assert_eq!(self.cache.total_resident(), 0, "blocks left undepleted");
        assert_eq!(output.len(), total_records);

        self.port
            .shutdown()
            .map_err(|e| PmError::device(self.backend, "shutting down the queue", e))?;
        let mut events = std::mem::replace(&mut self.sink, RecordingSink::unbounded()).into_events();
        events.sort_by_key(|e| e.at);
        let report = ExecReport {
            wall,
            stall: self.stall,
            blocks_merged: self.blocks_merged,
            records_merged: output.len() as u64,
            demand_ops: self.demand_ops,
            fallback_ops: self.fallback_ops,
            full_prefetch_ops: self.full_prefetch_ops,
            success_ratio: if self.demand_ops == 0 {
                None
            } else {
                Some(self.full_prefetch_ops as f64 / self.demand_ops as f64)
            },
            per_disk_requests: std::mem::take(&mut self.per_disk_requests),
            per_disk_sequential: std::mem::take(&mut self.per_disk_sequential),
            per_disk_modeled_busy: std::mem::take(&mut self.per_disk_modeled_busy),
            time_scale: self.plan.cfg.time_scale,
        };
        Ok(ExecOutcome {
            output,
            report,
            depletion: std::mem::take(&mut self.depletion),
            requests: std::mem::take(&mut self.request_log),
            events,
        })
    }

    /// Issues the initial load and waits out the startup gate
    /// (unsynchronized: every run has a resident block; synchronized:
    /// every initial block arrived).
    fn initial_load(&mut self) -> Result<(), PmError> {
        let merge = &self.plan.merge;
        let depth = merge.strategy.depth();
        let mut issued: u64 = 0;
        for r in 0..merge.runs {
            let run = RunId(r);
            let batch = depth.min(self.runs[r as usize].total);
            self.cache.reserve(run, batch);
            self.submit_blocks(run, 0, batch);
            issued += u64::from(batch);
        }
        self.flush_submissions()?;
        match merge.sync {
            SyncMode::Synchronized => {
                for _ in 0..issued {
                    self.await_arrival()?;
                }
            }
            SyncMode::Unsynchronized => {
                let mut first_missing = merge.runs;
                while first_missing > 0 {
                    let run = self.await_arrival()?;
                    if self.cache.resident(run) == 1 {
                        first_missing -= 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// The leading block of `j` was fully consumed: deplete it, issue
    /// I/O per the paper's pseudocode, wait out the gate, and hand back
    /// the run's next block (`None` once the run is exhausted).
    fn advance_run(&mut self, j: RunId) -> Result<Option<Vec<Record>>, PmError> {
        let now = self.now();
        self.sink.emit(TraceEvent {
            at: now,
            kind: EventKind::CpuConsume {
                run: j.0,
                block: self.runs[j.0 as usize].depleted,
            },
        });
        self.cache.deplete_traced(j, now, &mut self.sink);
        self.depletion.push(j);
        let progress = &mut self.runs[j.0 as usize];
        progress.depleted += 1;
        self.blocks_merged += 1;
        let depleted = progress.depleted;
        let total = progress.total;
        if depleted == total {
            self.sink.emit(TraceEvent {
                at: now,
                kind: EventKind::RunExhausted { run: j.0 },
            });
            return Ok(None);
        }
        if self.cache.held(j) == 0 {
            debug_assert!(self.runs[j.0 as usize].next_fetch < total);
            self.issue_demand(j)?;
        } else if self.cache.resident(j) == 0 {
            debug_assert_eq!(self.plan.merge.sync, SyncMode::Unsynchronized);
            self.gate = Some(Gate::Block { run: j });
        }
        self.wait_gate()?;
        Ok(Some(self.take_block(j)?))
    }

    /// Mirrors the simulator's demand-fetch issue, including the gate.
    fn issue_demand(&mut self, j: RunId) -> Result<(), PmError> {
        self.demand_ops += 1;
        let depth = self.current_depth;
        let progress = self.runs[j.0 as usize];
        let demand_blocks = depth.min(progress.total - progress.next_fetch);
        debug_assert!(demand_blocks >= 1);
        let demand_index = progress.next_fetch;
        debug_assert_eq!(demand_index, progress.depleted);
        self.sink.emit(TraceEvent {
            at: self.now(),
            kind: EventKind::DemandMiss {
                run: j.0,
                block: demand_index,
                free: self.cache.free(),
            },
        });
        let issued_total = if self.plan.merge.strategy.is_inter_run() {
            self.issue_inter_run(j, demand_blocks)
        } else {
            self.cache.reserve(j, demand_blocks);
            self.submit_blocks(j, demand_index, demand_blocks);
            demand_blocks
        };
        self.gate = Some(match self.plan.merge.sync {
            SyncMode::Synchronized => Gate::SyncOp {
                remaining: issued_total,
            },
            SyncMode::Unsynchronized => Gate::Block { run: j },
        });
        self.flush_submissions()
    }

    /// Hands everything staged since the last flush to the queue as one
    /// batch (one decision point = one submission batch), recording
    /// per-disk batch sizes and in-flight depth when metered.
    fn flush_submissions(&mut self) -> Result<(), PmError> {
        if self.stage.is_empty() {
            return Ok(());
        }
        for r in &self.stage {
            self.inflight[r.req.disk.0 as usize] += 1;
        }
        if M::ENABLED {
            let mut counts = vec![0u64; self.inflight.len()];
            for r in &self.stage {
                counts[r.req.disk.0 as usize] += 1;
            }
            for (d, &n) in counts.iter().enumerate() {
                if n > 0 {
                    self.metrics.io_submit_batch(d, n);
                    self.metrics.disk_queue_depth(d, self.inflight[d] as f64);
                }
            }
        }
        let n = self.stage.len();
        self.port.submit(&self.stage).map_err(|e| {
            PmError::device(self.backend, format!("submitting a batch of {n} reads"), e)
        })?;
        self.stage.clear();
        Ok(())
    }

    /// Mirrors the simulator's combined inter-run operation: the demand
    /// group plus one chosen run per other disk, admitted against the
    /// cache, with the AIMD depth update and single-block fallback.
    fn issue_inter_run(&mut self, j: RunId, demand_blocks: u32) -> u32 {
        let merge = self.plan.merge;
        let depth = self.current_depth;
        let demand_disk = self.plan.layout.placement(j).disk;
        let mut groups: Vec<PrefetchGroup> = Vec::with_capacity(merge.disks as usize + 1);
        let mut candidate_buf: Vec<RunId> = Vec::new();
        groups.push(PrefetchGroup {
            run: j,
            blocks: demand_blocks,
        });
        for d in 0..merge.disks as u16 {
            let disk = DiskId(d);
            if disk == demand_disk {
                continue;
            }
            let candidates: &[RunId] = match merge.per_run_cap {
                None => &self.fetchable[d as usize],
                Some(cap) => {
                    candidate_buf.clear();
                    candidate_buf.extend(
                        self.fetchable[d as usize]
                            .iter()
                            .copied()
                            .filter(|&r| self.cache.held(r) < cap),
                    );
                    &candidate_buf
                }
            };
            if candidates.is_empty() {
                continue;
            }
            let cache = &self.cache;
            let layout = &self.plan.layout;
            let runs = &self.runs;
            let head = self.head_cyl[d as usize];
            let run = merge
                .prefetch_choice
                .pick(&mut self.rng, candidates, |r| match merge.prefetch_choice {
                    PrefetchChoice::Random => 0,
                    PrefetchChoice::LeastHeld => u64::from(cache.held(r)),
                    PrefetchChoice::HeadProximity => {
                        let next = runs[r.0 as usize].next_fetch;
                        let cyl = merge
                            .disk_spec
                            .geometry
                            .cylinder_of(layout.block_addr(r, next));
                        u64::from(cyl.distance(head))
                    }
                });
            let p = self.runs[run.0 as usize];
            let blocks = depth.min(p.total - p.next_fetch);
            debug_assert!(blocks >= 1);
            groups.push(PrefetchGroup { run, blocks });
        }
        self.sink.emit(TraceEvent {
            at: self.now(),
            kind: EventKind::PrefetchBatch {
                groups: groups.len() as u32,
                blocks: groups.iter().map(|g| g.blocks).sum(),
                depth,
            },
        });
        if merge.admission == AdmissionPolicy::Greedy && groups.len() > 2 {
            self.rng.shuffle(&mut groups[1..]);
        }
        let mut admitted: Vec<PrefetchGroup> = Vec::with_capacity(groups.len());
        let now = self.now();
        let full = merge.admission.admit_into_traced(
            &mut self.cache,
            &groups,
            &mut admitted,
            now,
            &mut self.sink,
        );
        if full {
            self.full_prefetch_ops += 1;
        }
        if let PrefetchStrategy::InterRunAdaptive { n_min, n_max } = merge.strategy {
            self.current_depth = if full {
                (self.current_depth + 1).min(n_max)
            } else {
                (self.current_depth / 2).max(n_min)
            };
        }
        if admitted.is_empty() {
            self.fallback_ops += 1;
            self.cache.reserve(j, 1);
            let start = self.runs[j.0 as usize].next_fetch;
            self.submit_blocks(j, start, 1);
            1
        } else {
            let mut issued = 0;
            for g in &admitted {
                let start = self.runs[g.run.0 as usize].next_fetch;
                self.submit_blocks(g.run, start, g.blocks);
                issued += g.blocks;
            }
            issued
        }
    }

    /// Stages `count` single-block requests for the next flush and
    /// advances the fetch pointer (frames must already be reserved).
    fn submit_blocks(&mut self, run: RunId, start_index: u32, count: u32) {
        debug_assert!(count >= 1);
        let stride = self.plan.layout.same_disk_stride();
        for i in 0..count {
            let index = start_index + i;
            let (disk, start) = self.plan.layout.location(run, index);
            let d = disk.0 as usize;
            let tag = pack_tenant_tag(self.tenant, run.0, index);
            let span = self.spans[d];
            self.spans[d] += 1;
            self.sink.emit(TraceEvent {
                at: self.now(),
                kind: EventKind::DiskIssue {
                    disk: disk.0,
                    output: false,
                    tag,
                    span,
                },
            });
            self.per_disk_requests[d] += 1;
            self.request_log[d].push((run.0, index));
            self.head_cyl[d] = self.plan.merge.disk_spec.geometry.cylinder_of(start);
            self.stage.push(IoRequest {
                req: DiskRequest {
                    disk,
                    start,
                    len: 1,
                    sequential_hint: i >= stride,
                    tag,
                },
                span,
                submitted: Instant::now(),
            });
        }
        let progress = &mut self.runs[run.0 as usize];
        progress.next_fetch += count;
        debug_assert!(progress.next_fetch <= progress.total);
        if progress.next_fetch == progress.total {
            if let Some(home) = self.plan.layout.home_disk(run) {
                self.remove_fetchable(run, home);
            }
        }
    }

    fn remove_fetchable(&mut self, run: RunId, disk: DiskId) {
        let list = &mut self.fetchable[disk.0 as usize];
        let pos = self.fetchable_pos[run.0 as usize];
        debug_assert_ne!(pos, DEAD);
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            self.fetchable_pos[moved.0 as usize] = pos;
        }
        self.fetchable_pos[run.0 as usize] = DEAD;
    }

    /// Waits out the gate the last issue set (if any), then returns once
    /// the arrivals the simulator would wait for have been processed.
    fn wait_gate(&mut self) -> Result<(), PmError> {
        match self.gate.take() {
            None => {}
            Some(Gate::SyncOp { remaining }) => {
                for _ in 0..remaining {
                    self.await_arrival()?;
                }
            }
            Some(Gate::Block { run }) => {
                while self.await_arrival()? != run {}
            }
        }
        Ok(())
    }

    /// Hands back run `j`'s next block, waiting for its arrival if
    /// needed (striped layouts deliver a run's blocks out of index
    /// order, so this can wait past the gate).
    fn take_block(&mut self, j: RunId) -> Result<Vec<Record>, PmError> {
        let index = self.runs[j.0 as usize].depleted;
        loop {
            if let Some(block) = self.store[j.0 as usize].remove(&index) {
                return Ok(block);
            }
            self.await_arrival()?;
        }
    }

    /// Takes the next completion (reaping a batch from the queue when
    /// none is pending) and processes it; returns the run whose block
    /// arrived.
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
                self.pending.pop_front().expect("complete(_, 1) returned 0")
            }
        };
        let (_, run, index) = unpack_tenant_tag(completion.tag);
        let d = completion.disk as usize;
        self.inflight[d] = self.inflight[d].saturating_sub(1);
        if M::ENABLED {
            self.metrics.disk_queue_depth(d, self.inflight[d] as f64);
        }
        let data = completion
            .data
            .map_err(|e| PmError::device(self.backend, format!("read run {run} block {index}"), e))?;
        let started = SimTime::ZERO + SimDuration::from_nanos(completion.started_ns);
        let finished = SimTime::ZERO + SimDuration::from_nanos(completion.finished_ns);
        if M::ENABLED {
            const NANOS_PER_SEC: f64 = 1e9;
            let wait = completion.started_ns.saturating_sub(completion.submitted_ns) as f64
                / NANOS_PER_SEC;
            let service = completion.finished_ns.saturating_sub(completion.started_ns) as f64
                / NANOS_PER_SEC;
            self.metrics
                .disk_io(d, self.plan.block_bytes() as u64, wait, service);
            // Dedicated runs carry tenant 0; a sink built without tenants
            // drops these, a shared run's sink attributes them.
            self.metrics.tenant_blocks(self.tenant as usize, 1);
            self.metrics.tenant_wait(self.tenant as usize, wait);
        }
        let sequential = match completion.injected {
            Some(inj) => {
                self.per_disk_modeled_busy[d] += inj.breakdown.total();
                if !inj.sequential {
                    // Retroactive, like the simulator: positioning ends
                    // seek+latency (scaled) after service start.
                    let positioning = inj.breakdown.seek + inj.breakdown.latency;
                    let scaled = SimDuration::from_nanos(
                        (positioning.as_nanos() as f64 * self.plan.cfg.time_scale).round() as u64,
                    );
                    self.sink.emit(TraceEvent {
                        at: started + scaled,
                        kind: EventKind::DiskSeekDone {
                            disk: completion.disk,
                            output: false,
                            tag: completion.tag,
                            span: completion.span,
                            started,
                        },
                    });
                }
                inj.sequential
            }
            None => completion.hint,
        };
        if sequential {
            self.per_disk_sequential[d] += 1;
        }
        self.sink.emit(TraceEvent {
            at: finished,
            kind: EventKind::DiskTransferDone {
                disk: completion.disk,
                output: false,
                tag: completion.tag,
                span: completion.span,
                started,
                sequential,
            },
        });
        let count = self.records_in_block(run, index);
        let records = decode_records(&data, count);
        self.cache.block_arrived(RunId(run));
        self.store[run as usize].insert(index, records);
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

