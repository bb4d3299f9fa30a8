//! Multi-pass execution: drive a [`MergeTreePlan`] through the engine.
//!
//! The single-pass [`MergeEngine`] tops out at the cache's fan-in; this
//! module walks a planned merge tree pass by pass, loading each group's
//! runs onto a fresh device, executing, and feeding the outputs to the
//! next pass in group order. A tree of exactly one merge (one pass, one
//! group) runs the base scenario verbatim; in a larger tree every group
//! derives its scenario from the shared cache budget. Both follow
//! [`MergeTreePlan::group_scenario`], the rule the plan's prediction
//! uses too. Every group is cross-checked
//! against [`MergeEngine::predict`], so the simulator's per-pass decision
//! parity — the engine's core invariant — holds across the whole tree;
//! under head-proximity, whose parity is not promised, the pass counts
//! the requests that matched instead ([`PassOutcome::requests_matched`]).
//!
//! # Temp-file lifecycle
//!
//! With [`PassBackend::File`], each execution claims a private staging
//! directory `<root>/exec-<pid>-<counter>/` (the counter is
//! process-global, so concurrent executors — threads or processes —
//! sharing one root never collide), and pass `p` group `g` stages its
//! inputs under `<token>/pass-<p>/group-<g>/`. A pass's directory is
//! removed as soon as the pass completes (its outputs live in memory)
//! and the token directory goes when the execution finishes — on the
//! error path too, since a gracefully failing invocation is done with
//! its token and a liveness sweep would rightly spare it for as long as
//! the process lives. Only a hard process death leaves an `exec-*`
//! directory behind, and the next invocation over the same root removes
//! only those whose owning process is no longer alive
//! ([`clean_stale_passes`]) — never a concurrent invocation's live
//! staging. The final output is never staged under the root, so an
//! interrupted execution leaves no partial output file.

use std::path::{Path, PathBuf};
use std::time::Duration;

use pm_core::{MergeConfig, PmError, ScenarioBuilder};
use pm_extsort::plan::MergeTreePlan;
use pm_extsort::Record;
use pm_metrics::{MetricsSink, NullMetrics};
use pm_sim::{SimDuration, SimTime};
use pm_trace::{EventKind, NullSink, TraceEvent, TraceSink};

use crate::derived::{EngineTrace, Segment};
use crate::engine::{
    disk_seed_for, EnginePrediction, ExecConfig, ExecOutcome, MergeEngine, RequestParity,
};
use crate::ioqueue::IoQueue;
use crate::workers::ThreadedQueue;

/// Which device family every pass of a multi-pass execution runs on.
#[derive(Debug, Clone)]
pub enum PassBackend {
    /// In-memory golden reference.
    Memory,
    /// File-backed staging under `root` (see the module docs for the
    /// directory lifecycle).
    File {
        /// Directory that holds the per-pass staging subdirectories.
        root: PathBuf,
    },
    /// In-memory data with the modeled per-request service time
    /// injected, for predicted-vs-executed cross-checks.
    Latency,
    /// File-backed staging read back through `O_DIRECT` handles (same
    /// lifecycle as [`PassBackend::File`]; Linux, 512-byte-aligned
    /// blocks).
    FileDirect {
        /// Directory that holds the per-pass staging subdirectories.
        root: PathBuf,
    },
    /// io_uring over `O_DIRECT` disk files staged under `root` (same
    /// lifecycle as [`PassBackend::File`]). Requires the `uring` crate
    /// feature and a kernel with io_uring; callers should probe with
    /// `uring_available()` first.
    Uring {
        /// Directory that holds the per-pass staging subdirectories.
        root: PathBuf,
    },
}

impl PassBackend {
    /// The backend `name` selects (`mem`, `file`, `file-direct`,
    /// `latency` or `uring`, or an alias), with the file-backed families
    /// staging under `root`.
    ///
    /// # Errors
    ///
    /// Returns a usage error naming the valid backends for any other
    /// name.
    pub fn parse(name: &str, root: PathBuf) -> Result<Self, PmError> {
        Ok(match name {
            "mem" | "memory" => PassBackend::Memory,
            "file" => PassBackend::File { root },
            "file-direct" | "direct" => PassBackend::FileDirect { root },
            "latency" => PassBackend::Latency,
            "uring" | "io_uring" => PassBackend::Uring { root },
            other => {
                return Err(PmError::Usage(format!(
                    "unknown backend '{other}' (mem | file | file-direct | latency | uring)"
                )))
            }
        })
    }

    /// The backend's name, as [`PassBackend::parse`] takes it.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PassBackend::Memory => "mem",
            PassBackend::File { .. } => "file",
            PassBackend::FileDirect { .. } => "file-direct",
            PassBackend::Latency => "latency",
            PassBackend::Uring { .. } => "uring",
        }
    }

    /// Whether reads bypass the page cache, so blocks must align to
    /// 512 bytes.
    #[must_use]
    pub fn needs_alignment(&self) -> bool {
        matches!(
            self,
            PassBackend::FileDirect { .. } | PassBackend::Uring { .. }
        )
    }

    /// The directory the file-backed families stage under; `None` for
    /// the in-memory ones.
    #[must_use]
    pub fn staging_root(&self) -> Option<&Path> {
        match self {
            PassBackend::File { root }
            | PassBackend::FileDirect { root }
            | PassBackend::Uring { root } => Some(root),
            PassBackend::Memory | PassBackend::Latency => None,
        }
    }

    /// Opens a fresh queue of this device family for `engine`, with the
    /// file-backed families' disk files under `dir` (the in-memory ones
    /// ignore it). Every merged group opens its device here.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Io`] when the disk files cannot be created,
    /// and a usage error for [`PassBackend::Uring`] in a build without
    /// the `uring` feature.
    pub fn open_queue(
        &self,
        engine: &MergeEngine,
        dir: &Path,
    ) -> Result<Box<dyn IoQueue>, PmError> {
        let cfg = engine.merge_config();
        let disks = cfg.disks as usize;
        let block_bytes = engine.block_bytes();
        let opts = engine.queue_options();
        Ok(match self {
            PassBackend::Memory => Box::new(ThreadedQueue::memory(disks, block_bytes, opts)),
            PassBackend::File { .. } => Box::new(
                ThreadedQueue::file(dir, disks, block_bytes, opts)
                    .map_err(|e| PmError::io(format!("creating {}", dir.display()), e))?,
            ),
            PassBackend::FileDirect { .. } => {
                Box::new(ThreadedQueue::file_direct(dir, disks, block_bytes, opts)?)
            }
            PassBackend::Latency => Box::new(ThreadedQueue::latency(
                disks,
                block_bytes,
                cfg.disk_spec,
                cfg.discipline,
                disk_seed_for(cfg),
                opts,
            )),
            #[cfg(feature = "uring")]
            PassBackend::Uring { .. } => Box::new(crate::uring::UringQueue::create(
                dir,
                disks,
                block_bytes,
                opts.depth,
            )?),
            #[cfg(not(feature = "uring"))]
            PassBackend::Uring { .. } => {
                return Err(PmError::Usage(
                    "the uring backend requires building with --features uring".into(),
                ))
            }
        })
    }
}

/// Engine knobs shared by every pass (the per-pass merge scenario is
/// derived from the plan and the base config instead).
#[derive(Debug, Clone, Copy)]
pub struct MultiPassOptions {
    /// Records per block (fixed across passes so intermediate runs
    /// re-encode cleanly).
    pub records_per_block: u32,
    /// Per-disk I/O queue depth (`0` = each pass's prefetch depth).
    pub queue_depth: usize,
    /// I/O worker threads (0 = one per disk).
    pub jobs: usize,
    /// Wall-clock scale for injected latency sleeps.
    pub time_scale: f64,
}

impl Default for MultiPassOptions {
    fn default() -> Self {
        let d = ExecConfig::new(placeholder_config());
        MultiPassOptions {
            records_per_block: d.records_per_block,
            queue_depth: d.queue_depth,
            jobs: d.jobs,
            time_scale: d.time_scale,
        }
    }
}

fn placeholder_config() -> MergeConfig {
    ScenarioBuilder::new(2, 1)
        .build()
        .expect("valid placeholder")
}

/// What one pass of a multi-pass execution measured.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Pass index (0-based).
    pub pass: u32,
    /// Fan-in bound the pass was planned with.
    pub fan_in: u32,
    /// Input runs entering the pass.
    pub inputs: u32,
    /// Merge groups (including passthrough singletons).
    pub groups: u32,
    /// Groups that actually merged.
    pub merged_groups: u32,
    /// Blocks read by the pass's merges.
    pub blocks_read: u64,
    /// Records merged by the pass.
    pub records_merged: u64,
    /// Summed wall-clock time of the pass's group executions.
    pub wall: Duration,
    /// Summed merge-thread stall time.
    pub stall: Duration,
    /// Demand-fetch operations.
    pub demand_ops: u64,
    /// Demand operations degraded to single-block fallbacks.
    pub fallback_ops: u64,
    /// Demand operations whose full prefetch was admitted.
    pub full_prefetch_ops: u64,
    /// Summed modeled busy time across disks (latency backend only).
    pub modeled_busy: SimDuration,
    /// Requests the pass's merges submitted.
    pub requests: u64,
    /// Of those, the requests the simulator's replay re-derived
    /// ([`crate::RequestParity::matched`]): all of them unless the
    /// prefetch choice is head-proximity, whose parity is not exact.
    pub requests_matched: u64,
    /// Summed simulator-predicted per-disk busy time.
    pub predicted_busy: SimDuration,
    /// Summed simulator-predicted read (total) time.
    pub predicted_read: SimDuration,
    /// Simulated read-time-weighted average I/O concurrency.
    pub sim_concurrency: f64,
    /// Simulated read-time-weighted average busy-disk count.
    pub sim_busy_disks: f64,
    /// The scenario of the pass's first merged group, if any —
    /// representative for reporting (the base scenario, with the data's
    /// run count and length, in a tree of one merge).
    pub scenario: Option<MergeConfig>,
}

/// Everything a multi-pass execution produced.
#[derive(Debug, Clone)]
pub struct MultiPassOutcome {
    /// The fully merged record stream.
    pub output: Vec<Record>,
    /// Per-pass measurements, in execution order.
    pub passes: Vec<PassOutcome>,
    /// The whole tree's event stream on one time axis: each pass opens
    /// with an [`EventKind::PassBoundary`] marker, its groups' events
    /// follow one after another, and pass `p + 1` starts where pass
    /// `p`'s summed group walls end.
    ///
    /// The tree keeps its pass markers and each group's merge record,
    /// each at its offset, and joins them on the stream's first read
    /// (see [`ExecOutcome::events`]).
    pub events: EngineTrace,
}

/// The tree's trace as segments: each pass's boundary marker and each
/// group's records, at their final offsets.
#[derive(Debug, Default)]
struct TreeTrace {
    segments: Vec<Segment>,
    /// Where the current pass starts on the tree's axis.
    pass_start: SimDuration,
    /// The summed walls of the current pass's groups so far.
    pass_elapsed: SimDuration,
}

impl TreeTrace {
    fn begin_pass(&mut self, pass: u32, groups: u32) {
        self.pass_start += std::mem::take(&mut self.pass_elapsed);
        self.segments.push(Segment::Marker(TraceEvent {
            at: SimTime::ZERO + self.pass_start,
            kind: EventKind::PassBoundary { pass, groups },
        }));
    }

    /// Appends one merged group's trace behind the pass's earlier groups.
    fn group(&mut self, trace: EngineTrace, wall: Duration) {
        let offset = self.pass_start + self.pass_elapsed;
        self.segments
            .extend(trace.into_segments().into_iter().map(|s| s.shifted(offset)));
        self.pass_elapsed += wall_as_sim(wall);
    }
}

/// Process-global counter distinguishing concurrent executions within
/// one process; together with the pid it makes every invocation's
/// staging token unique across a shared root.
static NEXT_EXEC: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Claims this invocation's staging token under `root`.
fn exec_token() -> String {
    format!(
        "exec-{}-{}",
        std::process::id(),
        NEXT_EXEC.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    )
}

/// Whether the process that owns an `exec-<pid>-*` staging directory is
/// still alive. Errs on the side of *alive* when liveness cannot be
/// determined (no `/proc`), so a concurrent executor's staging is never
/// deleted.
fn owner_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if !proc_root.is_dir() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

/// The pid embedded in an `exec-<pid>-<counter>` staging-directory name,
/// if the name follows that form.
fn staged_pid(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("exec-")?;
    let (pid, counter) = rest.split_once('-')?;
    if counter.is_empty() || !counter.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse().ok()
}

/// Removes stale staging directories left under `root` by interrupted
/// multi-pass executions: `exec-<pid>-*` tokens whose owning process is
/// gone, plus bare `pass-*` directories from the pre-token layout.
/// Directories owned by live processes — including concurrent executors
/// in this process — are left alone. Returns how many were removed.
///
/// # Errors
///
/// Returns [`PmError::Io`] if the directory cannot be scanned or a
/// stale entry cannot be removed.
pub fn clean_stale_passes(root: &Path) -> Result<u32, PmError> {
    if !root.exists() {
        return Ok(0);
    }
    let mut removed = 0;
    let entries = std::fs::read_dir(root)
        .map_err(|e| PmError::io(format!("scanning {}", root.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PmError::io(format!("scanning {}", root.display()), e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !entry.path().is_dir() {
            continue;
        }
        let stale =
            name.starts_with("pass-") || staged_pid(&name).is_some_and(|pid| !owner_alive(pid));
        if stale {
            std::fs::remove_dir_all(entry.path()).map_err(|e| {
                PmError::io(format!("removing stale {}", entry.path().display()), e)
            })?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Executes a planned merge tree pass by pass.
#[derive(Debug, Clone)]
pub struct MultiPassExecutor<'p> {
    plan: &'p MergeTreePlan,
    base: MergeConfig,
    opts: MultiPassOptions,
    backend: PassBackend,
}

impl<'p> MultiPassExecutor<'p> {
    /// Binds a plan to a base scenario, engine options, and a backend.
    /// A plan of exactly one merge runs `base` as given (its run count
    /// and length are the data's); in a larger plan the base scenario's
    /// strategy family, cache budget, disks and seed drive every derived
    /// pass scenario.
    #[must_use]
    pub fn new(
        plan: &'p MergeTreePlan,
        base: MergeConfig,
        opts: MultiPassOptions,
        backend: PassBackend,
    ) -> Self {
        MultiPassExecutor {
            plan,
            base,
            opts,
            backend,
        }
    }

    /// Runs the whole tree over `runs` (level-0 inputs, in plan order).
    ///
    /// # Errors
    ///
    /// Propagates any scenario, I/O, or parity error from a pass.
    pub fn run(&self, runs: Vec<Vec<Record>>) -> Result<MultiPassOutcome, PmError> {
        self.run_metered(runs, &NullMetrics, |_| Ok(()))
    }

    /// [`MultiPassExecutor::run`] with a metrics sink and an after-pass
    /// hook. Each group's engine execution records its per-disk
    /// observations into `metrics` (as [`MergeEngine::execute_metered`]),
    /// and each completed pass records `pm_pass_blocks_read` /
    /// `pm_pass_records_merged` under its pass label; with
    /// [`NullMetrics`] nothing is recorded.
    ///
    /// `after_pass` is called with each pass's index after its groups
    /// complete but *before* its staging directory is removed — the
    /// crash window a fault-injection test wants to hit. An error from
    /// it aborts the execution; like any graceful failure, the
    /// invocation's staging token is removed on the way out (only a hard
    /// process death leaves one behind, for a later invocation's
    /// liveness sweep).
    ///
    /// # Errors
    ///
    /// Propagates pass errors and whatever `after_pass` returns.
    pub fn run_metered<M: MetricsSink>(
        &self,
        runs: Vec<Vec<Record>>,
        metrics: &M,
        mut after_pass: impl FnMut(u32) -> Result<(), PmError>,
    ) -> Result<MultiPassOutcome, PmError> {
        if let Some(first) = self.plan.passes.first() {
            if first.run_blocks.len() != runs.len() {
                return Err(PmError::Usage(format!(
                    "plan expects {} input runs but {} were supplied",
                    first.run_blocks.len(),
                    runs.len()
                )));
            }
        }
        // This invocation's private staging root: stale leftovers are
        // swept first, then every pass stages under a token no
        // concurrent executor shares.
        let staging = match self.backend.staging_root() {
            Some(root) => {
                clean_stale_passes(root)?;
                Some(root.join(exec_token()))
            }
            None => None,
        };
        let result = self.execute_passes(runs, &mut after_pass, &staging, metrics);
        if result.is_err() {
            // This invocation is done with its token; left behind it
            // would survive every sweep for as long as the process
            // lives. Cleanup failure is secondary to the real error.
            if let Some(staging) = &staging {
                let _ = std::fs::remove_dir_all(staging);
            }
        }
        result
    }

    fn execute_passes<M: MetricsSink>(
        &self,
        runs: Vec<Vec<Record>>,
        after_pass: &mut impl FnMut(u32) -> Result<(), PmError>,
        staging: &Option<PathBuf>,
        metrics: &M,
    ) -> Result<MultiPassOutcome, PmError> {
        let mut level = runs;
        let mut passes: Vec<PassOutcome> = Vec::with_capacity(self.plan.passes.len());
        let mut trace = TreeTrace::default();
        for (p, pass) in self.plan.passes.iter().enumerate() {
            trace.begin_pass(p as u32, pass.groups.len() as u32);
            let mut out = PassOutcome {
                pass: p as u32,
                fan_in: pass.fan_in,
                inputs: level.len() as u32,
                groups: pass.groups.len() as u32,
                merged_groups: 0,
                blocks_read: 0,
                records_merged: 0,
                wall: Duration::ZERO,
                stall: Duration::ZERO,
                demand_ops: 0,
                fallback_ops: 0,
                full_prefetch_ops: 0,
                modeled_busy: SimDuration::ZERO,
                requests: 0,
                requests_matched: 0,
                predicted_busy: SimDuration::ZERO,
                predicted_read: SimDuration::ZERO,
                sim_concurrency: 0.0,
                sim_busy_disks: 0.0,
                scenario: None,
            };
            let mut conc_weight = 0.0_f64;
            let mut next: Vec<Vec<Record>> = Vec::with_capacity(pass.groups.len());
            let mut inputs_iter = level.into_iter();
            for (g, group) in pass.groups.iter().enumerate() {
                let inputs: Vec<Vec<Record>> = inputs_iter.by_ref().take(group.len).collect();
                if group.len == 1 {
                    // Passthrough: the run advances a level without I/O.
                    next.push(inputs.into_iter().next().expect("one input"));
                    continue;
                }
                let (cfg, outcome, prediction, parity) =
                    self.run_group(p, g, inputs, staging, metrics, NullSink)?;
                out.merged_groups += 1;
                out.requests += parity.total;
                out.requests_matched += parity.matched;
                out.blocks_read += outcome.report.blocks_merged;
                out.records_merged += outcome.report.records_merged;
                out.wall += outcome.report.wall;
                out.stall += outcome.report.stall;
                out.demand_ops += outcome.report.demand_ops;
                out.fallback_ops += outcome.report.fallback_ops;
                out.full_prefetch_ops += outcome.report.full_prefetch_ops;
                out.modeled_busy += outcome
                    .report
                    .per_disk_modeled_busy
                    .iter()
                    .copied()
                    .sum::<SimDuration>();
                out.predicted_busy += prediction
                    .report
                    .per_disk_busy
                    .iter()
                    .copied()
                    .sum::<SimDuration>();
                out.predicted_read += prediction.report.total;
                let weight = prediction.report.total.as_nanos() as f64;
                out.sim_concurrency += prediction.report.avg_concurrency * weight;
                out.sim_busy_disks += prediction.report.avg_busy_disks * weight;
                conc_weight += weight;
                if out.scenario.is_none() {
                    out.scenario = Some(cfg);
                }
                trace.group(outcome.events, outcome.report.wall);
                next.push(outcome.output);
            }
            if conc_weight > 0.0 {
                out.sim_concurrency /= conc_weight;
                out.sim_busy_disks /= conc_weight;
            }
            level = next;
            // The crash window: the pass's outputs exist, its staging
            // directory has not been removed yet.
            after_pass(p as u32)?;
            if let Some(staging) = &staging {
                let dir = staging.join(format!("pass-{p:02}"));
                if dir.exists() {
                    std::fs::remove_dir_all(&dir)
                        .map_err(|e| PmError::io(format!("removing {}", dir.display()), e))?;
                }
            }
            if M::ENABLED {
                metrics.pass_done(out.pass, out.blocks_read, out.records_merged);
            }
            passes.push(out);
        }
        if let Some(staging) = &staging {
            if staging.exists() {
                std::fs::remove_dir_all(staging)
                    .map_err(|e| PmError::io(format!("removing {}", staging.display()), e))?;
            }
        }
        let output = level.into_iter().next().unwrap_or_default();
        Ok(MultiPassOutcome {
            output,
            passes,
            events: EngineTrace::join(trace.segments),
        })
    }

    /// Merges group `g` of pass `p` on a fresh device of the backend
    /// family, under [`MergeTreePlan::group_scenario`], and checks the engine's
    /// requests against the simulator's replay: a divergence fails the
    /// group unless the scenario does not promise parity
    /// ([`RequestParity::promised`]). Returns the group's scenario, its
    /// execution, the prediction and the parity.
    /// Every event of the merge also goes to `sink` as it happens.
    fn run_group<M: MetricsSink, S: TraceSink>(
        &self,
        p: usize,
        g: usize,
        inputs: Vec<Vec<Record>>,
        staging: &Option<PathBuf>,
        metrics: &M,
        sink: S,
    ) -> Result<(MergeConfig, ExecOutcome, EnginePrediction, RequestParity), PmError> {
        let cfg = self.plan.group_scenario(&self.base, p, g)?;
        let mut exec = ExecConfig::new(cfg);
        exec.records_per_block = self.opts.records_per_block;
        exec.queue_depth = self.opts.queue_depth;
        exec.jobs = self.opts.jobs;
        exec.time_scale = self.opts.time_scale;
        let engine = MergeEngine::new(exec, inputs.iter().map(Vec::len).collect())?;
        let cfg = *engine.merge_config();
        // File-backed families always carry a staging token; the
        // in-memory ones ignore the directory.
        let dir = staging.as_ref().map_or_else(PathBuf::new, |s| {
            s.join(format!("pass-{p:02}")).join(format!("group-{g:02}"))
        });
        let mut queue = self.backend.open_queue(&engine, &dir)?;
        engine.load(&mut *queue, &inputs)?;
        // The queue holds the group's runs now.
        drop(inputs);
        let outcome = engine.drive(queue, metrics, sink)?;
        let prediction = engine.predict(&outcome.depletion)?;
        let parity = engine.request_parity(&outcome.requests, &prediction);
        if parity.broken() {
            return Err(PmError::Tolerance(format!(
                "pass {p} group {g}: engine per-disk request sequences \
                 diverged from the simulator's replay ({} of {} requests matched)",
                parity.matched, parity.total
            )));
        }
        Ok((cfg, outcome, prediction, parity))
    }
}

fn wall_as_sim(wall: Duration) -> SimDuration {
    SimDuration::from_nanos(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived::{assert_same_events, eager_stream};
    use pm_extsort::plan::{plan_merge_tree, PlanPolicy};
    use pm_trace::RecordingSink;

    fn uniform_runs(k: usize, per_run: usize) -> Vec<Vec<Record>> {
        // Interleave keys so every run participates until the end.
        (0..k)
            .map(|r| {
                (0..per_run)
                    .map(|i| Record::new((i * k + r) as u64, (r * per_run + i) as u64))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn two_pass_memory_merge_matches_reference() {
        let rpb = 20;
        let runs = uniform_runs(8, 100);
        let mut expect: Vec<Record> = runs.iter().flatten().copied().collect();
        expect.sort();
        let lens: Vec<u32> = runs
            .iter()
            .map(|r| (r.len() as u32).div_ceil(rpb))
            .collect();
        let plan = plan_merge_tree(&lens, 3, PlanPolicy::GreedyMax).unwrap();
        assert_eq!(plan.num_passes(), 2);
        let base = ScenarioBuilder::new(3, 2)
            .inter(2)
            .seed(11)
            .build()
            .unwrap();
        let opts = MultiPassOptions {
            records_per_block: rpb,
            ..Default::default()
        };
        let exec = MultiPassExecutor::new(&plan, base, opts, PassBackend::Memory);
        let out = exec.run(runs).unwrap();
        assert_eq!(out.output, expect);
        assert_eq!(out.passes.len(), 2);
        // Pass 0: groups [3,3,2], all merged; pass 1: one 3-way group.
        assert_eq!(out.passes[0].merged_groups, 3);
        assert_eq!(out.passes[1].merged_groups, 1);
        // Pass boundaries present and ordered in the combined stream.
        let boundaries: Vec<u32> = out
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PassBoundary { pass, .. } => Some(pass),
                _ => None,
            })
            .collect();
        assert_eq!(boundaries, vec![0, 1]);
    }

    /// `ev` moved `by` later: its stamp, and a completion's service
    /// start with it.
    fn shifted(ev: &TraceEvent, by: SimDuration) -> TraceEvent {
        let mut kind = ev.kind;
        if let EventKind::DiskSeekDone { started, .. }
        | EventKind::DiskTransferDone { started, .. } = &mut kind
        {
            *started += by;
        }
        TraceEvent {
            at: ev.at + by,
            kind,
        }
    }

    /// The tree's stream, joined from its segments, must equal the one
    /// built the old way on the same run: each group's events as recorded
    /// when they happen, shifted onto a pass-local axis, then each pass
    /// shifted onto the tree's axis.
    #[test]
    fn tree_trace_matches_the_eager_per_pass_then_per_tree_rebuild() {
        let rpb = 20;
        let runs = uniform_runs(8, 100);
        let lens: Vec<u32> = runs
            .iter()
            .map(|r| (r.len() as u32).div_ceil(rpb))
            .collect();
        let plan = plan_merge_tree(&lens, 3, PlanPolicy::GreedyMax).unwrap();
        assert_eq!(plan.num_passes(), 2);
        let base = ScenarioBuilder::new(3, 2)
            .inter(2)
            .seed(11)
            .build()
            .unwrap();
        let opts = MultiPassOptions {
            records_per_block: rpb,
            ..Default::default()
        };
        let exec = MultiPassExecutor::new(&plan, base, opts, PassBackend::Memory);

        // One run of the tree, keeping every merged group's derived trace,
        // its eager recording and its wall.
        let mut level = runs.clone();
        let mut groups_run: Vec<Vec<(EngineTrace, Vec<TraceEvent>, Duration)>> = Vec::new();
        for (p, pass) in plan.passes.iter().enumerate() {
            let mut inputs = level.into_iter();
            let mut next = Vec::new();
            let mut groups = Vec::new();
            for (g, group) in pass.groups.iter().enumerate() {
                let group_inputs: Vec<Vec<Record>> = inputs.by_ref().take(group.len).collect();
                if group.len == 1 {
                    next.extend(group_inputs);
                    continue;
                }
                let mut eager = RecordingSink::unbounded();
                let (_, outcome, _, _) = exec
                    .run_group(p, g, group_inputs, &None, &NullMetrics, &mut eager)
                    .unwrap();
                groups.push((outcome.events, eager_stream(eager), outcome.report.wall));
                next.push(outcome.output);
            }
            groups_run.push(groups);
            level = next;
        }

        let mut old = Vec::new();
        let mut tree_offset = SimDuration::ZERO;
        for (p, groups) in groups_run.iter().enumerate() {
            let mut pass_events = vec![TraceEvent {
                at: SimTime::ZERO,
                kind: EventKind::PassBoundary {
                    pass: p as u32,
                    groups: plan.passes[p].groups.len() as u32,
                },
            }];
            let mut pass_elapsed = SimDuration::ZERO;
            let mut pass_wall = Duration::ZERO;
            for (_, events, wall) in groups {
                pass_events.extend(events.iter().map(|ev| shifted(ev, pass_elapsed)));
                pass_elapsed += wall_as_sim(*wall);
                pass_wall += *wall;
            }
            old.extend(pass_events.iter().map(|ev| shifted(ev, tree_offset)));
            tree_offset += wall_as_sim(pass_wall);
        }

        let mut trace = TreeTrace::default();
        for (p, groups) in groups_run.into_iter().enumerate() {
            trace.begin_pass(p as u32, plan.passes[p].groups.len() as u32);
            for (derived, _, wall) in groups {
                trace.group(derived, wall);
            }
        }
        assert!(
            old.iter().any(
                |ev| matches!(ev.kind, EventKind::PassBoundary { pass: 1, .. })
                    && ev.at > SimTime::ZERO
            ),
            "the second pass must start past zero"
        );
        let joined = EngineTrace::join(trace.segments);
        let copy = joined.clone();
        assert_same_events(&joined, &old, "tree");
        assert_same_events(&joined, &old, "tree, second read");
        assert_same_events(&copy, &old, "tree, clone");
        // The executor's own run writes a stream of the same shape.
        assert_eq!(exec.run(runs).unwrap().events.len(), old.len());
    }

    #[test]
    fn deterministic_across_jobs() {
        let rpb = 20;
        let runs = uniform_runs(9, 60);
        let lens: Vec<u32> = runs
            .iter()
            .map(|r| (r.len() as u32).div_ceil(rpb))
            .collect();
        let plan = plan_merge_tree(&lens, 4, PlanPolicy::Balanced).unwrap();
        let base = ScenarioBuilder::new(4, 3).inter(2).seed(5).build().unwrap();
        let mut outs = Vec::new();
        for jobs in [1, 4] {
            let opts = MultiPassOptions {
                records_per_block: rpb,
                jobs,
                ..Default::default()
            };
            let exec = MultiPassExecutor::new(&plan, base, opts, PassBackend::Memory);
            outs.push(exec.run(runs.clone()).unwrap().output);
        }
        assert_eq!(outs[0], outs[1]);
    }

    /// A tree of one merge runs the base scenario as given: the same
    /// seed, depth and cap, so the same requests and output as the engine
    /// run directly.
    #[test]
    fn a_one_merge_tree_runs_the_base_scenario_verbatim() {
        let rpb = 20;
        let runs = uniform_runs(4, 100);
        let plan = plan_merge_tree(&[5; 4], 8, PlanPolicy::GreedyMax).unwrap();
        let base = ScenarioBuilder::new(4, 2)
            .inter(3)
            .seed(17)
            .build()
            .unwrap();
        let opts = MultiPassOptions {
            records_per_block: rpb,
            ..Default::default()
        };
        let exec = MultiPassExecutor::new(&plan, base, opts, PassBackend::Memory);
        let (cfg, tree, _, _) = exec
            .run_group(0, 0, runs.clone(), &None, &NullMetrics, NullSink)
            .unwrap();

        let mut direct = ExecConfig::new(base);
        direct.records_per_block = rpb;
        let engine = MergeEngine::new(direct, runs.iter().map(Vec::len).collect()).unwrap();
        assert_eq!(cfg, *engine.merge_config());
        let mut queue = PassBackend::Memory
            .open_queue(&engine, Path::new(""))
            .unwrap();
        engine.load(&mut *queue, &runs).unwrap();
        let alone = engine.execute(queue).unwrap();
        assert_eq!(tree.requests, alone.requests);
        assert_eq!(tree.output, alone.output);
    }

    #[test]
    fn single_run_needs_no_pass() {
        let runs = uniform_runs(1, 40);
        let plan = plan_merge_tree(&[2], 8, PlanPolicy::GreedyMax).unwrap();
        let base = ScenarioBuilder::new(2, 1).build().unwrap();
        let exec = MultiPassExecutor::new(
            &plan,
            base,
            MultiPassOptions {
                records_per_block: 20,
                ..Default::default()
            },
            PassBackend::Memory,
        );
        let out = exec.run(runs.clone()).unwrap();
        assert_eq!(out.output, runs[0]);
        assert!(out.passes.is_empty());
    }

    #[test]
    fn run_count_mismatch_is_rejected() {
        let plan = plan_merge_tree(&[5, 5, 5], 2, PlanPolicy::GreedyMax).unwrap();
        let base = ScenarioBuilder::new(2, 1).build().unwrap();
        let exec = MultiPassExecutor::new(
            &plan,
            base,
            MultiPassOptions::default(),
            PassBackend::Memory,
        );
        let err = exec.run(uniform_runs(2, 40)).unwrap_err();
        assert!(err.to_string().contains("input runs"), "{err}");
    }

    fn scratch_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pm-multipass-{tag}-{}-{}",
            std::process::id(),
            NEXT_EXEC.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    }

    /// Two executors running concurrently over ONE staging root must not
    /// delete each other's pass directories — the race the per-invocation
    /// token exists to prevent (each run here also cleans stale staging
    /// on entry, which previously swept the sibling's live `pass-*`).
    #[test]
    fn concurrent_executors_share_a_staging_root() {
        let rpb = 20;
        let root = scratch_root("race");
        std::fs::create_dir_all(&root).unwrap();
        let mut expects = Vec::new();
        let mut outs = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for seed in [11u64, 12, 13] {
                let root = root.clone();
                handles.push(s.spawn(move || {
                    let runs = uniform_runs(8, 100);
                    let mut expect: Vec<Record> = runs.iter().flatten().copied().collect();
                    expect.sort();
                    let lens: Vec<u32> = runs
                        .iter()
                        .map(|r| (r.len() as u32).div_ceil(rpb))
                        .collect();
                    let plan = plan_merge_tree(&lens, 3, PlanPolicy::GreedyMax).unwrap();
                    let base = ScenarioBuilder::new(3, 2)
                        .inter(2)
                        .seed(seed)
                        .build()
                        .unwrap();
                    let opts = MultiPassOptions {
                        records_per_block: rpb,
                        ..Default::default()
                    };
                    let exec =
                        MultiPassExecutor::new(&plan, base, opts, PassBackend::File { root });
                    (expect, exec.run(runs).unwrap().output)
                }));
            }
            for h in handles {
                let (expect, out) = h.join().unwrap();
                expects.push(expect);
                outs.push(out);
            }
        });
        for (expect, out) in expects.iter().zip(&outs) {
            assert_eq!(out, expect, "a concurrent executor lost staged blocks");
        }
        // Every invocation removed its own token on completion.
        let leftover: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(leftover.is_empty(), "staging left behind: {leftover:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_cleanup_spares_live_owners() {
        let root = scratch_root("stale");
        // A legacy pre-token leftover, a dead owner's token, our own
        // (live) token, and a non-staging bystander.
        let legacy = root.join("pass-00");
        let dead = root.join("exec-999999999-0");
        let live = root.join(format!("exec-{}-12345", std::process::id()));
        let other = root.join("keep-me");
        for d in [&legacy, &dead, &live, &other] {
            std::fs::create_dir_all(d).unwrap();
        }
        let removed = clean_stale_passes(&root).unwrap();
        assert_eq!(removed, 2);
        assert!(!legacy.exists() && !dead.exists());
        assert!(live.exists(), "live invocation's staging was swept");
        assert!(other.exists(), "unrelated directory was swept");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn staging_token_names_parse() {
        assert_eq!(staged_pid("exec-123-0"), Some(123));
        assert_eq!(staged_pid("exec-123-"), None);
        assert_eq!(staged_pid("exec-123"), None);
        assert_eq!(staged_pid("exec-abc-0"), None);
        assert_eq!(staged_pid("pass-00"), None);
        let token = exec_token();
        assert_eq!(staged_pid(&token), Some(std::process::id()));
    }
}
