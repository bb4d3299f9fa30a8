//! The two sort workloads: an external sort of generated records, from run
//! formation to the final merged output, timed as `pmerge exec` runs it.
//!
//! * `sort_mem_1pass` forms 64 runs and merges them in one 64-way pass on
//!   memory-backed disks; device I/O is a memcpy, so the engine's own CPU
//!   and its submit path dominate.
//! * `sort_file_2pass` merges the same runs through a balanced fan-in-8
//!   tree on file-backed disks: every block is staged and read back twice.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pm_core::{MergeConfig, ScenarioBuilder, SimDuration};
use pm_engine::{
    ExecConfig, IoQueue, MergeEngine, MultiPassExecutor, MultiPassOptions, PassBackend,
    ThreadedQueue,
};
use pm_extsort::plan::{plan_merge_tree, MergeTreePlan, PlanPolicy};
use pm_extsort::{generate, run_formation, Record};
use pm_trace::{EventKind, TraceEvent, TraceMetrics};

use crate::calib::Calibration;
use crate::check::{process_cpu_s, sorted_permutation, Digest};
use crate::metrics::{is_duration, median, quantile, ratio, Values};
use crate::timed_queue::{IoStats, TimedQueue};
use crate::{alloc, Outcome, Params};

/// Shape of a sort workload's input and merge.
#[derive(Debug, Clone, Copy)]
pub struct SortShape {
    pub records: usize,
    pub run_records: usize,
    pub disks: u32,
    /// Inter-run prefetch depth N of the single-pass merge and of the
    /// multi-pass base scenario.
    pub inter_n: u32,
    /// Fan-in cap of the multi-pass plan.
    pub fan_in: u32,
    pub records_per_block: u32,
}

impl SortShape {
    /// 4 M uniform 16-byte records (64 MB) in 64 runs of 62 500, merged on
    /// 8 disks with inter-run N=4 and 40 records per block.
    pub const FULL: SortShape = SortShape {
        records: 4_000_000,
        run_records: 62_500,
        disks: 8,
        inter_n: 4,
        fan_in: 8,
        records_per_block: 40,
    };

    /// The same merge structure over 500-record runs, for tests.
    pub const SMALL: SortShape = SortShape {
        records: 32_000,
        run_records: 500,
        ..SortShape::FULL
    };

    fn run_lengths(&self) -> Vec<usize> {
        (0..self.records.div_ceil(self.run_records))
            .map(|r| self.run_records.min(self.records - r * self.run_records))
            .collect()
    }

    fn run_blocks(&self) -> Vec<u32> {
        let rpb = self.records_per_block as usize;
        self.run_lengths()
            .iter()
            .map(|&len| len.div_ceil(rpb) as u32)
            .collect()
    }

    fn input_blocks(&self) -> u64 {
        self.run_blocks().iter().map(|&b| u64::from(b)).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortKind {
    MemSinglePass,
    FileTwoPass,
}

/// The generated input and its multiset digest, made outside every timed
/// window.
pub struct Input {
    records: Vec<Record>,
    digest: Digest,
}

impl Input {
    pub fn generate(shape: &SortShape, seed: u64) -> Input {
        let records = generate::uniform(shape.records, seed);
        let digest = Digest::of(&records);
        Input { records, digest }
    }
}

/// Where a file-backed sort stages its passes: a fresh directory per
/// benchmark run under the working directory, removed on drop, also when
/// the run fails.
pub struct Stage {
    dir: PathBuf,
}

const STAGE_ROOT: &str = ".perfbench_stage";

impl Stage {
    pub fn create() -> Result<Stage, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(STAGE_ROOT).join(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Stage { dir })
    }

    /// Staging directories `MultiPassExecutor` left behind.
    fn leftovers(&self) -> Result<Vec<String>, String> {
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| format!("scanning the stage: {e}"))?;
        let mut names = Vec::new();
        for entry in entries {
            let name = entry
                .map_err(|e| format!("scanning the stage: {e}"))?
                .file_name()
                .to_string_lossy()
                .into_owned();
            if name.starts_with("exec-") {
                names.push(name);
            }
        }
        Ok(names)
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Fails, harmlessly, while another run still stages under it.
        let _ = std::fs::remove_dir(STAGE_ROOT);
    }
}

/// The program objects built once per run, before the first sort (one per
/// run, so the variants' sizes do not matter).
#[allow(clippy::large_enum_variant)]
enum Pipeline {
    SinglePass(MergeEngine),
    TwoPass {
        plan: MergeTreePlan,
        base: MergeConfig,
        opts: MultiPassOptions,
        stage: Stage,
    },
}

/// One timed sort.
struct Op {
    secs: f64,
    cpu_s: f64,
    peak_bytes: usize,
    /// Modeled merge seconds, compared bit for bit across operations.
    model_s: f64,
    /// Blocks merged, summed over passes.
    blocks: u64,
    /// Per-layer figures (traced operations only).
    layers: Values,
    /// Calibration scale for the machine's speed around this sort.
    scale: f64,
}

impl Pipeline {
    fn new(kind: SortKind, shape: &SortShape, seed: u64) -> Result<Pipeline, String> {
        let runs = shape.run_lengths();
        let k = runs.len() as u32;
        match kind {
            SortKind::MemSinglePass => {
                let cfg = ScenarioBuilder::new(k, shape.disks)
                    .inter(shape.inter_n)
                    .seed(seed)
                    .build()
                    .map_err(|e| e.to_string())?;
                let mut exec = ExecConfig::new(cfg);
                exec.records_per_block = shape.records_per_block;
                exec.jobs = 1;
                let engine = MergeEngine::new(exec, runs).map_err(|e| e.to_string())?;
                Ok(Pipeline::SinglePass(engine))
            }
            SortKind::FileTwoPass => {
                let stage = Stage::create()?;
                let plan = plan_merge_tree(&shape.run_blocks(), shape.fan_in, PlanPolicy::Balanced)
                    .map_err(|e| e.to_string())?;
                // As `pmerge exec --fan-in` does: the base scenario is sized
                // for one full-width group, and every pass derives its own.
                let base = ScenarioBuilder::new(shape.fan_in.min(k), shape.disks)
                    .inter(shape.inter_n)
                    .seed(seed)
                    .build()
                    .map_err(|e| e.to_string())?;
                let opts = MultiPassOptions {
                    records_per_block: shape.records_per_block,
                    queue_depth: 0,
                    jobs: 1,
                    time_scale: 1.0,
                };
                Ok(Pipeline::TwoPass {
                    plan,
                    base,
                    opts,
                    stage,
                })
            }
        }
    }

    fn sort(&self, shape: &SortShape, input: &Input, traced: bool) -> Result<Op, String> {
        match self {
            Pipeline::SinglePass(engine) => single_pass(engine, shape, input, traced),
            Pipeline::TwoPass {
                plan,
                base,
                opts,
                stage,
            } => two_pass(plan, *base, *opts, stage, shape, input, traced),
        }
    }
}

fn single_pass(
    engine: &MergeEngine,
    shape: &SortShape,
    input: &Input,
    traced: bool,
) -> Result<Op, String> {
    let expected_blocks = shape.input_blocks();
    let io = traced.then(|| Arc::new(Mutex::new(IoStats::with_capacity(expected_blocks as usize))));
    let cpu0 = process_cpu_s()?;
    let heap0 = alloc::reset_peak();
    let t0 = Instant::now();
    let runs = run_formation::load_sort(&input.records, shape.run_records);
    let t_formed = Instant::now();
    let mut queue = ThreadedQueue::memory(
        engine.merge_config().disks as usize,
        engine.block_bytes(),
        engine.queue_options(),
    );
    engine.load(&mut queue, &runs).map_err(|e| e.to_string())?;
    drop(runs);
    let t_loaded = Instant::now();
    let (allocs0, bytes0) = alloc::counts();
    let queue: Box<dyn IoQueue> = match &io {
        Some(stats) => Box::new(TimedQueue::new(Box::new(queue), Arc::clone(stats))),
        None => Box::new(queue),
    };
    let outcome = engine.execute(queue).map_err(|e| e.to_string())?;
    let t_merged = Instant::now();
    let (allocs1, bytes1) = alloc::counts();
    let prediction = engine
        .predict(&outcome.depletion)
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let peak_bytes = alloc::peak().saturating_sub(heap0);
    let cpu_s = process_cpu_s()? - cpu0;

    sorted_permutation(&outcome.output, input.digest)?;
    let report = &outcome.report;
    if report.blocks_merged != expected_blocks {
        return Err(format!(
            "merged {} blocks, expected {expected_blocks}",
            report.blocks_merged
        ));
    }
    if outcome.requests != prediction.requests {
        return Err("engine request sequences diverged from the simulator's replay".into());
    }

    let mut layers = Values::new();
    if let Some(io) = io {
        let merge_s = (t_merged - t_loaded).as_secs_f64();
        let blocks = report.blocks_merged as f64;
        let requests: u64 = report.per_disk_requests.iter().sum();
        let sequential: u64 = report.per_disk_sequential.iter().sum();
        formation_layers(&mut layers, shape, (t_formed - t0).as_secs_f64(), 1, blocks);
        layers.insert("engine.load_s", (t_loaded - t_formed).as_secs_f64());
        layers.insert("engine.merge_s", merge_s);
        layers.insert("engine.ns_per_block", merge_s * 1e9 / blocks);
        layers.insert(
            "engine.stall_frac",
            ratio(report.stall.as_secs_f64(), report.wall.as_secs_f64()),
        );
        layers.insert(
            "engine.allocs_per_block",
            (allocs1 - allocs0) as f64 / blocks,
        );
        layers.insert(
            "engine.alloc_bytes_per_block",
            (bytes1 - bytes0) as f64 / blocks,
        );
        layers.insert(
            "engine.events_per_block",
            outcome.events.len() as f64 / blocks,
        );
        layers.insert("engine.predict_s", (t1 - t_merged).as_secs_f64());
        decision_layers(
            &mut layers,
            report.demand_ops,
            report.fallback_ops,
            report.full_prefetch_ops,
            ratio(sequential as f64, requests as f64),
        );
        let io = io
            .lock()
            .expect("a thread panicked while holding the I/O stats");
        layers.insert("engine.self_s", merge_s - io.inside_ns() as f64 / 1e9);
        io_layers(&mut layers, &io, &outcome.events);
    }
    Ok(Op {
        secs: (t1 - t0).as_secs_f64(),
        cpu_s,
        peak_bytes,
        model_s: prediction.report.total.as_secs_f64(),
        blocks: report.blocks_merged,
        layers,
        scale: 1.0,
    })
}

fn two_pass(
    plan: &MergeTreePlan,
    base: MergeConfig,
    opts: MultiPassOptions,
    stage: &Stage,
    shape: &SortShape,
    input: &Input,
    traced: bool,
) -> Result<Op, String> {
    let cpu0 = process_cpu_s()?;
    let heap0 = alloc::reset_peak();
    let t0 = Instant::now();
    let runs = run_formation::load_sort(&input.records, shape.run_records);
    let t_formed = Instant::now();
    let backend = PassBackend::File {
        root: stage.dir.clone(),
    };
    let result = MultiPassExecutor::new(plan, base, opts, backend).run(runs);
    let t1 = Instant::now();
    let peak_bytes = alloc::peak().saturating_sub(heap0);
    let cpu_s = process_cpu_s()? - cpu0;

    // Checked before the result: a failed run must not leave staging either.
    let leftovers = stage.leftovers()?;
    if !leftovers.is_empty() {
        return Err(format!("staging left behind: {leftovers:?}"));
    }
    let out = result.map_err(|e| e.to_string())?;
    sorted_permutation(&out.output, input.digest)?;
    let blocks: u64 = out.passes.iter().map(|p| p.blocks_read).sum();
    let expected = tree_blocks(plan, shape);
    if blocks != expected {
        return Err(format!("merged {blocks} blocks, expected {expected}"));
    }

    let mut layers = Values::new();
    if traced {
        let wall: f64 = out.passes.iter().map(|p| p.wall.as_secs_f64()).sum();
        let stall: f64 = out.passes.iter().map(|p| p.stall.as_secs_f64()).sum();
        let pass_wall = |i: usize| out.passes.get(i).map_or(0.0, |p| p.wall.as_secs_f64());
        let (reads, sequential) =
            out.events
                .iter()
                .fold((0u64, 0u64), |(n, s), ev| match ev.kind {
                    EventKind::DiskTransferDone {
                        output: false,
                        sequential,
                        ..
                    } => (n + 1, s + u64::from(sequential)),
                    _ => (n, s),
                });
        let blocks = blocks as f64;
        formation_layers(
            &mut layers,
            shape,
            (t_formed - t0).as_secs_f64(),
            plan.num_passes(),
            blocks,
        );
        layers.insert("engine.merge_s", wall);
        layers.insert("engine.ns_per_block", wall * 1e9 / blocks);
        layers.insert("engine.stall_frac", ratio(stall, wall));
        layers.insert("engine.events_per_block", out.events.len() as f64 / blocks);
        decision_layers(
            &mut layers,
            out.passes.iter().map(|p| p.demand_ops).sum(),
            out.passes.iter().map(|p| p.fallback_ops).sum(),
            out.passes.iter().map(|p| p.full_prefetch_ops).sum(),
            ratio(sequential as f64, reads as f64),
        );
        layers.insert("multipass.pass1_s", pass_wall(0));
        layers.insert("multipass.pass2_s", pass_wall(1));
        layers.insert("multipass.stall_frac", ratio(stall, wall));
        layers.insert("multipass.staging_s", (t1 - t_formed).as_secs_f64() - wall);
    }
    Ok(Op {
        secs: (t1 - t0).as_secs_f64(),
        cpu_s,
        peak_bytes,
        model_s: out
            .passes
            .iter()
            .map(|p| p.predicted_read)
            .sum::<SimDuration>()
            .as_secs_f64(),
        blocks,
        layers,
        scale: 1.0,
    })
}

/// Blocks a merge tree reads over the workload's records. The plan's own
/// total counts whole input blocks per group output, which overstates
/// passes after the first when runs end in a partial block.
fn tree_blocks(plan: &MergeTreePlan, shape: &SortShape) -> u64 {
    let rpb = shape.records_per_block as usize;
    let mut level = shape.run_lengths();
    let mut blocks = 0u64;
    for pass in &plan.passes {
        let mut next = Vec::with_capacity(pass.groups.len());
        for group in &pass.groups {
            let inputs = &level[group.start..group.start + group.len];
            if group.len > 1 {
                blocks += inputs.iter().map(|&r| r.div_ceil(rpb) as u64).sum::<u64>();
            }
            next.push(inputs.iter().sum());
        }
        level = next;
    }
    blocks
}

fn formation_layers(layers: &mut Values, shape: &SortShape, secs: f64, passes: usize, blocks: f64) {
    layers.insert("extsort.formation_s", secs);
    layers.insert("extsort.runs", shape.run_lengths().len() as f64);
    layers.insert("extsort.plan_passes", passes as f64);
    layers.insert(
        "extsort.read_amplification",
        blocks / shape.input_blocks() as f64,
    );
}

fn decision_layers(layers: &mut Values, demand: u64, fallback: u64, full: u64, seq: f64) {
    layers.insert("engine.demand_ops", demand as f64);
    layers.insert("engine.fallback_ops", fallback as f64);
    layers.insert("engine.success_ratio", ratio(full as f64, demand as f64));
    layers.insert("engine.sequential_frac", seq);
}

fn io_layers(layers: &mut Values, io: &IoStats, events: &[TraceEvent]) {
    let us = |ns: &[u64], q: f64| {
        let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
        quantile(&v, q)
    };
    layers.insert("io.requests", io.requests as f64);
    layers.insert("io.submit_calls", io.submit_calls as f64);
    layers.insert(
        "io.submit_batch",
        ratio(io.requests as f64, io.submit_calls as f64),
    );
    layers.insert("io.submit_s", io.submit_ns as f64 / 1e9);
    layers.insert("io.complete_wait_s", io.wait_ns as f64 / 1e9);
    layers.insert("io.complete_poll_s", io.poll_ns as f64 / 1e9);
    layers.insert(
        "io.reap_batch",
        ratio(io.reaped as f64, (io.wait_calls + io.poll_calls) as f64),
    );
    layers.insert("io.queue_wait_us.p50", us(&io.queue_wait_ns, 0.5));
    layers.insert("io.queue_wait_us.p99", us(&io.queue_wait_ns, 0.99));
    layers.insert("io.service_us.p50", us(&io.service_ns, 0.5));
    layers.insert("io.service_us.p99", us(&io.service_ns, 0.99));
    let rollup = TraceMetrics::from_events(events);
    let end = rollup.span_end.as_nanos() as f64;
    let depths: Vec<f64> = rollup
        .input_disks
        .iter()
        .filter_map(|lane| lane.queue_depth.average_until(end))
        .collect();
    layers.insert(
        "io.queue_depth_mean",
        ratio(depths.iter().sum(), depths.len() as f64),
    );
}

/// Runs a sort workload: set-up (program constructors plus one untimed
/// warm-up sort), then sorts for `p.seconds`, one at a time. A traced run
/// alternates plain and instrumented sorts.
pub fn run(kind: SortKind, shape: &SortShape, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let input = Input::generate(shape, p.seed);
    let mut cal = Calibration::new();

    let t = Instant::now();
    let pipeline = match Pipeline::new(kind, shape, p.seed) {
        Ok(pipeline) => pipeline,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let constructors_s = t.elapsed().as_secs_f64();
    out.attempted += 1;
    let warm = pipeline.sort(shape, &input, false);
    let scale = cal.scale();
    let mut reference: Option<u64> = None;
    match warm {
        Ok(op) => {
            out.setup_s = Some((constructors_s + op.secs) * scale);
            reference = Some(op.model_s.to_bits());
        }
        Err(e) => out.fail(format!("warm-up sort: {e}")),
    }
    if p.setup_only {
        return out;
    }

    let min_ops = if p.trace { 2 } else { 3 };
    let mut plain: Vec<Op> = Vec::new();
    let mut traced: Vec<Op> = Vec::new();
    let started = Instant::now();
    loop {
        let time_up = started.elapsed().as_secs_f64() >= p.seconds;
        let enough = plain.len() >= min_ops && (!p.trace || traced.len() >= min_ops);
        if time_up && (enough || out.failed > 0) {
            break;
        }
        let trace_this = p.trace && traced.len() < plain.len();
        out.attempted += 1;
        let result = pipeline.sort(shape, &input, trace_this);
        let scale = cal.scale();
        let result = result.and_then(|op| {
            let bits = *reference.get_or_insert(op.model_s.to_bits());
            if op.model_s.to_bits() == bits {
                Ok(Op { scale, ..op })
            } else {
                Err(format!(
                    "model_merge_s {} differs from the run's first sort {}",
                    op.model_s,
                    f64::from_bits(bits)
                ))
            }
        });
        match result {
            Ok(op) if trace_this => traced.push(op),
            Ok(op) => plain.push(op),
            Err(e) => out.fail(e),
        }
    }

    let model_s = reference.map_or(0.0, f64::from_bits);
    let per_op =
        |ops: &[Op], f: &dyn Fn(&Op) -> f64| median(&ops.iter().map(f).collect::<Vec<_>>());
    if p.trace {
        // Every layer figure from one traced sort, so they add up: the one
        // at the median calibrated time.
        traced.sort_by(|a, b| (a.secs * a.scale).total_cmp(&(b.secs * b.scale)));
        if let Some(op) = traced.get(traced.len() / 2) {
            out.values.extend(
                op.layers
                    .iter()
                    .map(|(&name, &v)| (name, if is_duration(name) { v * op.scale } else { v })),
            );
        }
        let secs = |ops: &[Op]| per_op(ops, &|o| o.secs * o.scale);
        out.values
            .insert("trace.overhead", ratio(secs(&traced), secs(&plain)) - 1.0);
        out.values.insert("trace.model_merge_s", model_s);
        let all: Vec<f64> = plain.iter().chain(&traced).map(|o| o.scale).collect();
        out.values.insert("bench.machine_speed", median(&all));
    } else {
        let records = shape.records as f64;
        out.values.insert(
            "sort_records_per_s",
            per_op(&plain, &|o| records / (o.secs * o.scale)),
        );
        out.values.insert(
            "sim_blocks_per_s",
            per_op(&plain, &|o| o.blocks as f64 / (o.secs * o.scale)),
        );
        out.values.insert("model_merge_s", model_s);
        out.values.insert(
            "peak_heap_mb",
            per_op(&plain, &|o| o.peak_bytes as f64 / 1e6),
        );
        out.values.insert(
            "cpu_ns_per_record",
            per_op(&plain, &|o| o.cpu_s * o.scale * 1e9 / records),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrapper is transparent: wrapped and bare queues yield the
    /// same output, depletion sequence and per-disk request sequences.
    #[test]
    fn timed_queue_is_transparent() {
        let shape = SortShape::SMALL;
        let input = Input::generate(&shape, 7);
        let Pipeline::SinglePass(engine) =
            Pipeline::new(SortKind::MemSinglePass, &shape, 7).unwrap()
        else {
            unreachable!("single-pass pipeline")
        };
        let runs = run_formation::load_sort(&input.records, shape.run_records);
        let execute = |wrap: bool| {
            let mut queue = ThreadedQueue::memory(
                engine.merge_config().disks as usize,
                engine.block_bytes(),
                engine.queue_options(),
            );
            engine.load(&mut queue, &runs).unwrap();
            let stats = Arc::new(Mutex::new(IoStats::with_capacity(0)));
            let queue: Box<dyn IoQueue> = if wrap {
                Box::new(TimedQueue::new(Box::new(queue), Arc::clone(&stats)))
            } else {
                Box::new(queue)
            };
            let outcome = engine.execute(queue).unwrap();
            let requests = stats.lock().unwrap().requests;
            (outcome, requests)
        };
        let (bare, _) = execute(false);
        let (wrapped, seen) = execute(true);
        assert_eq!(bare.output, wrapped.output);
        assert_eq!(bare.depletion, wrapped.depletion);
        assert_eq!(bare.requests, wrapped.requests);
        assert_eq!(seen, bare.report.per_disk_requests.iter().sum::<u64>());
    }

    #[test]
    fn stage_is_removed_on_drop() {
        let stage = Stage::create().unwrap();
        let dir = stage.dir.clone();
        std::fs::create_dir_all(dir.join("exec-1-0")).unwrap();
        assert_eq!(stage.leftovers().unwrap(), vec!["exec-1-0".to_string()]);
        drop(stage);
        assert!(!dir.exists());
    }
}
