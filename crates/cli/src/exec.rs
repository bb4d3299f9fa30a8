//! `pmerge exec` — end-to-end external sort on the real-I/O engine.
//!
//! Generates records, forms sorted runs (the pm-extsort run-formation
//! pass), then merges them through [`pm_engine::MergeEngine`] against a
//! pluggable [`IoQueue`] backend:
//!
//! - `mem`         — in-memory golden reference
//! - `file`        — one file per simulated disk, real positioned reads
//! - `file-direct` — the file backend reading through `O_DIRECT`
//! - `latency`     — deterministic per-request delays from the pm-disk
//!   service model, for sim-vs-engine cross-validation
//! - `uring`       — io_uring + `O_DIRECT` with registered buffers
//!   (`--features uring`; probed at runtime, falling back to `file`)
//!
//! `--queue-depth` bounds the per-disk I/O queue (0 = the scenario's
//! prefetch depth).
//!
//! Every run is verified against the in-memory reference (key order plus
//! multiset equality with the input) and cross-checked against the
//! discrete-event simulator: replaying the engine's depletion sequence
//! must re-derive the exact per-disk request sequences, and on the
//! latency backend the modeled per-disk busy time must match the
//! simulator's prediction within `--tol-exec`. A failed check exits 1
//! ([`PmError::Tolerance`]); usage errors exit 2.

use std::sync::Arc;

use pm_core::{ConfigError, PmError, PrefetchStrategy, ScenarioBuilder, SyncMode};
use pm_engine::{
    disk_seed_for, ExecConfig, ExecOutcome, IoQueue, MergeEngine, MultiPassExecutor,
    MultiPassOptions, MultiPassOutcome, PassBackend, ThreadedQueue, RECORD_BYTES,
};
use pm_extsort::plan::{plan_merge_tree, PlanPolicy};
use pm_extsort::{generate, Record, RunFormation};
use pm_metrics::StackMetrics;
use pm_obs::{
    Bound, DiskRollup, ManifestRecord, PointMetrics, RecordKind, ResidualCheck, TraceRollup,
    SCHEMA_VERSION,
};
use pm_report::{Align, Table};
use pm_trace::{export, TraceMetrics};
use pm_workload::spec::ScenarioSpec;

use crate::args::Args;
use crate::metrics::MetricsArgs;
use crate::plan::{fan_in_flags, run_blocks};

/// Flags `exec` accepts (see the usage text for semantics).
const EXEC_KEYS: &[&str] = &[
    // Workload and run formation.
    "records", "memory", "formation", "rpb",
    // Scenario (run count comes from formation, not --runs).
    "disks", "strategy", "n", "cache", "sync", "admission", "choice", "cap", "layout", "seed",
    // Execution.
    "backend", "dir", "jobs", "queue-depth", "time-scale",
    // Multi-pass planning (presence of either selects the multi-pass path).
    "fan-in", "passes", "plan-policy",
    // Outputs and checks.
    "out", "trace-out", "trace-format", "manifest-out", "tol-exec",
    "metrics-out", "metrics-interval",
];

/// Runs the engine through the metered entry point when `--metrics-out`
/// asked for a sink, the plain one otherwise.
fn execute_with(
    engine: &MergeEngine,
    queue: Box<dyn IoQueue>,
    metrics: Option<&StackMetrics>,
) -> Result<ExecOutcome, PmError> {
    match metrics {
        Some(m) => engine.execute_metered(queue, m),
        None => engine.execute(queue),
    }
}

/// Which I/O queue backs the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Memory,
    File,
    FileDirect,
    Latency,
    Uring,
}

impl Backend {
    fn parse(s: &str) -> Result<Self, PmError> {
        match s {
            "mem" | "memory" => Ok(Backend::Memory),
            "file" => Ok(Backend::File),
            "file-direct" | "direct" => Ok(Backend::FileDirect),
            "latency" => Ok(Backend::Latency),
            "uring" | "io_uring" => Ok(Backend::Uring),
            other => Err(PmError::Usage(format!(
                "unknown backend '{other}' (mem | file | file-direct | latency | uring)"
            ))),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Backend::Memory => "mem",
            Backend::File => "file",
            Backend::FileDirect => "file-direct",
            Backend::Latency => "latency",
            Backend::Uring => "uring",
        }
    }

    /// Backends whose reads bypass the page cache and therefore need
    /// 512-byte-aligned blocks.
    fn needs_alignment(self) -> bool {
        matches!(self, Backend::FileDirect | Backend::Uring)
    }

    /// Backends that stage blocks in disk files.
    fn uses_files(self) -> bool {
        matches!(self, Backend::File | Backend::FileDirect | Backend::Uring)
    }
}

#[cfg(feature = "uring")]
fn uring_supported() -> bool {
    pm_engine::uring_available()
}

#[cfg(not(feature = "uring"))]
fn uring_supported() -> bool {
    false
}

/// Downgrades `uring` to `file` (with a visible notice) when the build
/// or the kernel can't serve it.
fn resolve_uring(backend: Backend) -> Backend {
    if backend != Backend::Uring || uring_supported() {
        return backend;
    }
    if cfg!(feature = "uring") {
        println!("uring backend unavailable: io_uring setup probe failed on this kernel; falling back to the file backend");
    } else {
        println!("uring backend not compiled in (rebuild with --features uring); falling back to the file backend");
    }
    Backend::File
}

/// `pmerge exec`
pub fn exec(args: &Args) -> Result<(), PmError> {
    args.check_known(EXEC_KEYS)?;
    let backend = resolve_uring(Backend::parse(args.get("backend").unwrap_or("mem"))?);
    let records: usize = args.get_parsed("records", 50_000usize)?;
    let memory: usize = args.get_parsed("memory", 5_000usize)?;
    if records == 0 || memory == 0 {
        return Err(PmError::Usage("--records and --memory must be positive".into()));
    }
    // O_DIRECT backends need 512-byte-aligned blocks: 32 records/block
    // (512 B) aligns, the classic 40 (640 B) does not.
    let rpb: u32 = args.get_parsed("rpb", if backend.needs_alignment() { 32 } else { 40 })?;
    let seed: u64 = args.get_parsed("seed", 1992)?;
    let tol_exec: f64 = args.get_parsed("tol-exec", 0.02)?;
    if !(tol_exec.is_finite() && tol_exec > 0.0) {
        return Err(PmError::Usage("--tol-exec must be positive".into()));
    }

    // Phase 1: run formation (the sort's first pass).
    let formation = RunFormation::parse(args.get("formation").unwrap_or("load-sort"))?;
    let input = generate::uniform(records, seed);
    let runs = formation.form(&input, memory);

    // Multi-pass path: the user bounded the fan-in (or the pass count).
    if fan_in_flags(args, runs.len() as u32)?.is_some() {
        return exec_multipass(args, backend, &input, runs, rpb, seed, tol_exec);
    }

    // Phase 2: plan the merge. The run count comes from the data.
    let cfg = scenario_for(args, runs.len() as u32, seed)
        .map_err(|e| fan_in_hint(args, e, runs.len() as u32))?;
    let mut exec_cfg = ExecConfig::new(cfg);
    exec_cfg.records_per_block = rpb;
    exec_cfg.queue_depth = args.get_parsed("queue-depth", 0usize)?;
    exec_cfg.jobs = args.get_parsed("jobs", 0usize)?;
    exec_cfg.time_scale = args.get_parsed("time-scale", 1.0f64)?;
    let engine = MergeEngine::new(exec_cfg, runs.iter().map(Vec::len).collect())?;
    let cfg = *engine.merge_config();
    println!(
        "formed {} runs from {} records ({} per block); merging on {} disks, {} {} (N={}), cache {} blocks, {} backend",
        runs.len(),
        records,
        rpb,
        cfg.disks,
        cfg.strategy.label(),
        cfg.sync.label(),
        cfg.strategy.depth(),
        cfg.cache_blocks,
        backend.label(),
    );

    // Phase 3: execute against the chosen device.
    let disks = cfg.disks as usize;
    let metrics_args = MetricsArgs::from_args(args)?;
    let metrics = metrics_args
        .as_ref()
        .map(|_| Arc::new(StackMetrics::new(disks, &[])));
    let live = metrics_args
        .as_ref()
        .zip(metrics.as_ref())
        .map(|(ma, m)| ma.live(m));
    let opts = engine.queue_options();
    let dir = backend.uses_files().then(|| match args.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("pmerge-exec-{}", std::process::id())),
    });
    let outcome = {
        let mut queue: Box<dyn IoQueue> = match backend {
            Backend::Memory => {
                Box::new(ThreadedQueue::memory(disks, engine.block_bytes(), opts))
            }
            Backend::File => {
                let dir = dir.as_ref().expect("file backend has a dir");
                Box::new(
                    ThreadedQueue::file(dir, disks, engine.block_bytes(), opts).map_err(
                        |e| PmError::io(format!("cannot create '{}'", dir.display()), e),
                    )?,
                )
            }
            Backend::FileDirect => {
                let dir = dir.as_ref().expect("file-direct backend has a dir");
                Box::new(ThreadedQueue::file_direct(
                    dir,
                    disks,
                    engine.block_bytes(),
                    opts,
                )?)
            }
            Backend::Latency => Box::new(ThreadedQueue::latency(
                disks,
                engine.block_bytes(),
                cfg.disk_spec,
                cfg.discipline,
                disk_seed_for(&cfg),
                opts,
            )),
            #[cfg(feature = "uring")]
            Backend::Uring => {
                let dir = dir.as_ref().expect("uring backend has a dir");
                Box::new(pm_engine::UringQueue::create(
                    dir,
                    disks,
                    engine.block_bytes(),
                    opts.depth,
                )?)
            }
            #[cfg(not(feature = "uring"))]
            Backend::Uring => unreachable!("resolve_uring downgraded the backend"),
        };
        engine.load(&mut *queue, &runs)?;
        // The queue holds the runs now.
        drop(runs);
        execute_with(&engine, queue, metrics.as_deref())?
    };
    if let Some(dir) = &dir {
        println!("device files under {}", dir.display());
        if args.get("dir").is_none() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    if let Some(live) = live {
        live.finish();
    }

    // Phase 4: verify against the in-memory reference.
    verify_output(&outcome.output, &input)?;
    println!(
        "verified: {} records merged in key order, multiset-identical to the input",
        outcome.output.len()
    );

    // Phase 5: cross-check against the discrete-event simulator.
    let prediction = engine.predict(&outcome.depletion)?;
    if outcome.requests != prediction.requests {
        return Err(PmError::Tolerance(
            "engine request sequences diverged from the simulator's replay".into(),
        ));
    }
    println!(
        "sim cross-check: simulator re-derives all {} per-disk requests exactly",
        outcome.report.per_disk_requests.iter().sum::<u64>()
    );
    let residual = (backend == Backend::Latency).then(|| {
        let predicted: f64 = prediction
            .report
            .per_disk_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        let measured: f64 = outcome
            .report
            .per_disk_modeled_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        ResidualCheck::evaluate("engine-read-time", predicted, measured, tol_exec, Bound::TwoSided)
    });

    print_report(&outcome, &prediction.report);
    if let Some(r) = &residual {
        println!(
            "latency model: measured busy {:.3}s vs predicted {:.3}s (ratio {:.4}) -> {}",
            r.predicted * r.ratio,
            r.predicted,
            r.ratio,
            if r.pass { "pass" } else { "FAIL" },
        );
    }

    // Phase 6: exports.
    if let Some(path) = args.get("out") {
        write_output(path, &outcome.output)?;
        println!("wrote {path} ({} records)", outcome.output.len());
    }
    if let Some(path) = args.get("trace-out") {
        let rendered = match args.get("trace-format").unwrap_or("chrome") {
            "chrome" => export::chrome_trace_json(&outcome.events),
            "csv" => export::csv(&outcome.events),
            "gantt" => export::gantt(&outcome.events, &export::GanttOptions::default()),
            other => {
                return Err(PmError::Usage(format!(
                    "unknown trace format '{other}' (chrome | csv | gantt)"
                )))
            }
        };
        std::fs::write(path, rendered)
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("manifest-out") {
        let record = manifest_record(backend, &engine, &outcome, &prediction.report, &residual);
        let mut line = record.to_json_line();
        line.push('\n');
        std::fs::write(path, line)
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote {path}");
    }
    if let (Some(ma), Some(m)) = (&metrics_args, &metrics) {
        ma.write(m)?;
    }

    match residual {
        Some(r) if !r.pass => Err(PmError::Tolerance(format!(
            "engine read time off the simulator's prediction by {:.1}% (tolerance {:.1}%)",
            (r.ratio - 1.0).abs() * 100.0,
            tol_exec * 100.0,
        ))),
        _ => Ok(()),
    }
}

/// Maps the cache-validation failure for an over-wide merge onto
/// [`ConfigError::FanInExceeded`], which tells the user how wide the
/// cache can actually go and points at `pmerge plan`.
fn fan_in_hint(args: &Args, err: PmError, runs: u32) -> PmError {
    match err {
        PmError::Config(ConfigError::CacheTooSmall { have, need }) => match parse_strategy(args) {
            Ok(strategy) => {
                let fan_in = ScenarioBuilder::max_feasible_fan_in(have, strategy);
                if fan_in < runs {
                    ConfigError::FanInExceeded { runs, fan_in }.into()
                } else {
                    PmError::Config(ConfigError::CacheTooSmall { have, need })
                }
            }
            Err(e) => e,
        },
        e => e,
    }
}

/// `pmerge exec --fan-in F` / `--passes P`: plan a merge tree, execute
/// it pass by pass, verify the final output, and report per-pass costs.
fn exec_multipass(
    args: &Args,
    backend: Backend,
    input: &[Record],
    runs: Vec<Vec<Record>>,
    rpb: u32,
    seed: u64,
    tol_exec: f64,
) -> Result<(), PmError> {
    let k = runs.len() as u32;
    let fan_in_cap = fan_in_flags(args, k)?.expect("exec checked --fan-in or --passes");
    let policy = PlanPolicy::parse(args.get("plan-policy").unwrap_or("greedy-max"))?;
    let plan = plan_merge_tree(&run_blocks(&runs, rpb), fan_in_cap, policy)?;

    // The base scenario is sized for one full-width group; every pass
    // derives its own depth/cap/seed from it.
    let base = scenario_for(args, fan_in_cap.min(k), seed)
        .map_err(|e| fan_in_hint(args, e, fan_in_cap.min(k)))?;
    let opts = MultiPassOptions {
        records_per_block: rpb,
        queue_depth: args.get_parsed("queue-depth", 0usize)?,
        jobs: args.get_parsed("jobs", 0usize)?,
        time_scale: args.get_parsed("time-scale", 1.0f64)?,
    };
    let (pass_backend, temp_dir) = match backend {
        Backend::Memory => (PassBackend::Memory, None),
        Backend::Latency => (PassBackend::Latency, None),
        Backend::File | Backend::FileDirect | Backend::Uring => {
            let root = match args.get("dir") {
                Some(d) => std::path::PathBuf::from(d),
                None => std::env::temp_dir().join(format!("pmerge-exec-{}", std::process::id())),
            };
            let temp = args.get("dir").is_none().then(|| root.clone());
            let pb = match backend {
                Backend::File => PassBackend::File { root },
                Backend::FileDirect => PassBackend::FileDirect { root },
                _ => PassBackend::Uring { root },
            };
            (pb, temp)
        }
    };
    println!(
        "formed {} runs from {} records ({} per block); {} plan: fan-in {} (cap {}), {} passes, {} blocks read per the plan; {} backend",
        k,
        input.len(),
        rpb,
        policy.label(),
        plan.fan_in,
        fan_in_cap,
        plan.num_passes(),
        plan.total_blocks_read(),
        backend.label(),
    );
    if let PassBackend::File { root }
    | PassBackend::FileDirect { root }
    | PassBackend::Uring { root } = &pass_backend
    {
        println!("staging under {}", root.display());
    }

    let metrics_args = MetricsArgs::from_args(args)?;
    let metrics = metrics_args
        .as_ref()
        .map(|_| Arc::new(StackMetrics::new(base.disks as usize, &[])));
    let live = metrics_args
        .as_ref()
        .zip(metrics.as_ref())
        .map(|(ma, m)| ma.live(m));
    let executor = MultiPassExecutor::new(&plan, base, opts, pass_backend);
    let out = match &metrics {
        Some(m) => executor.run_metered(runs, &**m, |_| Ok(()))?,
        None => executor.run(runs)?,
    };
    if let Some(live) = live {
        live.finish();
    }
    if let Some(dir) = temp_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    verify_output(&out.output, input)?;
    println!(
        "verified: {} records merged in key order, multiset-identical to the input",
        out.output.len()
    );
    let merged_total: u32 = out.passes.iter().map(|p| p.merged_groups).sum();
    println!(
        "sim cross-check: simulator re-derives the request sequences of all {merged_total} merged groups exactly"
    );

    // Per-pass residuals on the latency backend: modeled busy time vs
    // the simulator's prediction, pass by pass.
    let residuals: Vec<Option<ResidualCheck>> = out
        .passes
        .iter()
        .map(|p| {
            (backend == Backend::Latency && p.predicted_busy.as_secs_f64() > 0.0).then(|| {
                ResidualCheck::evaluate(
                    format!("pass-{}-read-time", p.pass + 1),
                    p.predicted_busy.as_secs_f64(),
                    p.modeled_busy.as_secs_f64(),
                    tol_exec,
                    Bound::TwoSided,
                )
            })
        })
        .collect();

    print_multipass_report(&out, &residuals);

    // Exports.
    if let Some(path) = args.get("out") {
        write_output(path, &out.output)?;
        println!("wrote {path} ({} records)", out.output.len());
    }
    if let Some(path) = args.get("trace-out") {
        let rendered = match args.get("trace-format").unwrap_or("chrome") {
            "chrome" => export::chrome_trace_json(&out.events),
            "csv" => export::csv(&out.events),
            "gantt" => export::gantt(&out.events, &export::GanttOptions::default()),
            other => {
                return Err(PmError::Usage(format!(
                    "unknown trace format '{other}' (chrome | csv | gantt)"
                )))
            }
        };
        std::fs::write(path, rendered)
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("manifest-out") {
        let mut lines = String::new();
        for record in multipass_manifest(backend, &base, &plan, &out, &residuals) {
            lines.push_str(&record.to_json_line());
            lines.push('\n');
        }
        std::fs::write(path, lines)
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote {path}");
    }
    if let (Some(ma), Some(m)) = (&metrics_args, &metrics) {
        ma.write(m)?;
    }

    let failed: Vec<&ResidualCheck> = residuals
        .iter()
        .flatten()
        .filter(|r| !r.pass)
        .collect();
    if let Some(worst) = failed
        .iter()
        .max_by(|a, b| {
            let da = (a.ratio - 1.0).abs();
            let db = (b.ratio - 1.0).abs();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
    {
        return Err(PmError::Tolerance(format!(
            "{} of {} passes off the simulator's prediction; worst ({}) by {:.1}% (tolerance {:.1}%)",
            failed.len(),
            out.passes.len(),
            worst.kind,
            (worst.ratio - 1.0).abs() * 100.0,
            tol_exec * 100.0,
        )));
    }
    Ok(())
}

/// Prints the per-pass cost breakdown of a multi-pass execution.
fn print_multipass_report(out: &MultiPassOutcome, residuals: &[Option<ResidualCheck>]) {
    let mut t = Table::new(vec![
        "pass".into(),
        "fan-in".into(),
        "inputs".into(),
        "merged/groups".into(),
        "blocks".into(),
        "records".into(),
        "wall (s)".into(),
        "stall (s)".into(),
        "sim read (s)".into(),
        "check".into(),
    ]);
    for i in 1..9 {
        t.set_align(i, Align::Right);
    }
    for (p, r) in out.passes.iter().zip(residuals) {
        t.add_row(vec![
            (p.pass + 1).to_string(),
            p.fan_in.to_string(),
            p.inputs.to_string(),
            format!("{}/{}", p.merged_groups, p.groups),
            p.blocks_read.to_string(),
            p.records_merged.to_string(),
            format!("{:.3}", p.wall.as_secs_f64()),
            format!("{:.3}", p.stall.as_secs_f64()),
            format!("{:.3}", p.predicted_read.as_secs_f64()),
            match r {
                Some(c) if c.pass => format!("pass ({:.4})", c.ratio),
                Some(c) => format!("FAIL ({:.4})", c.ratio),
                None => "-".into(),
            },
        ]);
    }
    println!("\n{}", t.render());
    let wall: f64 = out.passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    let blocks: u64 = out.passes.iter().map(|p| p.blocks_read).sum();
    println!(
        "total             {} blocks read across {} passes, {:.3} s wall",
        blocks,
        out.passes.len(),
        wall,
    );
}

/// Builds the multi-pass manifest: one `kind: "exec"` record per pass
/// (1-based `pass` field) plus a whole-tree summary (`pass: null`).
fn multipass_manifest(
    backend: Backend,
    base: &pm_core::MergeConfig,
    plan: &pm_extsort::plan::MergeTreePlan,
    out: &MultiPassOutcome,
    residuals: &[Option<ResidualCheck>],
) -> Vec<ManifestRecord> {
    let mut records = Vec::with_capacity(out.passes.len() + 1);
    let total = out.passes.len();
    for (p, r) in out.passes.iter().zip(residuals) {
        let cfg = p.scenario.as_ref().unwrap_or(base);
        records.push(ManifestRecord {
            schema: SCHEMA_VERSION,
            kind: RecordKind::EngineExec,
            label: format!(
                "exec: {} backend, {} pass {}/{}, {}-way",
                backend.label(),
                plan.policy.label(),
                p.pass + 1,
                total,
                p.fan_in,
            ),
            pass: Some(p.pass + 1),
            tenant: None,
            sweep: None,
            x: None,
            x_label: None,
            scenario: ScenarioSpec::from_config(
                format!("exec-{}-pass{}", backend.label(), p.pass + 1),
                cfg,
            ),
            master_seed: base.seed,
            trials: 1,
            auto: None,
            metrics: PointMetrics {
                mean_total_secs: p.wall.as_secs_f64(),
                ci_half_width_secs: 0.0,
                confidence: 0.95,
                mean_concurrency: p.sim_concurrency,
                mean_busy_disks: p.sim_busy_disks,
                mean_success_ratio: None,
                blocks_merged: p.blocks_read,
            },
            analytic: r.clone(),
            trace: None,
        });
    }
    let wall: f64 = out.passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    let blocks: u64 = out.passes.iter().map(|p| p.blocks_read).sum();
    let predicted: f64 = out.passes.iter().map(|p| p.predicted_busy.as_secs_f64()).sum();
    let measured: f64 = out.passes.iter().map(|p| p.modeled_busy.as_secs_f64()).sum();
    let weight: f64 = out.passes.iter().map(|p| p.predicted_read.as_secs_f64()).sum();
    let (conc, busy) = if weight > 0.0 {
        (
            out.passes
                .iter()
                .map(|p| p.sim_concurrency * p.predicted_read.as_secs_f64())
                .sum::<f64>()
                / weight,
            out.passes
                .iter()
                .map(|p| p.sim_busy_disks * p.predicted_read.as_secs_f64())
                .sum::<f64>()
                / weight,
        )
    } else {
        (0.0, 0.0)
    };
    let summary_residual = (backend == Backend::Latency && predicted > 0.0).then(|| {
        ResidualCheck::evaluate(
            "engine-read-time",
            predicted,
            measured,
            residuals
                .iter()
                .flatten()
                .next()
                .map_or(0.02, |r| r.tolerance),
            Bound::TwoSided,
        )
    });
    let m = TraceMetrics::from_events(&out.events);
    let span_ns = m.span_end.as_nanos() as f64;
    let disks = m
        .input_disks
        .iter()
        .map(|lane| DiskRollup {
            utilization: lane.utilization(m.span_end),
            requests: lane.requests,
            sequential: lane.sequential,
            avg_queue_depth: lane.queue_depth.average_until(span_ns).unwrap_or(0.0),
        })
        .collect();
    records.push(ManifestRecord {
        schema: SCHEMA_VERSION,
        kind: RecordKind::EngineExec,
        label: format!(
            "exec: {} backend, k={}, D={}, {}, {} x{} passes",
            backend.label(),
            plan.passes.first().map_or(0, |p| p.run_blocks.len()),
            base.disks,
            base.strategy.label(),
            plan.policy.label(),
            total,
        ),
        pass: None,
        tenant: None,
        sweep: None,
        x: None,
        x_label: None,
        scenario: ScenarioSpec::from_config(format!("exec-{}-multipass", backend.label()), base),
        master_seed: base.seed,
        trials: 1,
        auto: None,
        metrics: PointMetrics {
            mean_total_secs: wall,
            ci_half_width_secs: 0.0,
            confidence: 0.95,
            mean_concurrency: conc,
            mean_busy_disks: busy,
            mean_success_ratio: None,
            blocks_merged: blocks,
        },
        analytic: summary_residual,
        trace: Some(TraceRollup { disks }),
    });
    records
}

/// Parses the `--strategy`/`--n` pair shared by `exec` and `plan`.
pub(crate) fn parse_strategy(args: &Args) -> Result<PrefetchStrategy, PmError> {
    let n: u32 = args.get_parsed("n", 4)?;
    match args.get("strategy").unwrap_or("inter") {
        "none" => Ok(PrefetchStrategy::None),
        "intra" => Ok(PrefetchStrategy::IntraRun { n }),
        "inter" => Ok(PrefetchStrategy::InterRun { n }),
        "adaptive" => Ok(PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: n }),
        other => Err(PmError::Usage(format!("unknown strategy '{other}'"))),
    }
}

/// Builds the merge scenario for `exec`: the shared scenario flags, with
/// the run count fixed by run formation rather than `--runs`.
pub(crate) fn scenario_for(
    args: &Args,
    runs: u32,
    seed: u64,
) -> Result<pm_core::MergeConfig, PmError> {
    let strategy = parse_strategy(args)?;
    let admission = match args.get("admission").unwrap_or("all-or-nothing") {
        "all-or-nothing" | "aon" => pm_core::AdmissionPolicy::AllOrNothing,
        "greedy" => pm_core::AdmissionPolicy::Greedy,
        other => return Err(PmError::Usage(format!("unknown admission policy '{other}'"))),
    };
    let choice = match args.get("choice").unwrap_or("random") {
        "random" => pm_core::PrefetchChoice::Random,
        "least-held" => pm_core::PrefetchChoice::LeastHeld,
        "head-proximity" => pm_core::PrefetchChoice::HeadProximity,
        other => return Err(PmError::Usage(format!("unknown prefetch choice '{other}'"))),
    };
    let layout = match args.get("layout").unwrap_or("concatenated") {
        "concatenated" | "concat" => pm_core::DataLayout::Concatenated,
        "striped" => pm_core::DataLayout::Striped,
        other => return Err(PmError::Usage(format!("unknown layout '{other}'"))),
    };
    let cap: u32 = args.get_parsed("cap", 0)?;
    let mut builder = ScenarioBuilder::new(runs, args.get_parsed("disks", 2)?)
        .strategy(strategy)
        .sync_mode(if args.flag("sync") {
            SyncMode::Synchronized
        } else {
            SyncMode::Unsynchronized
        })
        .admission(admission)
        .prefetch_choice(choice)
        .layout(layout)
        .per_run_cap((cap > 0).then_some(cap))
        .seed(seed);
    if args.get("cache").is_some() {
        builder = builder.cache_blocks(args.get_parsed("cache", 0)?);
    }
    builder.build()
}

/// The merged output must be in key order and contain exactly the input
/// records.
fn verify_output(output: &[Record], input: &[Record]) -> Result<(), PmError> {
    if !output.windows(2).all(|w| w[0].key <= w[1].key) {
        return Err(PmError::Tolerance("merged output is out of key order".into()));
    }
    let mut got: Vec<Record> = output.to_vec();
    got.sort_by_key(|r| (r.key, r.rid));
    let mut want: Vec<Record> = input.to_vec();
    want.sort_by_key(|r| (r.key, r.rid));
    if got != want {
        return Err(PmError::Tolerance(
            "merged output is not the input multiset".into(),
        ));
    }
    Ok(())
}

fn print_report(outcome: &ExecOutcome, sim: &pm_core::MergeReport) {
    let r = &outcome.report;
    println!(
        "\nmerge wall time   {:.3} s ({:.3} s stalled on I/O)",
        r.wall.as_secs_f64(),
        r.stall.as_secs_f64()
    );
    println!(
        "blocks merged     {} ({} records), sim-predicted read phase {:.3} s",
        r.blocks_merged,
        r.records_merged,
        sim.total.as_secs_f64()
    );
    println!(
        "operations        {} demand, {} fallback, {} full prefetch",
        r.demand_ops, r.fallback_ops, r.full_prefetch_ops
    );
    if let Some(ratio) = r.success_ratio {
        println!("success ratio     {ratio:.3}");
    }
    let mut t = Table::new(vec![
        "disk".into(),
        "requests".into(),
        "sequential".into(),
        "modeled busy (s)".into(),
    ]);
    for i in 1..4 {
        t.set_align(i, Align::Right);
    }
    for d in 0..r.per_disk_requests.len() {
        t.add_row(vec![
            format!("input {d}"),
            r.per_disk_requests[d].to_string(),
            r.per_disk_sequential[d].to_string(),
            format!("{:.3}", r.per_disk_modeled_busy[d].as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
}

/// Writes the merged records as packed little-endian (key, rid) pairs.
fn write_output(path: &str, output: &[Record]) -> Result<(), PmError> {
    let mut bytes = Vec::with_capacity(output.len() * RECORD_BYTES);
    for r in output {
        bytes.extend_from_slice(&r.key.to_le_bytes());
        bytes.extend_from_slice(&r.rid.to_le_bytes());
    }
    std::fs::write(path, bytes).map_err(|e| PmError::io(format!("cannot write '{path}'"), e))
}

/// Builds the `kind: "exec"` manifest record for this execution.
fn manifest_record(
    backend: Backend,
    engine: &MergeEngine,
    outcome: &ExecOutcome,
    sim: &pm_core::MergeReport,
    residual: &Option<ResidualCheck>,
) -> ManifestRecord {
    let cfg = engine.merge_config();
    let r = &outcome.report;
    let m = TraceMetrics::from_events(&outcome.events);
    let span_ns = m.span_end.as_nanos() as f64;
    let disks = m
        .input_disks
        .iter()
        .map(|lane| DiskRollup {
            utilization: lane.utilization(m.span_end),
            requests: lane.requests,
            sequential: lane.sequential,
            avg_queue_depth: lane.queue_depth.average_until(span_ns).unwrap_or(0.0),
        })
        .collect();
    ManifestRecord {
        schema: SCHEMA_VERSION,
        kind: RecordKind::EngineExec,
        label: format!(
            "exec: {} backend, k={}, D={}, {}",
            backend.label(),
            cfg.runs,
            cfg.disks,
            cfg.strategy.label(),
        ),
        pass: None,
        tenant: None,
        sweep: None,
        x: None,
        x_label: None,
        scenario: ScenarioSpec::from_config(format!("exec-{}", backend.label()), cfg),
        master_seed: cfg.seed,
        trials: 1,
        auto: None,
        metrics: PointMetrics {
            mean_total_secs: r.wall.as_secs_f64(),
            ci_half_width_secs: 0.0,
            confidence: 0.95,
            mean_concurrency: sim.avg_concurrency,
            mean_busy_disks: sim.avg_busy_disks,
            mean_success_ratio: r.success_ratio,
            blocks_merged: r.blocks_merged,
        },
        analytic: residual.clone(),
        trace: Some(TraceRollup { disks }),
    }
}
