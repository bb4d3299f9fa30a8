//! `pmerge exec` — end-to-end external sort on the real-I/O engine.
//!
//! Generates records, forms sorted runs (the pm-extsort run-formation
//! pass), plans a merge tree over them and executes it through
//! [`MultiPassExecutor`], which merges each group through
//! [`pm_engine::MergeEngine`] against a pluggable [`PassBackend`]:
//!
//! - `mem`         — in-memory golden reference
//! - `file`        — one file per simulated disk, real positioned reads
//! - `file-direct` — the file backend reading through `O_DIRECT`
//! - `latency`     — deterministic per-request delays from the pm-disk
//!   service model, for sim-vs-engine cross-validation
//! - `uring`       — io_uring + `O_DIRECT` with registered buffers
//!   (`--features uring`; probed at runtime, falling back to `file`)
//!
//! Without `--fan-in` or `--passes` the tree is one merge of every run,
//! and that merge runs the scenario the flags describe as given. With
//! either flag, a tree of two or more merges derives each group's
//! scenario from the cache budget ([`ScenarioBuilder::pass_scenario`]).
//! The file-backed backends stage under `--dir` (default: a temp
//! directory removed afterwards), in a per-invocation directory that the
//! run removes and that a later run sweeps if the process died.
//! `--queue-depth` bounds the per-disk I/O queue (0 = the scenario's
//! prefetch depth).
//!
//! Every run is verified against the in-memory reference (key order plus
//! multiset equality with the input) and every merge is cross-checked
//! against the discrete-event simulator: replaying the engine's depletion
//! sequence must re-derive the exact per-disk request sequences (under
//! `--choice head-proximity`, whose parity the engine does not promise,
//! it reports how many it re-derived instead), and on the latency
//! backend each pass's modeled busy time must match the simulator's
//! prediction within `--tol-exec`. A failed check exits 1
//! ([`PmError::Tolerance`]); usage errors exit 2.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pm_core::{ConfigError, MergeConfig, PmError, ScenarioBuilder, SimDuration};
use pm_engine::{
    MultiPassExecutor, MultiPassOptions, MultiPassOutcome, PassBackend, PassOutcome, RECORD_BYTES,
};
use pm_extsort::plan::{plan_merge_tree, MergeTreePlan, PlanPolicy};
use pm_extsort::{generate, Record, RunFormation};
use pm_metrics::StackMetrics;
use pm_obs::{
    Bound, ManifestRecord, PointMetrics, RecordKind, ResidualCheck, TraceRollup, SCHEMA_VERSION,
};
use pm_report::{Align, Table};
use pm_trace::TraceMetrics;

use crate::args::Args;
use crate::commands::{print_disk_table, render_trace};
use crate::metrics::MetricsArgs;
use crate::plan::{fan_in_flags, records_per_block, run_blocks};
use crate::scenario::{self, ENGINE_KEYS};

/// Flags `exec` accepts (see the usage text for semantics).
const EXEC_KEYS: &[&str] = &[
    // Workload and run formation.
    "records",
    "memory",
    "formation",
    "rpb",
    // Execution (the scenario flags are ENGINE_KEYS; the run count comes
    // from formation, not --runs).
    "backend",
    "dir",
    "jobs",
    "queue-depth",
    "time-scale",
    // Merge-tree planning (without --fan-in or --passes, one merge of
    // every run).
    "fan-in",
    "passes",
    "plan-policy",
    // Outputs and checks.
    "out",
    "trace-out",
    "trace-format",
    "manifest-out",
    "tol-exec",
    "metrics-out",
    "metrics-interval",
];

/// Where the file-backed backends stage: `--dir`, or a temp directory
/// the command removes afterwards.
fn staging_root(args: &Args) -> PathBuf {
    match args.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("pmerge-exec-{}", std::process::id())),
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
fn resolve_uring(backend: PassBackend) -> PassBackend {
    match backend {
        PassBackend::Uring { root } if !uring_supported() => {
            if cfg!(feature = "uring") {
                println!("uring backend unavailable: io_uring setup probe failed on this kernel; falling back to the file backend");
            } else {
                println!("uring backend not compiled in (rebuild with --features uring); falling back to the file backend");
            }
            PassBackend::File { root }
        }
        other => other,
    }
}

/// `pmerge exec`
pub fn exec(args: &Args) -> Result<(), PmError> {
    args.check_known(&[EXEC_KEYS, ENGINE_KEYS].concat())?;
    let backend = resolve_uring(PassBackend::parse(
        args.get("backend").unwrap_or("mem"),
        staging_root(args),
    )?);
    let records: usize = args.get_parsed("records", 50_000usize)?;
    let memory: usize = args.get_parsed("memory", 5_000usize)?;
    if records == 0 || memory == 0 {
        return Err(PmError::Usage(
            "--records and --memory must be positive".into(),
        ));
    }
    // O_DIRECT backends need 512-byte-aligned blocks: 32 records/block
    // (512 B) aligns, the classic 40 (640 B) does not.
    let rpb = records_per_block(args, if backend.needs_alignment() { 32 } else { 40 })?;
    let seed: u64 = args.get_parsed("seed", 1992)?;
    let tol_exec: f64 = args.get_parsed("tol-exec", 0.02)?;
    if !(tol_exec.is_finite() && tol_exec > 0.0) {
        return Err(PmError::Usage("--tol-exec must be positive".into()));
    }

    // Run formation (the sort's first pass).
    let formation = RunFormation::parse(args.get("formation").unwrap_or("load-sort"))?;
    let input = generate::uniform(records, seed);
    let runs = formation.form(&input, memory);

    // Plan the merge tree: one merge of every run unless the user bounded
    // the fan-in (or the pass count).
    let k = runs.len() as u32;
    let fan_in_cap = fan_in_flags(args, k)?.unwrap_or(k.max(2));
    let policy = PlanPolicy::parse(args.get("plan-policy").unwrap_or("greedy-max"))?;
    let lengths = run_blocks(&runs, rpb);
    let plan = plan_merge_tree(&lengths, fan_in_cap, policy)?;
    // The base scenario is sized for one full-width group: a tree of one
    // merge runs it as given, a larger tree derives every group's from it.
    let width = fan_in_cap.min(k);
    let base = scenario::for_engine(args, width).map_err(|e| fan_in_hint(args, e, width))?;
    let opts = MultiPassOptions {
        records_per_block: rpb,
        queue_depth: args.get_parsed("queue-depth", 0usize)?,
        jobs: args.get_parsed("jobs", 0usize)?,
        time_scale: args.get_parsed("time-scale", 1.0f64)?,
    };
    let label = backend.label();
    println!(
        "formed {} runs from {} records ({} per block); {} plan: fan-in {} (cap {}), {} passes, {} blocks read per the plan; {} backend",
        k,
        records,
        rpb,
        policy.label(),
        plan.fan_in,
        fan_in_cap,
        plan.num_passes(),
        plan.total_blocks_read(),
        label,
    );
    println!(
        "base scenario: {} disks, {} {} (N={}), cache {} blocks",
        base.disks,
        base.strategy.label(),
        base.sync.label(),
        base.strategy.depth(),
        base.cache_blocks,
    );
    if let Some(root) = backend.staging_root() {
        println!("staging under {}", root.display());
    }

    // Execute the tree.
    let latency = matches!(backend, PassBackend::Latency);
    let temp_dir = backend
        .staging_root()
        .filter(|_| args.get("dir").is_none())
        .map(Path::to_path_buf);
    let metrics_args = MetricsArgs::from_args(args)?;
    let metrics = metrics_args
        .as_ref()
        .map(|_| Arc::new(StackMetrics::new(base.disks as usize, &[])));
    let live = metrics_args
        .as_ref()
        .zip(metrics.as_ref())
        .map(|(ma, m)| ma.live(m));
    let executor = MultiPassExecutor::new(&plan, base, opts, backend);
    let result = match &metrics {
        Some(m) => executor.run_metered(runs, &**m, |_| Ok(())),
        None => executor.run(runs),
    };
    if let Some(live) = live {
        live.finish();
    }
    if let Some(dir) = temp_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let out = result?;

    // Verify against the in-memory reference and the simulator.
    verify_output(&out.output, &input)?;
    println!(
        "verified: {} records merged in key order, multiset-identical to the input",
        out.output.len()
    );
    let merged_total: u32 = out.passes.iter().map(|p| p.merged_groups).sum();
    print_parity(
        out.passes.iter().map(|p| p.requests_matched).sum(),
        out.passes.iter().map(|p| p.requests).sum(),
        &format!("requests of {merged_total} merged groups"),
    );
    let checks = Checks::new(latency, &out.passes, tol_exec);
    let traced = TraceMetrics::from_events(&out.events);
    print_outcome(&out, &checks, &traced);

    // Exports.
    if let Some(path) = args.get("out") {
        write_output(path, &out.output)?;
        println!("wrote {path} ({} records)", out.output.len());
    }
    if let Some(path) = args.get("trace-out") {
        let format = args.get("trace-format").unwrap_or("chrome");
        let rendered = render_trace(&out.events, format)?;
        std::fs::write(path, rendered)
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("manifest-out") {
        // The summary describes the data: every run, and the longest.
        let scenario = MergeConfig {
            runs: k,
            run_blocks: lengths.iter().copied().max().unwrap_or(0),
            ..base
        };
        let mut lines = String::new();
        let rollup = TraceRollup::from_metrics(&traced);
        for record in manifest(label, &scenario, &plan, &out, &checks, rollup) {
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
    checks.verdict(tol_exec)
}

/// Reports how many of the engine's requests the simulator's replay
/// re-derived. Only head-proximity runs (whose parity is not promised)
/// get here with fewer than all.
fn print_parity(matched: u64, total: u64, what: &str) {
    if matched == total {
        println!("sim cross-check: simulator re-derives all {total} {what} exactly");
    } else {
        println!(
            "sim cross-check: simulator re-derives {matched} of {total} {what}; \
             head-proximity parity is not exact (the engine scores against the last \
             submitted head, the simulator against the serviced one)"
        );
    }
}

/// Maps the cache-validation failure for an over-wide merge onto
/// [`ConfigError::FanInExceeded`], which tells the user how wide the
/// cache can actually go and points at `pmerge plan`.
fn fan_in_hint(args: &Args, err: PmError, runs: u32) -> PmError {
    let PmError::Config(ConfigError::CacheTooSmall { have, .. }) = err else {
        return err;
    };
    match scenario::strategy(args, scenario::ENGINE) {
        Ok(strategy) => {
            let fan_in = ScenarioBuilder::max_feasible_fan_in(have, strategy);
            if fan_in < runs {
                ConfigError::FanInExceeded { runs, fan_in }.into()
            } else {
                err
            }
        }
        Err(e) => e,
    }
}

/// The latency backend's read-time residuals, modeled busy time against
/// the simulator's prediction: one per pass that read anything, and one
/// over the whole tree. Other backends have none.
struct Checks {
    passes: Vec<Option<ResidualCheck>>,
    tree: Option<ResidualCheck>,
}

impl Checks {
    fn new(latency: bool, passes: &[PassOutcome], tol: f64) -> Self {
        let check = |kind: String, predicted: SimDuration, measured: SimDuration| {
            (latency && predicted > SimDuration::ZERO).then(|| {
                ResidualCheck::evaluate(
                    kind,
                    predicted.as_secs_f64(),
                    measured.as_secs_f64(),
                    tol,
                    Bound::TwoSided,
                )
            })
        };
        Checks {
            passes: passes
                .iter()
                .map(|p| {
                    let kind = format!("pass-{}-read-time", p.pass + 1);
                    check(kind, p.predicted_busy, p.modeled_busy)
                })
                .collect(),
            tree: check(
                "engine-read-time".into(),
                passes.iter().map(|p| p.predicted_busy).sum(),
                passes.iter().map(|p| p.modeled_busy).sum(),
            ),
        }
    }

    /// Fails with the worst pass when any pass missed its tolerance.
    fn verdict(&self, tol: f64) -> Result<(), PmError> {
        let failed: Vec<&ResidualCheck> =
            self.passes.iter().flatten().filter(|r| !r.pass).collect();
        let off = |r: &ResidualCheck| (r.ratio - 1.0).abs();
        match failed.iter().max_by(|a, b| off(a).total_cmp(&off(b))) {
            Some(worst) => Err(PmError::Tolerance(format!(
                "{} of {} passes off the simulator's prediction; worst ({}) by {:.1}% (tolerance {:.1}%)",
                failed.len(),
                self.passes.len(),
                worst.kind,
                off(worst) * 100.0,
                tol * 100.0,
            ))),
            None => Ok(()),
        }
    }
}

/// Full prefetches per demand operation over `passes`, as
/// `DecisionCounts::success_ratio` computes it for one merge: `None`
/// without demand operations.
fn success_ratio(passes: &[PassOutcome]) -> Option<f64> {
    let demand: u64 = passes.iter().map(|p| p.demand_ops).sum();
    let full: u64 = passes.iter().map(|p| p.full_prefetch_ops).sum();
    (demand > 0).then(|| full as f64 / demand as f64)
}

/// Prints the tree's costs: the per-pass table, the totals, the
/// operation mix, the per-disk table and the latency model's verdict.
fn print_outcome(out: &MultiPassOutcome, checks: &Checks, traced: &TraceMetrics) {
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
    for (p, r) in out.passes.iter().zip(&checks.passes) {
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
    if out.passes.is_empty() {
        println!("\n(a single run needs no merging)");
    } else {
        println!("\n{}", t.render());
    }
    let sum = |f: fn(&PassOutcome) -> u64| -> u64 { out.passes.iter().map(f).sum() };
    println!(
        "total             {} blocks read across {} passes, {:.3} s wall",
        sum(|p| p.blocks_read),
        out.passes.len(),
        out.passes
            .iter()
            .map(|p| p.wall)
            .sum::<Duration>()
            .as_secs_f64(),
    );
    println!(
        "operations        {} demand, {} fallback, {} full prefetch",
        sum(|p| p.demand_ops),
        sum(|p| p.fallback_ops),
        sum(|p| p.full_prefetch_ops),
    );
    if let Some(ratio) = success_ratio(&out.passes) {
        println!("success ratio     {ratio:.3}");
    }
    print_disk_table(traced);
    if let Some(r) = &checks.tree {
        println!(
            "latency model: measured busy {:.3}s vs predicted {:.3}s (ratio {:.4}) -> {}",
            r.predicted * r.ratio,
            r.predicted,
            r.ratio,
            if r.pass { "pass" } else { "FAIL" },
        );
    }
}

/// Builds the manifest: one `kind: "exec"` record per pass (1-based
/// `pass` field) plus a whole-tree summary (`pass: null`) over
/// `scenario`, with the tree's per-disk `rollup`.
fn manifest(
    backend: &str,
    scenario: &MergeConfig,
    plan: &MergeTreePlan,
    out: &MultiPassOutcome,
    checks: &Checks,
    rollup: TraceRollup,
) -> Vec<ManifestRecord> {
    let point =
        |wall: Duration, concurrency: f64, busy: f64, passes: &[PassOutcome]| PointMetrics {
            mean_total_secs: wall.as_secs_f64(),
            ci_half_width_secs: 0.0,
            confidence: 0.95,
            mean_concurrency: concurrency,
            mean_busy_disks: busy,
            mean_success_ratio: success_ratio(passes),
            blocks_merged: passes.iter().map(|p| p.blocks_read).sum(),
        };
    // The summary weights concurrency and busy disks by each pass's
    // simulated read time. Durations are summed before converting: an
    // empty `f64` sum is `-0`.
    let weight = out
        .passes
        .iter()
        .map(|p| p.predicted_read)
        .sum::<SimDuration>()
        .as_secs_f64();
    let weighted = |f: fn(&PassOutcome) -> f64| -> f64 {
        if weight > 0.0 {
            let sum: f64 = out
                .passes
                .iter()
                .map(|p| f(p) * p.predicted_read.as_secs_f64())
                .sum();
            sum / weight
        } else {
            0.0
        }
    };
    let total = out.passes.len();
    let summary = ManifestRecord {
        schema: SCHEMA_VERSION,
        kind: RecordKind::EngineExec,
        label: format!(
            "exec: {backend} backend, k={}, D={}, {}, {} x{total} passes",
            scenario.runs,
            scenario.disks,
            scenario.strategy.label(),
            plan.policy.label(),
        ),
        pass: None,
        tenant: None,
        sweep: None,
        x: None,
        x_label: None,
        scenario_name: format!("exec-{backend}"),
        scenario: *scenario,
        master_seed: scenario.seed,
        trials: 1,
        auto: None,
        metrics: point(
            out.passes.iter().map(|p| p.wall).sum(),
            weighted(|p| p.sim_concurrency),
            weighted(|p| p.sim_busy_disks),
            &out.passes,
        ),
        analytic: checks.tree.clone(),
        trace: Some(rollup),
    };
    let mut records: Vec<ManifestRecord> = out
        .passes
        .iter()
        .zip(&checks.passes)
        .map(|(p, r)| ManifestRecord {
            label: format!(
                "exec: {backend} backend, {} pass {}/{total}, {}-way",
                plan.policy.label(),
                p.pass + 1,
                p.fan_in,
            ),
            pass: Some(p.pass + 1),
            scenario_name: format!("exec-{backend}-pass{}", p.pass + 1),
            scenario: p.scenario.unwrap_or(*scenario),
            metrics: point(
                p.wall,
                p.sim_concurrency,
                p.sim_busy_disks,
                std::slice::from_ref(p),
            ),
            analytic: r.clone(),
            trace: None,
            ..summary.clone()
        })
        .collect();
    records.push(summary);
    records
}

/// The merged output must be in key order and contain exactly the input
/// records.
fn verify_output(output: &[Record], input: &[Record]) -> Result<(), PmError> {
    if !output.windows(2).all(|w| w[0].key <= w[1].key) {
        return Err(PmError::Tolerance(
            "merged output is out of key order".into(),
        ));
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

/// Writes the merged records as packed little-endian (key, rid) pairs.
fn write_output(path: &str, output: &[Record]) -> Result<(), PmError> {
    let mut bytes = Vec::with_capacity(output.len() * RECORD_BYTES);
    for r in output {
        bytes.extend_from_slice(&r.key.to_le_bytes());
        bytes.extend_from_slice(&r.rid.to_le_bytes());
    }
    std::fs::write(path, bytes).map_err(|e| PmError::io(format!("cannot write '{path}'"), e))
}
