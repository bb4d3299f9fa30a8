//! Subcommand implementations.

use pm_analysis::{bounds, equations, urn, ModelParams};
use pm_core::{
    run_trials, run_trials_traced, MergeConfig, PmError, PrefetchStrategy, ScenarioBuilder,
    SimDuration, TraceEvent,
};
use pm_obs::{
    env_record_line, parse_manifest, render_manifest, render_report, run_suite, validation_points,
    ConvergencePolicy, NullProgress, ProgressSink, StderrProgress, SuiteOptions, TolerancePolicy,
    TrialsMode,
};
use pm_report::{Align, AsciiPlot, Table};
use pm_trace::{export, TraceMetrics};

use crate::args::Args;
use crate::batch;
use crate::scenario::{self, SIM_KEYS};

/// The simulator commands' scenario and trial count: `--runs` runs of
/// `--blocks` blocks plus the shared scenario flags.
fn scenario(args: &Args) -> Result<(MergeConfig, u32), PmError> {
    let runs: u32 = args.get_parsed("runs", 25)?;
    let blocks: u32 = args.get_parsed("blocks", 1000)?;
    let builder = scenario::builder(args, runs, scenario::SIM)?;
    let trials: u32 = args.get_parsed("trials", 5)?;
    if trials == 0 {
        return Err(PmError::Usage("--trials must be positive".into()));
    }
    Ok((builder.run_blocks(blocks).build()?, trials))
}

/// Renders an event stream in the `--trace-format` `format`.
pub(crate) fn render_trace(events: &[TraceEvent], format: &str) -> Result<String, PmError> {
    match format {
        "chrome" => Ok(export::chrome_trace_json(events)),
        "csv" => Ok(export::csv(events)),
        "gantt" => Ok(export::gantt(events, &export::GanttOptions::default())),
        other => Err(PmError::Usage(format!(
            "unknown trace format '{other}' (chrome | csv | gantt)"
        ))),
    }
}

/// `pmerge simulate`
pub fn simulate(args: &Args) -> Result<(), PmError> {
    args.check_known(SIM_KEYS)?;
    let (cfg, trials) = scenario(args)?;
    let summary = run_trials(&cfg, trials)?;
    let r = &summary.reports[0];
    println!(
        "scenario: {} runs x {} blocks on {} disks, {} {} (N={}), cache {} blocks",
        cfg.runs,
        cfg.run_blocks,
        cfg.disks,
        cfg.strategy.label(),
        cfg.sync.label(),
        cfg.strategy.depth(),
        cfg.cache_blocks,
    );
    println!("trials:   {trials}\n");
    println!("total time        {}", summary.ci_total_secs);
    println!(
        "I/O concurrency   {:.2} (peak {})",
        summary.mean_concurrency, r.peak_busy_disks
    );
    if let Some(ratio) = summary.mean_success_ratio {
        println!("success ratio     {ratio:.3}");
    }
    println!(
        "cost breakdown    seek {:.1}s  latency {:.1}s  transfer {:.1}s (trial 1)",
        r.seek_total.as_secs_f64(),
        r.latency_total.as_secs_f64(),
        r.transfer_total.as_secs_f64()
    );
    println!(
        "requests          {} total, {} sequential streams",
        r.disk_requests, r.sequential_requests
    );
    if cfg.write.is_some() {
        println!(
            "write traffic     {} blocks, {:.1}s write-disk busy",
            r.write_blocks,
            r.write_busy.as_secs_f64()
        );
    }
    if !cfg.cpu_per_block.is_zero() {
        println!(
            "CPU               busy {:.1}s, stalled on I/O {:.1}s",
            r.cpu_busy.as_secs_f64(),
            r.cpu_stall.as_secs_f64()
        );
    }
    Ok(())
}

/// Prints one row per disk lane of a folded trace (input lanes, then
/// output lanes): requests, sequential requests, utilization and mean
/// queue depth. Prints nothing for a trace without disk events.
pub(crate) fn print_disk_table(m: &TraceMetrics) {
    let mut t = Table::new(vec![
        "disk".into(),
        "requests".into(),
        "sequential".into(),
        "utilization".into(),
        "mean queue depth".into(),
    ]);
    for i in 1..5 {
        t.set_align(i, Align::Right);
    }
    for (side, lanes) in [("input", &m.input_disks), ("output", &m.output_disks)] {
        for (d, lane) in lanes.iter().enumerate() {
            t.add_row(vec![
                format!("{side} {d}"),
                lane.requests.to_string(),
                lane.sequential.to_string(),
                format!("{:.3}", lane.utilization(m.span_end)),
                format!("{:.2}", lane.mean_queue_depth(m.span_end)),
            ]);
        }
    }
    if !(m.input_disks.is_empty() && m.output_disks.is_empty()) {
        println!("{}", t.render());
    }
}

/// `pmerge trace`
pub fn trace(args: &Args) -> Result<(), PmError> {
    let mut allowed = SIM_KEYS.to_vec();
    allowed.extend_from_slice(&["trace-out", "trace-format", "trace-limit"]);
    args.check_known(&allowed)?;
    let (cfg, trials) = scenario(args)?;
    let format = args.get("trace-format").unwrap_or("chrome");
    let limit: usize = args.get_parsed("trace-limit", 0usize)?;
    let (summary, sink) = run_trials_traced(&cfg, trials, 1, (limit > 0).then_some(limit))?;
    let events = sink.events();
    let rendered = render_trace(&events, format)?;
    let Some(path) = args.get("trace-out") else {
        // Bare stream to stdout so it can be piped or redirected.
        print!("{rendered}");
        return Ok(());
    };
    std::fs::write(path, &rendered)
        .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;

    let m = TraceMetrics::from_events(&events);
    println!(
        "traced trial 1 of {trials}: {} events recorded{} -> {path} ({format})",
        events.len(),
        if sink.dropped() > 0 {
            format!(" ({} dropped by --trace-limit {limit})", sink.dropped())
        } else {
            String::new()
        },
    );
    println!(
        "span {:.3} s, total time {} over all trials\n",
        m.span_end.as_secs_f64(),
        summary.ci_total_secs
    );
    print_disk_table(&m);
    println!(
        "demand misses     {} ({} per merged block)",
        m.demand_misses,
        m.miss_rate()
            .map_or_else(|| "-".into(), |r| format!("{r:.3}")),
    );
    if m.prefetch_batches > 0 {
        println!(
            "prefetch batches  {}, group admit rate {}, {} blocks admitted / {} rejected",
            m.prefetch_batches,
            m.admit_rate()
                .map_or_else(|| "-".into(), |r| format!("{r:.3}")),
            m.admitted_blocks,
            m.rejected_blocks,
        );
    }
    if let Some(lo) = m.min_free_at_miss {
        println!("cache low-water   {lo} free frames at the tightest demand miss");
    }
    Ok(())
}

/// `pmerge analyze`
pub fn analyze(args: &Args) -> Result<(), PmError> {
    args.check_known(&["runs", "disks", "n", "blocks"])?;
    let k: u32 = args.get_parsed("runs", 25)?;
    let d: u32 = args.get_parsed("disks", 5)?;
    let n: u32 = args.get_parsed("n", 10)?;
    let blocks: u64 = args.get_parsed("blocks", 1000u64)?;
    if k == 0 || d == 0 || n == 0 || blocks == 0 {
        return Err(PmError::Usage("all parameters must be positive".into()));
    }
    let p = ModelParams {
        run_blocks: blocks,
        ..ModelParams::paper()
    };
    let total = |tau: f64| equations::total_seconds(&p, k, tau);
    let mut t = Table::new(vec![
        "prediction".into(),
        "tau (ms/blk)".into(),
        "total (s)".into(),
    ]);
    t.set_align(1, Align::Right);
    t.set_align(2, Align::Right);
    let mut row = |name: &str, tau: f64| {
        t.add_row(vec![
            name.into(),
            format!("{tau:.3}"),
            format!("{:.1}", total(tau)),
        ]);
    };
    row(
        "eq1: single disk, no prefetch",
        equations::tau_single_no_prefetch(&p, k),
    );
    row(
        "eq2: single disk, intra-run",
        equations::tau_single_intra(&p, k, n),
    );
    row(
        "eq3: D disks, no prefetch",
        equations::tau_multi_no_prefetch(&p, k, d),
    );
    row(
        "eq4: D disks, intra-run sync",
        equations::tau_multi_intra_sync(&p, k, d, n),
    );
    row(
        "eq5: D disks, inter-run sync",
        equations::tau_inter_sync(&p, k, d, n),
    );
    println!("closed-form predictions for k={k}, D={d}, N={n}, {blocks}-block runs\n");
    println!("{}", t.render());
    println!(
        "urn-game concurrency of unsync intra-run: exact {:.2}, asymptotic {:.2} (max {d})",
        urn::expected_concurrency(d),
        urn::expected_concurrency_asymptotic(d)
    );
    println!(
        "unsync intra-run asymptote: {:.1} s;  transfer bounds: {:.1} s (1 disk), {:.1} s ({d} disks)",
        bounds::intra_unsync_asymptotic_secs(&p, k, d, n),
        bounds::single_disk_lower_bound_secs(&p, k),
        bounds::multi_disk_lower_bound_secs(&p, k, d)
    );
    Ok(())
}

/// `pmerge sweep`
pub fn sweep(args: &Args) -> Result<(), PmError> {
    let mut allowed = SIM_KEYS.to_vec();
    allowed.extend_from_slice(&["param", "from", "to", "step"]);
    args.check_known(&allowed)?;
    let param = args.require("param")?.to_string();
    let from: f64 = args.get_parsed("from", 1.0)?;
    let to: f64 = args.get_parsed("to", 30.0)?;
    if !(from.is_finite() && to.is_finite() && from <= to) {
        return Err(PmError::Usage("--from must be <= --to".into()));
    }
    let default_step = ((to - from) / 14.0).max(if param == "cpu-ms" { 0.05 } else { 1.0 });
    let step: f64 = args.get_parsed("step", default_step)?;
    if step <= 0.0 {
        return Err(PmError::Usage("--step must be positive".into()));
    }
    let (base, trials) = scenario(args)?;

    let mut points = Vec::new();
    let mut x = from;
    while x <= to + 1e-9 {
        let mut cfg = base;
        match param.as_str() {
            "n" => {
                let n = x as u32;
                cfg.strategy = match cfg.strategy {
                    PrefetchStrategy::None | PrefetchStrategy::IntraRun { .. } => {
                        PrefetchStrategy::IntraRun { n }
                    }
                    PrefetchStrategy::InterRun { .. } => PrefetchStrategy::InterRun { n },
                    PrefetchStrategy::InterRunAdaptive { n_min, .. } => {
                        PrefetchStrategy::InterRunAdaptive {
                            n_min,
                            n_max: n.max(n_min),
                        }
                    }
                };
                // Re-derive the default cache unless pinned explicitly.
                if args.get("cache").is_none() {
                    cfg.cache_blocks =
                        ScenarioBuilder::default_cache_blocks(cfg.runs, cfg.strategy);
                }
            }
            "cache" => cfg.cache_blocks = x as u32,
            "cpu-ms" => cfg.cpu_per_block = SimDuration::from_millis_f64(x),
            "disks" => cfg.disks = x as u32,
            other => return Err(PmError::Usage(format!("cannot sweep '{other}'"))),
        }
        cfg.validate()
            .map_err(|e| PmError::Usage(format!("at {param}={x}: {e}")))?;
        let summary = run_trials(&cfg, trials)?;
        points.push((x, summary.mean_total_secs, summary.mean_success_ratio));
        x += step;
    }

    let mut t = Table::new(vec![
        param.clone(),
        "total (s)".into(),
        "success ratio".into(),
    ]);
    t.set_align(1, Align::Right);
    t.set_align(2, Align::Right);
    for &(x, secs, ratio) in &points {
        t.add_row(vec![
            format!("{x:.3}"),
            format!("{secs:.2}"),
            ratio.map_or_else(|| "-".into(), |r| format!("{r:.3}")),
        ]);
    }
    let mut plot = AsciiPlot::new(format!("total time vs {param}"), 64, 16);
    plot.add_series(
        "total (s)",
        points.iter().map(|&(x, y, _)| (x, y)).collect(),
    );
    println!("{}", plot.render());
    println!("{}", t.render());
    Ok(())
}

/// `pmerge batch <file>`
pub fn run_batch(args: &Args) -> Result<(), PmError> {
    args.check_known(&["file", "trials", "seed"])?;
    let path = args.require("file")?;
    let contents = std::fs::read_to_string(path)
        .map_err(|e| PmError::io(format!("cannot read '{path}'"), e))?;
    let lines = batch::parse_batch(&contents)?;
    let default_trials: u32 = args.get_parsed("trials", 5)?;
    let default_seed: u64 = args.get_parsed("seed", 1992)?;

    let mut table = Table::new(vec![
        "scenario".into(),
        "total (s)".into(),
        "±95%".into(),
        "concurrency".into(),
        "success ratio".into(),
    ]);
    for i in 1..5 {
        table.set_align(i, Align::Right);
    }
    for line in lines {
        let mut largs = batch::line_args(&line)?;
        // Batch-level defaults apply when the line doesn't set them.
        if largs.get("trials").is_none() {
            largs = batch::line_args(&batch::BatchLine {
                name: line.name.clone(),
                tokens: {
                    let mut t = line.tokens.clone();
                    t.push("--trials".into());
                    t.push(default_trials.to_string());
                    if largs.get("seed").is_none() {
                        t.push("--seed".into());
                        t.push(default_seed.to_string());
                    }
                    t
                },
            })?;
        }
        let (cfg, trials) = scenario(&largs)
            .map_err(|e| PmError::Usage(format!("scenario '{}': {e}", line.name)))?;
        let summary = run_trials(&cfg, trials)?;
        table.add_row(vec![
            line.name,
            format!("{:.1}", summary.mean_total_secs),
            format!("{:.2}", summary.ci_total_secs.half_width),
            format!("{:.2}", summary.mean_concurrency),
            summary
                .mean_success_ratio
                .map_or_else(|| "-".into(), |r| format!("{r:.3}")),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

/// Parses the validate-only options into a [`SuiteOptions`].
fn validate_options(args: &Args) -> Result<SuiteOptions, PmError> {
    let trials = match args.get("trials").unwrap_or("auto") {
        "auto" => {
            let rel_ci: f64 = args.get_parsed("rel-ci", 0.02)?;
            if !(rel_ci.is_finite() && rel_ci > 0.0) {
                return Err(PmError::Usage("--rel-ci must be positive".into()));
            }
            TrialsMode::Auto(ConvergencePolicy {
                rel_ci,
                min_trials: args.get_parsed("min-trials", 3u32)?,
                max_trials: args.get_parsed("max-trials", 12u32)?,
                ..ConvergencePolicy::default()
            })
        }
        t => TrialsMode::Fixed(t.parse().map_err(|_| {
            PmError::Usage(format!("--trials must be a count or 'auto', got '{t}'"))
        })?),
    };
    let defaults = TolerancePolicy::default();
    let tolerance = TolerancePolicy {
        equation_rel: args.get_parsed("tol-eq", defaults.equation_rel)?,
        striped_rel: args.get_parsed("tol-striped", defaults.striped_rel)?,
        bound_slack: args.get_parsed("tol-bound", defaults.bound_slack)?,
        concurrency_rel: args.get_parsed("tol-conc", defaults.concurrency_rel)?,
    };
    Ok(SuiteOptions {
        trials,
        jobs: args.get_parsed("jobs", 0usize)?,
        tolerance,
        trace: args.flag("trace"),
        master_seed: args.get_parsed("seed", 1992)?,
    })
}

/// `pmerge validate`
///
/// Runs the standing validation suite (T1/T2 tables plus the Fig. 3.2
/// curves) and checks every point against the paper's closed forms.
/// A breached residual returns [`PmError::Tolerance`], which `main`
/// maps to exit status 1 (usage and I/O failures exit 2).
pub fn validate(args: &Args) -> Result<(), PmError> {
    args.check_known(&[
        "quick",
        "html",
        "manifest",
        "manifest-out",
        "trials",
        "rel-ci",
        "min-trials",
        "max-trials",
        "jobs",
        "seed",
        "trace",
        "record-env",
        "progress",
        "tol-eq",
        "tol-striped",
        "tol-bound",
        "tol-conc",
    ])?;
    let opts = validate_options(args)?;
    let points = validation_points(opts.master_seed, args.flag("quick"));
    let progress: Box<dyn ProgressSink> =
        if args.flag("progress") || std::io::IsTerminal::is_terminal(&std::io::stderr()) {
            Box::new(StderrProgress::new())
        } else {
            Box::new(NullProgress)
        };
    let started = std::time::Instant::now();
    let records = run_suite(&points, &opts, progress.as_ref())?;
    let wall_secs = started.elapsed().as_secs_f64();

    let mut table = Table::new(vec![
        "case".into(),
        "model".into(),
        "predicted".into(),
        "simulated".into(),
        "ratio".into(),
        "trials".into(),
        "check".into(),
    ]);
    for i in 2..6 {
        table.set_align(i, Align::Right);
    }
    let mut breaches = Vec::new();
    let mut checked = 0usize;
    for r in &records {
        let (model, predicted, measured, ratio, verdict) = match &r.analytic {
            Some(a) => {
                checked += 1;
                if !a.pass {
                    breaches.push(format!("{} ({}: ratio {:.3})", r.label, a.kind, a.ratio));
                }
                let measured = if a.kind == "urn-E[D]" {
                    r.metrics.mean_concurrency
                } else {
                    r.metrics.mean_total_secs
                };
                (
                    a.kind.clone(),
                    format!("{:.2}", a.predicted),
                    format!("{measured:.2}"),
                    format!("{:.3}", a.ratio),
                    if a.pass { "pass" } else { "FAIL" },
                )
            }
            None => (
                "-".into(),
                "-".into(),
                format!("{:.2}", r.metrics.mean_total_secs),
                "-".into(),
                "n/a",
            ),
        };
        table.add_row(vec![
            r.label.clone(),
            model,
            predicted,
            measured,
            ratio,
            r.trials.to_string(),
            verdict.into(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} points, {} residual checks, {} breach(es) in {wall_secs:.1}s",
        records.len(),
        checked,
        breaches.len()
    );
    for b in &breaches {
        println!("  BREACH: {b}");
    }

    if let Some(path) = args.get("manifest-out").or_else(|| args.get("manifest")) {
        let mut out = render_manifest(&records);
        if args.flag("record-env") {
            out.push_str(&env_record_line(opts.jobs, wall_secs));
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("html") {
        std::fs::write(path, render_report(&records))
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote {path}");
    }
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(PmError::Tolerance(format!(
            "{} residual check(s) failed",
            breaches.len()
        )))
    }
}

/// `pmerge report`
///
/// Re-renders the HTML validation report from a saved manifest, so a
/// long suite run never needs repeating just to regenerate its report.
pub fn report(args: &Args) -> Result<(), PmError> {
    args.check_known(&["from", "html"])?;
    let path = args.require("from")?;
    let contents = std::fs::read_to_string(path)
        .map_err(|e| PmError::io(format!("cannot read '{path}'"), e))?;
    let records = parse_manifest(&contents).map_err(|e| PmError::Usage(format!("{path}: {e}")))?;
    if records.is_empty() {
        return Err(PmError::Usage(format!(
            "'{path}' contains no manifest records"
        )));
    }
    let html = render_report(&records);
    match args.get("html") {
        Some(out) => {
            std::fs::write(out, &html)
                .map_err(|e| PmError::io(format!("cannot write '{out}'"), e))?;
            println!("wrote {out} ({} records)", records.len());
        }
        // Bare stream to stdout so it can be piped or redirected.
        None => print!("{html}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::{AdmissionPolicy, PrefetchChoice, SyncMode, WriteSpec};

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(ToString::to_string)).unwrap()
    }

    #[test]
    fn scenario_defaults_build_a_valid_config() {
        let (cfg, trials) = scenario(&args(&["simulate"])).unwrap();
        assert_eq!(cfg.runs, 25);
        assert_eq!(cfg.disks, 5);
        assert!(cfg.strategy.is_inter_run());
        assert_eq!(cfg.cache_blocks, 4 * 25 * 10);
        assert_eq!(trials, 5);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn scenario_parses_every_option() {
        let (cfg, trials) = scenario(&args(&[
            "simulate",
            "--runs",
            "10",
            "--blocks",
            "100",
            "--disks",
            "2",
            "--strategy",
            "intra",
            "--n",
            "4",
            "--cache",
            "80",
            "--sync",
            "--cpu-ms",
            "0.5",
            "--admission",
            "greedy",
            "--choice",
            "least-held",
            "--write-disks",
            "2",
            "--write-buffer",
            "16",
            "--trials",
            "3",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(cfg.runs, 10);
        assert_eq!(cfg.run_blocks, 100);
        assert_eq!(cfg.strategy, PrefetchStrategy::IntraRun { n: 4 });
        assert_eq!(cfg.sync, SyncMode::Synchronized);
        assert_eq!(cfg.cache_blocks, 80);
        assert_eq!(cfg.admission, AdmissionPolicy::Greedy);
        assert_eq!(cfg.prefetch_choice, PrefetchChoice::LeastHeld);
        assert_eq!(
            cfg.write,
            Some(WriteSpec {
                disks: 2,
                buffer_blocks: 16
            })
        );
        assert_eq!(cfg.seed, 7);
        assert_eq!(trials, 3);
    }

    #[test]
    fn scenario_rejects_bad_values() {
        assert!(scenario(&args(&["simulate", "--strategy", "bogus"])).is_err());
        assert!(scenario(&args(&["simulate", "--cpu-ms", "-1"])).is_err());
        assert!(scenario(&args(&["simulate", "--trials", "0"])).is_err());
        assert!(scenario(&args(&["simulate", "--admission", "x"])).is_err());
        assert!(scenario(&args(&["simulate", "--choice", "x"])).is_err());
        // Invalid merged config (cache below initial load).
        assert!(scenario(&args(&["simulate", "--cache", "1"])).is_err());
    }

    #[test]
    fn default_cache_is_depth_based_for_every_strategy() {
        // k * depth for demand-side strategies, 4 * k * depth for
        // inter-run ones — the adaptive variant sizes on its floor
        // n_min = 1, NOT the --n ceiling.
        let cases = [
            ("none", 25),           // 25 * 1
            ("intra", 25 * 10),     // 25 * n
            ("inter", 4 * 25 * 10), // 4 * 25 * n
            ("adaptive", 4 * 25),   // 4 * 25 * n_min
        ];
        for (strategy, expected) in cases {
            let (cfg, _) = scenario(&args(&["simulate", "--strategy", strategy])).unwrap();
            assert_eq!(cfg.cache_blocks, expected, "strategy {strategy}");
        }
        // An explicit --cache always wins.
        let (cfg, _) = scenario(&args(&[
            "simulate",
            "--strategy",
            "adaptive",
            "--cache",
            "500",
        ]))
        .unwrap();
        assert_eq!(cfg.cache_blocks, 500);
    }

    #[test]
    fn trace_writes_every_format() {
        let dir = std::env::temp_dir();
        let scenario_args = [
            "trace", "--runs", "4", "--blocks", "20", "--disks", "2", "--n", "2", "--trials", "2",
        ];
        for (format, probe) in [
            ("chrome", "\"traceEvents\""),
            ("csv", "at_ns,event"),
            ("gantt", "disk 0"),
        ] {
            let path = dir.join(format!("pmerge-trace-test.{format}"));
            let mut a: Vec<&str> = scenario_args.to_vec();
            let p = path.to_str().unwrap().to_string();
            a.extend_from_slice(&["--trace-format", format, "--trace-out", &p]);
            trace(&args(&a)).unwrap();
            let contents = std::fs::read_to_string(&path).unwrap();
            assert!(contents.contains(probe), "{format}: {contents:.80}");
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn trace_limit_and_bad_format() {
        let path = std::env::temp_dir().join("pmerge-trace-limit.csv");
        let p = path.to_str().unwrap().to_string();
        trace(&args(&[
            "trace",
            "--runs",
            "4",
            "--blocks",
            "20",
            "--disks",
            "2",
            "--n",
            "2",
            "--trials",
            "1",
            "--trace-limit",
            "10",
            "--trace-format",
            "csv",
            "--trace-out",
            &p,
        ]))
        .unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        // Header plus exactly the 10 retained events.
        assert_eq!(contents.lines().count(), 11);
        let _ = std::fs::remove_file(path);

        let err = trace(&args(&["trace", "--trace-format", "bogus"])).unwrap_err();
        assert!(err.to_string().contains("unknown trace format"));
        assert!(trace(&args(&["trace", "--trace-outt", "x"])).is_err());
    }

    #[test]
    fn simulate_runs_small_scenario() {
        simulate(&args(&[
            "simulate", "--runs", "4", "--blocks", "20", "--disks", "2", "--n", "2", "--trials",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn analyze_prints_predictions() {
        analyze(&args(&[
            "analyze", "--runs", "25", "--disks", "5", "--n", "10",
        ]))
        .unwrap();
        assert!(analyze(&args(&["analyze", "--runs", "0"])).is_err());
    }

    #[test]
    fn sweep_small_range() {
        sweep(&args(&[
            "sweep",
            "--param",
            "n",
            "--from",
            "1",
            "--to",
            "3",
            "--step",
            "1",
            "--runs",
            "4",
            "--blocks",
            "20",
            "--disks",
            "2",
            "--strategy",
            "intra",
            "--trials",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn sweep_rejects_bad_ranges() {
        assert!(sweep(&args(&[
            "sweep", "--param", "n", "--from", "5", "--to", "1"
        ]))
        .is_err());
        assert!(sweep(&args(&[
            "sweep", "--param", "bogus", "--from", "1", "--to", "2"
        ]))
        .is_err());
        assert!(sweep(&args(&["sweep"])).is_err());
    }

    #[test]
    fn unknown_options_are_reported() {
        assert!(simulate(&args(&["simulate", "--rnus", "25"])).is_err());
    }

    #[test]
    fn batch_runs_a_file() {
        let path = std::env::temp_dir().join("pmerge-batch-test.txt");
        std::fs::write(
            &path,
            "a: runs=4 blocks=20 disks=2 strategy=intra n=2
             b: runs=4 blocks=20 disks=2 strategy=inter n=2 cache=40
",
        )
        .unwrap();
        let a = args(&["batch", "--file", path.to_str().unwrap(), "--trials", "1"]);
        run_batch(&a).unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn batch_reports_bad_scenarios() {
        let path = std::env::temp_dir().join("pmerge-batch-bad.txt");
        std::fs::write(
            &path,
            "broken: cache=1
",
        )
        .unwrap();
        let a = args(&["batch", "--file", path.to_str().unwrap()]);
        let err = run_batch(&a).unwrap_err();
        assert!(err.to_string().contains("broken"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn batch_requires_file() {
        assert!(run_batch(&args(&["batch"])).is_err());
    }

    #[test]
    fn validate_options_parse() {
        let opts = validate_options(&args(&["validate"])).unwrap();
        assert_eq!(opts.master_seed, 1992);
        assert_eq!(opts.jobs, 0);
        assert!(matches!(opts.trials, TrialsMode::Auto(_)));
        assert_eq!(opts.tolerance, TolerancePolicy::default());

        let opts = validate_options(&args(&[
            "validate", "--trials", "4", "--jobs", "2", "--seed", "7", "--tol-eq", "0.001",
        ]))
        .unwrap();
        assert!(matches!(opts.trials, TrialsMode::Fixed(4)));
        assert_eq!(opts.jobs, 2);
        assert_eq!(opts.master_seed, 7);
        assert!((opts.tolerance.equation_rel - 0.001).abs() < 1e-12);

        let opts = validate_options(&args(&[
            "validate",
            "--rel-ci",
            "0.05",
            "--max-trials",
            "6",
        ]))
        .unwrap();
        match opts.trials {
            TrialsMode::Auto(p) => {
                assert!((p.rel_ci - 0.05).abs() < 1e-12);
                assert_eq!(p.max_trials, 6);
            }
            TrialsMode::Fixed(_) => panic!("expected auto"),
        }

        assert!(validate_options(&args(&["validate", "--trials", "soon"])).is_err());
        assert!(validate_options(&args(&["validate", "--rel-ci", "-1"])).is_err());
        assert!(validate(&args(&["validate", "--quik"])).is_err());
    }

    #[test]
    fn report_round_trips_a_manifest() {
        // validate is too slow for a unit test; render a manifest from the
        // library's suite driver on a tiny point instead.
        let cfg = ScenarioBuilder::new(4, 2)
            .intra(5)
            .run_blocks(40)
            .build()
            .unwrap();
        let points = vec![pm_obs::PointSpec {
            kind: pm_obs::RecordKind::T1Case,
            label: "tiny".into(),
            sweep: None,
            x: None,
            x_label: None,
            config: cfg,
        }];
        let opts = SuiteOptions {
            trials: TrialsMode::Fixed(2),
            ..SuiteOptions::new(1)
        };
        let records = run_suite(&points, &opts, &NullProgress).unwrap();
        let dir = std::env::temp_dir();
        let manifest = dir.join("pmerge-report-test.jsonl");
        let html = dir.join("pmerge-report-test.html");
        std::fs::write(&manifest, render_manifest(&records)).unwrap();

        let m = manifest.to_str().unwrap().to_string();
        let h = html.to_str().unwrap().to_string();
        report(&args(&["report", "--from", &m, "--html", &h])).unwrap();
        let rendered = std::fs::read_to_string(&html).unwrap();
        assert!(rendered.starts_with("<!DOCTYPE html>"));
        assert!(rendered.contains("tiny"));

        std::fs::write(&manifest, "not json\n").unwrap();
        assert!(report(&args(&["report", "--from", &m])).is_err());
        std::fs::write(&manifest, "").unwrap();
        assert!(report(&args(&["report", "--from", &m])).is_err());
        let _ = std::fs::remove_file(manifest);
        let _ = std::fs::remove_file(html);

        assert!(report(&args(&["report"])).is_err());
        assert!(report(&args(&["report", "--from", "/nonexistent/x.jsonl"])).is_err());
    }
}
