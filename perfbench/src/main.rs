//! The prefetchmerge benchmark: one process, closed loop, one operation at a
//! time, timing calls into each layer's public functions from outside.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) the per-layer ones. Human-readable lines come first;
//! the last line of standard output is one JSON object. The exit code is 0
//! only when every operation passed its checks. See README.md beside this
//! package for the workloads and how to read the numbers.

mod alloc;
mod calib;
mod check;
mod grid;
mod metrics;
mod sort;
mod timed_queue;

use std::process::{Command, ExitCode, Stdio};

use metrics::{complete, median, result_line, Values, END_TO_END, PER_LAYER};

#[global_allocator]
static GLOBAL: alloc::Tracking = alloc::Tracking;

pub const WORKLOADS: [&str; 3] = ["sort_mem_1pass", "sort_file_2pass", "sim_paper_grid"];

/// Records per block: the paper's 40 records in a 4096-byte block. It
/// converts simulated blocks to records on `sim_paper_grid`.
pub const RECORDS_PER_BLOCK: f64 = 40.0;

/// Set-ups measured per untraced run, each in a fresh process so every one
/// pays the cold-start cost a `pmerge exec` invocation pays; `setup_s` is
/// their median.
const SETUP_SAMPLES: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Measure set-up only and stop (the fresh-process set-up samples).
    pub setup_only: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    /// Program constructors plus the warm-up operation.
    pub setup_s: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

fn run_workload(name: &str, p: &Params, scale: Scale) -> Outcome {
    let small = scale == Scale::Small;
    let sort_shape = if small {
        sort::SortShape::SMALL
    } else {
        sort::SortShape::FULL
    };
    let grid_shape = if small {
        grid::GridShape::SMALL
    } else {
        grid::GridShape::FULL
    };
    match name {
        "sort_mem_1pass" => sort::run(sort::SortKind::MemSinglePass, &sort_shape, p),
        "sort_file_2pass" => sort::run(sort::SortKind::FileTwoPass, &sort_shape, p),
        "sim_paper_grid" => grid::run(&grid_shape, p),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Folds the set-up samples into the outcome and renders its metrics.
fn finish(
    mut out: Outcome,
    trace: bool,
    mut setups: Vec<f64>,
) -> (Vec<(&'static str, &'static str, f64)>, Outcome) {
    if !trace {
        setups.extend(out.setup_s);
        if !setups.is_empty() {
            out.values.insert("setup_s", median(&setups));
        }
    }
    let table = if trace { PER_LAYER } else { END_TO_END };
    // A run with failures still prints a line, with what it measured.
    let lenient = trace || out.failed > 0;
    match complete(table, &out.values, lenient) {
        Ok(metrics) => (metrics, out),
        Err(e) => {
            out.fail(e);
            let metrics = complete(table, &Values::new(), true).expect("empty values are valid");
            (metrics, out)
        }
    }
}

struct Args {
    workload: String,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                params.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an unsigned integer".to_string())?;
            }
            "--seconds" => {
                params.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds must be a non-negative number")?;
            }
            "--trace" => {
                params.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            "--setup-probe" => params.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected all or one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args { workload, params })
}

/// Re-runs this program with `args`, waiting for it to end.
fn rerun(args: &[String], capture: bool) -> Result<std::process::Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null());
    if !capture {
        cmd.stdout(Stdio::inherit()).stderr(Stdio::inherit());
    }
    cmd.output()
        .map_err(|e| format!("running the benchmark: {e}"))
}

fn common_args(workload: &str, p: &Params) -> Vec<String> {
    vec![
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        p.seed.to_string(),
        "--seconds".into(),
        p.seconds.to_string(),
        "--trace".into(),
        if p.trace { "1" } else { "0" }.into(),
    ]
}

/// `--workload all`: every workload in turn, each in its own process.
fn run_all(p: &Params) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        match rerun(&common_args(w, p), false) {
            Ok(output) => ok &= output.status.success(),
            Err(e) => {
                eprintln!("{w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up samples from fresh processes: `(samples, operations attempted,
/// errors)`.
fn setup_samples(workload: &str, p: &Params) -> (Vec<f64>, u64, Vec<String>) {
    let mut samples = Vec::new();
    let mut attempted = 0;
    let mut errors = Vec::new();
    let mut args = common_args(workload, p);
    args.push("--setup-probe".into());
    for _ in 1..SETUP_SAMPLES {
        let probe = rerun(&args, true).and_then(|output| {
            let stdout = String::from_utf8_lossy(&output.stdout);
            let sample = stdout
                .lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse::<f64>().ok());
            let attempts = stdout
                .lines()
                .find_map(|l| l.strip_prefix("attempted "))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(1);
            attempted += attempts;
            match sample {
                Some(s) if output.status.success() => Ok(s),
                _ => Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&output.stderr).trim()
                )),
            }
        });
        match probe {
            Ok(s) => samples.push(s),
            Err(e) => errors.push(e),
        }
    }
    (samples, attempted, errors)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = calib::pin_to_one_cpu() {
        eprintln!("perfbench: pinning to one CPU: {e}");
        return ExitCode::FAILURE;
    }
    let p = args.params;
    if args.workload == "all" {
        return run_all(&p);
    }
    if p.setup_only {
        let out = run_workload(&args.workload, &p, Scale::Full);
        for e in &out.errors {
            eprintln!("{e}");
        }
        println!("attempted {}", out.attempted);
        return match out.setup_s {
            Some(s) if out.failed == 0 => {
                println!("setup_s {s:?}");
                ExitCode::SUCCESS
            }
            _ => ExitCode::FAILURE,
        };
    }

    let (setups, probe_attempts, probe_errors) = if p.trace {
        (Vec::new(), 0, Vec::new())
    } else {
        setup_samples(&args.workload, &p)
    };
    let mut out = run_workload(&args.workload, &p, Scale::Full);
    out.attempted += probe_attempts;
    for e in probe_errors {
        out.fail(e);
    }
    let (metrics, out) = finish(out, p.trace, setups);

    for e in &out.errors {
        eprintln!("perfbench: {}: {e}", args.workload);
    }
    println!(
        "{} ({}): {} operations, {} failed",
        args.workload,
        if p.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One string field of every object in an array of `BENCHMARK.json`.
    fn listed(json: &str, key: &str, f: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let at = obj.find(&format!("\"{f}\"")).expect("field present");
                let rest = &obj[at + f.len() + 2..];
                let open = rest.find('"').expect("string value") + 1;
                let len = rest[open..].find('"').expect("string closes");
                rest[open..open + len].to_string()
            })
            .collect()
    }

    /// `(name, unit)` pairs of one metric array in `BENCHMARK.json`.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        listed(json, key, "name")
            .into_iter()
            .zip(listed(json, key, "unit"))
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    fn quick(trace: bool) -> Params {
        Params {
            seed: 3,
            seconds: 0.0,
            trace,
            setup_only: false,
        }
    }

    /// The printed metric names and units are the ones `BENCHMARK.json`
    /// declares, in both modes and on every workload.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        assert_eq!(declared(&json, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), table(PER_LAYER));
        assert_eq!(listed(&json, "workloads", "name"), WORKLOADS);
        for w in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(w, &quick(trace), Scale::Small);
                let (metrics, out) = finish(out, trace, Vec::new());
                assert_eq!(out.failed, 0, "{w}: {:?}", out.errors);
                let printed: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(n, u, _)| ((*n).to_string(), (*u).to_string()))
                    .collect();
                let expected = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(printed, table(expected), "{w} trace={trace}");
                if !trace {
                    assert!(metrics.iter().all(|(_, _, v)| *v > 0.0), "{w}: {metrics:?}");
                }
            }
        }
    }

    /// `model_merge_s` and the model statistics repeat bit for bit for a
    /// seed, and agree between traced and untraced runs.
    #[test]
    fn model_figures_repeat_exactly() {
        const MODEL: [&str; 5] = [
            "trace.model_merge_s",
            "sim.success_ratio",
            "sim.avg_concurrency",
            "disk.seek_frac",
            "disk.sequential_frac",
        ];
        for w in WORKLOADS {
            let traced: Vec<Values> = (0..2)
                .map(|_| run_workload(w, &quick(true), Scale::Small).values)
                .collect();
            let plain = run_workload(w, &quick(false), Scale::Small).values;
            for name in MODEL {
                let a = traced[0].get(name).copied().unwrap_or(0.0);
                let b = traced[1].get(name).copied().unwrap_or(0.0);
                assert_eq!(a.to_bits(), b.to_bits(), "{w} {name}");
            }
            assert_eq!(
                plain["model_merge_s"].to_bits(),
                traced[0]["trace.model_merge_s"].to_bits(),
                "{w}"
            );
        }
    }
}
