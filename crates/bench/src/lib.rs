//! The experiments that regenerate every figure and table of Pai & Varman
//! (ICDE 1992), and the harness they share.
//!
//! Each experiment is a function in [`EXPERIMENTS`], run by the `run_all`
//! binary: `run_all [name…] [flags]` runs the named experiments (all of
//! them when none is named) one after another in one process. Each prints
//! the paper's series (table, and a terminal plot for sweeps) and writes
//! raw CSV under `target/experiments/`. Flags:
//!
//! * `--trials <n>` — independent simulation trials per point (default 5).
//! * `--quick` — at most 2 trials and every 3rd sweep point; for smoke runs.
//! * `--seed <n>` — master seed (default 1992).
//! * `--out <dir>` — CSV output directory.
//! * `--jobs <n>` — worker threads for each experiment's sweep points and
//!   trials (default 1; `0` = one per core; also settable via the
//!   `PM_JOBS` environment variable, with the flag taking precedence).
//! * `--panel <p>` — run one panel (`a`–`c` of `fig2_time_vs_n`, `1`–`3`
//!   of `fig5_time_vs_cache` and `fig6_success_ratio`) of the one
//!   experiment named.
//!
//! The T1, T2 and Fig. 3.2 tables that EXPERIMENTS.md shows are built by
//! [`t1_table`], [`t2_table`] and [`fig2_points`]; the crate's tests check
//! the file's generated regions against them.
//!
//! ## Parallel execution and determinism
//!
//! [`Harness::run_sweeps`] fans every sweep point of a figure out over
//! `jobs` workers, and
//! [`Harness::run_trials`] does the same for a single scenario's trials
//! via [`pm_core::run_trials_parallel`]. Both are **bit-identical** to
//! their sequential counterparts for every `jobs` value: trial seeds are
//! pre-derived from the master seed (the exact sequence the sequential
//! driver consumes) and results are collected in work-item order before
//! any output is rendered, so tables, plots and CSV files never depend on
//! worker count or OS scheduling. Per-point progress lines go to stderr;
//! all result output (and the CSVs) stays on the deterministic path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pm_core::{MergeConfig, TrialSummary, parallel, run_trials_parallel};
use pm_report::{Align, AsciiPlot, Csv, Table};
use pm_workload::Sweep;

mod experiments;

pub use experiments::concurrency_table::t2_table;
pub use experiments::fig2_time_vs_n::fig2_points;
pub use experiments::validation_table::t1_table;
pub use experiments::{select, Experiment, EXPERIMENTS};

/// The command line `run_all` accepts, printed with every usage error.
pub const USAGE: &str = "usage: run_all [experiment...] [--trials n] [--quick] [--seed n] \
                         [--out dir] [--jobs n] [--panel p]";

/// Series of a family of curves: `(label, [(x, y)])` per curve.
pub type Series = Vec<(String, Vec<(f64, f64)>)>;

/// Parsed common options.
#[derive(Debug, Clone, PartialEq)]
pub struct Harness {
    /// Trials per sweep point.
    pub trials: u32,
    /// Subsample sweep points (every 3rd) for smoke runs.
    pub quick: bool,
    /// Master seed fed to the workload builders.
    pub seed: u64,
    /// Directory for CSV output.
    pub out_dir: PathBuf,
    /// Worker threads for sweep points and trials (`0` = one per core).
    pub jobs: usize,
    /// The one panel to run, for a multi-panel experiment.
    pub panel: Option<String>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            trials: 5,
            quick: false,
            seed: 1992,
            out_dir: PathBuf::from("target/experiments"),
            jobs: 1,
            panel: None,
        }
    }
}

fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: invalid value '{v}'"))
}

impl Harness {
    /// Parses the flags of [`USAGE`], returning the harness and the
    /// experiment names given.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag on an unknown flag, a missing or
    /// malformed value, or `--trials 0`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<(Self, Vec<String>), String> {
        let mut h = Harness::default();
        let mut names = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--trials" => h.trials = value(&arg, &mut args)?,
                "--seed" => h.seed = value(&arg, &mut args)?,
                "--out" => h.out_dir = value(&arg, &mut args)?,
                "--jobs" => h.jobs = value(&arg, &mut args)?,
                "--panel" => h.panel = Some(value::<String>(&arg, &mut args)?.to_ascii_lowercase()),
                "--quick" => h.quick = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                _ => names.push(arg),
            }
        }
        if h.trials == 0 {
            return Err("--trials must be positive".into());
        }
        if h.quick {
            h.trials = h.trials.min(2);
        }
        Ok((h, names))
    }

    /// Parses `std::env::args`, with `PM_JOBS` read as a `--jobs` that
    /// any `--jobs` flag overrides. Prints [`USAGE`] and exits 2 when the
    /// flags do not parse.
    #[must_use]
    pub fn from_args() -> (Self, Vec<String>) {
        let env_jobs = std::env::var("PM_JOBS").ok().map(|v| ["--jobs".to_string(), v]);
        Self::parse(env_jobs.into_iter().flatten().chain(std::env::args().skip(1)))
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// Runs one scenario's trials over the harness's worker pool.
    ///
    /// Bit-identical to [`pm_core::run_trials`] for every `jobs` value.
    ///
    /// # Errors
    ///
    /// Returns the configuration error if `cfg` is invalid.
    pub fn run_trials(&self, cfg: &MergeConfig) -> Result<TrialSummary, String> {
        run_trials_parallel(cfg, self.trials, self.jobs).map_err(|e| e.to_string())
    }

    /// Effective sweep points after `--quick` subsampling. Always keeps
    /// the first and last point of each sweep.
    #[must_use]
    pub fn thin(&self, sweep: &Sweep) -> Sweep {
        if self.quick && sweep.points.len() > 3 {
            sweep.thinned(3)
        } else {
            sweep.clone()
        }
    }

    /// The indices into `all` (an experiment's panel names) of the panels
    /// to run: the one `--panel` names, or every panel.
    fn panel_indices(&self, all: &[&str]) -> Result<Vec<usize>, String> {
        match &self.panel {
            None => Ok((0..all.len()).collect()),
            Some(p) => all
                .iter()
                .position(|a| a == p)
                .map(|i| vec![i])
                .ok_or_else(|| format!("unknown panel '{p}', expected one of {}", all.join(", "))),
        }
    }

    /// Simulates every point of `sweeps` (not thinned) and extracts
    /// `measure` from each point's trial summary.
    ///
    /// Every point of every curve runs concurrently on the harness's
    /// worker pool; each point's trials run sequentially inside one worker
    /// (the cross-point fan-out already saturates the pool), so every
    /// point produces exactly the summary the sequential driver would.
    /// Progress lines (`[name k/total] label x=… (elapsed)`) go to stderr.
    fn sweep_series(
        &self,
        name: &str,
        sweeps: &[Sweep],
        measure: impl Fn(&TrialSummary) -> f64,
    ) -> Result<Series, String> {
        let items: Vec<(usize, f64, &MergeConfig)> = sweeps
            .iter()
            .enumerate()
            .flat_map(|(si, sweep)| sweep.points.iter().map(move |p| (si, p.x, &p.config)))
            .collect();
        let total = items.len();
        let completed = AtomicUsize::new(0);
        let started = Instant::now();
        let summaries = parallel::run_ordered(total, self.jobs, |i| {
            let (si, x, config) = items[i];
            let summary = pm_core::run_trials(config, self.trials)
                .map_err(|e| format!("{name}: invalid config at x={x}: {e}"))?;
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!(
                "  [{name} {done}/{total}] {} x={} ({:.1}s)",
                sweeps[si].label,
                format_num(x),
                started.elapsed().as_secs_f64()
            );
            Ok::<_, String>(summary)
        });
        let mut series: Series = sweeps
            .iter()
            .map(|s| (s.label.clone(), Vec::with_capacity(s.points.len())))
            .collect();
        for ((si, x, _), summary) in items.iter().zip(summaries) {
            series[*si].1.push((*x, measure(&summary?)));
        }
        Ok(series)
    }

    /// Runs a family of sweeps (thinned under `--quick`), extracting
    /// `measure` from each point's trial summary. Prints a table and an
    /// ASCII plot, and writes `<out>/<name>.csv` with `series,x,y` rows.
    /// Returns the series for further processing.
    ///
    /// The printed series and the CSV are byte-identical for every `jobs`
    /// value.
    ///
    /// # Errors
    ///
    /// Returns a message if a scenario is invalid or the CSV cannot be
    /// written.
    pub fn run_sweeps(
        &self,
        name: &str,
        title: &str,
        y_label: &str,
        sweeps: &[Sweep],
        measure: impl Fn(&TrialSummary) -> f64,
    ) -> Result<Series, String> {
        let thinned: Vec<Sweep> = sweeps.iter().map(|s| self.thin(s)).collect();
        let series = self.sweep_series(name, &thinned, measure)?;
        let x_label = thinned.first().map_or("x", |s| s.x_label.as_str());
        let mut table = right_aligned(1, &["series", x_label, y_label]);
        let mut plot = AsciiPlot::new(format!("{title} ({y_label})"), 72, 20);
        for (label, points) in &series {
            for &(x, y) in points {
                table.add_row(vec![label.clone(), format_num(x), format!("{y:.3}")]);
            }
            plot.add_series(label.clone(), points.clone());
        }
        println!("== {title} ==\n");
        println!("{}", plot.render());
        println!("{}", table.render());
        self.write_csv(name, &series, y_label)?;
        Ok(series)
    }

    /// Writes `series,x,y` CSV for a family of curves.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O errors.
    pub fn write_csv(&self, name: &str, series: &Series, y_label: &str) -> Result<(), String> {
        let mut csv = self.csv(name, &["series", "x", y_label])?;
        for (label, points) in series {
            for &(x, y) in points {
                csv.row(&[label.clone(), format_num(x), format!("{y:.6}")])?;
            }
        }
        csv.finish()
    }

    /// Creates `<out>/<name>.csv` (and the output directory) with the
    /// given header row.
    pub(crate) fn csv(&self, name: &str, header: &[&str]) -> Result<CsvFile, String> {
        let path = self.out_path(&format!("{name}.csv"));
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        fs::create_dir_all(&self.out_dir).map_err(fail)?;
        let file = fs::File::create(&path).map_err(fail)?;
        let csv = Csv::with_header(BufWriter::new(file), header).map_err(fail)?;
        Ok(CsvFile { csv, path })
    }

    /// Path for an output file.
    #[must_use]
    pub fn out_path(&self, file: &str) -> PathBuf {
        self.out_dir.join(file)
    }
}

/// An experiment's CSV output, from [`Harness::csv`].
pub(crate) struct CsvFile {
    csv: Csv<BufWriter<fs::File>>,
    path: PathBuf,
}

impl CsvFile {
    /// Writes one row of already-formatted fields.
    pub(crate) fn row(&mut self, fields: &[String]) -> Result<(), String> {
        self.csv.row_strings(fields).map_err(|e| format!("{}: {e}", self.path.display()))
    }

    /// Flushes the file and prints `wrote <path>`.
    pub(crate) fn finish(self) -> Result<(), String> {
        self.csv.into_inner().flush().map_err(|e| format!("{}: {e}", self.path.display()))?;
        println!("wrote {}", self.path.display());
        Ok(())
    }
}

/// Prints `error` and [`USAGE`] to stderr and exits 2.
pub fn usage_error(error: &str) -> ! {
    eprintln!("error: {error}\n{USAGE}");
    std::process::exit(2)
}

/// A table with the given column headers, right-aligned (for numbers)
/// from column `first_right` on.
pub(crate) fn right_aligned(first_right: usize, headers: &[impl AsRef<str>]) -> Table {
    let mut table = Table::new(headers.iter().map(|h| h.as_ref().to_string()).collect());
    for i in first_right..headers.len() {
        table.set_align(i, Align::Right);
    }
    table
}

/// Formats a sweep coordinate without trailing noise (integers stay
/// integers).
#[must_use]
pub fn format_num(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::ScenarioBuilder;

    fn args(line: &str) -> Result<(Harness, Vec<String>), String> {
        Harness::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_accepts_every_flag() {
        let (h, names) = args(
            "fig5_time_vs_cache --trials 3 --seed 7 --out x/y --jobs 4 --panel B --quick",
        )
        .unwrap();
        assert_eq!(names, ["fig5_time_vs_cache"]);
        let expected = Harness {
            trials: 2,
            quick: true,
            seed: 7,
            out_dir: PathBuf::from("x/y"),
            jobs: 4,
            panel: Some("b".into()),
        };
        assert_eq!(h, expected);
        assert_eq!(args("").unwrap(), (Harness::default(), vec![]));
    }

    #[test]
    fn parse_later_flags_win() {
        // `from_args` puts PM_JOBS first, so the flag overrides it.
        assert_eq!(args("--jobs 3 --jobs 2").unwrap().0.jobs, 2);
    }

    #[test]
    fn parse_rejects_bad_flags() {
        for (line, needle) in [
            ("--trails 1", "unknown flag --trails"),
            ("--trials x", "--trials: invalid value 'x'"),
            ("--trials -1", "--trials: invalid value '-1'"),
            ("--trials 0", "--trials must be positive"),
            ("--seed", "--seed needs a value"),
            ("--jobs two", "--jobs: invalid value 'two'"),
            ("--panel", "--panel needs a value"),
            ("-q", "unknown flag -q"),
        ] {
            let err = args(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn format_num_trims_integers() {
        assert_eq!(format_num(10.0), "10");
        assert_eq!(format_num(0.25), "0.250");
    }

    #[test]
    fn thin_keeps_endpoints() {
        let sweep = Sweep::build("s", "N", (1..=10).map(f64::from), |x| {
            ScenarioBuilder::new(4, 2).intra(x as u32).build().unwrap()
        });
        let h = Harness {
            quick: true,
            ..Harness::default()
        };
        let thinned = h.thin(&sweep);
        assert_eq!(thinned.points.first().unwrap().x, 1.0);
        assert_eq!(thinned.points.last().unwrap().x, 10.0);
        assert!(thinned.len() < sweep.len());
    }

    #[test]
    fn thin_is_identity_without_quick() {
        let sweep = Sweep::build("s", "N", (1..=10).map(f64::from), |x| {
            ScenarioBuilder::new(4, 2).intra(x as u32).build().unwrap()
        });
        let h = Harness::default();
        assert_eq!(h.thin(&sweep).len(), 10);
    }

    #[test]
    fn csv_output_round_trip() {
        let dir = std::env::temp_dir().join("pm-bench-test-csv");
        let h = Harness {
            out_dir: dir.clone(),
            ..Harness::default()
        };
        h.write_csv(
            "unit",
            &vec![("curve".to_string(), vec![(1.0, 2.0), (3.0, 4.5)])],
            "secs",
        )
        .unwrap();
        let content = fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert!(content.starts_with("series,x,secs\n"));
        assert!(content.contains("curve,1,2.000000"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn harness_run_trials_matches_core_for_any_jobs() {
        let mut cfg = ScenarioBuilder::new(4, 2).intra(5).build().unwrap();
        cfg.run_blocks = 30;
        let baseline = pm_core::run_trials(&cfg, 3).unwrap();
        for jobs in [1usize, 2, 8] {
            let h = Harness {
                trials: 3,
                jobs,
                ..Harness::default()
            };
            let summary = h.run_trials(&cfg).unwrap();
            assert_eq!(summary.reports, baseline.reports, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_sweeps_write_identical_csv() {
        let sweeps = vec![
            Sweep::build("a", "N", (1..=4).map(f64::from), |x| {
                ScenarioBuilder::new(4, 2).intra(x as u32).build().unwrap()
            }),
            Sweep::build("b", "N", (1..=4).map(f64::from), |x| {
                ScenarioBuilder::new(6, 3).intra(x as u32).build().unwrap()
            }),
        ];
        let run = |jobs: usize, tag: &str| {
            let dir = std::env::temp_dir().join(format!("pm-bench-test-par-{tag}"));
            let h = Harness {
                trials: 2,
                jobs,
                out_dir: dir.clone(),
                ..Harness::default()
            };
            let series = h
                .run_sweeps("unit_par", "t", "secs", &sweeps, |s| s.mean_total_secs)
                .unwrap();
            let csv = fs::read_to_string(dir.join("unit_par.csv")).unwrap();
            let _ = fs::remove_dir_all(dir);
            (series, csv)
        };
        let (seq_series, seq_csv) = run(1, "seq");
        for jobs in [2usize, 8] {
            let (par_series, par_csv) = run(jobs, &format!("j{jobs}"));
            assert_eq!(seq_series, par_series, "jobs={jobs}");
            assert_eq!(seq_csv, par_csv, "jobs={jobs}");
        }
    }

    #[test]
    fn panels_select_one_or_all() {
        let all = ["a", "b", "c"];
        assert_eq!(Harness::default().panel_indices(&all).unwrap(), [0, 1, 2]);
        let h = Harness {
            panel: Some("b".into()),
            ..Harness::default()
        };
        assert_eq!(h.panel_indices(&all).unwrap(), [1]);
        assert!(h.panel_indices(&["1", "2"]).unwrap_err().contains("unknown panel 'b'"));
    }
}
