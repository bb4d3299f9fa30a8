//! The experiments that regenerate every figure and table of Pai & Varman
//! (ICDE 1992), and the harness they share.
//!
//! Each experiment is a function in [`EXPERIMENTS`] that returns its
//! tables as [`Output`]s. The `run_all` binary runs them: `run_all [name…]
//! [flags]` runs the named experiments (all of them when none is named)
//! one after another in one process, prints every table (with a terminal
//! plot for sweeps) and writes each to `<out>/<key>.csv` from the same
//! cells. Flags:
//!
//! * `--trials <n>` — independent simulation trials per point (default 5).
//! * `--quick` — at most 2 trials and every 3rd sweep point; for smoke runs.
//! * `--seed <n>` — master seed (default 1992).
//! * `--out <dir>` — CSV output directory.
//! * `--jobs <n>` — worker threads for each experiment's sweep points and
//!   trials (default 1; `0` = one per core; also settable via the
//!   `PM_JOBS` environment variable, with the flag taking precedence).
//! * `--panel <p>` — run one panel (`a`–`c` of `fig2_time_vs_n`, `1`–`3`
//!   of `fig5_time_vs_cache`) of the one experiment named.
//!
//! Every deterministic table of EXPERIMENTS.md is the markdown of one
//! [`Output`] at [`Harness::default`], between `<!-- generated: <key> -->`
//! and `<!-- end -->`; the crate's tests check each region against the
//! code.
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
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pm_core::{parallel, run_trials_parallel, MergeConfig, TrialSummary};
use pm_report::{Align, AsciiPlot, Csv, Table};
use pm_workload::Sweep;

mod experiments;

pub use experiments::{select, Experiment, EXPERIMENTS};

/// The command line `run_all` accepts, printed with every usage error.
pub const USAGE: &str = "usage: run_all [experiment...] [--trials n] [--quick] [--seed n] \
                         [--out dir] [--jobs n] [--panel p]";

/// Series of a family of curves: `(label, [(x, y)])` per curve.
pub type Series<Y = f64> = Vec<(String, Vec<(f64, Y)>)>;

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
    v.parse()
        .map_err(|_| format!("{flag}: invalid value '{v}'"))
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
        let env_jobs = std::env::var("PM_JOBS")
            .ok()
            .map(|v| ["--jobs".to_string(), v]);
        Self::parse(
            env_jobs
                .into_iter()
                .flatten()
                .chain(std::env::args().skip(1)),
        )
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
    pub(crate) fn sweep_series<T>(
        &self,
        name: &str,
        sweeps: &[Sweep],
        measure: impl Fn(&TrialSummary) -> T,
    ) -> Result<Series<T>, String> {
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
        let mut series: Series<T> = sweeps
            .iter()
            .map(|s| (s.label.clone(), Vec::with_capacity(s.points.len())))
            .collect();
        for ((si, x, _), summary) in items.iter().zip(summaries) {
            series[*si].1.push((*x, measure(&summary?)));
        }
        Ok(series)
    }

    /// Runs a family of sweeps (thinned under `--quick`), extracting
    /// `measure` from each point's trial summary. Returns the series
    /// table (one `series, x, y` row per point, with the ASCII plot), and
    /// the series for excerpts.
    ///
    /// Both are byte-identical for every `jobs` value.
    ///
    /// # Errors
    ///
    /// Returns a message if a scenario is invalid.
    pub fn run_sweeps(
        &self,
        key: &str,
        title: &str,
        y_label: &str,
        sweeps: &[Sweep],
        measure: impl Fn(&TrialSummary) -> f64,
    ) -> Result<(Output, Series), String> {
        let thinned: Vec<Sweep> = sweeps.iter().map(|s| self.thin(s)).collect();
        let series = self.sweep_series(key, &thinned, measure)?;
        let x_label = thinned.first().map_or("x", |s| s.x_label.as_str());
        Ok((series_output(key, title, x_label, y_label, &series), series))
    }
}

/// One table an experiment returns. `run_all` prints it and writes the
/// same cells to `<out>/<key>.csv`; an EXPERIMENTS.md region named `key`
/// holds its markdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The CSV file stem, and the EXPERIMENTS.md region key.
    pub key: String,
    /// The heading printed above the table.
    pub title: String,
    /// A terminal plot printed between heading and table (sweeps only).
    pub plot: Option<String>,
    headers: Vec<String>,
    /// Columns from this one on are right-aligned (numbers).
    first_right: usize,
    rows: Vec<Vec<String>>,
}

impl Output {
    /// An empty table with the given column headers, right-aligned from
    /// column `first_right` on.
    pub(crate) fn new(
        key: impl Into<String>,
        title: impl Into<String>,
        first_right: usize,
        headers: &[impl AsRef<str>],
    ) -> Self {
        Output {
            key: key.into(),
            title: title.into(),
            plot: None,
            headers: headers.iter().map(|h| h.as_ref().to_string()).collect(),
            first_right,
            rows: Vec::new(),
        }
    }

    /// Appends a row of formatted cells.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "{}: row width", self.key);
        self.rows.push(cells);
    }

    /// The cells as a [`Table`], for [`Table::render`] and
    /// [`Table::render_markdown`].
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(self.headers.clone());
        for i in self.first_right..self.headers.len() {
            table.set_align(i, Align::Right);
        }
        for row in &self.rows {
            table.add_row(row.clone());
        }
        table
    }

    /// The cells as CSV, header first.
    #[must_use]
    pub fn csv(&self) -> String {
        let header: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut csv = Csv::with_header(Vec::new(), &header).expect("writing to memory");
        for row in &self.rows {
            csv.row_strings(row).expect("writing to memory");
        }
        String::from_utf8(csv.into_inner()).expect("cells are UTF-8")
    }

    /// Writes [`Output::csv`] to `<dir>/<key>.csv`, creating `dir`, and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path on an I/O error.
    pub fn write_csv(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = dir.join(format!("{}.csv", self.key));
        fs::create_dir_all(dir)
            .and_then(|()| fs::write(&path, self.csv()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// The table of a family of curves, one `series, x, y` row per point,
/// with its ASCII plot.
pub(crate) fn series_output(
    key: &str,
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &Series,
) -> Output {
    let mut out = Output::new(key, title, 1, &["series", x_label, y_label]);
    let mut plot = AsciiPlot::new(format!("{title} ({y_label})"), 72, 20);
    for (label, points) in series {
        for &(x, y) in points {
            out.row(vec![label.clone(), format_num(x), format!("{y:.3}")]);
        }
        plot.add_series(label.clone(), points.clone());
    }
    out.plot = Some(plot.render());
    out
}

/// An excerpt of `series`: one row per curve, one column per `xs` value
/// the first curve was run at (headed `column(x)`), in seconds to 0.1.
pub(crate) fn points_output(
    key: &str,
    title: &str,
    series: &Series,
    xs: &[f64],
    column: impl Fn(f64) -> String,
) -> Output {
    let at = |pts: &[(f64, f64)], x: f64| pts.iter().find(|p| (p.0 - x).abs() < 1e-9).copied();
    let first: &[(f64, f64)] = series.first().map_or(&[], |(_, pts)| pts);
    let xs: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|&x| at(first, x).is_some())
        .collect();
    let mut header = vec!["series".to_string()];
    header.extend(xs.iter().map(|&x| column(x)));
    let mut out = Output::new(key, title, 1, &header);
    for (label, pts) in series {
        let mut row = vec![label.clone()];
        row.extend(
            xs.iter()
                .map(|&x| at(pts, x).map_or("-".into(), |p| format!("{:.1}", p.1))),
        );
        out.row(row);
    }
    out
}

/// Prints `error` and [`USAGE`] to stderr and exits 2.
pub fn usage_error(error: &str) -> ! {
    eprintln!("error: {error}\n{USAGE}");
    std::process::exit(2)
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
        let (h, names) =
            args("fig5_time_vs_cache --trials 3 --seed 7 --out x/y --jobs 4 --panel B --quick")
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
        let series = vec![("a, b".to_string(), vec![(1.0, 2.0), (3.0, 4.5)])];
        let out = series_output("unit", "t", "x", "secs", &series);
        let path = out.write_csv(&dir).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        let _ = fs::remove_dir_all(dir);
        assert_eq!(path.file_name().unwrap(), "unit.csv");
        // The CSV holds the table's cells, quoted where needed.
        assert_eq!(
            content,
            "series,x,secs\n\"a, b\",1,2.000\n\"a, b\",3,4.500\n"
        );
        assert!(out
            .table()
            .render_markdown()
            .contains("| a, b | 1 | 2.000 |"));
    }

    #[test]
    fn points_pick_the_requested_x_of_every_curve() {
        let series = vec![
            (
                "a".to_string(),
                vec![(0.0, 1.0), (0.35000000000000003, 2.04), (0.7, 3.0)],
            ),
            ("b".to_string(), vec![(0.0, 4.0), (0.7, 6.0)]),
        ];
        let out = points_output("p", "t", &series, &[0.35, 0.7, 1.0], |x| format!("{x} ms"));
        let md =
            "| series | 0.35 ms | 0.7 ms |\n|---|--:|--:|\n| a | 2.0 | 3.0 |\n| b | - | 6.0 |\n";
        assert_eq!(out.table().render_markdown(), md);
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
        let run = |jobs: usize| {
            let h = Harness {
                trials: 2,
                jobs,
                ..Harness::default()
            };
            let (out, series) = h
                .run_sweeps("unit_par", "t", "secs", &sweeps, |s| s.mean_total_secs)
                .unwrap();
            (series, out.csv())
        };
        let (seq_series, seq_csv) = run(1);
        for jobs in [2usize, 8] {
            let (par_series, par_csv) = run(jobs);
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
        assert!(h
            .panel_indices(&["1", "2"])
            .unwrap_err()
            .contains("unknown panel 'b'"));
    }
}
