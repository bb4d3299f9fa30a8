//! Shared harness for the experiment binaries.
//!
//! Every figure/table of Pai & Varman (ICDE 1992) has a binary in
//! `src/bin/` that reruns its scenarios through this harness, prints the
//! paper's series (table + terminal plot), and writes raw CSV under
//! `target/experiments/`. Common flags:
//!
//! * `--trials <n>` — independent simulation trials per point (default 5).
//! * `--quick` — 2 trials and every 3rd sweep point; for smoke runs.
//! * `--seed <n>` — master seed (default 1992).
//! * `--out <dir>` — CSV output directory.
//! * `--jobs <n>` — worker threads for sweep points and trials
//!   (default 1; `0` = one per core; also settable via the `PM_JOBS`
//!   environment variable, with the flag taking precedence).
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
//! Expect near-linear wall-clock speedup in `min(jobs, points)` until the
//! experiment runs out of sweep points — the flagship `run_all --full`
//! reproduction is several times faster on a multicore box.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pm_core::{MergeConfig, TrialSummary, parallel, run_trials_parallel};
use pm_report::{Align, AsciiPlot, Csv, Table};
use pm_workload::Sweep;

/// Parsed common options plus any binary-specific leftover arguments.
#[derive(Debug, Clone)]
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
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            trials: 5,
            quick: false,
            seed: 1992,
            out_dir: PathBuf::from("target/experiments"),
            jobs: 1,
        }
    }
}

impl Harness {
    /// Parses common flags from `std::env::args`, returning the harness
    /// and the remaining (binary-specific) arguments.
    ///
    /// `--jobs` falls back to the `PM_JOBS` environment variable when the
    /// flag is absent, and to `1` when neither is given.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    #[must_use]
    pub fn from_args() -> (Self, Vec<String>) {
        let mut h = Harness::default();
        if let Ok(v) = std::env::var("PM_JOBS") {
            h.jobs = v.parse().expect("PM_JOBS must be a non-negative integer");
        }
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--trials" => {
                    let v = args.next().expect("--trials needs a value");
                    h.trials = v.parse().expect("--trials must be a positive integer");
                    assert!(h.trials > 0, "--trials must be positive");
                }
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    h.seed = v.parse().expect("--seed must be an integer");
                }
                "--out" => {
                    let v = args.next().expect("--out needs a directory");
                    h.out_dir = PathBuf::from(v);
                }
                "--jobs" => {
                    let v = args.next().expect("--jobs needs a value");
                    h.jobs = v.parse().expect("--jobs must be a non-negative integer");
                }
                "--quick" => h.quick = true,
                other => rest.push(other.to_string()),
            }
        }
        if h.quick {
            h.trials = h.trials.min(2);
        }
        (h, rest)
    }

    /// Runs one scenario's trials over the harness's worker pool.
    ///
    /// Bit-identical to [`pm_core::run_trials`] for every `jobs` value.
    ///
    /// # Errors
    ///
    /// Returns a [`pm_core::ConfigError`] if `cfg` is invalid.
    pub fn run_trials(&self, cfg: &MergeConfig) -> Result<TrialSummary, pm_core::ConfigError> {
        run_trials_parallel(cfg, self.trials, self.jobs)
    }

    /// Effective sweep points after `--quick` subsampling. Always keeps
    /// the first and last point of each sweep.
    #[must_use]
    pub fn thin(&self, sweep: &Sweep) -> Sweep {
        if !self.quick || sweep.points.len() <= 3 {
            return sweep.clone();
        }
        let last = sweep.points.len() - 1;
        let points = sweep
            .points
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0 || *i == last)
            .map(|(_, p)| p.clone())
            .collect();
        Sweep {
            label: sweep.label.clone(),
            x_label: sweep.x_label.clone(),
            points,
        }
    }

    /// Runs a family of sweeps, extracting `measure` from each point's
    /// trial summary. Prints a table and an ASCII plot, and writes
    /// `<out>/<name>.csv` with `series,x,y` rows. Returns the series as
    /// `(label, points)` pairs for further processing.
    ///
    /// Every sweep point of every curve runs concurrently on the
    /// harness's worker pool. Each point's trials run sequentially inside
    /// one worker (the cross-point fan-out already saturates the pool),
    /// so every point produces exactly the summary the sequential driver
    /// would, and results are collected in point order before rendering —
    /// the printed series and the CSV are byte-identical for every `jobs`
    /// value. Progress lines (`[name k/total] label x=… (elapsed)`) are
    /// emitted to stderr as points complete.
    ///
    /// # Panics
    ///
    /// Panics if a scenario is invalid or output files cannot be written.
    pub fn run_sweeps(
        &self,
        name: &str,
        title: &str,
        y_label: &str,
        sweeps: &[Sweep],
        measure: impl Fn(&TrialSummary) -> f64,
    ) -> Vec<(String, Vec<(f64, f64)>)> {
        let thinned: Vec<Sweep> = sweeps.iter().map(|s| self.thin(s)).collect();
        let items: Vec<(usize, f64, &MergeConfig)> = thinned
            .iter()
            .enumerate()
            .flat_map(|(si, sweep)| sweep.points.iter().map(move |p| (si, p.x, &p.config)))
            .collect();
        let total = items.len();
        let completed = AtomicUsize::new(0);
        let started = Instant::now();
        let summaries: Vec<TrialSummary> = parallel::run_ordered(total, self.jobs, |i| {
            let (si, x, config) = items[i];
            let summary = pm_core::run_trials(config, self.trials)
                .unwrap_or_else(|e| panic!("{name}: invalid config at x={x}: {e}"));
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!(
                "  [{name} {done}/{total}] {} x={} ({:.1}s)",
                thinned[si].label,
                format_num(x),
                started.elapsed().as_secs_f64()
            );
            summary
        });

        let mut series: Vec<(String, Vec<(f64, f64)>)> = thinned
            .iter()
            .map(|s| (s.label.clone(), Vec::with_capacity(s.points.len())))
            .collect();
        let mut table = Table::new(vec![
            "series".into(),
            thinned.first().map_or_else(|| "x".into(), |s| s.x_label.clone()),
            y_label.into(),
        ]);
        table.set_align(1, Align::Right);
        table.set_align(2, Align::Right);
        for ((si, x, _), summary) in items.iter().zip(&summaries) {
            let y = measure(summary);
            series[*si].1.push((*x, y));
            table.add_row(vec![
                thinned[*si].label.clone(),
                format_num(*x),
                format!("{y:.3}"),
            ]);
        }
        println!("== {title} ==\n");
        let mut plot = AsciiPlot::new(format!("{title} ({y_label})"), 72, 20);
        for (label, points) in &series {
            plot.add_series(label.clone(), points.clone());
        }
        println!("{}", plot.render());
        println!("{}", table.render());
        self.write_csv(name, &series, y_label);
        series
    }

    /// Writes `series,x,y` CSV for a family of curves.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors.
    pub fn write_csv(&self, name: &str, series: &[(String, Vec<(f64, f64)>)], y_label: &str) {
        fs::create_dir_all(&self.out_dir).expect("create output directory");
        let path = self.out_dir.join(format!("{name}.csv"));
        let file = fs::File::create(&path).expect("create CSV file");
        let mut csv = Csv::with_header(file, &["series", "x", y_label]).expect("write CSV header");
        for (label, points) in series {
            for &(x, y) in points {
                csv.row_strings(&[label.clone(), format_num(x), format!("{y:.6}")])
                    .expect("write CSV row");
            }
        }
        println!("wrote {}", path.display());
    }

    /// Path for an auxiliary output file.
    #[must_use]
    pub fn out_path(&self, file: &str) -> PathBuf {
        self.out_dir.join(file)
    }
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

/// Ensures a directory exists and returns it (test/bench convenience).
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn ensure_dir(path: &Path) -> &Path {
    fs::create_dir_all(path).expect("create directory");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::ScenarioBuilder;

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
            &[("curve".to_string(), vec![(1.0, 2.0), (3.0, 4.5)])],
            "secs",
        );
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
            let series =
                h.run_sweeps("unit_par", "t", "secs", &sweeps, |s| s.mean_total_secs);
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
}
