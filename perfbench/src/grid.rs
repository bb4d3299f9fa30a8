//! The `sim_paper_grid` workload: `MergeSim` trials of the paper's setup
//! (k=25 runs of 1000 blocks, inter-run N=10, C=1200, unsynchronized) at
//! D = 8, 16 and 32, single-threaded, with no engine or I/O.
//!
//! One operation is one trial; a round runs one trial at each D. Trial
//! seeds are `pm_sim::derive_seeds` of the workload seed, the sequence
//! `run_trial_range` uses, so round `r` is trial `r` of each grid point.

use std::time::Instant;

use pm_core::{
    MergeConfig, MergeReport, MergeSim, RecordingSink, ScenarioBuilder, UniformDepletion,
};

use crate::calib::Calibration;
use crate::check::process_cpu_s;
use crate::metrics::{median, ratio};
use crate::{alloc, Outcome, Params, RECORDS_PER_BLOCK};

#[derive(Debug, Clone, Copy)]
pub struct GridShape {
    pub runs: u32,
    pub run_blocks: u32,
    pub disks: [u32; 3],
    pub n: u32,
    pub cache_blocks: u32,
    /// Rounds `0..model_rounds` form the fixed trial set the model
    /// statistics and `model_merge_s` are taken over, so they repeat
    /// exactly for a seed however many rounds a run fits.
    pub model_rounds: usize,
}

impl GridShape {
    pub const FULL: GridShape = GridShape {
        runs: 25,
        run_blocks: 1000,
        disks: [8, 16, 32],
        n: 10,
        cache_blocks: 1200,
        model_rounds: 32,
    };

    /// The same grid over 40-block runs, for tests.
    pub const SMALL: GridShape = GridShape {
        run_blocks: 40,
        model_rounds: 2,
        ..GridShape::FULL
    };

    fn configs(&self, seed: u64) -> Result<Vec<MergeConfig>, String> {
        self.disks
            .iter()
            .map(|&d| {
                ScenarioBuilder::new(self.runs, d)
                    .inter(self.n)
                    .cache_blocks(self.cache_blocks)
                    .run_blocks(self.run_blocks)
                    .seed(seed)
                    .build()
                    .map_err(|e| e.to_string())
            })
            .collect()
    }
}

/// One trial.
struct Trial {
    report: MergeReport,
    secs: f64,
    /// `MergeSim::new` time and events recorded (traced trials only).
    new_secs: f64,
    events: u64,
}

/// One trial at each grid point.
struct Round {
    trials: Vec<Trial>,
    cpu_s: f64,
    peak_bytes: usize,
    /// Calibration scale for the machine's speed around this round.
    scale: f64,
}

impl Round {
    fn secs(&self) -> f64 {
        self.trials.iter().map(|t| t.secs).sum()
    }

    /// Calibrated round time.
    fn scaled_secs(&self) -> f64 {
        self.secs() * self.scale
    }

    fn blocks(&self) -> u64 {
        self.trials.iter().map(|t| t.report.blocks_merged).sum()
    }
}

fn trial(cfg: MergeConfig, traced: bool) -> Result<Trial, String> {
    let t0 = Instant::now();
    let sim = MergeSim::new(cfg).map_err(|e| e.to_string())?;
    if traced {
        let t1 = Instant::now();
        let (report, sink) = sim
            .replace_sink(RecordingSink::unbounded())
            .run_with_sink(&mut UniformDepletion);
        let t2 = Instant::now();
        Ok(Trial {
            report,
            secs: (t2 - t0).as_secs_f64(),
            new_secs: (t1 - t0).as_secs_f64(),
            events: sink.total_emitted(),
        })
    } else {
        let report = sim.run(&mut UniformDepletion);
        Ok(Trial {
            report,
            secs: t0.elapsed().as_secs_f64(),
            new_secs: 0.0,
            events: 0,
        })
    }
}

fn round(configs: &[MergeConfig], seed: u64, traced: bool) -> Result<Round, String> {
    let cpu0 = process_cpu_s()?;
    let heap0 = alloc::reset_peak();
    let mut trials = Vec::with_capacity(configs.len());
    for cfg in configs {
        let mut cfg = *cfg;
        cfg.seed = seed;
        trials.push(trial(cfg, traced)?);
    }
    let peak_bytes = alloc::peak().saturating_sub(heap0);
    let cpu_s = process_cpu_s()? - cpu0;
    for (t, cfg) in trials.iter().zip(configs) {
        let expected = u64::from(cfg.runs) * u64::from(cfg.run_blocks);
        if t.report.blocks_merged != expected {
            return Err(format!(
                "D={}: merged {} blocks, expected {expected}",
                cfg.disks, t.report.blocks_merged
            ));
        }
    }
    Ok(Round {
        trials,
        cpu_s,
        peak_bytes,
        scale: 1.0,
    })
}

fn same_reports(a: &Round, b: &Round) -> bool {
    a.trials
        .iter()
        .zip(&b.trials)
        .all(|(x, y)| x.report == y.report)
}

/// Trial seeds, extended as rounds are added (the sequence is
/// prefix-stable).
struct Seeds {
    master: u64,
    seeds: Vec<u64>,
}

impl Seeds {
    fn get(&mut self, round: usize) -> u64 {
        if round >= self.seeds.len() {
            self.seeds = pm_sim::derive_seeds(self.master, (2 * round).max(64));
        }
        self.seeds[round]
    }
}

/// Runs the grid: set-up (the scenario configurations plus
/// one untimed warm-up round), then rounds for `p.seconds`, and at least the
/// model set. A traced run follows each plain round with the same round
/// traced, whose reports must be identical.
pub fn run(shape: &GridShape, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut seeds = Seeds {
        master: p.seed,
        seeds: Vec::new(),
    };
    let first_seed = seeds.get(0);
    let mut cal = Calibration::new();

    let t = Instant::now();
    let configs = match shape.configs(p.seed) {
        Ok(configs) => configs,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let constructors_s = t.elapsed().as_secs_f64();
    out.attempted += configs.len() as u64;
    let warm = round(&configs, first_seed, false);
    let scale = cal.scale();
    let warm = match warm {
        Ok(warm) => {
            out.setup_s = Some((constructors_s + warm.secs()) * scale);
            Some(warm)
        }
        Err(e) => {
            out.fail(format!("warm-up round: {e}"));
            None
        }
    };
    if p.setup_only {
        return out;
    }

    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let started = Instant::now();
    while plain.len() < shape.model_rounds.max(2) || started.elapsed().as_secs_f64() < p.seconds {
        let r = plain.len();
        let seed = seeds.get(r);
        out.attempted += configs.len() as u64;
        let one = round(&configs, seed, false);
        let scale = cal.scale();
        let one = match one {
            Ok(one) => Round { scale, ..one },
            Err(e) => {
                out.fail(format!("round {r}: {e}"));
                break;
            }
        };
        if r == 0 && warm.as_ref().is_some_and(|w| !same_reports(w, &one)) {
            out.fail("round 0 differs from the warm-up round".into());
        }
        if p.trace {
            out.attempted += configs.len() as u64;
            let t = round(&configs, seed, true);
            let scale = cal.scale();
            match t {
                Ok(t) if same_reports(&t, &one) => traced.push(Round { scale, ..t }),
                Ok(_) => out.fail(format!("round {r}: the traced reports differ")),
                Err(e) => out.fail(format!("round {r} traced: {e}")),
            }
        }
        plain.push(one);
    }

    let model: Vec<&MergeReport> = plain
        .iter()
        .take(shape.model_rounds)
        .flat_map(|r| r.trials.iter().map(|t| &t.report))
        .collect();
    let model_s =
        model.iter().map(|r| r.total.as_nanos() as f64).sum::<f64>() / model.len() as f64 / 1e9;
    let per_round = |rounds: &[Round], f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    if p.trace {
        for (i, &d) in shape.disks.iter().enumerate() {
            let name = match d {
                8 => "sim.ns_per_block.d8",
                16 => "sim.ns_per_block.d16",
                _ => "sim.ns_per_block.d32",
            };
            let ns = per_round(&plain, &|r| {
                let t = &r.trials[i];
                t.secs * r.scale * 1e9 / t.report.blocks_merged as f64
            });
            out.values.insert(name, ns);
        }
        let new_us: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.trials.iter().map(|t| t.new_secs * r.scale * 1e6))
            .collect();
        out.values.insert("sim.setup_us", median(&new_us));
        let events: u64 = traced
            .iter()
            .flat_map(|r| r.trials.iter().map(|t| t.events))
            .sum();
        let blocks: u64 = traced.iter().map(Round::blocks).sum();
        out.values
            .insert("sim.events_per_block", ratio(events as f64, blocks as f64));
        let overhead = ratio(
            per_round(&traced, &Round::scaled_secs),
            per_round(&plain, &Round::scaled_secs),
        ) - 1.0;
        out.values.insert("sim.trace_overhead", overhead);
        out.values.insert("trace.overhead", overhead);
        let all: Vec<f64> = plain.iter().chain(&traced).map(|r| r.scale).collect();
        out.values.insert("bench.machine_speed", median(&all));
        let sum = |f: &dyn Fn(&MergeReport) -> f64| model.iter().map(|r| f(r)).sum::<f64>();
        let trials = model.len() as f64;
        out.values.insert(
            "sim.success_ratio",
            sum(&|r| r.success_ratio.unwrap_or(0.0)) / trials,
        );
        out.values
            .insert("sim.avg_concurrency", sum(&|r| r.avg_concurrency) / trials);
        out.values.insert(
            "disk.seek_frac",
            ratio(
                sum(&|r| r.seek_total.as_secs_f64()),
                sum(&|r| (r.seek_total + r.latency_total + r.transfer_total).as_secs_f64()),
            ),
        );
        out.values.insert(
            "disk.sequential_frac",
            ratio(
                sum(&|r| r.sequential_requests as f64),
                sum(&|r| r.disk_requests as f64),
            ),
        );
        out.values.insert("trace.model_merge_s", model_s);
    } else {
        let blocks_per_s = per_round(&plain, &|r| r.blocks() as f64 / r.scaled_secs());
        out.values.insert("sim_blocks_per_s", blocks_per_s);
        out.values
            .insert("sort_records_per_s", blocks_per_s * RECORDS_PER_BLOCK);
        out.values.insert("model_merge_s", model_s);
        out.values.insert(
            "peak_heap_mb",
            per_round(&plain, &|r| r.peak_bytes as f64 / 1e6),
        );
        out.values.insert(
            "cpu_ns_per_record",
            per_round(&plain, &|r| {
                r.cpu_s * r.scale * 1e9 / (r.blocks() as f64 * RECORDS_PER_BLOCK)
            }),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's trial seeds are `run_trial_range`'s.
    #[test]
    fn rounds_are_run_trial_range_trials() {
        let shape = GridShape::SMALL;
        let configs = shape.configs(5).unwrap();
        let mut seeds = Seeds {
            master: 5,
            seeds: Vec::new(),
        };
        let rounds: Vec<Round> = (0..3)
            .map(|r| round(&configs, seeds.get(r), false).unwrap())
            .collect();
        for (i, cfg) in configs.iter().enumerate() {
            let reports = pm_core::run_trial_range(cfg, 0, 3, 1, &|_, _| {}).unwrap();
            for (r, report) in reports.iter().enumerate() {
                assert_eq!(&rounds[r].trials[i].report, report);
            }
        }
    }
}
