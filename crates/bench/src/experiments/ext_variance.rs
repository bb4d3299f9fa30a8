//! **Extension E13**: how many trials do the figures need?
//!
//! The paper averages a handful of simulation trials per data point (the
//! trial count is lost to the scan). This experiment measures the
//! trial-to-trial variability of each strategy and the
//! confidence-interval width as a function of the number of trials,
//! justifying the 5-trial default used throughout this reproduction.
//! `--trials` sizes the pool; left at its default of 5, the pool is 30.

use pm_core::{MergeConfig, ScenarioBuilder};
use pm_stats::{ConfidenceInterval, OnlineStats};

use crate::{Harness, Output};

pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let mut h = h.clone();
    if h.trials == Harness::default().trials {
        h.trials = 30;
    }
    let pool = h.trials;
    let scenarios: Vec<(&str, MergeConfig)> = vec![
        (
            "no prefetch, k=25, D=1",
            ScenarioBuilder::new(25, 1).build().unwrap(),
        ),
        (
            "intra N=10, k=25, D=5",
            ScenarioBuilder::new(25, 5).intra(10).build().unwrap(),
        ),
        (
            "inter N=10, k=25, D=5, C=600",
            ScenarioBuilder::new(25, 5)
                .inter(10)
                .cache_blocks(600)
                .build()
                .unwrap(),
        ),
        (
            "inter N=10, k=25, D=5, C=1200",
            ScenarioBuilder::new(25, 5)
                .inter(10)
                .cache_blocks(1200)
                .build()
                .unwrap(),
        ),
    ];
    let mut out = Output::new(
        "ext_variance",
        format!("E13: trial-to-trial variability (pool of {pool} trials per scenario)"),
        1,
        &[
            "scenario".to_string(),
            "mean (s)".into(),
            "stddev (s)".into(),
            "CV (%)".into(),
            "±95% @3 (%)".into(),
            "±95% @5 (%)".into(),
            "±95% @10 (%)".into(),
            format!("±95% @{pool} (%)"),
        ],
    );

    for (label, mut cfg) in scenarios {
        cfg.seed = h.seed;
        let summary = h.run_trials(&cfg)?;
        let totals: Vec<f64> = summary
            .reports
            .iter()
            .map(|r| r.total.as_secs_f64())
            .collect();
        let stats = OnlineStats::from_slice(&totals);
        let cv = stats.sample_stddev() / stats.mean() * 100.0;
        let rel_hw = |n: usize| {
            let ci = ConfidenceInterval::from_samples(&totals[..n.min(totals.len())], 0.95);
            ci.relative_half_width().unwrap_or(0.0) * 100.0
        };
        out.row(vec![
            label.to_string(),
            format!("{:.1}", stats.mean()),
            format!("{:.2}", stats.sample_stddev()),
            format!("{cv:.2}"),
            format!("{:.1}", rel_hw(3)),
            format!("{:.1}", rel_hw(5)),
            format!("{:.1}", rel_hw(10)),
            format!("{:.1}", rel_hw(pool as usize)),
        ]);
    }
    Ok(vec![out])
}
