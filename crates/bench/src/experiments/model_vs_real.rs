//! **Experiment A3**: how well does the paper's random depletion model
//! predict a *data-driven* merge?
//!
//! A real external mergesort (`pm-extsort`) sorts three input
//! distributions; its merge phase yields the true block-depletion order,
//! which replays through the same simulated disks. The random model's
//! total time is compared side by side, per strategy.
//!
//! Scaled down from the paper's 1000-block runs (the real merge
//! materializes every record) but wide enough to show the pattern: on
//! uniform-random data the random model is accurate; skewed consumption
//! degrades it.

use pm_core::{MergeSim, PrefetchStrategy, ScenarioBuilder, SyncMode};
use pm_extsort::{external_sort, generate, ExtSortConfig, RunFormation};

use crate::{right_aligned, Harness};

const K: u32 = 10; // runs
const D: u32 = 5; // disks
const BLOCKS: u32 = 200; // blocks per run
const RPB: usize = 40; // records per block

fn inputs(seed: u64) -> Vec<(&'static str, Vec<pm_extsort::Record>)> {
    let n = K as usize * BLOCKS as usize * RPB;
    vec![
        ("uniform random", generate::uniform(n, seed)),
        ("nearly sorted", generate::nearly_sorted(n, n / 20, seed)),
        ("few distinct keys", generate::few_distinct(n, 64, seed)),
    ]
}

fn strategies() -> Vec<(&'static str, PrefetchStrategy, u32)> {
    vec![
        ("no prefetch", PrefetchStrategy::None, K),
        ("intra N=10", PrefetchStrategy::IntraRun { n: 10 }, K * 10),
        ("inter N=10", PrefetchStrategy::InterRun { n: 10 }, 4 * K * 10),
    ]
}

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let mut table = right_aligned(2, &[
        "input", "strategy", "random model (s)", "real trace (s)", "real/model",
    ]);
    let mut csv = h.csv("model_vs_real", &["input", "strategy", "model_secs", "real_secs"])?;

    for (input_name, records) in inputs(h.seed) {
        let outcome = external_sort(
            &records,
            &ExtSortConfig {
                memory_records: BLOCKS as usize * RPB,
                records_per_block: RPB,
                run_formation: RunFormation::LoadSort,
            },
        );
        if !outcome.output.windows(2).all(|w| w[0] <= w[1]) {
            return Err(format!("{input_name}: the external sort's output is not sorted"));
        }
        if outcome.uniform_run_blocks() != Some(BLOCKS) {
            return Err(format!("{input_name}: load-sort runs are not {BLOCKS} blocks each"));
        }

        for (sname, strategy, cache) in strategies() {
            let mut cfg = ScenarioBuilder::new(K, D).build().unwrap();
            cfg.run_blocks = BLOCKS;
            cfg.strategy = strategy;
            cfg.sync = SyncMode::Unsynchronized;
            cfg.cache_blocks = cache;
            cfg.seed = h.seed;
            // Random depletion model, averaged over trials.
            let model_secs = h.run_trials(&cfg)?.mean_total_secs;
            // Data-driven trace (deterministic given the input).
            let mut trace = outcome.depletion_model();
            let sim = MergeSim::new(cfg).map_err(|e| e.to_string())?;
            let real_secs = sim.run(&mut trace).total.as_secs_f64();
            table.add_row(vec![
                input_name.to_string(),
                sname.to_string(),
                format!("{model_secs:.2}"),
                format!("{real_secs:.2}"),
                format!("{:.3}", real_secs / model_secs),
            ]);
            csv.row(&[
                input_name.to_string(),
                sname.to_string(),
                format!("{model_secs:.4}"),
                format!("{real_secs:.4}"),
            ])?;
        }
    }
    println!(
        "== A3: random depletion model vs data-driven merge (k={K}, D={D}, {BLOCKS} blocks/run) ==\n"
    );
    println!("{}", table.render());
    csv.finish()
}
