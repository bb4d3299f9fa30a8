//! **Extension E7**: does replacement-selection run formation speed up the
//! prefetched merge?
//!
//! The paper assumes equal-length runs (one memory load each). Knuth's
//! replacement selection produces roughly half as many runs of about twice
//! the length from the same memory, which lowers the merge order `k` —
//! and the paper's own eq. (3) says seek time scales with `k`. This
//! experiment sorts the same input both ways and replays each merge's
//! data-driven depletion trace through the same disks (variable-length
//! runs use `MergeSim::with_run_lengths`).

use pm_core::{MergeSim, PrefetchStrategy, ScenarioBuilder, SyncMode};
use pm_extsort::{external_sort, generate, ExtSortConfig, RunFormation, SortOutcome};

use crate::{right_aligned, Harness};

const D: u32 = 5;
const MEMORY: usize = 4_000; // records per memory load (100 blocks)
const RPB: usize = 40;

fn simulate(
    outcome: &SortOutcome,
    strategy: PrefetchStrategy,
    cache_factor: u32,
    seed: u64,
) -> Result<f64, String> {
    let mut cfg = ScenarioBuilder::new(outcome.run_lengths.len() as u32, D).build().unwrap();
    cfg.strategy = strategy;
    cfg.sync = SyncMode::Unsynchronized;
    cfg.cache_blocks = cfg.runs * strategy.depth() * cache_factor;
    cfg.seed = seed;
    let mut trace = outcome.depletion_model();
    let sim = MergeSim::with_run_lengths(cfg, &outcome.run_blocks).map_err(|e| e.to_string())?;
    Ok(sim.run(&mut trace).total.as_secs_f64())
}

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let n_records = 20 * MEMORY; // 20 memory loads
    let mut table = right_aligned(2, &[
        "input", "strategy", "load-sort runs", "load-sort (s)", "repl-sel runs", "repl-sel (s)",
    ]);
    let mut csv = h.csv(
        "ext_replacement_selection",
        &["input", "strategy", "ls_runs", "ls_secs", "rs_runs", "rs_secs"],
    )?;

    let inputs: Vec<(&str, Vec<pm_extsort::Record>)> = vec![
        ("uniform random", generate::uniform(n_records, h.seed)),
        ("nearly sorted", generate::nearly_sorted(n_records, n_records / 50, h.seed)),
    ];
    for (input_name, records) in inputs {
        let sort_with = |formation: RunFormation| {
            external_sort(
                &records,
                &ExtSortConfig {
                    memory_records: MEMORY,
                    records_per_block: RPB,
                    run_formation: formation,
                },
            )
        };
        let load_sort = sort_with(RunFormation::LoadSort);
        let repl_sel = sort_with(RunFormation::ReplacementSelection);
        if load_sort.output != repl_sel.output {
            return Err(format!("{input_name}: the two run formations sort differently"));
        }

        for (sname, strategy) in [
            ("intra N=10", PrefetchStrategy::IntraRun { n: 10 }),
            ("inter N=10", PrefetchStrategy::InterRun { n: 10 }),
        ] {
            let cache_factor = if strategy.is_inter_run() { 4 } else { 1 };
            let ls_secs = simulate(&load_sort, strategy, cache_factor, h.seed)?;
            let rs_secs = simulate(&repl_sel, strategy, cache_factor, h.seed)?;
            let cells = |p: usize| {
                vec![
                    input_name.to_string(),
                    sname.to_string(),
                    load_sort.run_lengths.len().to_string(),
                    format!("{ls_secs:.p$}"),
                    repl_sel.run_lengths.len().to_string(),
                    format!("{rs_secs:.p$}"),
                ]
            };
            table.add_row(cells(2));
            csv.row(&cells(4))?;
        }
    }
    println!("== E7: replacement selection vs load-sort run formation (D={D}) ==\n");
    println!("{}", table.render());
    println!(
        "Replacement selection halves the merge order on random input, which\n\
         trims seeks (a small win for intra-run prefetching). On nearly-sorted\n\
         input it collapses everything into ONE run — which then lives on a\n\
         single disk and forfeits all I/O parallelism, so fewer runs are not\n\
         automatically better once the merge is disk-striped. Neither effect\n\
         is expressible in the paper's equal-run model."
    );
    csv.finish()
}
