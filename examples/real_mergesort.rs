//! End-to-end external mergesort: sort real records, then replay the
//! merge's actual block-consumption order through the simulated disk
//! subsystem and compare it with the paper's random depletion model.
//!
//! Run with: `cargo run --release --example real_mergesort`

use pm_core::ScenarioBuilder;
use prefetchmerge::core::{run_trials, MergeSim, PrefetchStrategy};
use prefetchmerge::extsort::{external_sort, generate, ExtSortConfig, RunFormation};

fn main() {
    // 8 runs x 100 blocks x 40 records: one memory load per run.
    let (k, blocks, rpb) = (8u32, 100u32, 40usize);
    let n_records = k as usize * blocks as usize * rpb;
    let input = generate::uniform(n_records, 2024);
    println!("sorting {n_records} records externally ({k} runs of {blocks} blocks)...");

    let outcome = external_sort(
        &input,
        &ExtSortConfig {
            memory_records: blocks as usize * rpb,
            records_per_block: rpb,
            run_formation: RunFormation::LoadSort,
        },
    );
    assert!(
        outcome.output.windows(2).all(|w| w[0] <= w[1]),
        "output must be sorted"
    );
    println!(
        "sorted. runs: {:?} blocks each; depletion trace of {} block-consumptions captured\n",
        outcome.uniform_run_blocks().expect("equal runs"),
        outcome.trace.len()
    );

    for (label, strategy, cache) in [
        ("no prefetching", PrefetchStrategy::None, k),
        ("intra-run N=8", PrefetchStrategy::IntraRun { n: 8 }, k * 8),
        (
            "inter-run N=8",
            PrefetchStrategy::InterRun { n: 8 },
            4 * k * 8,
        ),
    ] {
        let mut cfg = ScenarioBuilder::new(k, 4).build().unwrap();
        cfg.run_blocks = blocks;
        cfg.strategy = strategy;
        cfg.cache_blocks = cache;
        cfg.seed = 7;

        // (a) the paper's random depletion model, averaged over trials;
        let model_secs = run_trials(&cfg, 5).expect("valid").mean_total_secs;
        // (b) the real merge's data-driven depletion order.
        let mut trace = outcome.depletion_model();
        let real = MergeSim::new(cfg).expect("valid").run(&mut trace);

        println!(
            "{label:16}  random model {model_secs:6.2} s   real trace {:6.2} s   (ratio {:.3})",
            real.total.as_secs_f64(),
            real.total.as_secs_f64() / model_secs,
        );
    }
    println!(
        "\nOn uniform-random data the Kwan-Baer random depletion model predicts\n\
         the data-driven merge within a few percent - the paper's modeling\n\
         assumption holds."
    );
}
