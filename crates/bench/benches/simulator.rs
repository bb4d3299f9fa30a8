//! Criterion microbenchmarks of the merge-phase simulator itself:
//! wall-clock cost of simulating each paper configuration (the simulator's
//! throughput, not the simulated time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pm_core::{MergeConfig, MergeSim, ScenarioBuilder, SyncMode};

fn bench_config(c: &mut Criterion, name: &str, cfg: MergeConfig) {
    c.bench_function(name, |b| {
        b.iter_batched(
            || cfg,
            |cfg| MergeSim::run_uniform(cfg).expect("valid config"),
            BatchSize::SmallInput,
        );
    });
}

fn simulator_benches(c: &mut Criterion) {
    bench_config(
        c,
        "sim/no_prefetch_k25_d1",
        ScenarioBuilder::new(25, 1).build().unwrap(),
    );
    bench_config(
        c,
        "sim/no_prefetch_k25_d5",
        ScenarioBuilder::new(25, 5).build().unwrap(),
    );
    bench_config(
        c,
        "sim/intra_k25_d5_n10",
        ScenarioBuilder::new(25, 5).intra(10).build().unwrap(),
    );
    bench_config(
        c,
        "sim/inter_k25_d5_n10_c1200",
        ScenarioBuilder::new(25, 5)
            .inter(10)
            .cache_blocks(1200)
            .build()
            .unwrap(),
    );
    let mut sync = ScenarioBuilder::new(25, 5)
        .inter(10)
        .cache_blocks(1200)
        .build()
        .unwrap();
    sync.sync = SyncMode::Synchronized;
    bench_config(c, "sim/inter_sync_k25_d5_n10", sync);
    bench_config(
        c,
        "sim/inter_k50_d10_n10_c3500",
        ScenarioBuilder::new(50, 10)
            .inter(10)
            .cache_blocks(3500)
            .build()
            .unwrap(),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = simulator_benches
}
criterion_main!(benches);
