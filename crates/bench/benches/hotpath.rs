//! Criterion microbenchmarks of the merge simulator's steady-state hot
//! path, at the granularity the perf work optimizes: the per-block
//! depletion step, the demand-fetch path, and the event queue in its
//! coalesced O(D) operating regime.
//!
//! `perf_smoke` (crates/bench/src/bin/perf_smoke.rs) measures the same
//! code end-to-end in ops/sec; these benches isolate the layers so a
//! regression can be localized without re-profiling. The event queue's
//! pop-and-re-arm cycle is timed at the paper's array sizes and one wide
//! array, and raw draws through the RNG's refillable buffer are timed on
//! their own.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pm_cache::RunId;
use pm_core::{DepletionModel, MergeSim, ScenarioBuilder, UniformDepletion};
use pm_disk::DiskSpec;
use pm_sim::{EventQueue, SimRng, SimTime};
use std::hint::black_box;

/// One simulated block consumption: a uniform draw over the live-run set.
/// This runs once per merged block, so its cost is a floor on everything
/// the simulator does.
fn depletion_step(c: &mut Criterion) {
    c.bench_function("hotpath/depletion_step_100k_k25", |b| {
        let live: Vec<RunId> = (0..25).map(RunId).collect();
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(42);
            let mut model = UniformDepletion;
            let mut acc = 0u32;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(model.next_run(&mut rng, &live).0);
            }
            black_box(acc)
        });
    });
}

/// The demand-fetch path end-to-end: no prefetching, so every block miss
/// goes through `issue_demand` — reserve, dispatch, wait, admit. The
/// allocation-free claim in DESIGN.md is about this path.
fn demand_path(c: &mut Criterion) {
    c.bench_function("hotpath/demand_path_k25_d4", |b| {
        b.iter_batched(
            || ScenarioBuilder::new(25, 4).build().unwrap(),
            |cfg| MergeSim::run_uniform(cfg).expect("valid config"),
            BatchSize::SmallInput,
        );
    });
}

/// The event queue at its real operating point: completion coalescing
/// keeps at most one event per disk pending, so the queue holds D + 1
/// entries (the read disks plus the CPU step) while the simulation pops
/// and re-arms millions of times. Each re-arm adds a service time drawn
/// as the paper's disk draws one, one block's transfer plus a uniform
/// rotational latency, so the new key lands among the pending keys as a
/// disk's next completion does. The sizes are D + 1 for D = 8, 16 and 32,
/// and one wide array. (substrates.rs times the same queue filled to 10k
/// pending events and drained, with no re-arm.)
fn event_queue_rearm(c: &mut Criterion) {
    let params = DiskSpec::paper().params;
    let transfer = params.transfer_time(1);
    let rotation = params.rotation_period;
    for slots in [9u64, 17, 33, 1024] {
        c.bench_function(&format!("hotpath/event_queue_rearm_1M_s{slots}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(slots as usize);
                let mut rng = SimRng::seed_from_u64(7);
                for d in 0..slots {
                    q.schedule(SimTime::ZERO + rng.uniform_duration(rotation), d);
                }
                let mut acc = 0u64;
                for _ in 0..1_000_000 {
                    let (t, d) = q.pop().expect("queue stays populated");
                    acc = acc.wrapping_add(d);
                    // Re-arm this disk's next completion, as dispatch does.
                    q.schedule(t + transfer + rng.uniform_duration(rotation), d);
                }
                black_box(acc)
            });
        });
    }
}

/// Raw draws taken one at a time through the buffered `next_u64`.
fn rng_draws(c: &mut Criterion) {
    c.bench_function("hotpath/rng_scalar_draws_1M", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(11);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = depletion_step, demand_path, event_queue_rearm, rng_draws
}
criterion_main!(benches);
