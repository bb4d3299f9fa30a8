//! Criterion microbenchmarks of the merge simulator's steady-state hot
//! path, at the granularity the perf work optimizes: the per-block
//! depletion step, the demand-fetch path, and the event queue in its
//! coalesced O(D) operating regime.
//!
//! `perf_smoke` (crates/bench/src/bin/perf_smoke.rs) measures the same
//! code end-to-end in ops/sec; these benches isolate the layers so a
//! regression can be localized without re-profiling. Winner selection is
//! timed in both of the event queue's stores (linear and tournament), and
//! raw draws through the RNG's refillable buffer are timed on their own.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pm_cache::RunId;
use pm_core::{DepletionModel, MergeSim, ScenarioBuilder, UniformDepletion};
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
/// keeps at most one event per disk pending, so the queue holds ~D
/// elements while the simulation pops and re-arms millions of times.
/// (substrates.rs benches the same queue at 10k pending, where the
/// tournament store takes over from the linear scan.)
fn event_queue_coalesced(c: &mut Criterion) {
    const D: u64 = 8;
    c.bench_function("hotpath/event_queue_rearm_1M_d8", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(D as usize + 1);
            let mut rng = SimRng::seed_from_u64(7);
            for d in 0..D {
                q.schedule(SimTime::from_nanos(rng.next_u64() % 1_000), d);
            }
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                let (t, d) = q.pop().expect("queue stays populated");
                acc = acc.wrapping_add(d);
                // Re-arm this disk's next completion, as dispatch does.
                let next = t.as_nanos() + 1 + rng.next_u64() % 1_000;
                q.schedule(SimTime::from_nanos(next), d);
            }
            black_box(acc)
        });
    });
}

/// Winner selection head-to-head: the identical coalesced rearm workload
/// run against the linear store (capacity within `LINEAR_MAX_SLOTS`) and
/// against the tournament store (capacity above it). Both must agree on
/// every pop — the store swap is keyed on capacity precisely because the
/// linear scan wins at simulator-sized queues and the tournament wins in
/// the hundreds; this pair puts numbers on the crossover's two sides.
fn winner_selection(c: &mut Criterion) {
    for (name, slots, iters) in [
        ("hotpath/winner_linear_rearm_1M_s8", 8u64, 1_000_000u32),
        ("hotpath/winner_linear_rearm_1M_s48", 48, 1_000_000),
        ("hotpath/winner_tournament_rearm_1M_s128", 128, 1_000_000),
        ("hotpath/winner_tournament_rearm_100k_s1024", 1024, 100_000),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(slots as usize);
                let mut rng = SimRng::seed_from_u64(7);
                for d in 0..slots {
                    q.schedule(SimTime::from_nanos(rng.next_u64() % 1_000), d);
                }
                let mut acc = 0u64;
                for _ in 0..iters {
                    let (t, d) = q.pop().expect("queue stays populated");
                    acc = acc.wrapping_add(d);
                    let next = t.as_nanos() + 1 + rng.next_u64() % 1_000;
                    q.schedule(SimTime::from_nanos(next), d);
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
    targets = depletion_step, demand_path, event_queue_coalesced, winner_selection, rng_draws
}
criterion_main!(benches);
