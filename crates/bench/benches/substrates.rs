//! Criterion microbenchmarks of the substrate crates: the event list, the
//! random generator, single-disk service, and the loser tree (over `u64`s
//! and over `Record` runs at the benchmark sorts' fan-ins).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pm_analysis::markov::{average_parallelism, Policy};
use pm_disk::{BlockAddr, Disk, DiskId, DiskRequest, DiskSpec, QueueDiscipline};
use pm_core::LoserTree;
use pm_extsort::{external_sort, generate, ExtSortConfig, Record, RunFormation};
use pm_sim::{EventQueue, SimRng, SimTime};
use std::hint::black_box;

fn event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_10k_schedule_pop", |b| {
        let mut rng = SimRng::seed_from_u64(1);
        let times: Vec<SimTime> = (0..10_000)
            .map(|_| SimTime::from_nanos(rng.next_u64() % 1_000_000))
            .collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, i);
            }
            let mut count = 0usize;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        });
    });
}

fn rng(c: &mut Criterion) {
    c.bench_function("sim/rng_index_1M", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(7);
            let mut acc = 0usize;
            for _ in 0..1_000_000 {
                acc ^= rng.index(25);
            }
            black_box(acc)
        });
    });
}

fn disk_service(c: &mut Criterion) {
    c.bench_function("disk/service_10k_requests", |b| {
        b.iter_batched(
            || Disk::new(DiskId(0), DiskSpec::paper(), QueueDiscipline::Fifo, 3),
            |mut disk| {
                let mut t = SimTime::ZERO;
                for i in 0..10_000u64 {
                    let (_, started) = disk.submit(
                        t,
                        DiskRequest {
                            disk: DiskId(0),
                            start: BlockAddr((i * 97) % 50_000),
                            len: 1,
                            sequential_hint: false,
                            tag: i,
                        },
                    );
                    t = started.expect("idle disk").completion_at;
                    disk.complete(t);
                }
                black_box(t)
            },
            BatchSize::SmallInput,
        );
    });
}

fn loser_tree(c: &mut Criterion) {
    c.bench_function("extsort/loser_tree_merge_25x1000", |b| {
        let sources: Vec<Vec<u64>> = (0..25)
            .map(|s| {
                let mut rng = SimRng::seed_from_u64(s);
                let mut v: Vec<u64> = (0..1000).map(|_| rng.next_u64()).collect();
                v.sort_unstable();
                v
            })
            .collect();
        b.iter_batched(
            || sources.clone(),
            |sources| {
                let mut iters: Vec<_> = sources.into_iter().map(Vec::into_iter).collect();
                let heads: Vec<Option<u64>> = iters.iter_mut().map(Iterator::next).collect();
                let mut tree = LoserTree::new(heads);
                let mut out = 0u64;
                while let Some(src) = tree.winner().map(|(s, _)| s) {
                    let next = iters[src].next();
                    let (_, v) = tree.pop_and_replace(next).expect("non-empty");
                    out = out.wrapping_add(v);
                }
                black_box(out)
            },
            BatchSize::SmallInput,
        );
    });
}

/// `k` sorted runs of `len` records each. Keys are 20-bit, so at 256 Ki
/// records about one in five shares its key with another and the tree's
/// tie path runs too.
fn record_runs(k: u64, len: u64) -> Vec<Vec<Record>> {
    let mut rng = SimRng::seed_from_u64(k);
    (0..k)
        .map(|s| {
            let mut run: Vec<Record> = (0..len)
                .map(|i| Record::new(rng.next_u64() >> 44, s * len + i))
                .collect();
            run.sort_unstable();
            run
        })
        .collect()
}

/// The merge kernel alone at the fan-ins of the benchmark's sorts: 64 runs
/// (one 64-way pass) and 8 runs (each pass of a fan-in-8 tree), 256 Ki
/// records either way, so the two read as time per record at each depth.
fn loser_tree_records(c: &mut Criterion) {
    for (name, k) in [
        ("extsort/loser_tree_merge_64x_records", 64u64),
        ("extsort/loser_tree_merge_8x_records", 8),
    ] {
        let runs = record_runs(k, (1 << 18) / k);
        c.bench_function(name, |b| {
            b.iter_batched(
                || runs.clone(),
                |runs| {
                    let mut iters: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
                    let heads: Vec<Option<Record>> = iters.iter_mut().map(Iterator::next).collect();
                    let mut tree = LoserTree::new(heads);
                    let mut out = 0u64;
                    while let Some((src, _)) = tree.winner() {
                        let next = iters[src].next();
                        let (_, r) = tree.pop_and_replace(next).expect("non-empty");
                        out = out.wrapping_add(r.rid);
                    }
                    black_box(out)
                },
                BatchSize::LargeInput,
            );
        });
    }
}

fn extsort_pipeline(c: &mut Criterion) {
    c.bench_function("extsort/full_pipeline_100k_records", |b| {
        let input = generate::uniform(100_000, 5);
        let cfg = ExtSortConfig {
            memory_records: 10_000,
            records_per_block: 40,
            run_formation: RunFormation::LoadSort,
        };
        b.iter(|| black_box(external_sort(&input, &cfg)));
    });
}

fn markov(c: &mut Criterion) {
    c.bench_function("analysis/markov_d4_c16", |b| {
        b.iter(|| black_box(average_parallelism(4, 16, Policy::AllOrNothing)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = event_queue, rng, disk_service, loser_tree, loser_tree_records, extsort_pipeline,
        markov
}
criterion_main!(benches);
