//! Criterion microbenchmarks of the substrate crates: the event list, the
//! random generator, single-disk service, the loser tree (over `u64`s and
//! over `Record` runs at the benchmark sorts' fan-ins), `load_sort` run
//! formation by input shape, the engine's work around the merge
//! (staging 64 runs on memory and file disks, and `predict`'s replay),
//! and one 8-way merge on file disks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pm_analysis::markov::{average_parallelism, Policy};
use pm_core::{LoserTree, NullSink, ScenarioBuilder};
use pm_disk::{BlockAddr, Disk, DiskId, DiskRequest, DiskSpec, QueueDiscipline};
use pm_engine::{ExecConfig, MergeEngine, ThreadedQueue};
use pm_extsort::{external_sort, generate, run_formation, ExtSortConfig, Record, RunFormation};
use pm_sim::{EventQueue, SimRng, SimTime};
use std::cmp::Ordering;
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
                        &mut NullSink,
                    );
                    t = started.expect("idle disk").completion_at;
                    disk.complete(t, &mut NullSink);
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
        // `u64`s are their own keys, so a tie is between equal heads.
        let tie = |_: usize, _: usize| Ordering::Equal;
        b.iter(|| {
            let mut next = vec![0usize; sources.len()];
            let mut tree = LoserTree::new(sources.iter().map(|s| s.first().copied()), tie);
            let mut out = 0u64;
            while let Some(src) = tree.winner() {
                out = out.wrapping_add(sources[src][next[src]]);
                next[src] += 1;
                tree.replace_winner(sources[src].get(next[src]).copied(), tie);
            }
            black_box(out)
        });
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
            b.iter(|| {
                let mut next = vec![0usize; runs.len()];
                let head = |r: usize, next: &[usize]| runs[r].get(next[r]);
                let tie = |a: usize, b: usize, next: &[usize]| head(a, next).cmp(&head(b, next));
                let mut tree =
                    LoserTree::new(runs.iter().map(|run| run.first().map(|r| r.key)), |a, b| {
                        tie(a, b, &next)
                    });
                let mut out = 0u64;
                while let Some(src) = tree.winner() {
                    out = out.wrapping_add(runs[src][next[src]].rid);
                    next[src] += 1;
                    let key = head(src, &next).map(|r| r.key);
                    tree.replace_winner(key, |a, b| tie(a, b, &next));
                }
                black_box(out)
            });
        });
    }
}

/// `load_sort` at the benchmark sort's run length (62 500 records) over
/// sixteen runs of each input shape `generate` makes, plus an adversarial
/// one: a single key with descending rids.
fn load_sort_shapes(c: &mut Criterion) {
    const RUN: usize = 62_500;
    const N: usize = 16 * RUN;
    let shapes = [
        ("extsort/load_sort_uniform", generate::uniform(N, 7)),
        (
            "extsort/load_sort_nearly_sorted",
            generate::nearly_sorted(N, N / 100, 7),
        ),
        (
            "extsort/load_sort_reverse_sorted",
            generate::reverse_sorted(N),
        ),
        (
            "extsort/load_sort_few_distinct",
            generate::few_distinct(N, 16, 7),
        ),
        (
            "extsort/load_sort_equal_keys_desc_rids",
            (0..N as u64)
                .map(|i| Record::new(7, N as u64 - i))
                .collect(),
        ),
    ];
    for (name, input) in &shapes {
        c.bench_function(name, |b| b.iter(|| run_formation::load_sort(input, RUN)));
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

/// The single-pass benchmark sort's merge: 64 runs of 62 500 records on
/// 8 disks, inter-run N=4, 40 records per block, one I/O worker.
fn engine_k64() -> (MergeEngine, Vec<Vec<Record>>) {
    let runs = run_formation::load_sort(&generate::uniform(64 * 62_500, 11), 62_500);
    let cfg = ScenarioBuilder::new(64, 8)
        .inter(4)
        .seed(11)
        .build()
        .expect("scenario");
    let mut exec = ExecConfig::new(cfg);
    exec.records_per_block = 40;
    exec.jobs = 1;
    let engine = MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).expect("plan");
    (engine, runs)
}

/// `MergeEngine::load` of the 64 runs onto fresh memory and file disks
/// (the file disks under the system temp directory), and `predict`
/// replaying the merge's depletion sequence through the simulator.
fn engine_staging(c: &mut Criterion) {
    let (engine, runs) = engine_k64();
    let disks = engine.merge_config().disks as usize;
    let opts = engine.queue_options();
    c.bench_function("engine/load_memory_k64", |b| {
        b.iter(|| {
            let mut queue = ThreadedQueue::memory(disks, engine.block_bytes(), opts);
            engine.load(&mut queue, &runs).expect("load");
            queue
        });
    });
    let dir = std::env::temp_dir().join(format!("pm-bench-load-{}", std::process::id()));
    c.bench_function("engine/load_file_k64", |b| {
        b.iter_batched(
            || ThreadedQueue::file(&dir, disks, engine.block_bytes(), opts).expect("files"),
            |mut queue| {
                engine.load(&mut queue, &runs).expect("load");
                queue
            },
            BatchSize::PerIteration,
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
    let mut queue = ThreadedQueue::memory(disks, engine.block_bytes(), opts);
    engine.load(&mut queue, &runs).expect("load");
    let depletion = engine.execute(Box::new(queue)).expect("execute").depletion;
    c.bench_function("engine/predict_k64", |b| {
        b.iter(|| engine.predict(&depletion).expect("predict"));
    });
}

/// One `execute` of a first-pass group of the two-pass benchmark sort:
/// 8 runs of 62 500 records on 8 file disks (under the system temp
/// directory), 40 records per block, one I/O worker. Loading the runs is
/// untimed.
fn engine_execute(c: &mut Criterion) {
    let runs = run_formation::load_sort(&generate::uniform(8 * 62_500, 13), 62_500);
    let base = ScenarioBuilder::new(8, 8)
        .inter(4)
        .seed(13)
        .build()
        .expect("scenario");
    let cfg = ScenarioBuilder::pass_scenario(&base, 8, 0, 0).expect("pass scenario");
    let mut exec = ExecConfig::new(cfg);
    exec.records_per_block = 40;
    exec.jobs = 1;
    let engine = MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).expect("plan");
    let disks = engine.merge_config().disks as usize;
    let dir = std::env::temp_dir().join(format!("pm-bench-execute-{}", std::process::id()));
    c.bench_function("engine/execute_file_k8", |b| {
        b.iter_batched(
            || {
                let mut queue =
                    ThreadedQueue::file(&dir, disks, engine.block_bytes(), engine.queue_options())
                        .expect("files");
                engine.load(&mut queue, &runs).expect("load");
                queue
            },
            |queue| engine.execute(Box::new(queue)).expect("execute"),
            BatchSize::PerIteration,
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn markov(c: &mut Criterion) {
    c.bench_function("analysis/markov_d4_c16", |b| {
        b.iter(|| black_box(average_parallelism(4, 16, Policy::AllOrNothing)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = event_queue, rng, disk_service, loser_tree, loser_tree_records, load_sort_shapes,
        extsort_pipeline, engine_staging, engine_execute, markov
}
criterion_main!(benches);
