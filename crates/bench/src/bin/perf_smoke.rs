//! Wall-clock performance smoke harness for the merge simulator.
//!
//! Runs a fixed matrix of paper configurations (strategy × D) plus the
//! `contend_d8_t4` multi-tenant service mix, the `merge_k64_records`
//! merge kernel and the `extsort_formation` run-formation kernel, measures
//! throughput in merged blocks (resp. replayed requests, merged records,
//! sorted records) per wall-clock second
//! (reported from the fastest repeat — the workload is deterministic, so
//! noise only ever slows a run down), probes the steady-state allocation
//! behaviour of the hot path, the tenant-scheduling layer, the merge
//! kernel, and the full observability pipeline with a counting global
//! allocator, and emits everything as `BENCH_core.json` so every PR
//! leaves a measurable perf trajectory behind.
//!
//! Flags:
//!
//! * `--out <path>` — where to write the JSON (default `BENCH_core.json`).
//! * `--snapshot <path>` — additionally write the same JSON to `path`
//!   (CI writes `BENCH_PR9.json` and uploads it as an artifact); without
//!   it no snapshot is written.
//! * `--repeats <n>` — timed repetitions per scenario (default 5).
//! * `--quick` — 2 repeats; for CI smoke runs.
//! * `--baseline <path>` — compare against a previously emitted JSON and
//!   exit non-zero if any scenario's `ops_per_sec` regressed by more than
//!   `--max-regress` percent.
//! * `--max-regress <pct>` — regression tolerance (default 30).
//! * `--check-alloc` — exit non-zero unless the steady-state demand path
//!   performs zero heap allocations per merged block — bare, under the
//!   full observability pipeline (progress sink + manifest rendering),
//!   per replayed request in the tenant-scheduling layer, per record merged
//!   through `LoserTree`, and with live `StackMetrics` recording enabled on
//!   both the simulator core and the scheduling layer — and unless the
//!   real-I/O engine (`MergeEngine::execute` on `ThreadedQueue::memory`,
//!   I/O worker included) stays under [`ENGINE_MAX_ALLOCS_PER_BLOCK`].
//! * `--check-trace` — exit non-zero unless a run recorded with a
//!   `RecordingSink` reports bit-identically to the default (`NullSink`)
//!   build of the same configuration — tracing must be observation-only.
//!
//! Ops/sec numbers are machine-dependent; the committed baseline under
//! `crates/bench/baseline/` tracks the trajectory on one reference box and
//! the CI gate only guards against order-of-magnitude regressions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pm_core::{
    run_trial_range, LoserTree, MergeConfig, MergeSim, RecordingSink, ScenarioBuilder, SyncMode,
    UniformDepletion,
};
use pm_engine::{ExecConfig, IoQueue, MergeEngine, ThreadedQueue};
use pm_extsort::{generate, run_formation, Record};
use pm_metrics::{MetricsSink, NullMetrics, StackMetrics};
use pm_obs::{
    render_manifest, run_suite, PointSpec, ProgressSink, RecordKind, SuiteOptions, TrialsMode,
};
use pm_service::{
    SharedSpec, StaticPartition, TenantJob, TenantSim, TenantSimOptions, Wfq,
};
use pm_sim::SimDuration;

/// A pass-through allocator that counts every allocation, so the harness
/// can prove the simulator's steady state is allocation-free.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One benchmark scenario: a named paper configuration.
struct Scenario {
    name: &'static str,
    strategy: &'static str,
    d: u32,
    cfg: MergeConfig,
}

/// Measured result for one scenario.
struct Measured {
    name: String,
    strategy: &'static str,
    d: u32,
    repeats: u32,
    blocks: u64,
    elapsed_ns: u128,
    ops_per_sec: f64,
    ns_per_block: f64,
    allocs: u64,
    alloc_bytes: u64,
}

fn scenarios() -> Vec<Scenario> {
    let mut v = Vec::new();
    v.push(Scenario {
        name: "no_prefetch_d1",
        strategy: "none",
        d: 1,
        cfg: ScenarioBuilder::new(25, 1).build().unwrap(),
    });
    v.push(Scenario {
        name: "intra_d4_n10",
        strategy: "intra",
        d: 4,
        cfg: ScenarioBuilder::new(25, 4).intra(10).build().unwrap(),
    });
    for d in [2u32, 4, 8, 16, 32] {
        v.push(Scenario {
            name: match d {
                2 => "inter_d2_n10",
                4 => "inter_d4_n10",
                8 => "inter_d8_n10",
                16 => "inter_d16_n10",
                _ => "inter_d32_n10",
            },
            strategy: "inter",
            d,
            cfg: ScenarioBuilder::new(25, d).inter(10).cache_blocks(1200).build().unwrap(),
        });
    }
    let mut sync = ScenarioBuilder::new(25, 8).inter(10).cache_blocks(1200).build().unwrap();
    sync.sync = SyncMode::Synchronized;
    v.push(Scenario {
        name: "inter_sync_d8_n10",
        strategy: "inter-sync",
        d: 8,
        cfg: sync,
    });
    v
}

fn measure(s: &Scenario, repeats: u32) -> Measured {
    // Warm-up run: page in code, size the allocator's arenas.
    let _ = MergeSim::run_uniform(s.cfg).expect("valid scenario config");
    let (a0, b0) = alloc_snapshot();
    let total_started = Instant::now();
    let mut blocks = 0u64;
    // The workload is deterministic, so every repeat does identical work
    // and scheduler/frequency noise is strictly additive: the fastest
    // repeat is the least-contaminated estimate of true cost. Throughput
    // is therefore reported from the best repeat, not the aggregate.
    let mut best: Option<(u128, u64)> = None;
    for i in 0..repeats {
        let mut cfg = s.cfg;
        cfg.seed = cfg.seed.wrapping_add(u64::from(i));
        let run_started = Instant::now();
        let report = MergeSim::run_uniform(cfg).expect("valid scenario config");
        let run_ns = run_started.elapsed().as_nanos().max(1);
        blocks += report.blocks_merged;
        let better = match best {
            None => true,
            // Compare rates without division: ns_a/blocks_a < ns_b/blocks_b.
            Some((b_ns, b_blocks)) => {
                run_ns * u128::from(b_blocks) < b_ns * u128::from(report.blocks_merged)
            }
        };
        if better {
            best = Some((run_ns, report.blocks_merged));
        }
    }
    let elapsed_ns = total_started.elapsed().as_nanos().max(1);
    let (a1, b1) = alloc_snapshot();
    let (best_ns, best_blocks) = best.expect("at least one repeat");
    Measured {
        name: s.name.to_string(),
        strategy: s.strategy,
        d: s.d,
        repeats,
        blocks,
        elapsed_ns,
        ops_per_sec: best_blocks as f64 / (best_ns as f64 / 1e9),
        ns_per_block: best_ns as f64 / best_blocks as f64,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// The `contend_d8_t4` service mix: four heterogeneous tenants — a
/// deep-batch big job, a mid job, and two shallow small jobs arriving in
/// a later burst — contending for 8 shared disks under WFQ.
fn contend_jobs(run_blocks: u32) -> Vec<TenantJob> {
    let job = |name: &str, runs: u32, disks: u32, n: u32, arrival_ms: u64, priority: u32| {
        TenantJob {
            name: name.into(),
            scenario: ScenarioBuilder::new(runs, disks)
                .inter(n)
                .run_blocks(run_blocks)
                .build()
                .expect("valid contend scenario"),
            arrival: SimDuration::from_millis(arrival_ms),
            priority,
        }
    };
    vec![
        job("big", 12, 8, 8, 0, 2),
        job("mid", 8, 6, 4, 0, 1),
        job("small-a", 6, 4, 2, 250, 1),
        job("small-b", 4, 2, 2, 250, 1),
    ]
}

const CONTEND_SHARED: SharedSpec = SharedSpec { disks: 8, cache_blocks: 24000 };

/// Times the full `TenantSim::run` — isolated profiles, per-tenant
/// baselines, contended WFQ replay — and reports throughput in replayed
/// requests per second. The simulator and scheduler are reused across
/// repeats, as a sweeping caller would hold them.
fn measure_contend(repeats: u32) -> Measured {
    let jobs = contend_jobs(60);
    let mut sim = TenantSim::new(CONTEND_SHARED);
    let mut wfq = Wfq::new();
    let opts = TenantSimOptions { jobs: 1 };
    // Warm-up run: page in code, size the reused scratch state.
    let _ = sim
        .run(&jobs, &StaticPartition, &mut wfq, 1992, &opts, &NullMetrics)
        .expect("valid contend scenario");
    let (a0, b0) = alloc_snapshot();
    let total_started = Instant::now();
    let mut blocks = 0u64;
    let mut best: Option<(u128, u64)> = None;
    for i in 0..repeats {
        let run_started = Instant::now();
        let report = sim
            .run(&jobs, &StaticPartition, &mut wfq, 1992 + u64::from(i), &opts, &NullMetrics)
            .expect("valid contend scenario");
        let run_ns = run_started.elapsed().as_nanos().max(1);
        let requests: u64 = report.tenants.iter().map(|t| t.requests).sum();
        blocks += requests;
        let better = match best {
            None => true,
            Some((b_ns, b_reqs)) => run_ns * u128::from(b_reqs) < b_ns * u128::from(requests),
        };
        if better {
            best = Some((run_ns, requests));
        }
    }
    let elapsed_ns = total_started.elapsed().as_nanos().max(1);
    let (a1, b1) = alloc_snapshot();
    let (best_ns, best_reqs) = best.expect("at least one repeat");
    Measured {
        name: "contend_d8_t4".to_string(),
        strategy: "contend",
        d: 8,
        repeats,
        blocks,
        elapsed_ns,
        ops_per_sec: best_reqs as f64 / (best_ns as f64 / 1e9),
        ns_per_block: best_ns as f64 / best_reqs as f64,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Fan-in of the `merge_k64_records` scenario: the benchmark's
/// single-pass sort merges 64 runs.
const MERGE_RUNS: usize = 64;

/// `MERGE_RUNS` sorted runs of `run_len` uniform records each, as
/// load-sort run formation leaves them.
fn merge_runs(run_len: usize) -> Vec<Vec<Record>> {
    run_formation::load_sort(&generate::uniform(MERGE_RUNS * run_len, 1992), run_len)
}

/// Merges `runs` through a [`LoserTree`] and returns the records merged.
/// The runs are borrowed, so the only allocations are the tree's and the
/// cursor vector's, both made before the first record moves.
fn merge_records(runs: &[Vec<Record>]) -> u64 {
    let mut cursors: Vec<_> = runs.iter().map(|r| r.iter().copied()).collect();
    let heads: Vec<Option<Record>> = cursors.iter_mut().map(Iterator::next).collect();
    let mut tree = LoserTree::new(heads);
    let (mut merged, mut acc) = (0u64, 0u64);
    while let Some((src, _)) = tree.winner() {
        let next = cursors[src].next();
        let (_, rec) = tree.pop_and_replace(next).expect("winner exists");
        acc ^= rec.rid;
        merged += 1;
    }
    std::hint::black_box(acc);
    merged
}

/// Timed merges per repeat of `merge_k64_records`. One merge of the
/// 64 × 1024-record input takes 1–2 ms, short enough that a single
/// scheduler hiccup or a cold cache swamps it, so each repeat times
/// several and the scenario reports the fastest.
const MERGE_PASSES: u32 = 8;

/// Times the `merge_k64_records` kernel: 64 runs of 1024 records (built
/// before the timed window) merged through the loser tree, throughput in
/// merged records per second from the fastest merge.
fn measure_merge(repeats: u32) -> Measured {
    let runs = merge_runs(1024);
    for _ in 0..MERGE_PASSES {
        merge_records(&runs);
    }
    let (a0, b0) = alloc_snapshot();
    let total_started = Instant::now();
    let mut records = 0u64;
    let mut best_ns = u128::MAX;
    let mut per_merge = 0u64;
    for _ in 0..repeats * MERGE_PASSES {
        let started = Instant::now();
        per_merge = merge_records(&runs);
        best_ns = best_ns.min(started.elapsed().as_nanos().max(1));
        records += per_merge;
    }
    let elapsed_ns = total_started.elapsed().as_nanos().max(1);
    let (a1, b1) = alloc_snapshot();
    Measured {
        name: "merge_k64_records".to_string(),
        strategy: "loser-tree",
        d: 0,
        repeats,
        blocks: records,
        elapsed_ns,
        ops_per_sec: per_merge as f64 / (best_ns as f64 / 1e9),
        ns_per_block: best_ns as f64 / per_merge as f64,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Run length of the `extsort_formation` scenario: the benchmark's
/// single-pass sort forms `MERGE_RUNS` runs of 62 500 records.
const FORMATION_RUN_LEN: usize = 62_500;

/// Times the `extsort_formation` kernel: `load_sort` over
/// `MERGE_RUNS` × `FORMATION_RUN_LEN` uniform records (generated before
/// the timed window), throughput in sorted records per second from the
/// fastest repeat. Dropping the runs is left out of the timing.
fn measure_formation(repeats: u32) -> Measured {
    let input = generate::uniform(MERGE_RUNS * FORMATION_RUN_LEN, 1992);
    drop(run_formation::load_sort(&input, FORMATION_RUN_LEN));
    let (a0, b0) = alloc_snapshot();
    let total_started = Instant::now();
    let mut best_ns = u128::MAX;
    for _ in 0..repeats {
        let started = Instant::now();
        let runs = run_formation::load_sort(&input, FORMATION_RUN_LEN);
        best_ns = best_ns.min(started.elapsed().as_nanos().max(1));
        std::hint::black_box(runs);
    }
    let elapsed_ns = total_started.elapsed().as_nanos().max(1);
    let (a1, b1) = alloc_snapshot();
    let records = input.len() as u64;
    Measured {
        name: "extsort_formation".to_string(),
        strategy: "load-sort",
        d: 0,
        repeats,
        blocks: records * u64::from(repeats),
        elapsed_ns,
        ops_per_sec: records as f64 / (best_ns as f64 / 1e9),
        ns_per_block: best_ns as f64 / records as f64,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Steady-state allocation probe: simulate the same configuration at two
/// run lengths and count heap allocations inside `run()` only
/// (construction excluded). If the per-operation hot path is
/// allocation-free, the counts are identical — every allocation happens
/// during setup or early ramp-up, none per merged block.
struct AllocProbe {
    base_blocks: u64,
    base_allocs: u64,
    scaled_blocks: u64,
    scaled_allocs: u64,
    per_block_allocs: f64,
}

fn alloc_probe() -> AllocProbe {
    let run_counted = |run_blocks: u32| -> (u64, u64) {
        let mut cfg = ScenarioBuilder::new(25, 8).inter(10).cache_blocks(1200).build().unwrap();
        cfg.run_blocks = run_blocks;
        let sim = MergeSim::new(cfg).expect("valid probe config");
        let (a0, _) = alloc_snapshot();
        let report = sim.run(&mut UniformDepletion);
        let (a1, _) = alloc_snapshot();
        (report.blocks_merged, a1 - a0)
    };
    // Warm-up pass so lazily sized structures are measured in steady state.
    let _ = run_counted(100);
    let (base_blocks, base_allocs) = run_counted(400);
    let (scaled_blocks, scaled_allocs) = run_counted(1600);
    let extra_blocks = scaled_blocks - base_blocks;
    AllocProbe {
        base_blocks,
        base_allocs,
        scaled_blocks,
        scaled_allocs,
        per_block_allocs: (scaled_allocs as f64 - base_allocs as f64) / extra_blocks as f64,
    }
}

/// Scheduling-layer allocation probe: the `contend_d8_t4` mix at two run
/// lengths through one reused [`TenantSim`] + [`Wfq`]. Admission work —
/// cache grants, isolated profiles, lane building, the report itself —
/// allocates identically at both lengths and cancels out of the
/// difference; only a per-request cost in the contention replay loop
/// could survive, and there must be none (lanes, disk queues, and the
/// event calendar are pre-sized at admission).
fn contend_alloc_probe() -> AllocProbe {
    let mut sim = TenantSim::new(CONTEND_SHARED);
    let mut wfq = Wfq::new();
    let opts = TenantSimOptions { jobs: 1 };
    let mut run_counted = |run_blocks: u32| -> (u64, u64) {
        let jobs = contend_jobs(run_blocks);
        let (a0, _) = alloc_snapshot();
        let report = sim
            .run(&jobs, &StaticPartition, &mut wfq, 1992, &opts, &NullMetrics)
            .expect("valid contend probe config");
        let (a1, _) = alloc_snapshot();
        let requests: u64 = report.tenants.iter().map(|t| t.requests).sum();
        (requests, a1 - a0)
    };
    // Warm-up at the *largest* length: the isolated profiles inside the
    // run contain cache-bounded structures that ramp lazily to their
    // high-water mark, and with multi-thousand-block cache grants a
    // short run never gets there. Warming at the scaled length
    // saturates them, so both counted lengths run in true steady state.
    let _ = run_counted(6400);
    let (base_blocks, base_allocs) = run_counted(1600);
    let (scaled_blocks, scaled_allocs) = run_counted(6400);
    let extra_blocks = scaled_blocks - base_blocks;
    AllocProbe {
        base_blocks,
        base_allocs,
        scaled_blocks,
        scaled_allocs,
        per_block_allocs: (scaled_allocs as f64 - base_allocs as f64) / extra_blocks as f64,
    }
}

/// Metered simulator-core allocation probe: the same two-length
/// differencing as [`alloc_probe`], but through [`run_trial_range`]
/// recording each trial into a live [`StackMetrics`] sink.
/// Recording is pre-bound atomics; the only allocating site
/// (`trial_done`'s label lookup materializing the strategy cell) fires
/// once per family at warm-up and the per-trial lookups after it are
/// scan-only, so the per-block difference must still be zero with
/// metrics *enabled*.
fn metered_alloc_probe() -> AllocProbe {
    let metrics = StackMetrics::new(8, &[]);
    let run_counted = |run_blocks: u32| -> (u64, u64) {
        let mut cfg = ScenarioBuilder::new(25, 8).inter(10).cache_blocks(1200).build().unwrap();
        cfg.run_blocks = run_blocks;
        let (a0, _) = alloc_snapshot();
        let strategy = cfg.strategy.label();
        let reports = run_trial_range(&cfg, 0, 1, 1, &|_, report| {
            metrics.trial_done(
                strategy,
                report.blocks_merged,
                report.demand_ops,
                report.fallback_ops,
                report.full_prefetch_ops,
            );
        })
        .expect("valid metered probe config");
        let (a1, _) = alloc_snapshot();
        (reports[0].blocks_merged, a1 - a0)
    };
    // Warm-up also materializes the per-strategy metric cells.
    let _ = run_counted(100);
    let (base_blocks, base_allocs) = run_counted(400);
    let (scaled_blocks, scaled_allocs) = run_counted(1600);
    let extra_blocks = scaled_blocks - base_blocks;
    AllocProbe {
        base_blocks,
        base_allocs,
        scaled_blocks,
        scaled_allocs,
        per_block_allocs: (scaled_allocs as f64 - base_allocs as f64) / extra_blocks as f64,
    }
}

/// Metered scheduling-layer allocation probe: [`contend_alloc_probe`]
/// with a live [`StackMetrics`] sink passed to [`TenantSim::run`].
/// Every replayed request records disk I/O, tenant wait, WFQ lag, and a
/// queue-depth sample — all on pre-bound handles, so the per-request
/// difference must stay zero with metrics *enabled*.
fn contend_metered_alloc_probe() -> AllocProbe {
    let tenant_names: Vec<String> =
        contend_jobs(60).iter().map(|j| j.name.clone()).collect();
    let metrics = StackMetrics::new(8, &tenant_names);
    let mut sim = TenantSim::new(CONTEND_SHARED);
    let mut wfq = Wfq::new();
    let opts = TenantSimOptions { jobs: 1 };
    let mut run_counted = |run_blocks: u32| -> (u64, u64) {
        let jobs = contend_jobs(run_blocks);
        let (a0, _) = alloc_snapshot();
        let report = sim
            .run(&jobs, &StaticPartition, &mut wfq, 1992, &opts, &metrics)
            .expect("valid metered contend probe config");
        let (a1, _) = alloc_snapshot();
        let requests: u64 = report.tenants.iter().map(|t| t.requests).sum();
        (requests, a1 - a0)
    };
    // Warm at the scaled length (see contend_alloc_probe) so the lazily
    // ramping cache structures and metric cells are all in steady state.
    let _ = run_counted(6400);
    let (base_blocks, base_allocs) = run_counted(1600);
    let (scaled_blocks, scaled_allocs) = run_counted(6400);
    let extra_blocks = scaled_blocks - base_blocks;
    AllocProbe {
        base_blocks,
        base_allocs,
        scaled_blocks,
        scaled_allocs,
        per_block_allocs: (scaled_allocs as f64 - base_allocs as f64) / extra_blocks as f64,
    }
}

/// Merge-kernel allocation probe: the `merge_k64_records` merge at two run
/// lengths, counting allocations inside the merge only. `LoserTree`
/// allocates in `new` and nowhere else, so the counts must match and the
/// per-record difference must be zero.
fn merge_alloc_probe() -> AllocProbe {
    let run_counted = |run_len: usize| -> (u64, u64) {
        let runs = merge_runs(run_len);
        let (a0, _) = alloc_snapshot();
        let merged = merge_records(&runs);
        let (a1, _) = alloc_snapshot();
        (merged, a1 - a0)
    };
    let _ = run_counted(256);
    let (base_blocks, base_allocs) = run_counted(1024);
    let (scaled_blocks, scaled_allocs) = run_counted(4096);
    let extra_blocks = scaled_blocks - base_blocks;
    AllocProbe {
        base_blocks,
        base_allocs,
        scaled_blocks,
        scaled_allocs,
        per_block_allocs: (scaled_allocs as f64 - base_allocs as f64) / extra_blocks as f64,
    }
}

/// The most allocations per merged block [`engine_alloc_probe`] may
/// find. Not zero: the merge's record of what it did (its depletion
/// sequence, one arrival per block, the per-disk request lists) lives in
/// vectors that grow by doubling, a few reallocations per quadrupling of
/// the input.
const ENGINE_MAX_ALLOCS_PER_BLOCK: f64 = 0.01;

/// Real-I/O engine allocation probe: [`MergeEngine::execute`] on
/// [`ThreadedQueue::memory`] — the merge thread and its I/O worker — at
/// two input sizes, counting every allocation inside `execute` (planning
/// and loading excluded). The `sort_mem_1pass` shape: 64 runs on 8 disks,
/// inter-run N=4, 40 records per block, one worker. Per-run and
/// per-disk state, the output vector, the worker thread and the
/// payload-buffer pool (which ramps to the cache's size, then recycles)
/// cost the same at both sizes and cancel; a per-block allocation — a
/// payload copy, a decoded block, a store node — would not.
fn engine_alloc_probe() -> AllocProbe {
    let run_counted = |run_len: usize| -> (u64, u64) {
        let runs = merge_runs(run_len);
        let cfg = ScenarioBuilder::new(MERGE_RUNS as u32, 8)
            .inter(4)
            .build()
            .expect("valid engine probe config");
        let mut exec = ExecConfig::new(cfg);
        exec.jobs = 1;
        let engine = MergeEngine::new(exec, runs.iter().map(Vec::len).collect())
            .expect("valid engine probe plan");
        let mut queue = ThreadedQueue::memory(8, engine.block_bytes(), engine.queue_options());
        engine.load(&mut queue, &runs).expect("memory load");
        let queue: Box<dyn IoQueue> = Box::new(queue);
        let (a0, _) = alloc_snapshot();
        let outcome = engine.execute(queue).expect("engine probe merge");
        let (a1, _) = alloc_snapshot();
        (outcome.report.blocks_merged, a1 - a0)
    };
    // Both sizes run long enough for the buffer pool to reach the
    // cache's size.
    let _ = run_counted(2000);
    let (base_blocks, base_allocs) = run_counted(8000);
    let (scaled_blocks, scaled_allocs) = run_counted(32_000);
    let extra_blocks = scaled_blocks - base_blocks;
    AllocProbe {
        base_blocks,
        base_allocs,
        scaled_blocks,
        scaled_allocs,
        per_block_allocs: (scaled_allocs as f64 - base_allocs as f64) / extra_blocks as f64,
    }
}

/// A progress sink that formats a status string on every event, standing
/// in for a live renderer. Its cost is per *trial*, never per block, so
/// it must cancel out of the per-block allocation difference.
struct FormattingProgress;

impl ProgressSink for FormattingProgress {
    fn trial_finished(&self) {
        std::hint::black_box(String::from("[probe] trial finished"));
    }

    fn point_finished(&self, index: usize, total: usize, label: &str, trials: u32, mean_secs: f64) {
        std::hint::black_box(format!(
            "[{}/{total}] {label}: {trials} trials, {mean_secs:.2}s",
            index + 1
        ));
    }
}

/// Observability-layer allocation probe: the same two-length differencing
/// as [`alloc_probe`], but the counted region is the full experiment
/// pipeline — `pm_obs::run_suite` with a formatting progress sink plus
/// manifest rendering. Per-trial and per-point overhead (progress lines,
/// residual checks, manifest records) is identical at both lengths and
/// cancels; only a per-block cost could survive, and there must be none.
fn obs_alloc_probe() -> AllocProbe {
    let run_counted = |run_blocks: u32| -> (u64, u64) {
        let mut cfg = ScenarioBuilder::new(25, 8).inter(10).cache_blocks(1200).build().unwrap();
        cfg.run_blocks = run_blocks;
        let points = vec![PointSpec {
            kind: RecordKind::T1Case,
            label: "obs alloc probe".into(),
            sweep: None,
            x: None,
            x_label: None,
            config: cfg,
        }];
        let opts = SuiteOptions {
            trials: TrialsMode::Fixed(2),
            ..SuiteOptions::new(7)
        };
        let (a0, _) = alloc_snapshot();
        let records = run_suite(&points, &opts, &FormattingProgress).expect("valid probe config");
        let manifest = render_manifest(&records);
        let (a1, _) = alloc_snapshot();
        std::hint::black_box(manifest.len());
        (records[0].metrics.blocks_merged, a1 - a0)
    };
    let _ = run_counted(100);
    let (base_blocks, base_allocs) = run_counted(400);
    let (scaled_blocks, scaled_allocs) = run_counted(1600);
    let extra_blocks = scaled_blocks - base_blocks;
    AllocProbe {
        base_blocks,
        base_allocs,
        scaled_blocks,
        scaled_allocs,
        per_block_allocs: (scaled_allocs as f64 - base_allocs as f64) / extra_blocks as f64,
    }
}

/// Tracing-equivalence probe: the same configuration run with the default
/// `NullSink` and with a `RecordingSink` must produce bit-identical
/// reports — the sink only observes, it never participates. Returns
/// whether the probe passed.
fn trace_check() -> bool {
    let cfg = ScenarioBuilder::new(25, 8).inter(10).cache_blocks(1200).build().unwrap();
    let untraced = MergeSim::run_uniform(cfg).expect("valid probe config");
    let (traced, sink) = MergeSim::new(cfg)
        .expect("valid probe config")
        .replace_sink(RecordingSink::unbounded())
        .run_with_sink(&mut UniformDepletion);
    if untraced == traced {
        println!(
            "ok: traced run bit-identical to untraced ({} events recorded)",
            sink.total_emitted()
        );
        true
    } else {
        eprintln!("FAIL: recording a trace changed the simulation report");
        false
    }
}

/// Renders the scenario results and the allocation probes, each probe
/// given as `(JSON key, the unit it counts, probe)`.
fn render_json(results: &[Measured], probes: &[(&str, &str, &AllocProbe)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"pm-bench/perf-smoke/v1\",\n  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"strategy\": \"{}\", \"d\": {}, \"repeats\": {}, \
             \"blocks\": {}, \"elapsed_ns\": {}, \"ops_per_sec\": {:.1}, \
             \"ns_per_block\": {:.1}, \"allocs\": {}, \"alloc_bytes\": {}}}",
            r.name,
            r.strategy,
            r.d,
            r.repeats,
            r.blocks,
            r.elapsed_ns,
            r.ops_per_sec,
            r.ns_per_block,
            r.allocs,
            r.alloc_bytes
        );
        out.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    for (i, (key, unit, p)) in probes.iter().enumerate() {
        let _ = write!(
            out,
            "  \"{key}\": {{\"base_{unit}s\": {}, \"base_allocs\": {}, \
             \"scaled_{unit}s\": {}, \"scaled_allocs\": {}, \"per_{unit}_allocs\": {:.4}}}",
            p.base_blocks, p.base_allocs, p.scaled_blocks, p.scaled_allocs, p.per_block_allocs
        );
        out.push_str(if i + 1 == probes.len() {
            "\n}\n"
        } else {
            ",\n"
        });
    }
    out
}

/// Extracts `(name, ops_per_sec)` pairs from a previously emitted JSON
/// file. A purpose-built scanner, not a general JSON parser: it only
/// understands the exact shape `render_json` writes.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut pairs = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = rest[..name_end].to_string();
        let Some(ops_at) = line.find("\"ops_per_sec\": ") else {
            continue;
        };
        let tail = &line[ops_at + 15..];
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            pairs.push((name, v));
        }
    }
    pairs
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_core.json");
    let mut snapshot_path: Option<String> = None;
    let mut repeats = 5u32;
    let mut baseline: Option<String> = None;
    let mut max_regress_pct = 30.0f64;
    let mut check_alloc = false;
    let mut check_trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--snapshot" => {
                snapshot_path = Some(args.next().expect("--snapshot needs a path"));
            }
            "--repeats" => {
                repeats = args
                    .next()
                    .expect("--repeats needs a value")
                    .parse()
                    .expect("--repeats must be a positive integer");
                assert!(repeats > 0, "--repeats must be positive");
            }
            "--quick" => repeats = repeats.min(2),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--max-regress" => {
                max_regress_pct = args
                    .next()
                    .expect("--max-regress needs a value")
                    .parse()
                    .expect("--max-regress must be a number");
            }
            "--check-alloc" => check_alloc = true,
            "--check-trace" => check_trace = true,
            other => panic!("unknown flag: {other}"),
        }
    }

    let mut results = Vec::new();
    for s in scenarios() {
        let m = measure(&s, repeats);
        println!(
            "{:<20} D={:<2} {:>12.0} blocks/s  {:>8.1} ns/block  {:>9} allocs",
            m.name, m.d, m.ops_per_sec, m.ns_per_block, m.allocs
        );
        results.push(m);
    }
    {
        let m = measure_contend(repeats);
        println!(
            "{:<20} D={:<2} {:>12.0} reqs/s    {:>8.1} ns/req    {:>9} allocs",
            m.name, m.d, m.ops_per_sec, m.ns_per_block, m.allocs
        );
        results.push(m);
    }
    {
        let m = measure_merge(repeats);
        println!(
            "{:<20} k={:<2} {:>12.0} records/s {:>8.1} ns/record {:>9} allocs",
            m.name, MERGE_RUNS, m.ops_per_sec, m.ns_per_block, m.allocs
        );
        results.push(m);
    }
    {
        let m = measure_formation(repeats);
        println!(
            "{:<20} k={:<2} {:>12.0} records/s {:>8.1} ns/record {:>9} allocs",
            m.name, MERGE_RUNS, m.ops_per_sec, m.ns_per_block, m.allocs
        );
        results.push(m);
    }
    let probe = alloc_probe();
    println!(
        "alloc probe: {} blocks -> {} allocs, {} blocks -> {} allocs ({:.4} allocs/block)",
        probe.base_blocks,
        probe.base_allocs,
        probe.scaled_blocks,
        probe.scaled_allocs,
        probe.per_block_allocs
    );
    let contend_probe = contend_alloc_probe();
    println!(
        "contend alloc probe (scheduling layer): {} reqs -> {} allocs, \
         {} reqs -> {} allocs ({:.4} allocs/req)",
        contend_probe.base_blocks,
        contend_probe.base_allocs,
        contend_probe.scaled_blocks,
        contend_probe.scaled_allocs,
        contend_probe.per_block_allocs
    );
    let obs_probe = obs_alloc_probe();
    println!(
        "obs alloc probe (progress + manifest on): {} blocks -> {} allocs, \
         {} blocks -> {} allocs ({:.4} allocs/block)",
        obs_probe.base_blocks,
        obs_probe.base_allocs,
        obs_probe.scaled_blocks,
        obs_probe.scaled_allocs,
        obs_probe.per_block_allocs
    );

    let metered_probe = metered_alloc_probe();
    println!(
        "metered alloc probe (sim core, metrics on): {} blocks -> {} allocs, \
         {} blocks -> {} allocs ({:.4} allocs/block)",
        metered_probe.base_blocks,
        metered_probe.base_allocs,
        metered_probe.scaled_blocks,
        metered_probe.scaled_allocs,
        metered_probe.per_block_allocs
    );
    let contend_metered_probe = contend_metered_alloc_probe();
    println!(
        "metered contend alloc probe (scheduling, metrics on): {} reqs -> {} allocs, \
         {} reqs -> {} allocs ({:.4} allocs/req)",
        contend_metered_probe.base_blocks,
        contend_metered_probe.base_allocs,
        contend_metered_probe.scaled_blocks,
        contend_metered_probe.scaled_allocs,
        contend_metered_probe.per_block_allocs
    );
    let merge_probe = merge_alloc_probe();
    println!(
        "merge alloc probe (loser tree, k={MERGE_RUNS}): {} records -> {} allocs, \
         {} records -> {} allocs ({:.4} allocs/record)",
        merge_probe.base_blocks,
        merge_probe.base_allocs,
        merge_probe.scaled_blocks,
        merge_probe.scaled_allocs,
        merge_probe.per_block_allocs
    );

    let engine_probe = engine_alloc_probe();
    println!(
        "engine alloc probe (execute on ThreadedQueue::memory): {} blocks -> {} allocs, \
         {} blocks -> {} allocs ({:.4} allocs/block)",
        engine_probe.base_blocks,
        engine_probe.base_allocs,
        engine_probe.scaled_blocks,
        engine_probe.scaled_allocs,
        engine_probe.per_block_allocs
    );

    let json = render_json(
        &results,
        &[
            ("alloc_probe", "block", &probe),
            ("contend_alloc_probe", "block", &contend_probe),
            ("obs_alloc_probe", "block", &obs_probe),
            ("metered_alloc_probe", "block", &metered_probe),
            (
                "contend_metered_alloc_probe",
                "block",
                &contend_metered_probe,
            ),
            ("merge_alloc_probe", "record", &merge_probe),
            ("engine_alloc_probe", "block", &engine_probe),
        ],
    );
    fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
    if let Some(path) = &snapshot_path {
        fs::write(path, &json).expect("write snapshot JSON");
        println!("wrote {path}");
    }

    let mut failed = false;
    if check_alloc && probe.per_block_allocs > 0.0 {
        eprintln!(
            "FAIL: steady-state demand path allocates ({:.4} allocs per merged block)",
            probe.per_block_allocs
        );
        failed = true;
    }
    if check_alloc && contend_probe.per_block_allocs > 0.0 {
        eprintln!(
            "FAIL: scheduling layer allocates in steady state \
             ({:.4} allocs per replayed request)",
            contend_probe.per_block_allocs
        );
        failed = true;
    }
    if check_alloc && obs_probe.per_block_allocs > 0.0 {
        eprintln!(
            "FAIL: observability layer adds per-block allocations \
             ({:.4} allocs per merged block with progress + manifest on)",
            obs_probe.per_block_allocs
        );
        failed = true;
    }
    if check_alloc && metered_probe.per_block_allocs > 0.0 {
        eprintln!(
            "FAIL: metrics-enabled sim core allocates in steady state \
             ({:.4} allocs per merged block)",
            metered_probe.per_block_allocs
        );
        failed = true;
    }
    if check_alloc && contend_metered_probe.per_block_allocs > 0.0 {
        eprintln!(
            "FAIL: metrics-enabled scheduling layer allocates in steady state \
             ({:.4} allocs per replayed request)",
            contend_metered_probe.per_block_allocs
        );
        failed = true;
    }
    if check_alloc && merge_probe.per_block_allocs > 0.0 {
        eprintln!(
            "FAIL: loser-tree merge allocates in steady state \
             ({:.4} allocs per merged record)",
            merge_probe.per_block_allocs
        );
        failed = true;
    }
    if check_alloc && engine_probe.per_block_allocs > ENGINE_MAX_ALLOCS_PER_BLOCK {
        eprintln!(
            "FAIL: the engine allocates per merged block \
             ({:.4} allocs per block, gate {ENGINE_MAX_ALLOCS_PER_BLOCK})",
            engine_probe.per_block_allocs
        );
        failed = true;
    }
    if check_trace && !trace_check() {
        failed = true;
    }
    if let Some(path) = baseline {
        let text = fs::read_to_string(&path).expect("read baseline JSON");
        for (name, base_ops) in parse_baseline(&text) {
            let Some(cur) = results.iter().find(|r| r.name == name) else {
                continue;
            };
            let floor = base_ops * (1.0 - max_regress_pct / 100.0);
            if cur.ops_per_sec < floor {
                eprintln!(
                    "FAIL: {name} regressed: {:.0} blocks/s < {:.0} ({}% below baseline {:.0})",
                    cur.ops_per_sec, floor, max_regress_pct, base_ops
                );
                failed = true;
            } else {
                println!(
                    "ok: {name} {:.0} blocks/s vs baseline {:.0} (floor {:.0})",
                    cur.ops_per_sec, base_ops, floor
                );
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
