//! Wall-clock performance smoke harness for the merge simulator.
//!
//! Two tables drive it, and it writes both as `BENCH_core.json`:
//!
//! * [`scenarios`] — timed workloads: eight paper configurations
//!   (strategy × D), the `contend_d8_t4` multi-tenant service mix, the
//!   `merge_k64_records` and `merge_k8_records` merge kernels and the
//!   `extsort_formation` run-formation kernel, each reporting units
//!   (merged blocks, replayed requests, merged or sorted records) per
//!   second of its fastest repeat.
//! * [`probes`] — steady-state allocations per unit, counted by a global
//!   allocator: zero for the simulator core (bare, metered, and under the
//!   observability pipeline), the tenant-scheduling layer (bare and
//!   metered) and the merge kernel; at most [`ENGINE_MAX_ALLOCS_PER_BLOCK`]
//!   for the real-I/O engine.
//!
//! Flags: `--out <path>` (default `BENCH_core.json`), `--repeats <n>`
//! (default 5) and `--baseline <path>`, a JSON this harness wrote earlier,
//! which [`gate`] compares the run against. Exits 0 when every gate passes,
//! 1 when one fails and 2 on a bad flag.
//!
//! Ops/sec numbers are machine-dependent; the committed baseline under
//! `crates/bench/baseline/` tracks the trajectory on one reference box and
//! the CI gate only guards against order-of-magnitude regressions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pm_core::{
    run_trial_range, LoserTree, MergeConfig, MergeSim, ScenarioBuilder, SyncMode, UniformDepletion,
};
use pm_engine::{ExecConfig, IoQueue, MergeEngine, ThreadedQueue};
use pm_extsort::{generate, run_formation, Record};
use pm_metrics::{MetricsSink, NullMetrics, StackMetrics};
use pm_obs::json::Value;
use pm_obs::{
    render_manifest, run_suite, PointSpec, ProgressSink, RecordKind, SuiteOptions, TrialsMode,
};
use pm_service::{SharedSpec, StaticPartition, TenantJob, TenantSim, TenantSimOptions, Wfq};
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

/// The output path, the repeat count and the baseline path.
type Args = (String, u32, Option<String>);

const USAGE: &str = "usage: perf_smoke [--out PATH] [--repeats N] [--baseline PATH]";

const SCHEMA: &str = "pm-bench/perf-smoke/v1";

/// How far below its baseline `ops_per_sec` a scenario may fall. Shared CI
/// runners are noisy, so the gate is loose: it catches structural
/// regressions (a per-block allocation, an O(D·N) event list), not
/// single-digit drift.
const MAX_REGRESS_PCT: f64 = 30.0;

/// What [`timed`] measured.
struct Timing {
    /// Units done over all timed repeats.
    units: u64,
    elapsed_ns: u128,
    /// Throughput of the fastest repeat, and its inverse.
    ops_per_sec: f64,
    ns_per_unit: f64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Runs `op` `warm_up` times untimed, then `repeats` times timed, and
/// counts the allocations of the timed loop. `op(i)` does repeat `i` and
/// returns its unit count with a value that is dropped after its clock
/// stops.
///
/// The work is deterministic, so scheduler and frequency noise only ever
/// adds time: the repeat with the fewest ns per unit is the
/// least-contaminated estimate of true cost, and throughput is reported
/// from it, not from the aggregate.
fn timed<R>(repeats: u32, warm_up: u32, mut op: impl FnMut(u32) -> (u64, R)) -> Timing {
    for _ in 0..warm_up {
        op(0);
    }
    let (a0, b0) = alloc_snapshot();
    let started = Instant::now();
    let mut units = 0u64;
    let mut best: Option<(u128, u64)> = None;
    for i in 0..repeats {
        let run_started = Instant::now();
        let (n, out) = op(i);
        let ns = run_started.elapsed().as_nanos().max(1);
        std::hint::black_box(out);
        units += n;
        // Compare rates without division: ns/n < best_ns/best_n.
        if best.map_or(true, |(b_ns, b_n)| {
            ns * u128::from(b_n) < b_ns * u128::from(n)
        }) {
            best = Some((ns, n));
        }
    }
    let elapsed_ns = started.elapsed().as_nanos().max(1);
    let (a1, b1) = alloc_snapshot();
    let (best_ns, best_n) = best.expect("at least one repeat");
    Timing {
        units,
        elapsed_ns,
        ops_per_sec: best_n as f64 / (best_ns as f64 / 1e9),
        ns_per_unit: best_ns as f64 / best_n as f64,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// A timed scenario: its name, strategy and D as the JSON records them,
/// the unit it counts, and its body, which takes the repeat count.
type Scenario = (
    &'static str,
    &'static str,
    u32,
    &'static str,
    Box<dyn FnOnce(u32) -> Timing>,
);

fn scenario(
    name: &'static str,
    strategy: &'static str,
    d: u32,
    unit: &'static str,
    run: impl FnOnce(u32) -> Timing + 'static,
) -> Scenario {
    (name, strategy, d, unit, Box::new(run))
}

/// A paper configuration, each repeat on the next seed.
fn paper(name: &'static str, strategy: &'static str, d: u32, cfg: MergeConfig) -> Scenario {
    scenario(name, strategy, d, "block", move |repeats| {
        timed(repeats, 1, |i| {
            let mut cfg = cfg;
            cfg.seed = cfg.seed.wrapping_add(u64::from(i));
            (
                MergeSim::run_uniform(cfg)
                    .expect("valid scenario config")
                    .blocks_merged,
                (),
            )
        })
    })
}

fn scenarios() -> Vec<Scenario> {
    let cfg = |b: ScenarioBuilder| b.build().expect("valid scenario config");
    let inter = |d| cfg(ScenarioBuilder::new(25, d).inter(10).cache_blocks(1200));
    let mut sync = inter(8);
    sync.sync = SyncMode::Synchronized;
    vec![
        paper(
            "no_prefetch_d1",
            "none",
            1,
            cfg(ScenarioBuilder::new(25, 1)),
        ),
        paper(
            "intra_d4_n10",
            "intra",
            4,
            cfg(ScenarioBuilder::new(25, 4).intra(10)),
        ),
        paper("inter_d2_n10", "inter", 2, inter(2)),
        paper("inter_d4_n10", "inter", 4, inter(4)),
        paper("inter_d8_n10", "inter", 8, inter(8)),
        paper("inter_d16_n10", "inter", 16, inter(16)),
        paper("inter_d32_n10", "inter", 32, inter(32)),
        paper("inter_sync_d8_n10", "inter-sync", 8, sync),
        // The full `TenantSim::run`: isolated profiles, per-tenant
        // baselines, contended WFQ replay. The simulator and scheduler are
        // reused across repeats, as a sweeping caller would hold them.
        scenario("contend_d8_t4", "contend", 8, "request", |repeats| {
            let (jobs, mut sched) = (
                contend_jobs(60),
                (TenantSim::new(CONTEND_SHARED), Wfq::new()),
            );
            timed(repeats, 1, |i| {
                (
                    contend(&mut sched, &jobs, 1992 + u64::from(i), &NullMetrics),
                    (),
                )
            })
        }),
        // One merge of the 64 × 1024-record input takes 1–2 ms, short
        // enough that a single scheduler hiccup or a cold cache swamps it,
        // so each repeat times `MERGE_PASSES` merges and the fastest counts.
        scenario("merge_k64_records", "loser-tree", 0, "record", |repeats| {
            let runs = merge_runs(MERGE_RUNS, 1024);
            timed(repeats.saturating_mul(MERGE_PASSES), MERGE_PASSES, |_| {
                (merge_records(&runs), ())
            })
        }),
        // The same records as 8 runs: each pass of the two-pass sort's
        // fan-in-8 tree merges at this depth.
        scenario("merge_k8_records", "loser-tree", 0, "record", |repeats| {
            let runs = merge_runs(8, MERGE_RUNS * 1024 / 8);
            timed(repeats.saturating_mul(MERGE_PASSES), MERGE_PASSES, |_| {
                (merge_records(&runs), ())
            })
        }),
        // The input is generated before, and the runs dropped after, the
        // timed window.
        scenario("extsort_formation", "load-sort", 0, "record", |repeats| {
            let input = generate::uniform(MERGE_RUNS * FORMATION_RUN_LEN, 1992);
            timed(repeats, 1, |_| {
                (
                    input.len() as u64,
                    run_formation::load_sort(&input, FORMATION_RUN_LEN),
                )
            })
        }),
    ]
}

/// The `contend_d8_t4` service mix: four heterogeneous tenants — a
/// deep-batch big job, a mid job, and two shallow small jobs arriving in
/// a later burst — contending for 8 shared disks under WFQ.
fn contend_jobs(run_blocks: u32) -> Vec<TenantJob> {
    let job =
        |name: &str, runs: u32, disks: u32, n: u32, arrival_ms: u64, priority: u32| TenantJob {
            name: name.into(),
            scenario: ScenarioBuilder::new(runs, disks)
                .inter(n)
                .run_blocks(run_blocks)
                .build()
                .expect("valid contend scenario"),
            arrival: SimDuration::from_millis(arrival_ms),
            priority,
        };
    vec![
        job("big", 12, 8, 8, 0, 2),
        job("mid", 8, 6, 4, 0, 1),
        job("small-a", 6, 4, 2, 250, 1),
        job("small-b", 4, 2, 2, 250, 1),
    ]
}

const CONTEND_SHARED: SharedSpec = SharedSpec {
    disks: 8,
    cache_blocks: 24000,
};

/// Runs `jobs` through a reused tenant simulator and scheduler and
/// returns the requests replayed.
fn contend(s: &mut (TenantSim, Wfq), jobs: &[TenantJob], seed: u64, m: &impl MetricsSink) -> u64 {
    let opts = TenantSimOptions { jobs: 1 };
    let report =
        s.0.run(jobs, &StaticPartition, &mut s.1, seed, &opts, m)
            .expect("valid contend scenario");
    report.tenants.iter().map(|t| t.requests).sum()
}

/// Fan-in of the merge scenarios: the benchmark's single-pass sort merges
/// 64 runs.
const MERGE_RUNS: usize = 64;

/// Timed merges per repeat of `merge_k64_records` and `merge_k8_records`.
const MERGE_PASSES: u32 = 8;

/// Run length of the `extsort_formation` scenario: the benchmark's
/// single-pass sort forms `MERGE_RUNS` runs of 62 500 records.
const FORMATION_RUN_LEN: usize = 62_500;

/// `k` sorted runs of `run_len` uniform records each, as load-sort run
/// formation leaves them.
fn merge_runs(k: usize, run_len: usize) -> Vec<Vec<Record>> {
    run_formation::load_sort(&generate::uniform(k * run_len, 1992), run_len)
}

/// Merges `runs` through a [`LoserTree`] and returns the records merged.
/// The runs are borrowed and the heads stay in them, so the only
/// allocations are the tree's and the position vector's, both made before
/// the first record moves.
fn merge_records(runs: &[Vec<Record>]) -> u64 {
    let mut next = vec![0usize; runs.len()];
    let head = |r: usize, next: &[usize]| runs[r].get(next[r]);
    let tie = |a: usize, b: usize, next: &[usize]| head(a, next).cmp(&head(b, next));
    let mut tree = LoserTree::new(runs.iter().map(|run| run.first().map(|r| r.key)), |a, b| {
        tie(a, b, &next)
    });
    let (mut merged, mut acc) = (0u64, 0u64);
    while let Some(src) = tree.winner() {
        acc ^= runs[src][next[src]].rid;
        merged += 1;
        next[src] += 1;
        let key = head(src, &next).map(|r| r.key);
        tree.replace_winner(key, |a, b| tie(a, b, &next));
    }
    std::hint::black_box(acc);
    merged
}

/// What [`probe`] counted at its two sizes.
struct Probe {
    base_units: u64,
    base_allocs: u64,
    scaled_units: u64,
    scaled_allocs: u64,
    per_unit: f64,
}

/// Runs `run` at the warm-up size `sizes[0]`, then at the two counted
/// sizes, and returns the allocations per extra unit. `run(size)` returns
/// the units it did and the allocations in its counted region (see
/// [`counted`]). Setup, and per-trial or per-run costs, are the same at
/// both sizes and cancel; only a per-unit cost survives the difference.
fn probe(sizes: [u32; 3], mut run: impl FnMut(u32) -> (u64, u64)) -> Probe {
    run(sizes[0]);
    let (base_units, base_allocs) = run(sizes[1]);
    let (scaled_units, scaled_allocs) = run(sizes[2]);
    Probe {
        base_units,
        base_allocs,
        scaled_units,
        scaled_allocs,
        per_unit: (scaled_allocs as f64 - base_allocs as f64) / (scaled_units - base_units) as f64,
    }
}

/// Runs `f`, which returns a unit count, and pairs that count with the
/// allocations `f` made.
fn counted(f: impl FnOnce() -> u64) -> (u64, u64) {
    let (a0, _) = alloc_snapshot();
    let units = f();
    (units, alloc_snapshot().0 - a0)
}

/// The simulator-core probe configuration: the paper's 25-run, 8-disk,
/// inter-run N=10, C=1200 case at `run_blocks` blocks per run.
fn probe_cfg(run_blocks: u32) -> MergeConfig {
    let mut cfg = ScenarioBuilder::new(25, 8)
        .inter(10)
        .cache_blocks(1200)
        .build()
        .expect("valid probe");
    cfg.run_blocks = run_blocks;
    cfg
}

/// The most allocations per merged block the engine probe may find. Not
/// zero: the merge's record of what it did (its depletion sequence, one
/// arrival per block, the per-disk request lists) lives in vectors that
/// grow by doubling, a few reallocations per quadrupling of the input.
const ENGINE_MAX_ALLOCS_PER_BLOCK: f64 = 0.01;

/// An allocation probe: its JSON key, the unit it counts, what it probes,
/// the most allocations per unit it may find, and its body.
type ProbeRow = (
    &'static str,
    &'static str,
    &'static str,
    f64,
    Box<dyn FnOnce() -> Probe>,
);

/// A [`ProbeRow`] that runs [`probe`] over `sizes` with `run`.
fn probe_row(
    key: &'static str,
    unit: &'static str,
    label: &'static str,
    max_per_unit: f64,
    sizes: [u32; 3],
    run: impl FnMut(u32) -> (u64, u64) + 'static,
) -> ProbeRow {
    (
        key,
        unit,
        label,
        max_per_unit,
        Box::new(move || probe(sizes, run)),
    )
}

/// The `contend_d8_t4` mix through one reused simulator and scheduler,
/// recording into `metrics`; a block is a replayed request. Admission work
/// (cache grants, isolated profiles, lanes, the report) is the same at both
/// sizes, and lanes, disk queues and the event calendar are pre-sized at
/// admission. It warms at the largest size: the isolated profiles hold
/// cache-bounded structures that ramp lazily to a high-water mark a short
/// run never reaches.
fn contend_probe(
    key: &'static str,
    label: &'static str,
    metrics: impl MetricsSink + 'static,
) -> ProbeRow {
    let mut sched = (TenantSim::new(CONTEND_SHARED), Wfq::new());
    probe_row(key, "block", label, 0.0, [6400, 1600, 6400], move |n| {
        let jobs = contend_jobs(n);
        counted(|| contend(&mut sched, &jobs, 1992, &metrics))
    })
}

fn probes() -> Vec<ProbeRow> {
    let names: Vec<String> = contend_jobs(60).into_iter().map(|j| j.name).collect();
    let sim_metrics = StackMetrics::new(8, &[]);
    vec![
        // Construction is outside the count.
        probe_row(
            "alloc_probe",
            "block",
            "sim core",
            0.0,
            [100, 400, 1600],
            |n| {
                let sim = MergeSim::new(probe_cfg(n)).expect("valid probe config");
                counted(|| sim.run(&mut UniformDepletion).blocks_merged)
            },
        ),
        contend_probe("contend_alloc_probe", "scheduling", NullMetrics),
        // The experiment pipeline: `run_suite` with a formatting progress
        // sink, plus manifest rendering.
        probe_row(
            "obs_alloc_probe",
            "block",
            "progress + manifest",
            0.0,
            [100, 400, 1600],
            |n| {
                let points = vec![PointSpec {
                    kind: RecordKind::T1Case,
                    label: "obs alloc probe".into(),
                    sweep: None,
                    x: None,
                    x_label: None,
                    config: probe_cfg(n),
                }];
                let opts = SuiteOptions {
                    trials: TrialsMode::Fixed(2),
                    ..SuiteOptions::new(7)
                };
                counted(|| {
                    let records =
                        run_suite(&points, &opts, &FormattingProgress).expect("valid probe config");
                    std::hint::black_box(render_manifest(&records).len());
                    records[0].metrics.blocks_merged
                })
            },
        ),
        // `run_trial_range` recording each trial into a live `StackMetrics`.
        // Recording is pre-bound atomics; the one allocating site (the
        // strategy cell's first lookup) fires during warm-up.
        probe_row(
            "metered_alloc_probe",
            "block",
            "metered",
            0.0,
            [100, 400, 1600],
            move |n| {
                let cfg = probe_cfg(n);
                counted(|| {
                    let strategy = cfg.strategy.label();
                    let reports = run_trial_range(&cfg, 0, 1, 1, &|_, r| {
                        sim_metrics.trial_done(
                            strategy,
                            r.blocks_merged,
                            r.demand_ops,
                            r.fallback_ops,
                            r.full_prefetch_ops,
                        );
                    })
                    .expect("valid metered probe config");
                    reports[0].blocks_merged
                })
            },
        ),
        // Every replayed request records disk I/O, tenant wait, WFQ lag and
        // a queue-depth sample, all on pre-bound handles.
        contend_probe(
            "contend_metered_alloc_probe",
            "metered",
            StackMetrics::new(8, &names),
        ),
        // `LoserTree` allocates in `new` and nowhere else.
        probe_row(
            "merge_alloc_probe",
            "record",
            "loser tree, k=64",
            0.0,
            [256, 1024, 4096],
            |n| {
                let runs = merge_runs(MERGE_RUNS, n as usize);
                counted(|| merge_records(&runs))
            },
        ),
        // `MergeEngine::execute` on `ThreadedQueue::memory` (the merge
        // thread and one I/O worker) at the `sort_mem_1pass` shape: 64 runs
        // on 8 disks, inter-run N=4, 40 records per block. Planning and
        // loading are outside the count. Per-run and per-disk state, the
        // output vector, the worker thread and the payload-buffer pool
        // (which fills to the cache's size, then recycles) are the same at
        // both sizes; a payload copy or a decoded block per block is not.
        probe_row(
            "engine_alloc_probe",
            "block",
            "engine on ThreadedQueue::memory",
            ENGINE_MAX_ALLOCS_PER_BLOCK,
            [2000, 8000, 32_000],
            |n| {
                let runs = merge_runs(MERGE_RUNS, n as usize);
                let cfg = ScenarioBuilder::new(MERGE_RUNS as u32, 8).inter(4).build();
                let mut exec = ExecConfig::new(cfg.expect("valid engine probe config"));
                exec.jobs = 1;
                let engine = MergeEngine::new(exec, runs.iter().map(Vec::len).collect())
                    .expect("valid engine probe plan");
                let mut queue =
                    ThreadedQueue::memory(8, engine.block_bytes(), engine.queue_options());
                engine.load(&mut queue, &runs).expect("memory load");
                let queue: Box<dyn IoQueue> = Box::new(queue);
                counted(|| {
                    engine
                        .execute(queue)
                        .expect("engine probe merge")
                        .report
                        .blocks_merged
                })
            },
        ),
    ]
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

fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Lays the run out as JSON with one scenario, and one probe, per line.
fn render(scenarios: &[Value], probes: &[(&str, Value)]) -> String {
    let rows: Vec<String> = scenarios
        .iter()
        .map(|s| format!("    {}", s.to_json()))
        .collect();
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"scenarios\": [\n{}\n  ]",
        rows.join(",\n")
    );
    for (key, p) in probes {
        out.push_str(&format!(",\n  \"{key}\": {}", p.to_json()));
    }
    out + "\n}\n"
}

/// The `(name, ops_per_sec)` of every scenario in a JSON this harness
/// wrote.
fn rates(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Value::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    let rows = doc
        .get("scenarios")
        .and_then(Value::as_arr)
        .ok_or("no \"scenarios\" array")?;
    rows.iter()
        .map(|row| {
            let name = row.get("name").and_then(Value::as_str);
            match (name, row.get("ops_per_sec").and_then(Value::as_f64)) {
                (Some(name), Some(ops)) => Ok((name.to_owned(), ops)),
                _ => Err(format!(
                    "a scenario lacks a name or ops_per_sec: {}",
                    row.to_json()
                )),
            }
        })
        .collect()
}

/// Gates the run written as `current` against `baseline` and prints one
/// line per scenario. Fails when the baseline does not parse, when it
/// shares no scenario with the run, or when a shared scenario's
/// `ops_per_sec` fell more than [`MAX_REGRESS_PCT`] percent below it. A
/// scenario on one side only is not gated.
fn gate(current: &str, baseline: &str) -> bool {
    let current = rates(current).expect("the harness reads its own JSON");
    let Ok(baseline) = rates(baseline).map_err(|e| eprintln!("FAIL: bad baseline: {e}")) else {
        return false;
    };
    let (mut passed, mut shared) = (true, 0);
    for (name, ops) in &current {
        let Some((_, base)) = baseline.iter().find(|(b, _)| b == name) else {
            println!("not gated: {name} has no baseline row");
            continue;
        };
        shared += 1;
        let floor = base * (1.0 - MAX_REGRESS_PCT / 100.0);
        if *ops < floor {
            eprintln!(
                "FAIL: {name} regressed: {ops:.0} ops/s < {floor:.0} \
                 ({MAX_REGRESS_PCT}% below baseline {base:.0})"
            );
            passed = false;
        } else {
            println!("ok: {name} {ops:.0} ops/s vs baseline {base:.0} (floor {floor:.0})");
        }
    }
    for (name, _) in &baseline {
        if !current.iter().any(|(c, _)| c == name) {
            println!("not gated: baseline row {name} is not in this run");
        }
    }
    if shared == 0 {
        eprintln!("FAIL: the baseline shares no scenario with this run");
    }
    passed && shared > 0
}

/// Parses `--out`, `--repeats` and `--baseline`, each followed by its value.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut out, mut repeats, mut baseline) = (String::from("BENCH_core.json"), 5, None);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--out", Some(path)) => out = path,
            ("--baseline", Some(path)) => baseline = Some(path),
            ("--repeats", Some(n)) => {
                repeats = n
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--repeats takes a positive count")?;
            }
            _ => return Err(format!("unknown flag or missing value: {flag}")),
        }
    }
    Ok((out, repeats, baseline))
}

fn main() -> ExitCode {
    let (out_path, repeats, baseline) = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_smoke: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut rows = Vec::new();
    for (name, strategy, d, unit, run) in scenarios() {
        let t = run(repeats);
        println!(
            "{name:<20} {:>12.0} {:<10} {:>8.1} ns/{unit:<7} {:>9} allocs",
            t.ops_per_sec,
            format!("{unit}s/s"),
            t.ns_per_unit,
            t.allocs
        );
        rows.push(obj([
            ("name", Value::Str(name.into())),
            ("strategy", Value::Str(strategy.into())),
            ("d", Value::Num(d.into())),
            ("repeats", Value::Num(repeats.into())),
            ("blocks", Value::Num(t.units as f64)),
            ("elapsed_ns", Value::Num(t.elapsed_ns as f64)),
            ("ops_per_sec", Value::Num(t.ops_per_sec)),
            ("ns_per_block", Value::Num(t.ns_per_unit)),
            ("allocs", Value::Num(t.allocs as f64)),
            ("alloc_bytes", Value::Num(t.alloc_bytes as f64)),
        ]));
    }

    let mut failed = false;
    let mut probe_rows = Vec::new();
    for (key, unit, label, max_per_unit, run) in probes() {
        let p = run();
        println!(
            "{key} ({label}): {} {unit}s -> {} allocs, {} {unit}s -> {} allocs ({:.4}/{unit})",
            p.base_units, p.base_allocs, p.scaled_units, p.scaled_allocs, p.per_unit
        );
        if p.per_unit > max_per_unit {
            eprintln!(
                "FAIL: {key} allocates {:.4} per {unit} (gate {max_per_unit})",
                p.per_unit
            );
            failed = true;
        }
        probe_rows.push((
            key,
            obj([
                (&format!("base_{unit}s"), Value::Num(p.base_units as f64)),
                ("base_allocs", Value::Num(p.base_allocs as f64)),
                (
                    &format!("scaled_{unit}s"),
                    Value::Num(p.scaled_units as f64),
                ),
                ("scaled_allocs", Value::Num(p.scaled_allocs as f64)),
                (&format!("per_{unit}_allocs"), Value::Num(p.per_unit)),
            ]),
        ));
    }

    let json = render(&rows, &probe_rows);
    if let Err(e) = fs::write(&out_path, &json) {
        eprintln!("FAIL: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if let Some(path) = baseline {
        match fs::read_to_string(&path) {
            Ok(text) => failed |= !gate(&json, &text),
            Err(e) => {
                eprintln!("FAIL: cannot read the baseline {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(rows: &[(&str, f64)]) -> String {
        let rows: Vec<Value> = rows
            .iter()
            .map(|&(name, ops)| {
                obj([
                    ("name", Value::Str(name.into())),
                    ("ops_per_sec", Value::Num(ops)),
                ])
            })
            .collect();
        render(
            &rows,
            &[("alloc_probe", obj([("per_block_allocs", Value::Num(0.0))]))],
        )
    }

    #[test]
    fn committed_baselines_name_every_scenario() {
        for text in [
            include_str!("../../baseline/BENCH_core.json"),
            include_str!("../../baseline/BENCH_core_pre_pr.json"),
        ] {
            let rows = rates(text).expect("committed baseline parses");
            for (name, ..) in scenarios() {
                assert!(rows.iter().any(|(n, _)| n == name), "no {name} row");
            }
        }
    }

    #[test]
    fn a_written_file_reads_back_one_scenario_per_line() {
        let text = run_of(&[("a", 1.5e7), ("b", 2.25)]);
        assert_eq!(text.lines().filter(|l| l.contains("\"name\"")).count(), 2);
        let back = rates(&text).unwrap();
        assert_eq!(back, [("a".to_owned(), 1.5e7), ("b".to_owned(), 2.25)]);
    }

    #[test]
    fn the_gate_needs_a_parsable_baseline_that_shares_a_scenario() {
        let run = run_of(&[("a", 100.0), ("new", 5.0)]);
        assert!(gate(&run, &run_of(&[("a", 140.0), ("gone", 1.0)])));
        assert!(
            !gate(&run, &run_of(&[("a", 150.0)])),
            "a fell more than 30%"
        );
        assert!(
            !gate(&run, &run_of(&[("a", 150.0)]).replace(',', ",\n")),
            "multi-line"
        );
        assert!(!gate(&run, &run_of(&[("b", 100.0)])), "disjoint");
        assert!(!gate(&run, &run_of(&[])), "empty");
        assert!(!gate(
            &run,
            "{\"schema\": \"pm-bench/perf-smoke/v1\", \"scenarios\": ["
        ));
        assert!(!gate(
            &run,
            "{\"scenarios\": [{\"name\": \"a\", \"ops_per_sec\": 1}]}"
        ));
    }

    #[test]
    fn accepts_exactly_three_flags() {
        let parse = |args: &str| parse_args(args.split_whitespace().map(String::from));
        let all = parse("--out o.json --repeats 2 --baseline b.json");
        assert_eq!(all, Ok(("o.json".into(), 2, Some("b.json".into()))));
        assert_eq!(parse(""), Ok(("BENCH_core.json".into(), 5, None)));
        for bad in [
            "--quick",
            "--check-alloc",
            "--max-regress 30",
            "--repeats 0",
            "--out",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
