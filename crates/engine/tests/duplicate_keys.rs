//! Equal keys through the engine, end to end.
//!
//! The merge decides most loser-tree matches on keys alone and reads a
//! head's record id only when two keys tie, so equal keys are the one
//! place the merge reads rids. Here the runs interleave record ids: run
//! `r` of `k` takes every `k`-th input record from the `r`-th on, then
//! sorts. A merge that broke ties by run index or by key alone would
//! emit equal keys out of rid order. The inputs: one key, 16 keys, and
//! records keyed `u64::MAX` (the key an exhausted run holds in the tree)
//! spread over every run. In every case the output must equal the input
//! after `sort_unstable`, and the simulator's replay of the depletion
//! sequence must re-derive the engine's per-disk requests exactly.

mod common;

use pm_core::{MergeConfig, ScenarioBuilder};
use pm_engine::{ExecOutcome, MergeEngine, MultiPassExecutor, MultiPassOptions, PassBackend};
use pm_extsort::plan::{plan_merge_tree, PlanPolicy};
use pm_extsort::{generate, Record};

use common::{engine_for, run_memory, PermutedQueue, RPB};

/// Runs the tests merge: 8, so a fan-in-3 tree takes two passes.
const RUNS: usize = 8;

/// Records per input: 307 or 306 per run, so each run ends in a partial
/// block.
const RECORDS: usize = 2_450;

/// The inputs, by name: every record one key, 16 keys, and uniform keys
/// with every fifth record keyed `u64::MAX` and every seventh
/// `u64::MAX - 1`.
fn inputs() -> Vec<(&'static str, Vec<Record>)> {
    let max_keyed = generate::uniform(RECORDS, 3)
        .into_iter()
        .enumerate()
        .map(|(i, r)| match (i % 5, i % 7) {
            (0, _) => Record::new(u64::MAX, r.rid),
            (_, 0) => Record::new(u64::MAX - 1, r.rid),
            _ => r,
        })
        .collect();
    vec![
        ("one key", generate::few_distinct(RECORDS, 1, 1)),
        ("16 keys", generate::few_distinct(RECORDS, 16, 2)),
        ("u64::MAX keys", max_keyed),
    ]
}

/// `k` sorted runs whose record ids interleave: run `r` holds input
/// records `r`, `r + k`, `r + 2k`, …
fn strided_runs(input: &[Record], k: usize) -> Vec<Vec<Record>> {
    let mut runs = vec![Vec::new(); k];
    for (i, rec) in input.iter().enumerate() {
        runs[i % k].push(*rec);
    }
    for run in &mut runs {
        run.sort_unstable();
    }
    runs
}

fn sorted(input: &[Record]) -> Vec<Record> {
    let mut all = input.to_vec();
    all.sort_unstable();
    all
}

fn scenario(seed: u64) -> MergeConfig {
    ScenarioBuilder::new(RUNS as u32, 3)
        .inter(4)
        .seed(seed)
        .build()
        .unwrap()
}

/// The output is the sorted input, and the simulator re-derives every
/// per-disk request.
fn assert_sorted_with_parity(
    name: &str,
    engine: &MergeEngine,
    outcome: &ExecOutcome,
    input: &[Record],
) {
    assert!(
        outcome.output == sorted(input),
        "{name}: output is not the input after sort_unstable"
    );
    let prediction = engine.predict(&outcome.depletion).expect("predict");
    let parity = engine.request_parity(&outcome.requests, &prediction);
    assert!(
        parity.exact,
        "{name}: {} of {} requests re-derived",
        parity.matched, parity.total
    );
}

#[test]
fn equal_keys_merge_in_rid_order_on_the_memory_queue() {
    for (name, input) in inputs() {
        let runs = strided_runs(&input, RUNS);
        let engine = engine_for(scenario(61), &runs, 0);
        let outcome = run_memory(&engine, &runs, 3);
        assert_sorted_with_parity(name, &engine, &outcome, &input);
    }
}

#[test]
fn equal_keys_merge_in_rid_order_under_permuted_completions() {
    for (name, input) in inputs() {
        let runs = strided_runs(&input, RUNS);
        let engine = engine_for(scenario(62), &runs, 0);
        for (seed, depth) in [(1, 1), (7, 4), (99, 32)] {
            let mut queue = PermutedQueue::new(3, engine.block_bytes(), seed, depth);
            engine.load(&mut queue, &runs).expect("load");
            let outcome = engine.execute(Box::new(queue)).expect("execute");
            let name = format!("{name}, seed {seed}, depth {depth}");
            assert_sorted_with_parity(&name, &engine, &outcome, &input);
        }
    }
}

#[test]
fn equal_keys_merge_in_rid_order_through_two_passes() {
    for (name, input) in inputs() {
        let runs = strided_runs(&input, RUNS);
        let lens: Vec<u32> = runs
            .iter()
            .map(|r| (r.len() as u32).div_ceil(RPB))
            .collect();
        let plan = plan_merge_tree(&lens, 3, PlanPolicy::GreedyMax).unwrap();
        assert_eq!(plan.num_passes(), 2, "{name}");
        let base = ScenarioBuilder::new(3, 4)
            .inter(2)
            .seed(63)
            .build()
            .unwrap();
        let opts = MultiPassOptions {
            records_per_block: RPB,
            ..Default::default()
        };
        let out = MultiPassExecutor::new(&plan, base, opts, PassBackend::Memory)
            .run(runs)
            .unwrap();
        assert!(
            out.output == sorted(&input),
            "{name}: output is not the input after sort_unstable"
        );
        for pass in &out.passes {
            assert_eq!(
                pass.requests_matched, pass.requests,
                "{name}: pass {} parity",
                pass.pass
            );
        }
    }
}
