//! Property-based tests of the external mergesort.

use proptest::prelude::*;

use pm_extsort::multipass::{plan_huffman, plan_sequential};
use pm_core::LoserTree;
use pm_extsort::{external_sort, run_formation, ExtSortConfig, Record, RunFormation};

fn records(max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(any::<u64>(), 0..max_len).prop_map(|keys| {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| Record::new(k, i as u64))
            .collect()
    })
}

fn check_sorted_permutation(input: &[Record], output: &[Record]) -> Result<(), TestCaseError> {
    prop_assert_eq!(input.len(), output.len());
    prop_assert!(output.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    let mut rids: Vec<u64> = output.iter().map(|r| r.rid).collect();
    rids.sort_unstable();
    prop_assert_eq!(rids, (0..input.len() as u64).collect::<Vec<_>>());
    Ok(())
}

proptest! {
    /// The full pipeline sorts any input, for both run-formation policies
    /// and arbitrary memory/block sizes.
    #[test]
    fn external_sort_sorts_everything(
        input in records(600),
        memory in 1usize..100,
        rpb in 1usize..20,
        replacement in any::<bool>(),
    ) {
        let cfg = ExtSortConfig {
            memory_records: memory,
            records_per_block: rpb,
            run_formation: if replacement {
                RunFormation::ReplacementSelection
            } else {
                RunFormation::LoadSort
            },
        };
        let out = external_sort(&input, &cfg);
        check_sorted_permutation(&input, &out.output)?;
        // Trace length equals total block count.
        let total_blocks: u32 = out.run_blocks.iter().sum();
        prop_assert_eq!(out.trace.len(), total_blocks as usize);
        // Every run's block count matches its length.
        for (len, blocks) in out.run_lengths.iter().zip(&out.run_blocks) {
            prop_assert_eq!(*blocks, len.div_ceil(rpb) as u32);
        }
        // The trace depletes each run exactly run_blocks times.
        for (i, &blocks) in out.run_blocks.iter().enumerate() {
            let count = out.trace.iter().filter(|r| r.0 as usize == i).count();
            prop_assert_eq!(count, blocks as usize);
        }
    }

    /// Replacement selection emits sorted runs that partition the input.
    #[test]
    fn replacement_selection_partitions(input in records(500), memory in 1usize..60) {
        let runs = run_formation::replacement_selection(&input, memory);
        let total: usize = runs.iter().map(Vec::len).sum();
        prop_assert_eq!(total, input.len());
        for run in &runs {
            prop_assert!(run.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
        }
    }

    /// Replacement selection never produces more runs than load-sort does
    /// (it is at least as good, run-count-wise).
    #[test]
    fn replacement_selection_is_never_worse(input in records(400), memory in 1usize..50) {
        let rs = run_formation::replacement_selection(&input, memory).len();
        let ls = run_formation::load_sort(&input, memory).len();
        prop_assert!(rs <= ls, "replacement selection made {rs} runs vs load-sort {ls}");
    }

    /// The loser tree merges arbitrary sorted sources exactly like a
    /// global sort, stably by source index on ties.
    #[test]
    fn loser_tree_equals_global_sort(
        sources in prop::collection::vec(prop::collection::vec(0u32..50, 0..40), 1..12),
    ) {
        let mut sorted_sources: Vec<Vec<u32>> = sources;
        for s in &mut sorted_sources {
            s.sort_unstable();
        }
        let mut expected: Vec<u32> = sorted_sources.iter().flatten().copied().collect();
        expected.sort_unstable();

        let mut iters: Vec<_> = sorted_sources.into_iter().map(Vec::into_iter).collect();
        let heads: Vec<Option<u32>> = iters.iter_mut().map(Iterator::next).collect();
        let mut tree = LoserTree::new(heads);
        let mut merged = Vec::new();
        let mut last: Option<(u32, usize)> = None;
        while let Some((src_peek, _)) = tree.winner().map(|(s, _)| (s, ())) {
            let next = iters[src_peek].next();
            let (src, v) = tree.pop_and_replace(next).unwrap();
            // Stability: equal values must come out in source order.
            if let Some((lv, ls)) = last {
                prop_assert!(lv < v || (lv == v && ls <= src), "stability violated");
            }
            last = Some((v, src));
            merged.push(v);
        }
        prop_assert_eq!(merged, expected);
    }
}

/// Inputs for the run-formation kernel in shapes `records()` never makes.
/// Keys: uniform, few distinct, clustered at both ends of the `u64` range
/// (half the chunk shares one bucket out of order, which exhausts the
/// insertion budget), or a span of exactly one bit; each drawn, sorted
/// ascending or sorted descending. Rids: ascending, descending, scrambled
/// (distinct, in pseudo-random order) or from a five-value set, which with
/// few distinct keys repeats whole `(key, rid)` pairs.
fn formation_input() -> impl Strategy<Value = Vec<Record>> {
    let keys = prop_oneof![
        prop::collection::vec(any::<u64>(), 0..1500),
        prop::collection::vec(0u64..4, 0..1500),
        prop::collection::vec(prop_oneof![0u64..64, (u64::MAX - 63)..=u64::MAX], 0..1500),
        prop::collection::vec((0u64..2).prop_map(|b| (1 << 40) + b), 0..1500),
    ];
    (keys, 0u8..3, 0u8..4, any::<u64>()).prop_map(|(mut keys, key_order, rid_order, odd)| {
        match key_order {
            0 => {}
            1 => keys.sort_unstable(),
            _ => keys.sort_unstable_by(|a, b| b.cmp(a)),
        }
        let n = keys.len() as u64;
        keys.into_iter()
            .zip(0u64..)
            .map(|(key, i)| {
                let rid = match rid_order {
                    0 => i,
                    1 => n - i,
                    2 => i.wrapping_mul(odd | 1),
                    _ => i % 5,
                };
                Record::new(key, rid)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `load_sort` returns, run for run, exactly the chunks sorted by
    /// `sort_unstable`, at memory sizes from one record to a few hundred.
    #[test]
    fn load_sort_equals_sort_unstable(input in formation_input(), memory in 1usize..400) {
        let expected: Vec<Vec<Record>> = input
            .chunks(memory)
            .map(|chunk| {
                let mut run = chunk.to_vec();
                run.sort_unstable();
                run
            })
            .collect();
        prop_assert_eq!(run_formation::load_sort(&input, memory), expected);
    }
}

/// Defines, per item type, a function that merges sorted sources through
/// a `LoserTree` and returns its `(item, source)` output next to the
/// reference: every `(item, source)` pair sorted, so equal items come out
/// in source order. Only the public API is used, and no trait bound is
/// named, so the same tests hold for any tree with that API.
macro_rules! merge_vs_reference {
    ($($name:ident: $t:ty),* $(,)?) => {$(
        fn $name(mut sources: Vec<Vec<$t>>) -> (Vec<($t, usize)>, Vec<($t, usize)>) {
            for s in &mut sources {
                s.sort_unstable();
            }
            let mut expected: Vec<($t, usize)> = sources
                .iter()
                .enumerate()
                .flat_map(|(src, v)| v.iter().map(move |&t| (t, src)))
                .collect();
            expected.sort_unstable();
            let mut iters: Vec<_> = sources.into_iter().map(Vec::into_iter).collect();
            let heads: Vec<Option<$t>> = iters.iter_mut().map(Iterator::next).collect();
            let mut tree = LoserTree::new(heads);
            let mut merged = Vec::with_capacity(expected.len());
            while let Some((src, _)) = tree.winner() {
                let next = iters[src].next();
                let (s, v) = tree.pop_and_replace(next).expect("winner exists");
                merged.push((v, s));
            }
            assert_eq!(tree.pop_and_replace(None), None, "drained tree must stay empty");
            (merged, expected)
        }
    )*};
}

merge_vs_reference!(merge_u64: u64, merge_u32: u32, merge_i32: i32, merge_records: Record);

/// Sources of up to `max_len` items each, as many as one of the fan-ins
/// the edge-case tests cover (trivial, padded, the benchmark's 64 and one
/// past it): many run dry early, some start empty, and all may be empty.
fn sources_of<S: Strategy>(item: S, max_len: usize) -> impl Strategy<Value = Vec<Vec<S::Value>>> {
    let fan_in = prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(64), Just(65)];
    let sources = prop::collection::vec(prop::collection::vec(item, 0..max_len + 1), 65);
    (fan_in, sources).prop_map(|(k, mut sources)| {
        sources.truncate(k);
        sources
    })
}

proptest! {
    /// Items keyed `u64::MAX` — the value an exhausted source's slot holds
    /// — merge like any other item, among exhausted sources.
    #[test]
    fn loser_tree_u64_sentinel_items(
        sources in sources_of(
            prop_oneof![Just(u64::MAX), Just(u64::MAX - 1), 0u64..3, any::<u64>()],
            8,
        ),
    ) {
        let (merged, expected) = merge_u64(sources);
        prop_assert_eq!(merged, expected);
    }

    /// Many records share a key: order among them is by `rid`, then by
    /// source.
    #[test]
    fn loser_tree_record_key_ties(
        sources in sources_of(
            (prop_oneof![0u64..3, Just(u64::MAX)], 0u64..40).prop_map(|(k, r)| Record::new(k, r)),
            10,
        ),
    ) {
        let (merged, expected) = merge_records(sources);
        prop_assert_eq!(merged, expected);
    }

    /// Negative values, zero and both extremes of `i32` merge in numeric
    /// order.
    #[test]
    fn loser_tree_i32_extremes(
        sources in sources_of(
            prop_oneof![Just(i32::MIN), Just(i32::MAX), -3i32..3, any::<i32>()],
            8,
        ),
    ) {
        let (merged, expected) = merge_i32(sources);
        prop_assert_eq!(merged, expected);
    }

    /// Ragged sources at every covered fan-in, with ties across sources.
    #[test]
    fn loser_tree_ragged_fan_ins(sources in sources_of(0u32..20, 16)) {
        let (merged, expected) = merge_u32(sources);
        prop_assert_eq!(merged, expected);
    }
}

#[test]
fn loser_tree_all_sources_empty() {
    for k in [1, 2, 3, 5, 64, 65] {
        let (merged, expected) = merge_records(vec![Vec::new(); k]);
        assert!(merged.is_empty() && expected.is_empty(), "k = {k}");
    }
}

fn run_lengths() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..500, 1..40)
}

proptest! {
    /// Both planners conserve data: every pass's outputs feed the next,
    /// and the final output length is the total input length.
    #[test]
    fn merge_plans_conserve_data(lengths in run_lengths(), fan_in in 2u32..8) {
        for plan in [plan_sequential(&lengths, fan_in), plan_huffman(&lengths, fan_in)] {
            let total: u64 = lengths.iter().map(|&l| u64::from(l)).sum();
            let mut available: Vec<u64> = lengths.iter().map(|&l| u64::from(l)).collect();
            for pass in &plan.passes {
                for group in &pass.groups {
                    prop_assert!(group.len() <= fan_in as usize, "group too wide");
                    for &len in group {
                        let pos = available.iter().position(|&a| a == u64::from(len));
                        prop_assert!(pos.is_some(), "phantom input {len}");
                        available.swap_remove(pos.unwrap());
                    }
                }
                available.extend(pass.outputs().iter().map(|&o| u64::from(o)));
            }
            prop_assert_eq!(available, vec![total]);
        }
    }

    /// Huffman never reads more data than sequential grouping, and both
    /// read at least (passes × total) is false for huffman — but each
    /// plan's volume is bounded by passes × total input.
    #[test]
    fn huffman_dominates_sequential(lengths in run_lengths(), fan_in in 2u32..8) {
        let seq = plan_sequential(&lengths, fan_in);
        let huf = plan_huffman(&lengths, fan_in);
        prop_assert!(huf.total_blocks() <= seq.total_blocks());
        let total: u64 = lengths.iter().map(|&l| u64::from(l)).sum();
        prop_assert!(seq.total_blocks() <= seq.num_passes() as u64 * total);
    }

    /// Sequential pass count matches the logarithmic formula.
    #[test]
    fn sequential_pass_count(k in 1usize..200, fan_in in 2u32..8) {
        let lengths = vec![10u32; k];
        let plan = plan_sequential(&lengths, fan_in);
        let mut expected = 0usize;
        let mut n = k;
        while n > 1 {
            n = n.div_ceil(fan_in as usize);
            expected += 1;
        }
        prop_assert_eq!(plan.num_passes(), expected);
    }
}
