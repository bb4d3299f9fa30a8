//! Sorted-run creation.
//!
//! Two classic policies:
//!
//! * [`load_sort`] — fill memory, sort, emit: every run is exactly one
//!   memory load (the paper's equal-length-runs setup).
//! * [`replacement_selection`] — heap-based run formation: records that
//!   can still extend the current run go into the active heap, others are
//!   deferred to the next run. On random input the average run is about
//!   twice the memory size (Knuth's snowplow argument); on sorted input a
//!   single run emerges; on reverse-sorted input runs collapse to one
//!   memory load.
//!
//! # How `load_sort` sorts a memory load
//!
//! Each chunk is sorted by a one-level distribution sort followed by an
//! insertion pass, in place of a comparison sort:
//!
//! 1. One pass finds the smallest and largest key.
//! 2. A counting pass buckets every record by the top `b` significant bits
//!    of `key - min`, with `2^b` about the chunk length (at most
//!    `2^16`), so a bucket holds about one record.
//! 3. The records scatter, bucket by bucket and in input order within a
//!    bucket, straight into the run's `Vec`.
//! 4. One insertion-sort pass over the whole run, under `Record`'s full
//!    `(key, rid)` order, removes the inversions left inside buckets.
//! 5. The bucket counts live in one buffer, reused from chunk to chunk.
//!
//! **Same run as `sort_unstable`.** The bucket index is a non-decreasing
//! function of `Record`'s order, so after step 3 every out-of-order pair
//! lies inside one bucket, and step 4 sorts by that order whatever step 3
//! left. `Record`'s order is total and two records that compare equal are
//! equal field for field, so a chunk has exactly one sorted permutation:
//! this kernel and `chunk.to_vec()` + `sort_unstable` return the same run,
//! bit for bit, for any input — shuffled or descending rids, duplicate
//! keys or duplicate records. Buckets only decide how much work step 4
//! does, never what it returns.
//!
//! **Worst case.** Step 4 may move at most four records per record of
//! the chunk. A chunk that uses that up (many records in one bucket out
//! of order: few distinct keys with shuffled rids, or keys clustered at
//! both ends of the `u64` range) is finished by `sort_unstable`, so a
//! chunk costs O(n) plus at most O(n log n). A chunk that descends is
//! copied reversed in O(n), as pdqsort would; an ascending one needs no
//! moves in step 4, so it costs O(n) as well.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Record;

/// Splits `input` into consecutive memory loads of `memory` records and
/// sorts each. All runs except possibly the last have exactly `memory`
/// records. Each run equals the chunk sorted by `sort_unstable`; the
/// module docs describe the kernel and why.
///
/// # Panics
///
/// Panics if `memory == 0`.
#[must_use]
pub fn load_sort(input: &[Record], memory: usize) -> Vec<Vec<Record>> {
    assert!(memory > 0, "memory must hold at least one record");
    let mut counts = Vec::new();
    input
        .chunks(memory)
        .map(|chunk| sort_chunk(chunk, &mut counts))
        .collect()
}

/// Bucket counts are `u32`, half the cache footprint of `usize`, so longer
/// chunks go straight to `sort_unstable`.
const MAX_BUCKETED: usize = u32::MAX as usize;

/// Upper bound on the bucket index width: at most `2^16` buckets, whose
/// counts stay in L2 cache however long the chunk.
const MAX_BUCKET_BITS: u32 = 16;

/// Records the insertion pass may move, per record of the chunk, before
/// it gives up and hands the chunk to `sort_unstable`.
const MOVES_PER_RECORD: usize = 4;

/// One run of [`load_sort`]: `chunk` sorted under `Record`'s order.
/// `counts` is the bucket-count buffer, reused from chunk to chunk.
fn sort_chunk(chunk: &[Record], counts: &mut Vec<u32>) -> Vec<Record> {
    if chunk.windows(2).all(|w| w[0] >= w[1]) {
        return chunk.iter().rev().copied().collect();
    }
    let mut run;
    if chunk.len() > MAX_BUCKETED {
        run = chunk.to_vec();
    } else {
        run = distribute(chunk, counts);
        if insertion_sort(&mut run, MOVES_PER_RECORD * chunk.len()) {
            return run;
        }
    }
    run.sort_unstable();
    run
}

/// Copies `chunk` into a new run grouped into buckets by the top
/// significant bits of `key - min`, so records in different buckets are
/// in order; records keep their input order within a bucket.
fn distribute(chunk: &[Record], counts: &mut Vec<u32>) -> Vec<Record> {
    let (min, max) = chunk
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r.key), hi.max(r.key)));
    let span = max - min;
    let span_bits = u64::BITS - span.leading_zeros();
    let bits = chunk.len().next_power_of_two().trailing_zeros();
    let shift = span_bits - bits.min(MAX_BUCKET_BITS).min(span_bits);
    counts.clear();
    counts.resize(((span >> shift) + 1) as usize, 0);
    let bucket = |r: &Record| ((r.key - min) >> shift) as usize;
    for r in chunk {
        counts[bucket(r)] += 1;
    }
    let mut start = 0;
    for c in counts.iter_mut() {
        (*c, start) = (start, start + *c);
    }
    let mut run = vec![Record::new(0, 0); chunk.len()];
    for r in chunk {
        let at = &mut counts[bucket(r)];
        run[*at as usize] = *r;
        *at += 1;
    }
    run
}

/// Insertion-sorts `run` under `Record`'s order unless that takes more
/// than about `budget` moves. Returns whether it finished; if not, `run`
/// is still a permutation of its input.
fn insertion_sort(run: &mut [Record], mut budget: usize) -> bool {
    for i in 1..run.len() {
        let r = run[i];
        let mut j = i;
        while j > 0 && r < run[j - 1] {
            run[j] = run[j - 1];
            j -= 1;
        }
        run[j] = r;
        let Some(left) = budget.checked_sub(i - j) else {
            return false;
        };
        budget = left;
    }
    true
}

/// Replacement selection with a working set of `memory` records.
///
/// # Panics
///
/// Panics if `memory == 0`.
#[must_use]
pub fn replacement_selection(input: &[Record], memory: usize) -> Vec<Vec<Record>> {
    assert!(memory > 0, "memory must hold at least one record");
    let mut runs: Vec<Vec<Record>> = Vec::new();
    if input.is_empty() {
        return runs;
    }
    let mut source = input.iter().copied();
    // Active heap: candidates for the current run. Deferred heap: records
    // smaller than the last emitted key, which must wait for the next run.
    let mut active: BinaryHeap<Reverse<Record>> = BinaryHeap::new();
    let mut deferred: BinaryHeap<Reverse<Record>> = BinaryHeap::new();
    for _ in 0..memory {
        match source.next() {
            Some(r) => active.push(Reverse(r)),
            None => break,
        }
    }
    let mut current: Vec<Record> = Vec::new();
    while let Some(Reverse(r)) = active.pop() {
        current.push(r);
        // Refill the working set from the input.
        if let Some(next) = source.next() {
            if next >= r {
                active.push(Reverse(next));
            } else {
                deferred.push(Reverse(next));
            }
        }
        if active.is_empty() {
            // Current run ends; the deferred records seed the next one.
            runs.push(std::mem::take(&mut current));
            std::mem::swap(&mut active, &mut deferred);
        }
    }
    if !current.is_empty() {
        runs.push(current);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn is_sorted(run: &[Record]) -> bool {
        run.windows(2).all(|w| w[0] <= w[1])
    }

    fn flatten_count(runs: &[Vec<Record>]) -> usize {
        runs.iter().map(Vec::len).sum()
    }

    #[test]
    fn load_sort_produces_equal_sorted_runs() {
        let input = generate::uniform(1000, 1);
        let runs = load_sort(&input, 100);
        assert_eq!(runs.len(), 10);
        assert!(runs.iter().all(|r| r.len() == 100));
        assert!(runs.iter().all(|r| is_sorted(r)));
        assert_eq!(flatten_count(&runs), 1000);
    }

    #[test]
    fn load_sort_last_run_may_be_short() {
        let input = generate::uniform(250, 2);
        let runs = load_sort(&input, 100);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[2].len(), 50);
    }

    #[test]
    fn replacement_selection_runs_are_sorted_and_complete() {
        let input = generate::uniform(5000, 3);
        let runs = replacement_selection(&input, 100);
        assert!(runs.iter().all(|r| is_sorted(r)));
        assert_eq!(flatten_count(&runs), 5000);
        // Every record survives (it is a permutation).
        let mut rids: Vec<u64> = runs.iter().flatten().map(|r| r.rid).collect();
        rids.sort_unstable();
        assert_eq!(rids, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn replacement_selection_doubles_run_length_on_random_input() {
        let memory = 200;
        let input = generate::uniform(40_000, 4);
        let runs = replacement_selection(&input, memory);
        let avg = 40_000.0 / runs.len() as f64;
        // Knuth's snowplow: expected run length ≈ 2M. Allow 1.7–2.3 M.
        assert!(
            avg > 1.7 * memory as f64 && avg < 2.3 * memory as f64,
            "avg run length {avg}"
        );
    }

    #[test]
    fn replacement_selection_sorted_input_single_run() {
        let input = generate::nearly_sorted(2000, 0, 5);
        let runs = replacement_selection(&input, 50);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len(), 2000);
    }

    #[test]
    fn replacement_selection_reverse_input_collapses_to_memory_loads() {
        let input = generate::reverse_sorted(1000);
        let runs = replacement_selection(&input, 100);
        assert_eq!(runs.len(), 10);
        assert!(runs.iter().all(|r| r.len() == 100));
    }

    #[test]
    fn replacement_selection_handles_tiny_inputs() {
        assert!(replacement_selection(&[], 10).is_empty());
        let one = replacement_selection(&[Record::new(5, 0)], 10);
        assert_eq!(one, vec![vec![Record::new(5, 0)]]);
    }

    #[test]
    fn memory_larger_than_input_gives_one_run() {
        let input = generate::uniform(50, 6);
        for runs in [load_sort(&input, 1000), replacement_selection(&input, 1000)] {
            assert_eq!(runs.len(), 1);
            assert!(is_sorted(&runs[0]));
            assert_eq!(runs[0].len(), 50);
        }
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_memory_rejected() {
        let _ = load_sort(&[], 0);
    }
}
