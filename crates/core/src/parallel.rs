//! Deterministic work distribution over OS threads.
//!
//! The paper's experiments are embarrassingly parallel: every trial (and
//! every sweep point) is an independent simulation whose random stream is
//! fixed by its own pre-derived seed. This module provides the one
//! primitive that exploits that — [`run_ordered`], a scoped fan-out over a
//! shared atomic work index that returns results **in work-item order**,
//! so callers observe exactly the sequence a sequential loop would have
//! produced regardless of worker count or OS scheduling.
//!
//! Determinism contract: for any `jobs`, `run_ordered(n, jobs, f)` returns
//! `[f(0), f(1), …, f(n-1)]`, provided each `f(i)` depends only on `i`
//! (no shared mutable state). Every parallel entry point in this
//! workspace ([`run_trials_parallel`](crate::run_trials_parallel) and the
//! bench harness's sweep runner, which every experiment `run_all` runs
//! goes through) is built on this guarantee,
//! and the `parallel_determinism` integration suite enforces it
//! bit-for-bit against the sequential baselines.
//!
//! Implementation: `std::thread::scope` plus an `AtomicUsize` work index —
//! no work stealing, no channels, no external crates. Workers claim the
//! next unclaimed index, run `f`, and write the result into that index's
//! dedicated slot.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested worker count: `0` means "one worker per available
/// core", anything else is taken literally.
///
/// # Examples
///
/// ```
/// use pm_core::parallel::effective_jobs;
///
/// assert_eq!(effective_jobs(3), 3);
/// assert!(effective_jobs(0) >= 1);
/// ```
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Evaluates `f(0), …, f(n-1)` over up to `jobs` worker threads and
/// returns the results in index order.
///
/// `jobs == 0` uses all available cores; `jobs == 1` (or `n <= 1`) runs
/// inline on the calling thread with no thread machinery at all, making
/// the single-worker path literally the sequential loop. Workers pull
/// indices from a shared atomic counter, so scheduling is dynamic but the
/// returned `Vec` is always `[f(0), …, f(n-1)]`.
///
/// # Panics
///
/// Panics if any invocation of `f` panics (the panic is propagated once
/// all workers have stopped).
pub fn run_ordered<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs).min(n);
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 3, 8, 0] {
            let out = run_ordered(50, jobs, |i| i * i);
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn zero_items_yield_empty() {
        let out: Vec<u32> = run_ordered(0, 4, |_| unreachable!("no work items"));
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscription_is_harmless() {
        let out = run_ordered(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(5), 5);
    }

    #[test]
    fn parallel_matches_sequential_for_heavier_work() {
        let work = |i: usize| {
            // A tiny deterministic computation with per-item variance.
            let mut acc = i as u64;
            for k in 0..1_000u64 {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
            }
            acc
        };
        let seq = run_ordered(40, 1, work);
        let par = run_ordered(40, 4, work);
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let _ = run_ordered(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
