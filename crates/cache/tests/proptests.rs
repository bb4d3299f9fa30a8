//! Property-based tests of the block cache: the accounting invariant
//! survives arbitrary operation sequences, and admission policies never
//! over-commit.

use proptest::prelude::*;

use pm_cache::{AdmissionPolicy, BlockCache, PrefetchGroup, RunId};
use pm_sim::SimTime;
use pm_trace::{EventKind, NullSink, RecordingSink};

/// An operation against the cache, generated blindly; the test applies it
/// only when its precondition holds (mirroring how the simulator guards
/// every call).
#[derive(Debug, Clone)]
enum Op {
    TryReserve { run: u8, n: u8 },
    Arrive { run: u8 },
    Deplete { run: u8 },
    Cancel { run: u8, n: u8 },
    Admit { policy: bool, groups: Vec<(u8, u8)> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u8..20).prop_map(|(run, n)| Op::TryReserve { run, n }),
        any::<u8>().prop_map(|run| Op::Arrive { run }),
        any::<u8>().prop_map(|run| Op::Deplete { run }),
        (any::<u8>(), 0u8..20).prop_map(|(run, n)| Op::Cancel { run, n }),
        (
            any::<bool>(),
            prop::collection::vec((any::<u8>(), 0u8..10), 0..5)
        )
            .prop_map(|(policy, groups)| Op::Admit { policy, groups }),
    ]
}

proptest! {
    #[test]
    fn invariant_survives_arbitrary_operations(
        capacity in 1u32..200,
        num_runs in 1u32..16,
        ops in prop::collection::vec(op_strategy(), 0..200),
    ) {
        let mut cache = BlockCache::new(capacity, num_runs);
        let clamp = |r: u8| RunId(u32::from(r) % num_runs);
        // One scratch buffer for every admission, as the simulator keeps.
        let mut admitted = Vec::new();
        for op in ops {
            match op {
                Op::TryReserve { run, n } => {
                    let _ = cache.try_reserve(clamp(run), u32::from(n));
                }
                Op::Arrive { run } => {
                    let run = clamp(run);
                    if cache.reserved(run) > 0 {
                        cache.block_arrived(run);
                    }
                }
                Op::Deplete { run } => {
                    let run = clamp(run);
                    if cache.resident(run) > 0 {
                        cache.deplete(run, SimTime::ZERO, &mut NullSink);
                    }
                }
                Op::Cancel { run, n } => {
                    let run = clamp(run);
                    let n = u32::from(n).min(cache.reserved(run));
                    cache.cancel_reservation(run, n);
                }
                Op::Admit { policy, groups } => {
                    let policy = if policy {
                        AdmissionPolicy::AllOrNothing
                    } else {
                        AdmissionPolicy::Greedy
                    };
                    let groups: Vec<PrefetchGroup> = groups
                        .into_iter()
                        .map(|(r, b)| PrefetchGroup { run: clamp(r), blocks: u32::from(b) })
                        .collect();
                    let free_before = cache.free();
                    let full = policy.admit_into(
                        &mut cache, &groups, &mut admitted, SimTime::ZERO, &mut NullSink,
                    );
                    let got: u32 = admitted.iter().map(|g| g.blocks).sum();
                    let wanted: u32 = groups.iter().map(|g| g.blocks).sum();
                    prop_assert!(got <= free_before, "admitted more than was free");
                    prop_assert_eq!(cache.free(), free_before - got);
                    prop_assert_eq!(full, got == wanted);
                    // All-or-nothing never partially admits.
                    if policy == AdmissionPolicy::AllOrNothing && !full {
                        prop_assert!(admitted.is_empty());
                    }
                }
            }
            prop_assert!(cache.invariant_holds(), "accounting invariant violated");
            prop_assert!(cache.free() <= cache.capacity());
        }
    }

    /// `admit_into` clears the buffer it is handed: called with a stale
    /// buffer and a recording sink it admits the identical groups, reports
    /// the same full/partial outcome and leaves the cache in the identical
    /// state as a call with a fresh buffer and no trace. The simulator
    /// reuses one buffer across operations and traces only on request, so
    /// results rely on both. The recorded admits and rejects account for
    /// every block asked for.
    #[test]
    fn admit_into_with_a_stale_buffer_matches_a_fresh_one(
        capacity in 1u32..200,
        num_runs in 1u32..16,
        all_or_nothing in any::<bool>(),
        preload in prop::collection::vec((any::<u8>(), 0u8..10), 0..8),
        groups in prop::collection::vec((any::<u8>(), 0u8..10), 0..8),
        stale in prop::collection::vec((any::<u8>(), 0u8..10), 0..4),
    ) {
        let policy = if all_or_nothing {
            AdmissionPolicy::AllOrNothing
        } else {
            AdmissionPolicy::Greedy
        };
        let clamp = |r: u8| RunId(u32::from(r) % num_runs);
        let mut cache_a = BlockCache::new(capacity, num_runs);
        for (r, n) in preload {
            let _ = cache_a.try_reserve(clamp(r), u32::from(n));
        }
        let mut cache_b = cache_a.clone();
        let groups: Vec<PrefetchGroup> = groups
            .into_iter()
            .map(|(r, b)| PrefetchGroup { run: clamp(r), blocks: u32::from(b) })
            .collect();

        let mut admitted_a = Vec::new();
        let full_a = policy.admit_into(
            &mut cache_a, &groups, &mut admitted_a, SimTime::ZERO, &mut NullSink,
        );
        let mut admitted_b: Vec<PrefetchGroup> = stale
            .into_iter()
            .map(|(r, b)| PrefetchGroup { run: clamp(r), blocks: u32::from(b) })
            .collect();
        let mut sink = RecordingSink::unbounded();
        let full_b = policy.admit_into(
            &mut cache_b, &groups, &mut admitted_b, SimTime::ZERO, &mut sink,
        );

        prop_assert_eq!(&admitted_a, &admitted_b, "admitted sets differ");
        prop_assert_eq!(full_a, full_b, "full/partial outcome differs");
        prop_assert_eq!(cache_a, cache_b, "cache state diverged");
        let (mut admits, mut rejects) = (0, 0);
        for e in sink.events() {
            match e.kind {
                EventKind::CacheAdmit { blocks, .. } => admits += blocks,
                EventKind::CacheReject { blocks, .. } => rejects += blocks,
                ref other => prop_assert!(false, "unexpected event {:?}", other),
            }
        }
        let got: u32 = admitted_a.iter().map(|g| g.blocks).sum();
        let wanted: u32 = groups.iter().map(|g| g.blocks).sum();
        prop_assert_eq!(admits, got);
        prop_assert_eq!(rejects, wanted - got);
    }

    /// `held` always equals `resident + reserved`, and global counters are
    /// consistent with per-run counters.
    #[test]
    fn per_run_and_global_counters_agree(
        capacity in 1u32..100,
        num_runs in 1u32..8,
        reserves in prop::collection::vec((any::<u8>(), 1u8..5), 0..40),
    ) {
        let mut cache = BlockCache::new(capacity, num_runs);
        for (r, n) in reserves {
            let run = RunId(u32::from(r) % num_runs);
            let _ = cache.try_reserve(run, u32::from(n));
            if cache.reserved(run) > 0 {
                cache.block_arrived(run);
            }
        }
        let total_res: u32 = (0..num_runs).map(|r| cache.resident(RunId(r))).sum();
        let total_rsv: u32 = (0..num_runs).map(|r| cache.reserved(RunId(r))).sum();
        prop_assert_eq!(total_res, cache.total_resident());
        prop_assert_eq!(total_rsv, cache.total_reserved());
        for r in 0..num_runs {
            let run = RunId(r);
            prop_assert_eq!(cache.held(run), cache.resident(run) + cache.reserved(run));
        }
    }
}
