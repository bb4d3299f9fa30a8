//! Property-based tests of the simulation kernel.

use proptest::prelude::*;

use pm_sim::{EventQueue, Executive, SimDuration, SimRng, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, and equal times pop
    /// in scheduling order.
    #[test]
    fn event_queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// The executive clock never runs backwards.
    #[test]
    fn executive_clock_is_monotone(delays in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut exec: Executive<usize> = Executive::new();
        for (i, &d) in delays.iter().enumerate() {
            exec.schedule_in(SimDuration::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        while exec.next().is_some() {
            prop_assert!(exec.now() >= last);
            last = exec.now();
        }
        prop_assert_eq!(exec.dispatched(), delays.len() as u64);
    }

    /// `index(n)` stays in bounds for any seed and n.
    #[test]
    fn rng_index_in_bounds(seed in any::<u64>(), n in 1usize..10_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.index(n) < n);
        }
    }

    /// `uniform_duration` stays below its limit.
    #[test]
    fn rng_uniform_duration_in_bounds(seed in any::<u64>(), limit_ns in 1u64..10_000_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        let limit = SimDuration::from_nanos(limit_ns);
        for _ in 0..50 {
            prop_assert!(rng.uniform_duration(limit) < limit);
        }
    }

    /// Shuffle always yields a permutation.
    #[test]
    fn rng_shuffle_is_permutation(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    /// Tournament winner selection is equivalent to a linear min-scan:
    /// for an arbitrary interleaving of schedules and pops, the
    /// tournament-backed queue (large capacity), the linear-backed queue
    /// (small capacity), and a naive reference that scans all pending
    /// events for the minimum `(time, insertion order)` all pop the same
    /// winners in the same FIFO-tie-broken order.
    #[test]
    fn tournament_matches_linear_min_scan(
        ops in prop::collection::vec((0u64..500, 0usize..3), 1..200)
    ) {
        let mut linear = EventQueue::new();
        let mut tree = EventQueue::with_capacity(256);
        prop_assert!(!linear.is_tournament());
        prop_assert!(tree.is_tournament());
        // Naive reference: all pending events, winner by full min-scan.
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut next_id = 0usize;
        let drain = |n: usize,
                         linear: &mut EventQueue<usize>,
                         tree: &mut EventQueue<usize>,
                         reference: &mut Vec<(u64, usize)>|
         -> Result<(), TestCaseError> {
            for _ in 0..n {
                let expect = reference
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &(t, id))| (t, id))
                    .map(|(i, &(t, id))| (i, t, id));
                let a = linear.pop();
                let b = tree.pop();
                match expect {
                    None => {
                        prop_assert!(a.is_none() && b.is_none());
                    }
                    Some((i, t, id)) => {
                        reference.remove(i);
                        let want = Some((SimTime::from_nanos(t), id));
                        prop_assert_eq!(a, want, "linear vs min-scan");
                        prop_assert_eq!(b, want, "tournament vs min-scan");
                    }
                }
            }
            Ok(())
        };
        for &(time, pops) in &ops {
            linear.schedule(SimTime::from_nanos(time), next_id);
            tree.schedule(SimTime::from_nanos(time), next_id);
            reference.push((time, next_id));
            next_id += 1;
            drain(pops, &mut linear, &mut tree, &mut reference)?;
        }
        drain(ops.len() + 2, &mut linear, &mut tree, &mut reference)?;
        prop_assert!(linear.is_empty() && tree.is_empty());
    }

    /// Time arithmetic round-trips: (t + d) - t == d.
    #[test]
    fn time_arithmetic_round_trips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((time + dur) - time, dur);
    }

    /// Crossing the 64-slot linear→tournament migration boundary with
    /// events pending — upward (a schedule triggers the migration) and
    /// back down (pops drain the migrated store below the threshold,
    /// interleaved with more schedules) — preserves the exact
    /// `(time, insertion order)` pop sequence of a naive min-scan.
    #[test]
    fn migration_boundary_preserves_pop_order(
        first_pushes in 70usize..120,
        phases in prop::collection::vec((0u64..500, 0usize..90, 1usize..90), 2..6)
    ) {
        // Occupancy bound that flips the store (events.rs
        // LINEAR_MAX_SLOTS), pinned by capacity probes below.
        const BOUNDARY: usize = 64;
        let small: EventQueue<usize> = EventQueue::with_capacity(BOUNDARY);
        prop_assert!(!small.is_tournament());
        let large: EventQueue<usize> = EventQueue::with_capacity(BOUNDARY + 1);
        prop_assert!(large.is_tournament());

        let mut q: EventQueue<usize> = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut next_id = 0usize;
        let mut push = |q: &mut EventQueue<usize>,
                        reference: &mut Vec<(u64, usize)>,
                        t: u64| {
            q.schedule(SimTime::from_nanos(t), next_id);
            reference.push((t, next_id));
            next_id += 1;
        };
        let pop_and_check = |q: &mut EventQueue<usize>,
                             reference: &mut Vec<(u64, usize)>|
         -> Result<(), TestCaseError> {
            let expect = reference
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(t, id))| (t, id))
                .map(|(i, &(t, id))| (i, t, id));
            match expect {
                None => prop_assert!(q.pop().is_none()),
                Some((i, t, id)) => {
                    reference.remove(i);
                    prop_assert_eq!(q.pop(), Some((SimTime::from_nanos(t), id)));
                }
            }
            Ok(())
        };

        // Upward crossing: the first phase pushes straight through the
        // boundary, migrating linear → tournament with a full store.
        for j in 0..first_pushes {
            push(&mut q, &mut reference, (j as u64 * 13) % 251);
        }
        prop_assert!(q.is_tournament(), "must have crossed the boundary up");

        for &(base, pushes, pops) in &phases {
            for j in 0..pushes {
                push(&mut q, &mut reference, base + (j as u64 * 7) % 97);
            }
            for _ in 0..pops {
                pop_and_check(&mut q, &mut reference)?;
            }
        }
        // Downward crossing: drain the migrated store below the
        // threshold, then keep scheduling and verify order still holds.
        while q.len() >= BOUNDARY {
            pop_and_check(&mut q, &mut reference)?;
        }
        for j in 0..8 {
            push(&mut q, &mut reference, 1000 + j);
        }
        while !q.is_empty() {
            pop_and_check(&mut q, &mut reference)?;
        }
        prop_assert!(reference.is_empty());
        prop_assert!(q.pop().is_none());
    }
}
