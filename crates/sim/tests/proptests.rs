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

    /// The event queue against a naive reference model: a list of pending
    /// `(time, insertion order)` pairs whose minimum is found by a full
    /// scan. Random interleavings of `schedule`, `pop`, `peek_time`, `len`
    /// and `clear` run on both, with times drawn from a narrow range so
    /// same-instant ties are common, and with `pop` followed straight by a
    /// `schedule` (the simulator's re-arm, which overwrites the popped
    /// root) as an operation of its own.
    #[test]
    fn event_queue_matches_a_naive_min_scan(
        ops in prop::collection::vec((0u32..40, 0u64..50), 1..400)
    ) {
        let mut q: EventQueue<usize> = EventQueue::with_capacity(8);
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut next_id = 0usize;
        let pop_both = |q: &mut EventQueue<usize>, reference: &mut Vec<(u64, usize)>| {
            let earliest = (0..reference.len()).min_by_key(|&i| reference[i]);
            let want = earliest
                .map(|i| reference.remove(i))
                .map(|(t, id)| (SimTime::from_nanos(t), id));
            (q.pop(), want)
        };
        for &(op, time) in &ops {
            match op {
                // schedule
                0..=15 => {
                    q.schedule(SimTime::from_nanos(time), next_id);
                    reference.push((time, next_id));
                    next_id += 1;
                }
                // pop
                16..=27 => {
                    let (got, want) = pop_both(&mut q, &mut reference);
                    prop_assert_eq!(got, want);
                }
                // pop, then re-arm at or after the popped instant
                28..=35 => {
                    let (got, want) = pop_both(&mut q, &mut reference);
                    prop_assert_eq!(got, want);
                    let at = got.map_or(0, |(t, _)| t.as_nanos()) + time;
                    q.schedule(SimTime::from_nanos(at), next_id);
                    reference.push((at, next_id));
                    next_id += 1;
                }
                36 => {
                    let want = reference.iter().map(|&(t, _)| t).min();
                    prop_assert_eq!(q.peek_time(), want.map(SimTime::from_nanos));
                }
                37 | 38 => {
                    prop_assert_eq!(q.len(), reference.len());
                    prop_assert_eq!(q.is_empty(), reference.is_empty());
                }
                _ => {
                    q.clear();
                    reference.clear();
                }
            }
        }
        while !reference.is_empty() {
            let (got, want) = pop_both(&mut q, &mut reference);
            prop_assert_eq!(got, want);
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.peek_time(), None);
    }

    /// Time arithmetic round-trips: (t + d) - t == d.
    #[test]
    fn time_arithmetic_round_trips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((time + dur) - time, dur);
    }
}
