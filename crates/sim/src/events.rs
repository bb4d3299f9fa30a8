//! The future-event list.

use crate::SimTime;

/// Key value marking a free tournament slot. Compares greater than every
/// real key: a real key would need both `time == u64::MAX` nanoseconds
/// (half a millennium of simulated time) and `seq == u64::MAX`, which
/// `schedule` debug-asserts against.
const EMPTY: u128 = u128::MAX;

/// Largest slot count served by the flat min-scan. Measured on the rearm
/// cycle (pop + reschedule, release build): a contiguous scan beats the
/// tournament's serial root-path replay up to a few dozen slots — the scan
/// is branch-predictable and pipelines, the tree walk is a dependent-load
/// chain — with the crossover between 35 and 67 slots. Real simulator runs
/// lean further toward the scan (completion keys are structured, not
/// adversarial), so the switch is set at the top of the measured tie zone.
/// The merge simulator's event list holds D + W + 1 entries, so paper-scale
/// scenarios (D ≤ 32) stay on the scan and wide-array sweeps (D > 61) get
/// the O(log S) tournament.
const LINEAR_MAX_SLOTS: usize = 64;

/// Small-queue store: a flat, unordered vector popped by a linear minimum
/// scan over the packed keys.
struct LinearSlots<E> {
    slots: Vec<(u128, E)>,
}

impl<E> LinearSlots<E> {
    /// Index of the smallest key (unique: seq numbers never repeat, so
    /// neither do keys), or `None` if empty.
    fn earliest(&self) -> Option<usize> {
        let mut best = 0;
        for i in 1..self.slots.len() {
            if self.slots[i].0 < self.slots[best].0 {
                best = i;
            }
        }
        (!self.slots.is_empty()).then_some(best)
    }
}

/// One tournament node: the winning key of the subtree and the slot it
/// belongs to. Internal nodes replicate the winning leaf so a root-path
/// replay never leaves the flat node array.
#[derive(Clone, Copy)]
struct Node {
    key: u128,
    slot: u32,
}

/// Large-queue store: pending events live in stable slots and an indexed
/// tournament (a winner tree over the slots' keys, in 1-based heap layout)
/// tracks the minimum. Scheduling or popping touches one leaf and replays
/// its leaf-to-root path — O(log S) single-`u128` compares.
struct Tournament<E> {
    /// Size `2 * leaves`: `nodes[0]` is padding, `1..leaves` are internal
    /// winners, `leaves + s` is slot `s`'s leaf (key `EMPTY` when free).
    nodes: Vec<Node>,
    /// Per-slot event payloads; `None` marks a free slot.
    events: Vec<Option<E>>,
    /// Free slot indices, reused LIFO.
    free: Vec<u32>,
    /// Number of leaves — always a power of two.
    leaves: usize,
    len: usize,
}

impl<E> Tournament<E> {
    fn with_leaves(leaves: usize) -> Self {
        debug_assert!(leaves.is_power_of_two());
        let mut t = Tournament {
            nodes: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            leaves: 0,
            len: 0,
        };
        t.grow_to(leaves);
        t
    }

    /// Grows the slot arrays to `new_leaves` (a power of two) and rebuilds
    /// the tournament. Cold path: the simulator pre-sizes the queue and
    /// never grows it in steady state.
    #[cold]
    #[inline(never)]
    fn grow_to(&mut self, new_leaves: usize) {
        debug_assert!(new_leaves.is_power_of_two() && new_leaves >= self.leaves);
        let old = self.leaves;
        self.events.resize_with(new_leaves, || None);
        // Reserve the free list for every slot so post-pop pushes never
        // allocate; hand out low slots first (cosmetic — keys decide order).
        self.free.reserve(new_leaves - self.free.len());
        self.free.extend((old..new_leaves).rev().map(|s| s as u32));
        let mut nodes = vec![Node { key: EMPTY, slot: 0 }; 2 * new_leaves];
        for (s, leaf) in nodes[new_leaves..].iter_mut().enumerate() {
            leaf.key = if s < old { self.nodes[old + s].key } else { EMPTY };
            leaf.slot = s as u32;
        }
        self.nodes = nodes;
        self.leaves = new_leaves;
        self.rebuild();
    }

    /// Recomputes every internal winner bottom-up (children of node `n`
    /// sit at `2n`/`2n + 1 > n`, so reverse iteration visits them first).
    fn rebuild(&mut self) {
        for node in (1..self.leaves).rev() {
            let l = self.nodes[2 * node];
            let r = self.nodes[2 * node + 1];
            self.nodes[node] = if l.key <= r.key { l } else { r };
        }
    }

    /// Sets `slot`'s leaf key and recomputes the winner on its leaf-to-root
    /// path: one compare per level, all within the flat node array.
    #[inline]
    fn replay(&mut self, slot: usize, key: u128) {
        let leaf = self.leaves + slot;
        self.nodes[leaf].key = key;
        let mut node = leaf >> 1;
        while node >= 1 {
            let l = self.nodes[2 * node];
            let r = self.nodes[2 * node + 1];
            self.nodes[node] = if l.key <= r.key { l } else { r };
            node >>= 1;
        }
    }

    #[inline(never)]
    fn schedule(&mut self, key: u128, event: E) {
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.grow_to(self.leaves * 2);
                self.free.pop().expect("grow_to freed slots") as usize
            }
        };
        self.events[slot] = Some(event);
        self.len += 1;
        self.replay(slot, key);
    }

    #[inline(never)]
    fn pop(&mut self) -> Option<(u128, E)> {
        let root = self.nodes[1];
        if root.key == EMPTY {
            return None;
        }
        let slot = root.slot as usize;
        let event = self.events[slot].take().expect("winner slot occupied");
        self.free.push(root.slot);
        self.len -= 1;
        self.replay(slot, EMPTY);
        Some((root.key, event))
    }
}

/// A deterministic future-event list.
///
/// Events are popped in non-decreasing time order; events scheduled for the
/// same instant are popped in the order they were scheduled (FIFO). This
/// stability is what makes whole simulation runs bit-reproducible.
///
/// The fire time (nanoseconds, high 64 bits) and the insertion sequence
/// number (low 64 bits) are packed into one `u128` key, so ordering by
/// `key` is exactly lexicographic `(time, seq)` and every winner decision
/// is a single integer compare. Keys are unique (sequence numbers never
/// repeat), so the minimum is unique and the pop order is identical across
/// any correct priority queue over the same keys — which is what lets the
/// queue pick its store by size without changing a single simulation bit:
///
/// * up to `LINEAR_MAX_SLOTS` (64) pending events, a flat vector popped by a
///   contiguous linear min-scan (branch-predictable, pipelines well — the
///   fastest structure at the merge simulator's O(D) event bound);
/// * above that, an indexed tournament (winner tree) whose schedule/pop
///   replay one leaf-to-root path in O(log S) compares, so very wide disk
///   arrays don't pay an O(D) scan per event.
///
/// The store is chosen by capacity and migrates transparently on growth.
///
/// # Examples
///
/// ```
/// use pm_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "b");
/// q.schedule(SimTime::from_nanos(10), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    store: Store<E>,
    next_seq: u64,
}

enum Store<E> {
    Linear(LinearSlots<E>),
    Tree(Tournament<E>),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            store: Store::Linear(LinearSlots { slots: Vec::new() }),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    ///
    /// The merge simulator's event list is O(D): one completion event per
    /// busy disk (each disk re-arms its *next* completion on dispatch)
    /// plus one CPU event. Sizing the list up front keeps the steady-state
    /// hot path free of allocations and picks the store — min-scan vector
    /// at that scale, tournament for very wide arrays — once.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let store = if capacity <= LINEAR_MAX_SLOTS {
            Store::Linear(LinearSlots {
                slots: Vec::with_capacity(capacity),
            })
        } else {
            Store::Tree(Tournament::with_leaves(capacity.next_power_of_two()))
        };
        EventQueue { store, next_seq: 0 }
    }

    /// Ensures room for at least `additional` more pending events,
    /// migrating from the min-scan store to the tournament if the new
    /// bound crosses `LINEAR_MAX_SLOTS`.
    pub fn reserve(&mut self, additional: usize) {
        let want = self.len() + additional;
        match &mut self.store {
            Store::Linear(lin) if want <= LINEAR_MAX_SLOTS => {
                lin.slots.reserve(additional);
            }
            Store::Linear(_) => self.migrate_to_tree(want.next_power_of_two()),
            Store::Tree(tree) => {
                if want > tree.leaves {
                    tree.grow_to(want.next_power_of_two());
                }
            }
        }
    }

    /// Number of pending events the queue can hold without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        match &self.store {
            Store::Linear(lin) => lin.slots.capacity(),
            Store::Tree(tree) => tree.leaves,
        }
    }

    /// Moves every pending event into a tournament with `leaves` slots.
    /// Keys (and therefore pop order) are preserved verbatim.
    #[cold]
    #[inline(never)]
    fn migrate_to_tree(&mut self, leaves: usize) {
        let mut tree = Tournament::with_leaves(leaves.max(2));
        if let Store::Linear(lin) = &mut self.store {
            for (key, event) in lin.slots.drain(..) {
                tree.schedule(key, event);
            }
        }
        self.store = Store::Tree(tree);
    }

    /// Schedules `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (u128::from(time.as_nanos()) << 64) | u128::from(seq);
        debug_assert_ne!(key, EMPTY, "key collides with the free-slot sentinel");
        match &mut self.store {
            Store::Linear(lin) => {
                if lin.slots.len() == LINEAR_MAX_SLOTS {
                    self.migrate_to_tree(2 * LINEAR_MAX_SLOTS);
                    let Store::Tree(tree) = &mut self.store else {
                        unreachable!("just migrated")
                    };
                    tree.schedule(key, event);
                } else {
                    lin.slots.push((key, event));
                }
            }
            Store::Tree(tree) => tree.schedule(key, event),
        }
    }

    /// Removes and returns the earliest event, if any. Unique keys make the
    /// minimum unique, so ties within an instant pop FIFO regardless of
    /// store.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, event) = match &mut self.store {
            Store::Linear(lin) => {
                let idx = lin.earliest()?;
                lin.slots.swap_remove(idx)
            }
            Store::Tree(tree) => tree.pop()?,
        };
        Some((SimTime::from_nanos((key >> 64) as u64), event))
    }

    /// Fire time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = match &self.store {
            Store::Linear(lin) => lin.slots[lin.earliest()?].0,
            Store::Tree(tree) => {
                let root = tree.nodes[1];
                if root.key == EMPTY {
                    return None;
                }
                root.key
            }
        };
        Some(SimTime::from_nanos((key >> 64) as u64))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Linear(lin) => lin.slots.len(),
            Store::Tree(tree) => tree.len,
        }
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Linear(lin) => lin.slots.clear(),
            Store::Tree(tree) => {
                if tree.len == 0 {
                    return;
                }
                for slot in 0..tree.leaves {
                    if tree.events[slot].take().is_some() {
                        tree.free.push(slot as u32);
                    }
                }
                for node in tree.nodes.iter_mut() {
                    node.key = EMPTY;
                }
                tree.len = 0;
            }
        }
    }

    /// `true` when the tournament store is active (diagnostics/tests).
    #[must_use]
    pub fn is_tournament(&self) -> bool {
        matches!(self.store, Store::Tree(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        // 100 ties crosses the linear→tournament migration mid-stream.
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        assert!(q.is_tournament());
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        q.schedule(t(5), "b");
        q.schedule(t(10), "c");
        q.schedule(t(5), "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "d", "a", "c"]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(7), ())));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The queue must stay usable after a clear.
        q.schedule(t(3), ());
        assert_eq!(q.pop(), Some((t(3), ())));
    }

    #[test]
    fn with_capacity_preallocates_and_reserve_grows() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(8);
        assert!(q.capacity() >= 8);
        let cap = q.capacity();
        for i in 0..8 {
            q.schedule(t(i), i as u32);
        }
        assert_eq!(q.capacity(), cap, "scheduling within capacity must not grow");
        q.reserve(100);
        assert!(q.capacity() >= 108);
        assert_eq!(q.pop(), Some((t(0), 0)));
    }

    #[test]
    fn store_selection_follows_capacity() {
        let small: EventQueue<()> = EventQueue::with_capacity(LINEAR_MAX_SLOTS);
        assert!(!small.is_tournament(), "O(D) bound stays on the min-scan");
        let large: EventQueue<()> = EventQueue::with_capacity(LINEAR_MAX_SLOTS + 1);
        assert!(large.is_tournament(), "wide arrays get the tournament");
    }

    #[test]
    fn fifo_tie_break_survives_coalesced_rearming() {
        // The O(D) coalesced scheme re-arms one completion event per disk
        // at dispatch time: pop an event, then immediately schedule that
        // disk's next completion. When the re-armed event lands on an
        // instant where other events already wait, it must sort *after*
        // them — the sequence counter keeps growing monotonically across
        // pops, so re-insertion can never jump the FIFO line.
        let mut q = EventQueue::new();
        q.schedule(t(10), "disk0");
        q.schedule(t(20), "disk1");
        q.schedule(t(20), "disk2");
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, "disk0");
        // disk0 re-arms onto the contended instant t=20.
        q.schedule(t(20), "disk0-rearmed");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["disk1", "disk2", "disk0-rearmed"]);
    }

    #[test]
    fn rearming_across_many_rounds_stays_fifo() {
        // Simulate D disks each re-arming through R rounds of simultaneous
        // completions; within every round the pop order must equal the
        // schedule order of that round. Run once per store.
        for cap in [8, 256] {
            const D: usize = 8;
            let mut q = EventQueue::with_capacity(cap);
            assert_eq!(q.is_tournament(), cap > LINEAR_MAX_SLOTS);
            for d in 0..D {
                q.schedule(t(100), d);
            }
            for round in 1..=5u64 {
                let mut popped = Vec::new();
                for _ in 0..D {
                    let (time, d) = q.pop().unwrap();
                    assert_eq!(time, t(100 * round));
                    popped.push(d);
                    q.schedule(t(100 * (round + 1)), d);
                }
                assert_eq!(popped, (0..D).collect::<Vec<_>>(), "round {round}");
            }
        }
    }

    #[test]
    fn scheduling_in_the_past_is_allowed_but_ordered() {
        // The queue itself is order-agnostic; monotonicity is enforced by
        // the Executive.
        let mut q = EventQueue::new();
        q.schedule(t(100), "later");
        q.schedule(t(1), "earlier");
        assert_eq!(q.pop().unwrap().1, "earlier");
    }

    #[test]
    fn migration_preserves_pending_order() {
        // Pack the linear store to its limit, then keep scheduling so it
        // migrates to the tournament mid-flight; pop order must still equal
        // sorted-(time, seq), including ties that straddle the migration.
        let mut q = EventQueue::with_capacity(4);
        let n = LINEAR_MAX_SLOTS + 40;
        let times: Vec<u64> = (0..n).map(|i| ((i * 7919) % 23) as u64).collect();
        for (i, &ns) in times.iter().enumerate() {
            q.schedule(t(ns), i);
        }
        assert!(q.is_tournament());
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &ns)| (ns, i)).collect();
        expect.sort();
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(time, i)| (time.as_nanos(), i))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn tournament_growth_preserves_pending_order() {
        // Start at the smallest tournament and force rebuilds mid-flight.
        let mut q = EventQueue::with_capacity(LINEAR_MAX_SLOTS + 1);
        assert!(q.is_tournament());
        let n = 5 * LINEAR_MAX_SLOTS;
        let times: Vec<u64> = (0..n).map(|i| ((i * 104729) % 31) as u64).collect();
        for (i, &ns) in times.iter().enumerate() {
            q.schedule(t(ns), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &ns)| (ns, i)).collect();
        expect.sort();
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(time, i)| (time.as_nanos(), i))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaved_pop_schedule_churn_matches_reference() {
        // Deterministic churn against a naive sorted reference, on both
        // stores: pops interleaved with schedules at colliding instants.
        for cap in [4, 2 * LINEAR_MAX_SLOTS] {
            let mut q = EventQueue::with_capacity(cap);
            let mut reference: Vec<(u64, u64, u32)> = Vec::new(); // (time, seq, id)
            let mut seq = 0u64;
            for wave in 0..6u64 {
                for d in 0..5u32 {
                    // Collide three-of-five on the same instant per wave.
                    let ns = 100 * wave + u64::from(d % 2);
                    q.schedule(t(ns), d);
                    reference.push((ns, seq, d));
                    seq += 1;
                }
                for _ in 0..4 {
                    reference.sort();
                    let (time, id) = q.pop().unwrap();
                    let (ens, _, eid) = reference.remove(0);
                    assert_eq!((time.as_nanos(), id), (ens, eid));
                }
            }
            while !reference.is_empty() {
                reference.sort();
                let (time, id) = q.pop().unwrap();
                let (ens, _, eid) = reference.remove(0);
                assert_eq!((time.as_nanos(), id), (ens, eid));
            }
            assert!(q.is_empty());
        }
    }
}
