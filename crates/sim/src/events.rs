//! The future-event list.

use crate::SimTime;

/// A deterministic future-event list.
///
/// Events are popped in non-decreasing time order; events scheduled for the
/// same instant are popped in the order they were scheduled (FIFO). This
/// stability is what makes whole simulation runs bit-reproducible.
///
/// The fire time (nanoseconds, high 64 bits) and the insertion sequence
/// number (low 64 bits) are packed into one `u128` key, so ordering by
/// `key` is exactly lexicographic `(time, seq)` and every comparison is a
/// single integer compare. Keys are unique (sequence numbers never repeat),
/// so the minimum is unique and any correct priority queue over the same
/// keys pops the same order.
///
/// The store is one binary min-heap. [`EventQueue::pop`] hands out the root
/// but leaves it in place, marked taken, and the next operation removes it.
/// When that operation is a [`EventQueue::schedule`] — the merge simulator's
/// usual step, a disk re-arming its next completion as the previous one
/// fires — the new event overwrites the root and sifts down once, instead
/// of a removal's sift followed by an insertion's.
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
    /// Min-heap on the packed keys: `heap[i].0 < heap[c].0` for each child
    /// `c` in `2i + 1`, `2i + 2`.
    heap: Vec<(u128, E)>,
    /// `heap[0]` was popped: it is no longer pending, and the next
    /// operation overwrites or removes it.
    root_taken: bool,
    next_seq: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Fire time of a packed key.
fn time_of(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    ///
    /// The merge simulator's event list is O(D): one completion event per
    /// busy disk (each disk re-arms its *next* completion on dispatch)
    /// plus one CPU event. Sizing the list up front keeps the steady-state
    /// hot path free of allocations.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            root_taken: false,
            next_seq: 0,
        }
    }

    /// Ensures room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of pending events the queue can hold without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedules `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = ((u128::from(time.as_nanos()) << 64) | u128::from(seq), event);
        if self.root_taken {
            self.root_taken = false;
            self.heap[0] = entry;
            self.sift_root_down();
        } else {
            self.heap.push(entry);
            self.sift_last_up();
        }
    }

    /// Removes and returns the earliest event, if any. Unique keys make the
    /// minimum unique, so ties within an instant pop FIFO.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.root_taken {
            self.remove_root();
        }
        let &(key, event) = self.heap.first()?;
        self.root_taken = true;
        Some((time_of(key), event))
    }

    /// Fire time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = if self.root_taken {
            // The taken root's two children head every pending event.
            self.heap[1..].iter().take(2).map(|&(key, _)| key).min()?
        } else {
            self.heap.first()?.0
        };
        Some(time_of(key))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.root_taken)
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.root_taken = false;
    }

    /// Drops the taken root: the last entry takes its place and sifts down.
    fn remove_root(&mut self) {
        self.root_taken = false;
        let last = self.heap.pop().expect("a taken root is in the heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_root_down();
        }
    }

    /// Moves the last entry up to its place.
    fn sift_last_up(&mut self) {
        let pos = self.heap.len() - 1;
        let entry = self.heap[pos];
        settle_up(&mut self.heap, pos, entry);
    }

    /// Moves the root entry down to its place. The entry is held aside
    /// while the smaller child of the hole moves up, level by level, to
    /// the bottom; then the entry walks back up from there. A re-armed
    /// completion usually belongs near the bottom, so this costs one key
    /// compare per level (the child picked without a branch) and a short
    /// walk back, where stopping on the way down costs two per level.
    fn sift_root_down(&mut self) {
        let heap = self.heap.as_mut_slice();
        let entry = heap[0];
        let end = heap.len();
        let mut pos = 0;
        let mut child = 1;
        while child + 1 < end {
            child += usize::from(heap[child + 1].0 < heap[child].0);
            heap[pos] = heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        if child + 1 == end {
            heap[pos] = heap[child];
            pos = child;
        }
        settle_up(heap, pos, entry);
    }
}

/// Fills the hole at `pos` with `entry`, first moving each parent with a
/// larger key down into the hole.
fn settle_up<E: Copy>(heap: &mut [(u128, E)], mut pos: usize, entry: (u128, E)) {
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if heap[parent].0 < entry.0 {
            break;
        }
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = entry;
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
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
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
        assert_eq!(
            q.capacity(),
            cap,
            "scheduling within capacity must not grow"
        );
        q.reserve(100);
        assert!(q.capacity() >= 108);
        assert_eq!(q.pop(), Some((t(0), 0)));
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
        // schedule order of that round. Every re-arm lands on a taken
        // root, so the queue never grows past its D slots.
        const D: usize = 8;
        let mut q = EventQueue::with_capacity(D);
        for d in 0..D {
            q.schedule(t(100), d);
        }
        let cap = q.capacity();
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
        assert_eq!(q.len(), D);
        assert_eq!(q.capacity(), cap, "re-arming must not grow the heap");
    }

    #[test]
    fn a_popped_root_is_no_longer_pending() {
        // `pop` leaves the root in place until the next operation; every
        // accessor must already see it gone.
        let mut q = EventQueue::new();
        q.schedule(t(1), "a");
        q.schedule(t(3), "c");
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);

        q.schedule(t(4), "d");
        assert_eq!(q.pop(), Some((t(4), "d")));
        q.clear();
        assert!(q.is_empty());
        q.schedule(t(5), "e");
        assert_eq!(q.pop(), Some((t(5), "e")));
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
    fn growth_past_capacity_preserves_pending_order() {
        // Keep scheduling past the initial capacity so the heap grows
        // mid-flight; pop order must still equal sorted-(time, seq),
        // including ties that straddle a growth.
        let mut q = EventQueue::with_capacity(4);
        let n = 104;
        let times: Vec<u64> = (0..n).map(|i| ((i * 7919) % 23) as u64).collect();
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
        // Deterministic churn against a naive sorted reference: pops
        // interleaved with schedules at colliding instants.
        let mut q = EventQueue::with_capacity(4);
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
