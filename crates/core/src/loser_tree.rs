//! Tournament (loser) tree for `k`-way merging.
//!
//! # Layout
//!
//! The tree is an index tree over a flat array of `u64` keys:
//!
//! * `losers: Vec<u32>` — for each internal node `1..p` (`p` = source
//!   count rounded up to a power of two, heap layout), the index of the
//!   source that lost the match there;
//! * `keys: Vec<u64>` — each source's head key ([`MergeKey::merge_key`]),
//!   `u64::MAX` once the source is exhausted;
//! * `items: Vec<Option<T>>` — each source's head item.
//!
//! Replacing the winner replays one leaf-to-root path carrying only the
//! candidate's `(source index, key)`. Each level loads one loser index and
//! that loser's key, and decides the match on two integers with plain
//! selects, which compile to conditional moves: on random keys every match
//! is a coin flip, and a mispredicted branch per level is what bounds a
//! comparison-based merge. Whole items never move through the tree.
//!
//! # Ties
//!
//! Equal keys — equal items, a key that does not capture the whole order
//! (two `pm_extsort::Record`s with one key and different record ids), or a real head
//! whose key happens to be `u64::MAX` meeting an exhausted source — take a
//! separate `#[cold]` path. It decides the match exactly as a plain `Ord`
//! tree would: an exhausted source loses, otherwise the smaller item wins
//! by `Ord`, and fully equal items go to the lower source index. Merge
//! order, stability and exhaustion semantics are therefore those of a
//! tree comparing whole items; the keys only decide matches faster.
//!
//! # The `MergeKey` contract
//!
//! The key must be a monotone map of the order: `a <= b` implies
//! `a.merge_key() <= b.merge_key()` (so `a < b` never has a larger key, and
//! equal items have equal keys). A key may lose information — ties are
//! settled by `Ord` — but it must never invert the order. Counter-example:
//! keying `i32` by `*self as u64` sign-extends `-1` to `u64::MAX`, above
//! every non-negative value, so a source holding `-1` would lose to one
//! holding `0` and the merge would emit `0` before `-1`. The `i32` impl
//! flips the sign bit instead, which maps `i32::MIN..=i32::MAX` onto
//! `0..=u32::MAX` in order.

/// An item the [`LoserTree`] can merge: an `Ord` value with an
/// order-preserving `u64` key that decides most matches on its own.
///
/// Contract: `a <= b` implies `a.merge_key() <= b.merge_key()`. Keying
/// `i32` by `*self as u64` breaks it: `-1` sign-extends above every
/// non-negative value, so the merge would emit `0` before `-1`.
pub trait MergeKey: Ord + Copy {
    /// The order-preserving key of this item.
    fn merge_key(&self) -> u64;
}

impl MergeKey for u64 {
    #[inline]
    fn merge_key(&self) -> u64 {
        *self
    }
}

impl MergeKey for u32 {
    #[inline]
    fn merge_key(&self) -> u64 {
        u64::from(*self)
    }
}

impl MergeKey for i32 {
    /// Flips the sign bit, so `i32::MIN` keys to 0 and `i32::MAX` to
    /// `u32::MAX`.
    #[inline]
    fn merge_key(&self) -> u64 {
        u64::from(*self as u32 ^ 0x8000_0000)
    }
}

/// A loser tree over `k` sources.
///
/// Internal nodes remember the *loser* of each match; only the overall
/// winner bubbles to the top, so replacing the winner and re-establishing
/// the tournament costs one comparison per level — `O(log k)` per record,
/// the textbook structure for multiway merging (Knuth vol. 3 §5.4.1).
///
/// Exhausted sources hold `None`, which loses to everything; ties are
/// broken by source index, making the merge stable when sources are fed in
/// input order.
///
/// # Examples
///
/// ```
/// use pm_core::LoserTree;
///
/// let mut tree = LoserTree::new(vec![Some(3), Some(1), Some(2)]);
/// assert_eq!(tree.winner(), Some((1, &1)));
/// // Source 1 is exhausted; the next-smallest head wins.
/// let (src, v) = tree.pop_and_replace(None).unwrap();
/// assert_eq!((src, v), (1, 1));
/// assert_eq!(tree.winner(), Some((2, &2)));
/// ```
#[derive(Debug, Clone)]
pub struct LoserTree<T: MergeKey> {
    /// `losers[node]` for internal nodes `1..p`: the source index that lost
    /// the match at `node` (`p` = `keys.len()`, a power of two).
    losers: Vec<u32>,
    /// Head key of each (padded) source; `u64::MAX` when exhausted.
    keys: Vec<u64>,
    /// Current head item of each (padded) source; `None` = exhausted.
    items: Vec<Option<T>>,
    /// Source index of the overall winner.
    winner: usize,
}

impl<T: MergeKey> LoserTree<T> {
    /// Builds the tournament from each source's initial head item.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is empty or holds more than `u32::MAX` sources.
    #[must_use]
    pub fn new(heads: Vec<Option<T>>) -> Self {
        let k = heads.len();
        assert!(k > 0, "loser tree needs at least one source");
        assert!(
            u32::try_from(k).is_ok(),
            "loser tree supports at most u32::MAX sources"
        );
        let p = k.next_power_of_two();
        let mut items = heads;
        items.resize_with(p, || None);
        let keys: Vec<u64> = items
            .iter()
            .map(|h| h.map_or(u64::MAX, |t| t.merge_key()))
            .collect();
        let mut tree = LoserTree {
            losers: vec![0; p],
            keys,
            items,
            winner: 0,
        };
        tree.winner = tree.play(1) as usize;
        tree
    }

    /// Plays every match below `node` (heap layout: source `s` is leaf
    /// `p + s`), records each match's loser, and returns the winner.
    /// Recursion depth is `log2 p`.
    fn play(&mut self, node: usize) -> u32 {
        let p = self.keys.len();
        if node >= p {
            return (node - p) as u32;
        }
        let (l, r) = (self.play(2 * node), self.play(2 * node + 1));
        let (win, lose) = if self.beats(l, r) { (l, r) } else { (r, l) };
        self.losers[node] = lose;
        win
    }

    /// `true` if source `a`'s head beats source `b`'s.
    fn beats(&self, a: u32, b: u32) -> bool {
        let (ka, kb) = (self.keys[a as usize], self.keys[b as usize]);
        ka < kb || (ka == kb && self.tie_beats(a, b))
    }

    /// Decides a match between two equal keys by the full order: an
    /// exhausted source loses, the smaller item wins, and equal items go
    /// to the lower source index.
    #[cold]
    #[inline(never)]
    fn tie_beats(&self, a: u32, b: u32) -> bool {
        match (&self.items[a as usize], &self.items[b as usize]) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(x), Some(y)) => x.cmp(y).then(a.cmp(&b)).is_lt(),
        }
    }

    /// The current winning source and its item; `None` when every source is
    /// exhausted.
    #[must_use]
    pub fn winner(&self) -> Option<(usize, &T)> {
        self.items[self.winner].as_ref().map(|t| (self.winner, t))
    }

    /// Removes the winning item, installs `replacement` as that source's
    /// new head (or `None` if the source is exhausted), and re-runs the
    /// tournament along one root-to-leaf path.
    ///
    /// Returns the removed `(source, item)`, or `None` if the tree was
    /// already empty (in which case `replacement` must be `None`).
    pub fn pop_and_replace(&mut self, replacement: Option<T>) -> Option<(usize, T)> {
        let source = self.winner;
        let Some(item) = self.items[source].take() else {
            assert!(replacement.is_none(), "cannot feed an exhausted tournament");
            return None;
        };
        let mut key = replacement.map_or(u64::MAX, |t| t.merge_key());
        self.keys[source] = key;
        self.items[source] = replacement;
        // Replay matches from the winner's leaf up to the root. Off the tie
        // path every node is written, loser or not, so the update is a
        // select, not a branch.
        let mut candidate = source as u32;
        let mut node = (self.keys.len() + source) / 2;
        while node >= 1 {
            let other = self.losers[node];
            let other_key = self.keys[other as usize];
            if other_key == key {
                // The winner's key is `key` either way.
                if self.tie_beats(other, candidate) {
                    self.losers[node] = candidate;
                    candidate = other;
                }
            } else {
                let other_wins = other_key < key;
                self.losers[node] = if other_wins { candidate } else { other };
                candidate = if other_wins { other } else { candidate };
                key = if other_wins { other_key } else { key };
            }
            node /= 2;
        }
        self.winner = candidate as usize;
        Some((source, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges fully-materialized sorted sources through the tree.
    fn merge_all(sources: Vec<Vec<u32>>) -> Vec<(usize, u32)> {
        merge_all_of(sources)
    }

    /// [`merge_all`] for any item type.
    fn merge_all_of<T: MergeKey>(sources: Vec<Vec<T>>) -> Vec<(usize, T)> {
        let mut iters: Vec<std::vec::IntoIter<T>> =
            sources.into_iter().map(Vec::into_iter).collect();
        let heads: Vec<Option<T>> = iters.iter_mut().map(Iterator::next).collect();
        let mut tree = LoserTree::new(heads);
        let mut out = Vec::new();
        while let Some((src, _)) = tree.winner() {
            let next = iters[src].next();
            let (s, v) = tree.pop_and_replace(next).unwrap();
            out.push((s, v));
        }
        out
    }

    #[test]
    fn merges_sorted_sources() {
        let out = merge_all(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        let values: Vec<u32> = out.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn single_source() {
        let out = merge_all(vec![vec![5, 6, 7]]);
        assert_eq!(out, vec![(0, 5), (0, 6), (0, 7)]);
    }

    #[test]
    fn non_power_of_two_sources() {
        let out = merge_all(vec![
            vec![10, 20],
            vec![1, 30],
            vec![15],
            vec![2, 3, 40],
            vec![25],
        ]);
        let values: Vec<u32> = out.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![1, 2, 3, 10, 15, 20, 25, 30, 40]);
    }

    #[test]
    fn empty_sources_are_skipped() {
        let out = merge_all(vec![vec![], vec![4, 5], vec![]]);
        assert_eq!(out, vec![(1, 4), (1, 5)]);
    }

    #[test]
    fn all_sources_empty() {
        let mut tree: LoserTree<u32> = LoserTree::new(vec![None, None, None]);
        assert_eq!(tree.winner(), None);
        assert_eq!(tree.pop_and_replace(None), None);
    }

    #[test]
    fn ties_resolve_to_lower_source_index() {
        let out = merge_all(vec![vec![5], vec![5], vec![5]]);
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5)]);
    }

    #[test]
    fn interleaving_tracks_sources_correctly() {
        let out = merge_all(vec![vec![1, 3, 5], vec![2, 4, 6]]);
        assert_eq!(out, vec![(0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)]);
    }

    #[test]
    fn sentinel_valued_items_outrank_exhausted_sources() {
        // A real head keyed `u64::MAX` ties with every exhausted source's
        // key; it must still come out, after everything smaller, in
        // source order among its equals.
        let out = merge_all_of(vec![
            vec![u64::MAX],
            vec![],
            vec![3, u64::MAX, u64::MAX],
            vec![u64::MAX - 1, u64::MAX],
            vec![],
        ]);
        let max = u64::MAX;
        assert_eq!(
            out,
            vec![(2, 3), (3, max - 1), (0, max), (2, max), (2, max), (3, max)]
        );
    }

    #[test]
    fn i32_keys_preserve_sign_order() {
        let keys = [i32::MIN, -1, 0, 1, i32::MAX].map(|v| v.merge_key());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    #[test]
    fn large_random_merge_matches_std_sort() {
        use pm_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(42);
        let mut sources: Vec<Vec<u32>> = (0..17)
            .map(|_| {
                let len = rng.index(200);
                let mut v: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut expected: Vec<u32> = sources.iter().flatten().copied().collect();
        expected.sort_unstable();
        let merged: Vec<u32> = merge_all(std::mem::take(&mut sources))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(merged, expected);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn zero_sources_rejected() {
        let _: LoserTree<u32> = LoserTree::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "exhausted tournament")]
    fn feeding_empty_tree_panics() {
        let mut tree: LoserTree<u32> = LoserTree::new(vec![None]);
        tree.pop_and_replace(Some(1));
    }
}
