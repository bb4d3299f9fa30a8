//! Tournament (loser) tree for `k`-way merging.
//!
//! # Layout
//!
//! The tree orders *sources*, not items. Each caller keeps its sources'
//! head items wherever they already live (a run's `Vec`, an encoded block
//! buffer) and hands the tree only each head's `u64` key. The tree keeps:
//!
//! * `losers: Vec<u32>` — for each internal node `1..p` (`p` = source
//!   count rounded up to a power of two, heap layout), the index of the
//!   source that lost the match there;
//! * `keys: Vec<u64>` — each source's head key, `u64::MAX` once the
//!   source is exhausted;
//! * `exhausted: Vec<bool>` — which sources have no head left.
//!
//! Replacing the winner's head replays one leaf-to-root path carrying only
//! the candidate's `(source index, key)`. Each level loads one loser index
//! and that loser's key, and decides the match on two integers with plain
//! selects, which compile to conditional moves: on random keys every match
//! is a coin flip, and a mispredicted branch per level is what bounds a
//! comparison-based merge.
//!
//! # Ties
//!
//! Equal keys — equal items, a key that does not capture the whole order
//! (two `pm_extsort::Record`s with one key and different record ids), or a
//! real head whose key happens to be `u64::MAX` meeting an exhausted
//! source — take a separate `#[cold]` path. It decides the match exactly
//! as a tree comparing whole items would: an exhausted source loses,
//! otherwise the caller's `tie` closure compares the two sources' full
//! heads, and fully equal heads go to the lower source index. Merge order,
//! stability and exhaustion semantics are therefore those of a tree
//! holding whole items; the keys only decide matches faster. `tie` is
//! only ever called on two live sources with equal keys.
//!
//! # The key contract
//!
//! A head's key must be a monotone map of the order `tie` completes:
//! `a <= b` implies `key(a) <= key(b)` (so `a < b` never has a larger key,
//! and equal items have equal keys). A key may lose information — ties
//! are settled by `tie` — but it must never invert the order.
//! [`MergeKey`] states the same contract for an `Ord` item type.
//! Counter-example: keying `i32` by `*self as u64` sign-extends `-1` to
//! `u64::MAX`, above every non-negative value, so a source holding `-1`
//! would lose to one holding `0` and the merge would emit `0` before `-1`.
//! The `i32` impl flips the sign bit instead, which maps
//! `i32::MIN..=i32::MAX` onto `0..=u32::MAX` in order.

use std::cmp::Ordering;

/// An `Ord` item with an order-preserving `u64` key: what a caller of
/// [`LoserTree`] hands the tree for each head, with `Ord` as its tie order.
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
/// winner bubbles to the top, so replacing the winner's head and
/// re-establishing the tournament costs one comparison per level —
/// `O(log k)` per record, the textbook structure for multiway merging
/// (Knuth vol. 3 §5.4.1).
///
/// The caller owns the heads: it passes each head's key (`None` once a
/// source is exhausted) and a `tie(a, b)` closure that compares the full
/// heads of sources `a` and `b` when their keys are equal. Exhausted
/// sources lose to everything; fully equal heads go to the lower source
/// index, making the merge stable when sources are fed in input order.
///
/// # Examples
///
/// ```
/// use std::cmp::Ordering;
/// use pm_core::LoserTree;
///
/// let sources = [vec![3, 4], vec![1, 5], vec![2]];
/// let mut next = [0; 3];
/// // A `u64` is its own key, so equal keys are equal heads.
/// let tie = |_: usize, _: usize| Ordering::Equal;
/// let mut tree = LoserTree::new(sources.iter().map(|s| s.first().copied()), tie);
/// let mut merged = Vec::new();
/// while let Some(src) = tree.winner() {
///     merged.push(sources[src][next[src]]);
///     next[src] += 1;
///     tree.replace_winner(sources[src].get(next[src]).copied(), tie);
/// }
/// assert_eq!(merged, [1, 2, 3, 4, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct LoserTree {
    /// `losers[node]` for internal nodes `1..p`: the source index that lost
    /// the match at `node` (`p` = `keys.len()`, a power of two).
    losers: Vec<u32>,
    /// Head key of each (padded) source; `u64::MAX` when exhausted.
    keys: Vec<u64>,
    /// Whether each (padded) source is exhausted.
    exhausted: Vec<bool>,
    /// Source index of the overall winner.
    winner: usize,
}

impl LoserTree {
    /// Builds the tournament from each source's initial head key (`None`
    /// for a source with no items); `tie` compares two sources' full heads
    /// when their keys are equal.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is empty or holds more than `u32::MAX` sources.
    #[must_use]
    pub fn new<F>(heads: impl IntoIterator<Item = Option<u64>>, mut tie: F) -> Self
    where
        F: FnMut(usize, usize) -> Ordering,
    {
        let heads = heads.into_iter();
        let padded = heads.size_hint().0.next_power_of_two();
        let mut keys: Vec<u64> = Vec::with_capacity(padded);
        let mut exhausted: Vec<bool> = Vec::with_capacity(padded);
        for head in heads {
            keys.push(head.unwrap_or(u64::MAX));
            exhausted.push(head.is_none());
        }
        let k = keys.len();
        assert!(k > 0, "loser tree needs at least one source");
        assert!(
            u32::try_from(k).is_ok(),
            "loser tree supports at most u32::MAX sources"
        );
        let p = k.next_power_of_two();
        keys.resize(p, u64::MAX);
        exhausted.resize(p, true);
        let mut tree = LoserTree {
            losers: vec![0; p],
            keys,
            exhausted,
            winner: 0,
        };
        tree.winner = tree.play(1, &mut tie) as usize;
        tree
    }

    /// Plays every match below `node` (heap layout: source `s` is leaf
    /// `p + s`), records each match's loser, and returns the winner.
    /// Recursion depth is `log2 p`.
    fn play<F: FnMut(usize, usize) -> Ordering>(&mut self, node: usize, tie: &mut F) -> u32 {
        let p = self.keys.len();
        if node >= p {
            return (node - p) as u32;
        }
        let (l, r) = (self.play(2 * node, tie), self.play(2 * node + 1, tie));
        let (kl, kr) = (self.keys[l as usize], self.keys[r as usize]);
        let l_wins = kl < kr || (kl == kr && self.tie_beats(l, r, tie));
        let (win, lose) = if l_wins { (l, r) } else { (r, l) };
        self.losers[node] = lose;
        win
    }

    /// Decides a match between two equal keys by the full order: an
    /// exhausted source loses, the smaller head wins by `tie`, and equal
    /// heads go to the lower source index.
    #[cold]
    #[inline(never)]
    fn tie_beats<F: FnMut(usize, usize) -> Ordering>(&self, a: u32, b: u32, tie: &mut F) -> bool {
        let (a, b) = (a as usize, b as usize);
        match (self.exhausted[a], self.exhausted[b]) {
            (true, _) => false,
            (false, true) => true,
            (false, false) => tie(a, b).then(a.cmp(&b)).is_lt(),
        }
    }

    /// The current winning source; `None` when every source is exhausted.
    #[inline]
    #[must_use]
    pub fn winner(&self) -> Option<usize> {
        (!self.exhausted[self.winner]).then_some(self.winner)
    }

    /// Installs `head` as the winning source's new head key (`None` once
    /// that source is exhausted) and re-runs the tournament along one
    /// leaf-to-root path. The caller must already hold the new head where
    /// `tie` reads it. On a tree whose sources are all exhausted, `None`
    /// does nothing.
    ///
    /// # Panics
    ///
    /// Panics if every source is exhausted and `head` is `Some`.
    #[inline]
    pub fn replace_winner<F>(&mut self, head: Option<u64>, mut tie: F)
    where
        F: FnMut(usize, usize) -> Ordering,
    {
        let source = self.winner;
        if self.exhausted[source] {
            assert!(head.is_none(), "cannot feed an exhausted tournament");
            return;
        }
        self.exhausted[source] = head.is_none();
        self.winner = self.replay(source, head.unwrap_or(u64::MAX), &mut tie);
    }

    /// Replays matches from `source`'s leaf up to the root with `key` as
    /// its new head key, and returns the new winner. Off the tie path
    /// every node is written, loser or not, so the update is a select,
    /// not a branch.
    ///
    /// Kept out of line: inlined into the engine's merge loop, which has
    /// many live values of its own, the candidate spilled to the stack at
    /// every level, and the 64-way engine merge ran about 5% slower.
    #[inline(never)]
    fn replay<F>(&mut self, source: usize, mut key: u64, tie: &mut F) -> usize
    where
        F: FnMut(usize, usize) -> Ordering,
    {
        self.keys[source] = key;
        let mut candidate = source as u32;
        let mut node = (self.keys.len() + source) / 2;
        while node >= 1 {
            let other = self.losers[node];
            let other_key = self.keys[other as usize];
            if other_key == key {
                // The winner's key is `key` either way.
                if self.tie_beats(other, candidate, tie) {
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
        candidate as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges fully-materialized sorted sources through the tree.
    fn merge_all(sources: Vec<Vec<u32>>) -> Vec<(usize, u32)> {
        merge_all_of(sources)
    }

    /// [`merge_all`] for any item type. The heads stay in `sources`; the
    /// tie closure checks it is only asked about equal keys.
    fn merge_all_of<T: MergeKey>(sources: Vec<Vec<T>>) -> Vec<(usize, T)> {
        let mut next = vec![0usize; sources.len()];
        let head = |s: usize, next: &[usize]| sources[s].get(next[s]).copied();
        let tie = |a: usize, b: usize, next: &[usize]| {
            let (x, y) = (sources[a][next[a]], sources[b][next[b]]);
            assert_eq!(x.merge_key(), y.merge_key(), "tie on unequal keys");
            x.cmp(&y)
        };
        let mut tree = LoserTree::new(
            (0..sources.len()).map(|s| head(s, &next).map(|t| t.merge_key())),
            |a, b| tie(a, b, &next),
        );
        let mut out = Vec::new();
        while let Some(src) = tree.winner() {
            out.push((src, sources[src][next[src]]));
            next[src] += 1;
            let key = head(src, &next).map(|t| t.merge_key());
            tree.replace_winner(key, |a, b| tie(a, b, &next));
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
        let tie = |_: usize, _: usize| -> Ordering { unreachable!("no live heads") };
        let mut tree = LoserTree::new([None, None, None], tie);
        assert_eq!(tree.winner(), None);
        tree.replace_winner(None, tie);
        assert_eq!(tree.winner(), None);
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
        let _ = LoserTree::new(std::iter::empty(), |_, _| Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "exhausted tournament")]
    fn feeding_empty_tree_panics() {
        let tie = |_: usize, _: usize| Ordering::Equal;
        let mut tree = LoserTree::new([None], tie);
        tree.replace_winner(Some(1), tie);
    }
}
