//! Markov analysis of cache-admission policies (the paper's ref. \[16\]).
//!
//! The paper justifies all-or-nothing admission by citing its companion
//! report (Pai, Schaffer & Varman, *Markov Analysis of Multiple-Disk
//! Prefetching Strategies for External MergeSort*): for `D` disks with
//! **one run per disk** and a cache of `C` blocks, the average I/O
//! parallelism obtained by refusing partial prefetches exceeds that of the
//! greedy policy "for all reasonable values of cache size and number of
//! disks". This module rebuilds that analysis.
//!
//! ## The chain
//!
//! State: the per-run cached block counts `(c_1, …, c_D)` with `c_i ≥ 1`
//! (the merge always holds each run's leading block between operations)
//! and `Σ c_i ≤ C`. One step: a uniformly random run `i` is depleted
//! (`c_i -= 1`). If `c_i` hits 0 a demand operation fetches blocks
//! (instantaneously, in chain time):
//!
//! * **All-or-nothing**: if the free space `C − Σc` covers all `D` blocks,
//!   every run receives one block; otherwise only the demand run does.
//! * **Greedy**: the demand run receives its block, then the remaining
//!   free slots go to a uniformly random subset of the other runs.
//!
//! The *average I/O parallelism* is the expected number of blocks per
//! demand operation under the stationary distribution — the number of
//! disks the operation drives concurrently.
//!
//! The chain treats fetches as instantaneous relative to depletions: it
//! isolates the *space* effect of the admission policy from the *time*
//! effect. The result (see the tests) is that the space effect alone gives
//! all-or-nothing only a slim edge (none at `D = 3`); the decisive
//! advantage the paper's intuition describes — greedy "delays the chances
//! of returning to a state where all `D` disks can be used concurrently" —
//! would have to be temporal. The `ablation_admission` simulation
//! experiment (A1), which models service times and deep (`N > 1`)
//! prefetches, does not show it: greedy is ahead at every cache up to 900
//! blocks. There the two policies also fall back differently: a rejected
//! all-or-nothing operation reads only the demand block, while greedy
//! always reads up to `N` blocks of the demand run and never falls back.
//! See the T3 note in EXPERIMENTS.md.

use std::collections::HashMap;

/// Admission policy analyzed by the chain (mirrors
/// `pm_cache::AdmissionPolicy` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Refuse partial prefetches (the paper's choice).
    AllOrNothing,
    /// Fill whatever space is free.
    Greedy,
}

/// A sparse probability-weighted transition target list.
type Transitions = Vec<(usize, f64)>;

/// The state-indexed chain for one `(D, C, policy)` configuration.
struct Chain {
    /// Every state `(c_1..c_D)`, `1 ≤ c_i`, `Σ ≤ C`.
    states: Vec<Vec<u32>>,
    transitions: Vec<Transitions>,
    /// `op_weight[s]` = P(step from `s` is a demand op) and
    /// `op_size[s]` = E[blocks fetched | op from `s`].
    op_weight: Vec<f64>,
    op_size: Vec<f64>,
}

fn enumerate_states(d: u32, prefix: &mut Vec<u32>, remaining: u32, out: &mut Vec<Vec<u32>>) {
    if prefix.len() == d as usize {
        out.push(prefix.clone());
        return;
    }
    let slots_left = d as usize - prefix.len() - 1;
    // Each remaining run needs at least one block.
    let max_here = remaining - slots_left as u32;
    for c in 1..=max_here {
        prefix.push(c);
        enumerate_states(d, prefix, remaining - c, out);
        prefix.pop();
    }
}

impl Chain {
    fn build(d: u32, cache: u32, policy: Policy) -> Self {
        assert!(d >= 1, "need at least one disk");
        assert!(cache >= d, "cache must hold one block per run");
        let mut states = Vec::new();
        enumerate_states(d, &mut Vec::new(), cache, &mut states);
        let index: HashMap<Vec<u32>, usize> = states
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i))
            .collect();
        let du = d as usize;
        let p_choose = 1.0 / f64::from(d);
        let mut transitions = vec![Vec::new(); states.len()];
        let mut op_weight = vec![0.0; states.len()];
        let mut op_size = vec![0.0; states.len()];

        for (si, state) in states.iter().enumerate() {
            let mut outgoing: HashMap<usize, f64> = HashMap::new();
            let mut weighted_size = 0.0;
            for i in 0..du {
                let mut next = state.clone();
                next[i] -= 1;
                if next[i] > 0 {
                    // Plain depletion, no I/O.
                    *outgoing.entry(index[&next]).or_insert(0.0) += p_choose;
                    continue;
                }
                // Demand operation for run i.
                op_weight[si] += p_choose;
                let free = cache - next.iter().sum::<u32>();
                debug_assert!(free >= 1);
                match policy {
                    Policy::AllOrNothing => {
                        let fetched = if free >= d {
                            for c in &mut next {
                                *c += 1;
                            }
                            d
                        } else {
                            next[i] += 1;
                            1
                        };
                        weighted_size += p_choose * f64::from(fetched);
                        *outgoing.entry(index[&next]).or_insert(0.0) += p_choose;
                    }
                    Policy::Greedy => {
                        next[i] += 1;
                        let extra = (free - 1).min(d - 1);
                        weighted_size += p_choose * f64::from(1 + extra);
                        if extra == 0 {
                            *outgoing.entry(index[&next]).or_insert(0.0) += p_choose;
                        } else if extra == d - 1 {
                            for (j, c) in next.iter_mut().enumerate() {
                                if j != i {
                                    *c += 1;
                                }
                            }
                            *outgoing.entry(index[&next]).or_insert(0.0) += p_choose;
                        } else {
                            // A uniformly random size-`extra` subset of the
                            // other runs receives one block each.
                            let others: Vec<usize> = (0..du).filter(|&j| j != i).collect();
                            let subsets = enumerate_subsets(&others, extra as usize);
                            let p_subset = p_choose / subsets.len() as f64;
                            for subset in subsets {
                                let mut filled = next.clone();
                                for j in subset {
                                    filled[j] += 1;
                                }
                                *outgoing.entry(index[&filled]).or_insert(0.0) += p_subset;
                            }
                        }
                    }
                }
            }
            if op_weight[si] > 0.0 {
                op_size[si] = weighted_size / op_weight[si];
            }
            transitions[si] = outgoing.into_iter().collect();
        }
        Chain {
            states,
            transitions,
            op_weight,
            op_size,
        }
    }

    /// Stationary distribution by power iteration.
    fn stationary(&self) -> Vec<f64> {
        let n = self.states.len();
        let mut pi = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        for _ in 0..20_000 {
            next.iter_mut().for_each(|v| *v = 0.0);
            for (s, mass) in pi.iter().enumerate() {
                for &(t, p) in &self.transitions[s] {
                    next[t] += mass * p;
                }
            }
            let delta: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut pi, &mut next);
            if delta < 1e-12 {
                break;
            }
        }
        pi
    }
}

fn enumerate_subsets(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    fn rec(
        items: &[usize],
        size: usize,
        start: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            rec(items, size, i + 1, current, out);
            current.pop();
        }
    }
    rec(items, size, 0, &mut current, &mut out);
    out
}

/// Average I/O parallelism (expected blocks per demand operation) of the
/// one-run-per-disk system in steady state.
///
/// # Panics
///
/// Panics if `d == 0`, `cache < d`, or the state space exceeds ~200k
/// states (keep `D ≤ 6` and `C ≲ 40`).
#[must_use]
pub fn average_parallelism(d: u32, cache: u32, policy: Policy) -> f64 {
    let chain = Chain::build(d, cache, policy);
    assert!(
        chain.states.len() <= 200_000,
        "state space too large: {} states",
        chain.states.len()
    );
    let pi = chain.stationary();
    let mut op_mass = 0.0;
    let mut size_mass = 0.0;
    for (s, &mass) in pi.iter().enumerate() {
        op_mass += mass * chain.op_weight[s];
        size_mass += mass * chain.op_weight[s] * chain.op_size[s];
    }
    if op_mass == 0.0 {
        0.0
    } else {
        size_mass / op_mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_cache_gives_no_parallelism() {
        // C = D: after the (full) initial state every op finds no spare
        // room — each op fetches exactly one block.
        for d in [2u32, 3, 4] {
            for policy in [Policy::AllOrNothing, Policy::Greedy] {
                let p = average_parallelism(d, d, policy);
                assert!((p - 1.0).abs() < 1e-9, "D={d} {policy:?}: {p}");
            }
        }
    }

    #[test]
    fn parallelism_saturates_below_d() {
        // The cache fills toward capacity, so in steady state some
        // operations always find it short of D free frames: parallelism
        // rises with C but saturates strictly below D (the same
        // qualitative ceiling as the paper's Figures 3.5/3.6, where the
        // success ratio needs a cache several times k·N to reach 1).
        // (Debug builds use the smaller configurations only.)
        let ds: &[u32] = if cfg!(debug_assertions) {
            &[2, 3]
        } else {
            &[2, 3, 4]
        };
        for &d in ds {
            let p8 = average_parallelism(d, d * 8, Policy::AllOrNothing);
            let p12 = average_parallelism(d, d * 12, Policy::AllOrNothing);
            assert!(p8 > 0.7 * f64::from(d), "D={d}: {p8}");
            assert!(p12 > p8, "D={d}: no growth {p12} <= {p8}");
            assert!(p12 < f64::from(d), "D={d}: exceeded D: {p12}");
        }
    }

    #[test]
    fn parallelism_is_monotone_in_cache() {
        let mut last = 0.0;
        for c in [3u32, 4, 6, 9, 15, 24] {
            let p = average_parallelism(3, c, Policy::AllOrNothing);
            assert!(p >= last - 1e-9, "C={c}: {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn companion_report_claim_all_or_nothing_beats_greedy() {
        // The claim the paper cites, in the operating region (C >= 4D):
        // all-or-nothing yields at least the parallelism of greedy. In
        // this *instantaneous-fetch* chain the edge is small (and for
        // D = 3 the policies coincide to <0.5%) — the large advantage the
        // full simulator measures (ablation A1) is temporal: greedy's
        // partial fetches occupy disks and delay the return to
        // all-disks-concurrent operation, which a chain without service
        // times cannot express.
        let ds: &[u32] = if cfg!(debug_assertions) {
            &[4]
        } else {
            &[4, 5]
        };
        for &d in ds {
            // Keep the state space (binomial(C, D) states) tractable.
            let multipliers: &[u32] = if cfg!(debug_assertions) {
                &[4, 6]
            } else if d == 4 {
                &[4, 6, 8]
            } else {
                &[4, 5, 6]
            };
            for &m in multipliers {
                let c = m * d;
                let aon = average_parallelism(d, c, Policy::AllOrNothing);
                let greedy = average_parallelism(d, c, Policy::Greedy);
                assert!(
                    aon >= greedy - 1e-9,
                    "D={d} C={c}: AoN {aon} < greedy {greedy}"
                );
            }
        }
        // D = 3: near-coincidence.
        let aon = average_parallelism(3, 12, Policy::AllOrNothing);
        let greedy = average_parallelism(3, 12, Policy::Greedy);
        assert!((aon - greedy).abs() / greedy < 0.005, "{aon} vs {greedy}");
    }

    #[test]
    fn greedy_wins_only_when_starved() {
        // The crossover the simulation ablation (A1) also finds: with the
        // cache barely above its minimum, refusing partial prefetches
        // degenerates to single-block fetching and greedy is better.
        for d in [3u32, 4, 5] {
            let aon = average_parallelism(d, d + 1, Policy::AllOrNothing);
            let greedy = average_parallelism(d, d + 1, Policy::Greedy);
            assert!(greedy > aon, "D={d}: greedy {greedy} <= AoN {aon}");
        }
    }

    #[test]
    fn single_disk_degenerates() {
        // One disk, one run: every second step is an op of one block.
        let p = average_parallelism(1, 4, Policy::AllOrNothing);
        assert!((p - 1.0).abs() < 1e-6, "p={p}");
    }

    #[test]
    fn parallelism_bounded_by_d() {
        for policy in [Policy::AllOrNothing, Policy::Greedy] {
            let p = average_parallelism(4, 17, policy);
            assert!(p <= 4.0 + 1e-9);
            assert!(p >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn state_enumeration_counts() {
        // D=2, C=4: states (c1,c2) with ci>=1, sum<=4:
        // (1,1),(1,2),(1,3),(2,1),(2,2),(3,1) = 6.
        let chain = Chain::build(2, 4, Policy::AllOrNothing);
        assert_eq!(chain.states.len(), 6);
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        let chain = Chain::build(3, 9, Policy::Greedy);
        let pi = chain.stationary();
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
        assert!(pi.iter().all(|&p| p >= -1e-12));
    }

    #[test]
    fn subset_enumeration() {
        let subsets = enumerate_subsets(&[1, 2, 3], 2);
        assert_eq!(subsets, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert_eq!(enumerate_subsets(&[5], 1), vec![vec![5]]);
    }
}
