//! Prefetch admission policies.

use pm_sim::SimTime;
use pm_trace::{EventKind, TraceEvent, TraceSink};

use crate::{BlockCache, RunId};

/// One run's share of a prefetch operation: `blocks` frames wanted for
/// `run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchGroup {
    /// The run to prefetch from.
    pub run: RunId,
    /// Number of blocks wanted (already clamped to what remains on disk).
    pub blocks: u32,
}

/// What to do when a prefetch operation may not fit in the cache.
///
/// The paper adopts [`AdmissionPolicy::AllOrNothing`], citing the Markov
/// analysis in its companion report: greedily filling remaining space
/// delays the return to a state where all `D` disks can operate
/// concurrently, lowering average I/O parallelism. The greedy alternative
/// is kept for the A1 ablation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit the whole operation or none of it (the paper's policy).
    #[default]
    AllOrNothing,
    /// Admit as many blocks as fit, in group order, allowing a partial
    /// final group (the paper's rejected alternative; callers randomize
    /// group order).
    Greedy,
}

impl AdmissionPolicy {
    /// Short label, as `pmerge --admission` spells it.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::AllOrNothing => "all-or-nothing",
            AdmissionPolicy::Greedy => "greedy",
        }
    }

    /// The policy whose [`label`](Self::label) is `label`, or `"aon"` for
    /// [`AdmissionPolicy::AllOrNothing`]; `None` for an unknown one.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "aon" => Some(AdmissionPolicy::AllOrNothing),
            _ => [AdmissionPolicy::AllOrNothing, AdmissionPolicy::Greedy]
                .into_iter()
                .find(|p| p.label() == label),
        }
    }

    /// Attempts to admit `groups` into `cache` under this policy at `now`.
    ///
    /// Writes the groups actually reserved into `admitted` (with possibly
    /// reduced block counts under [`AdmissionPolicy::Greedy`]); an empty
    /// buffer means the prefetch was not admitted at all. `admitted` is
    /// cleared first, so a caller reuses one scratch buffer: once its
    /// capacity has grown to the maximum group count (≤ D) the call
    /// performs no heap allocation. Returns whether the *entire* request
    /// was admitted — the paper's success-ratio event.
    ///
    /// Emits one [`EventKind::CacheAdmit`] per group (partially) reserved
    /// and one [`EventKind::CacheReject`] per group (partially) turned
    /// away into `sink`.
    pub fn admit_into<S: TraceSink>(
        self,
        cache: &mut BlockCache,
        groups: &[PrefetchGroup],
        admitted: &mut Vec<PrefetchGroup>,
        now: SimTime,
        sink: &mut S,
    ) -> bool {
        admitted.clear();
        let wanted: u32 = groups.iter().map(|g| g.blocks).sum();
        if wanted == 0 {
            return true;
        }
        let full = match self {
            AdmissionPolicy::AllOrNothing => {
                if cache.try_reserve_groups(groups) {
                    admitted.extend(groups.iter().filter(|g| g.blocks > 0));
                    true
                } else {
                    false
                }
            }
            AdmissionPolicy::Greedy => {
                let mut remaining = cache.free();
                for g in groups {
                    if remaining == 0 {
                        break;
                    }
                    let take = g.blocks.min(remaining);
                    if take == 0 {
                        continue;
                    }
                    cache.reserve(g.run, take);
                    remaining -= take;
                    admitted.push(PrefetchGroup {
                        run: g.run,
                        blocks: take,
                    });
                }
                let got: u32 = admitted.iter().map(|g| g.blocks).sum();
                got == wanted
            }
        };
        if S::ENABLED {
            // `admitted` is an in-order subsequence of the non-empty
            // `groups` with possibly reduced counts (equal to them when
            // `full`); walk the two together to report the per-group
            // outcome.
            let mut j = 0;
            for g in groups {
                if g.blocks == 0 {
                    continue;
                }
                let got = match admitted.get(j) {
                    Some(a) if a.run == g.run => {
                        j += 1;
                        a.blocks
                    }
                    _ => 0,
                };
                if got > 0 {
                    sink.emit(TraceEvent {
                        at: now,
                        kind: EventKind::CacheAdmit {
                            run: g.run.0,
                            blocks: got,
                        },
                    });
                }
                if got < g.blocks {
                    sink.emit(TraceEvent {
                        at: now,
                        kind: EventKind::CacheReject {
                            run: g.run.0,
                            blocks: g.blocks - got,
                        },
                    });
                }
            }
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_trace::NullSink;

    #[test]
    fn labels_round_trip() {
        for p in [AdmissionPolicy::AllOrNothing, AdmissionPolicy::Greedy] {
            assert_eq!(AdmissionPolicy::from_label(p.label()), Some(p));
        }
        assert_eq!(
            AdmissionPolicy::from_label("aon"),
            Some(AdmissionPolicy::AllOrNothing)
        );
        assert_eq!(AdmissionPolicy::from_label("bogus"), None);
    }

    /// `policy.admit_into` into a fresh buffer, untraced.
    fn admit(
        policy: AdmissionPolicy,
        cache: &mut BlockCache,
        groups: &[PrefetchGroup],
    ) -> (Vec<PrefetchGroup>, bool) {
        let mut admitted = Vec::new();
        let full = policy.admit_into(cache, groups, &mut admitted, SimTime::ZERO, &mut NullSink);
        (admitted, full)
    }

    fn groups(spec: &[(u32, u32)]) -> Vec<PrefetchGroup> {
        spec.iter()
            .map(|&(r, b)| PrefetchGroup {
                run: RunId(r),
                blocks: b,
            })
            .collect()
    }

    #[test]
    fn all_or_nothing_admits_when_fits() {
        let mut cache = BlockCache::new(10, 3);
        let g = groups(&[(0, 3), (1, 3), (2, 3)]);
        let (admitted, full) = admit(AdmissionPolicy::AllOrNothing, &mut cache, &g);
        assert!(full);
        assert_eq!(admitted.len(), 3);
        assert_eq!(cache.free(), 1);
    }

    #[test]
    fn all_or_nothing_rejects_whole_request() {
        let mut cache = BlockCache::new(8, 3);
        let g = groups(&[(0, 3), (1, 3), (2, 3)]);
        let (admitted, full) = admit(AdmissionPolicy::AllOrNothing, &mut cache, &g);
        assert!(!full);
        assert!(admitted.is_empty());
        assert_eq!(cache.free(), 8, "rejection must not consume space");
    }

    #[test]
    fn greedy_takes_what_fits_including_partial_group() {
        let mut cache = BlockCache::new(5, 3);
        let g = groups(&[(0, 3), (1, 3), (2, 3)]);
        let (admitted, full) = admit(AdmissionPolicy::Greedy, &mut cache, &g);
        assert!(!full);
        assert_eq!(
            admitted,
            groups(&[(0, 3), (1, 2)]),
            "second group is partial"
        );
        assert_eq!(cache.free(), 0);
    }

    #[test]
    fn greedy_full_admission_reports_success() {
        let mut cache = BlockCache::new(10, 2);
        let g = groups(&[(0, 4), (1, 4)]);
        let (admitted, full) = admit(AdmissionPolicy::Greedy, &mut cache, &g);
        assert!(full);
        assert_eq!(admitted, g);
    }

    #[test]
    fn empty_request_is_trivially_full() {
        let mut cache = BlockCache::new(1, 1);
        for policy in [AdmissionPolicy::AllOrNothing, AdmissionPolicy::Greedy] {
            let (admitted, full) = admit(policy, &mut cache, &groups(&[(0, 0)]));
            assert!(full);
            assert!(admitted.is_empty());
            assert_eq!(cache.free(), 1);
        }
    }

    #[test]
    fn greedy_skips_zero_groups() {
        let mut cache = BlockCache::new(4, 3);
        let g = groups(&[(0, 0), (1, 2), (2, 0)]);
        let (admitted, full) = admit(AdmissionPolicy::Greedy, &mut cache, &g);
        assert!(full);
        assert_eq!(admitted, groups(&[(1, 2)]));
    }
}
