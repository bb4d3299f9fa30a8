//! Inter-run prefetch target selection.
//!
//! When an inter-run operation fetches from each non-demand disk, *which*
//! run on that disk should it read? The paper chooses uniformly at random,
//! reporting that the head-position-based heuristics studied in its
//! companion report offered too little benefit to justify their
//! bookkeeping. This module implements that choice plus two informed
//! policies so the claim can be re-examined (`ablation_prefetch` in
//! `pm-bench`):
//!
//! * [`PrefetchChoice::Random`] — the paper's policy.
//! * [`PrefetchChoice::LeastHeld`] — the run on the disk holding the
//!   fewest cached + in-flight blocks, i.e. the one closest to causing a
//!   demand stall (an urgency heuristic).
//! * [`PrefetchChoice::HeadProximity`] — the run whose next block is
//!   closest to the disk head's current cylinder (the seek-minimizing
//!   heuristic the paper alludes to).

use pm_cache::RunId;

/// How the inter-run strategy picks the run to prefetch on a non-demand
/// disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchChoice {
    /// Uniformly random among the disk's fetchable runs (the paper).
    #[default]
    Random,
    /// The fetchable run with the fewest held (resident + in-flight)
    /// blocks; ties broken by lower run id.
    LeastHeld,
    /// The fetchable run whose next unfetched block lies closest to the
    /// disk's current head cylinder; ties broken by lower run id.
    HeadProximity,
}

impl PrefetchChoice {
    /// Short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PrefetchChoice::Random => "random",
            PrefetchChoice::LeastHeld => "least-held",
            PrefetchChoice::HeadProximity => "head-proximity",
        }
    }

    /// The choice whose [`label`](Self::label) is `label`; `None` for an
    /// unknown one.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        [
            PrefetchChoice::Random,
            PrefetchChoice::LeastHeld,
            PrefetchChoice::HeadProximity,
        ]
        .into_iter()
        .find(|c| c.label() == label)
    }

    /// The selection rule of the informed policies: the candidate with
    /// the minimum `score` (held count for [`Self::LeastHeld`], cylinder
    /// distance for [`Self::HeadProximity`]), ties broken by lower run
    /// id. [`Self::Random`] draws from the decision RNG instead (see
    /// [`crate::DecisionCore`]).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn pick_min(candidates: &[RunId], mut score: impl FnMut(RunId) -> u64) -> RunId {
        let mut best = candidates[0];
        let mut best_score = score(best);
        for &c in &candidates[1..] {
            let s = score(c);
            if s < best_score || (s == best_score && c < best) {
                best = c;
                best_score = s;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(ids: &[u32]) -> Vec<RunId> {
        ids.iter().map(|&i| RunId(i)).collect()
    }

    #[test]
    fn pick_min_minimizes_score() {
        let candidates = runs(&[1, 2, 3]);
        let pick = PrefetchChoice::pick_min(&candidates, |r| {
            u64::from(10 - r.0) // run 3 has the lowest score
        });
        assert_eq!(pick, RunId(3));
    }

    #[test]
    fn pick_min_breaks_ties_to_lower_run_id() {
        let candidates = runs(&[5, 2, 8]);
        let pick = PrefetchChoice::pick_min(&candidates, |_| 4);
        assert_eq!(pick, RunId(2));
    }

    #[test]
    fn pick_min_of_one_candidate_is_that_candidate() {
        let candidates = runs(&[7]);
        assert_eq!(PrefetchChoice::pick_min(&candidates, |_| 9), RunId(7));
    }

    #[test]
    fn labels() {
        assert_eq!(PrefetchChoice::Random.label(), "random");
        assert_eq!(PrefetchChoice::LeastHeld.label(), "least-held");
        assert_eq!(PrefetchChoice::HeadProximity.label(), "head-proximity");
        for c in [
            PrefetchChoice::Random,
            PrefetchChoice::LeastHeld,
            PrefetchChoice::HeadProximity,
        ] {
            assert_eq!(PrefetchChoice::from_label(c.label()), Some(c));
        }
        assert_eq!(PrefetchChoice::from_label("bogus"), None);
    }

    #[test]
    fn default_is_the_papers_policy() {
        assert_eq!(PrefetchChoice::default(), PrefetchChoice::Random);
    }
}
