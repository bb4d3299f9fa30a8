//! Prefetching strategies and synchronization modes.

/// Which prefetching strategy the simulated merge uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchStrategy {
    /// Demand-fetch one block at a time (Kwan–Baer baseline).
    None,
    /// "Demand Run Only": fetch `n` contiguous blocks from the demand run
    /// on every demand fetch.
    IntraRun {
        /// Blocks fetched per operation (`N ≥ 1`).
        n: u32,
    },
    /// "All Disks One Run": fetch `n` blocks from the demand run **and**
    /// `n` blocks of one randomly chosen run from each other disk, subject
    /// to cache admission. `n = 1` gives pure inter-run prefetching; the
    /// paper's combined strategy uses `n > 1`.
    InterRun {
        /// Blocks fetched per run per operation (`N ≥ 1`).
        n: u32,
    },
    /// Inter-run prefetching with an **adaptive** depth (extension): the
    /// per-operation depth starts at `n_min` and moves by
    /// additive-increase / multiplicative-decrease on admission outcomes —
    /// a full admission raises it by one (up to `n_max`), a rejection
    /// halves it (down to `n_min`). Finds the paper's "optimal `N` for a
    /// given cache size" online instead of requiring it up front.
    InterRunAdaptive {
        /// Depth floor (also the initial-load batch; `≥ 1`).
        n_min: u32,
        /// Depth ceiling (`≥ n_min`).
        n_max: u32,
    },
}

impl PrefetchStrategy {
    /// The initial-load batch size per run: the fixed depth `N` (1 for
    /// [`PrefetchStrategy::None`], `n_min` for the adaptive variant).
    #[must_use]
    pub fn depth(&self) -> u32 {
        match *self {
            PrefetchStrategy::None => 1,
            PrefetchStrategy::IntraRun { n } | PrefetchStrategy::InterRun { n } => n,
            PrefetchStrategy::InterRunAdaptive { n_min, .. } => n_min,
        }
    }

    /// Whether the strategy prefetches from disks other than the demand
    /// run's.
    #[must_use]
    pub fn is_inter_run(&self) -> bool {
        matches!(
            self,
            PrefetchStrategy::InterRun { .. } | PrefetchStrategy::InterRunAdaptive { .. }
        )
    }

    /// The AIMD depth bounds `(n_min, n_max)` of the adaptive variant,
    /// `None` for the fixed strategies. Precomputable once per run so the
    /// post-admission hot path doesn't re-match the strategy per operation.
    #[must_use]
    pub fn adaptive_bounds(&self) -> Option<(u32, u32)> {
        match *self {
            PrefetchStrategy::InterRunAdaptive { n_min, n_max } => Some((n_min, n_max)),
            _ => None,
        }
    }

    /// Short label used in reports ("none", "intra", "inter",
    /// "inter-adaptive").
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PrefetchStrategy::InterRunAdaptive { .. } => "inter-adaptive",
            _ => self.name(),
        }
    }

    /// The strategy's kind as scenarios spell it: the `pmerge --strategy`
    /// values, tenant files and manifests ("none", "intra", "inter",
    /// "adaptive").
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PrefetchStrategy::None => "none",
            PrefetchStrategy::IntraRun { .. } => "intra",
            PrefetchStrategy::InterRun { .. } => "inter",
            PrefetchStrategy::InterRunAdaptive { .. } => "adaptive",
        }
    }

    /// The strategy of kind `name` (see [`PrefetchStrategy::name`]) at
    /// depth `n`; the adaptive kind takes `n` as its ceiling over a floor
    /// of 1. `None` for an unknown name.
    #[must_use]
    pub fn from_name(name: &str, n: u32) -> Option<Self> {
        [
            PrefetchStrategy::None,
            PrefetchStrategy::IntraRun { n },
            PrefetchStrategy::InterRun { n },
            PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: n },
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }
}

/// Whether the CPU waits for whole operations or only for demand blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// The CPU blocks until every block of the issued operation has been
    /// read (no overlap between CPU and the tail of the transfer, and no
    /// overlap between operations at different disks).
    Synchronized,
    /// The CPU resumes as soon as the demand block arrives; remaining
    /// transfers overlap with merging and with operations at other disks.
    #[default]
    Unsynchronized,
}

impl SyncMode {
    /// Short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SyncMode::Synchronized => "sync",
            SyncMode::Unsynchronized => "unsync",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_defaults() {
        assert_eq!(PrefetchStrategy::None.depth(), 1);
        assert_eq!(PrefetchStrategy::IntraRun { n: 7 }.depth(), 7);
        assert_eq!(PrefetchStrategy::InterRun { n: 3 }.depth(), 3);
        assert_eq!(
            PrefetchStrategy::InterRunAdaptive {
                n_min: 2,
                n_max: 16
            }
            .depth(),
            2
        );
    }

    #[test]
    fn inter_run_detection() {
        assert!(!PrefetchStrategy::None.is_inter_run());
        assert!(!PrefetchStrategy::IntraRun { n: 2 }.is_inter_run());
        assert!(PrefetchStrategy::InterRun { n: 2 }.is_inter_run());
        assert!(PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 8 }.is_inter_run());
    }

    #[test]
    fn labels() {
        assert_eq!(PrefetchStrategy::None.label(), "none");
        assert_eq!(PrefetchStrategy::IntraRun { n: 1 }.label(), "intra");
        assert_eq!(PrefetchStrategy::InterRun { n: 1 }.label(), "inter");
        assert_eq!(
            PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 4 }.label(),
            "inter-adaptive"
        );
        assert_eq!(SyncMode::Synchronized.label(), "sync");
        assert_eq!(SyncMode::Unsynchronized.label(), "unsync");
    }

    #[test]
    fn names_round_trip() {
        for s in [
            PrefetchStrategy::None,
            PrefetchStrategy::IntraRun { n: 7 },
            PrefetchStrategy::InterRun { n: 7 },
            PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 7 },
        ] {
            assert_eq!(PrefetchStrategy::from_name(s.name(), 7), Some(s));
        }
        assert_eq!(
            PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 4 }.name(),
            "adaptive"
        );
        assert_eq!(PrefetchStrategy::from_name("inter-adaptive", 7), None);
        assert_eq!(PrefetchStrategy::from_name("bogus", 7), None);
    }

    #[test]
    fn default_sync_mode_is_unsynchronized() {
        assert_eq!(SyncMode::default(), SyncMode::Unsynchronized);
    }
}
