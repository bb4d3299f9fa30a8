//! [`ScenarioBuilder`] — the one way to construct a merge scenario.
//!
//! The workspace once grew several ad-hoc `MergeConfig` constructors
//! and a scattering of hand-rolled struct literals, each re-deriving
//! the paper's defaults (1000-block runs, unsynchronized operation,
//! FIFO queues, the paper's disk) and its depth-aware cache sizing
//! (`k·N` frames, quadrupled for inter-run prefetch so prefetch targets
//! have room beyond the initial load). The builder centralizes those
//! defaults: start from [`ScenarioBuilder::new`], override what the
//! scenario varies, and [`ScenarioBuilder::build`] fills in the
//! cache default and validates.
//!
//! ```
//! use pm_core::{PrefetchStrategy, ScenarioBuilder};
//!
//! let cfg = ScenarioBuilder::new(25, 5).inter(10).build().unwrap();
//! assert_eq!(cfg.strategy, PrefetchStrategy::InterRun { n: 10 });
//! assert_eq!(cfg.cache_blocks, 4 * 25 * 10); // depth-aware default
//! ```

use pm_cache::AdmissionPolicy;
use pm_disk::{DiskSpec, QueueDiscipline};
use pm_sim::SimDuration;

use crate::config::{DataLayout, MergeConfig};
use crate::error::PmError;
use crate::prefetch::PrefetchChoice;
use crate::strategy::{PrefetchStrategy, SyncMode};
use crate::write::WriteSpec;

/// Fluent constructor for [`MergeConfig`].
///
/// Unset fields take the paper's defaults; an unset cache capacity takes
/// the depth-aware default of [`ScenarioBuilder::default_cache_blocks`].
#[derive(Debug, Clone, Copy)]
pub struct ScenarioBuilder {
    cfg: MergeConfig,
    cache: Option<u32>,
}

impl ScenarioBuilder {
    /// Starts a scenario with `runs` sorted runs over `disks` input
    /// disks and the paper's defaults everywhere else: 1000-block runs,
    /// no prefetching, unsynchronized operation, zero-cost CPU,
    /// all-or-nothing admission, random prefetch choice, FIFO queues,
    /// concatenated placement on the paper's disk, seed 0.
    #[must_use]
    pub fn new(runs: u32, disks: u32) -> Self {
        ScenarioBuilder {
            cfg: MergeConfig {
                runs,
                run_blocks: 1000,
                disks,
                layout: DataLayout::Concatenated,
                strategy: PrefetchStrategy::None,
                sync: SyncMode::Unsynchronized,
                cache_blocks: 0,
                cpu_per_block: SimDuration::ZERO,
                admission: AdmissionPolicy::AllOrNothing,
                prefetch_choice: PrefetchChoice::Random,
                per_run_cap: None,
                discipline: QueueDiscipline::Fifo,
                disk_spec: DiskSpec::paper(),
                write: None,
                seed: 0,
            },
            cache: None,
        }
    }

    /// The depth-aware cache default: `runs · depth` frames — exactly
    /// the initial load — quadrupled for inter-run strategies so
    /// prefetch operations have free frames to win.
    #[must_use]
    pub fn default_cache_blocks(runs: u32, strategy: PrefetchStrategy) -> u32 {
        let base = runs * strategy.depth();
        if strategy.is_inter_run() {
            base * 4
        } else {
            base
        }
    }

    /// The largest merge fan-in a cache of `cache_blocks` frames can
    /// execute at all with `strategy`: the initial load pins `depth`
    /// frames per input run, so any more runs than `cache / depth`
    /// cannot even start.
    #[must_use]
    pub fn max_feasible_fan_in(cache_blocks: u32, strategy: PrefetchStrategy) -> u32 {
        cache_blocks / strategy.depth().max(1)
    }

    /// The largest fan-in a cache supports *comfortably* — the inverse
    /// of [`ScenarioBuilder::default_cache_blocks`]: inter-run
    /// strategies budget `4·depth` frames per run so prefetch
    /// operations have free frames to win, other strategies `depth`.
    /// Multi-pass planning bounds group sizes by this, not by the bare
    /// feasible maximum.
    #[must_use]
    pub fn planned_fan_in(cache_blocks: u32, strategy: PrefetchStrategy) -> u32 {
        let mult = if strategy.is_inter_run() { 4 } else { 1 };
        cache_blocks / (strategy.depth().max(1) * mult)
    }

    /// Derives the scenario one merge group of a multi-pass plan
    /// executes: `base`'s disks, admission, choice, discipline and disk
    /// model, but with the group's run count, a prefetch depth
    /// re-derived from the shared cache budget (a smaller fan-in buys a
    /// deeper prefetch), an anti-clogging per-run cap for inter-run
    /// strategies, and a seed mixed from `(pass, group)` so every group
    /// draws an independent deterministic stream regardless of backend
    /// or job count.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Config`] if the derived configuration is
    /// inconsistent (e.g. the group still does not fit the cache).
    pub fn pass_scenario(
        base: &MergeConfig,
        group_runs: u32,
        pass: u32,
        group: u32,
    ) -> Result<MergeConfig, PmError> {
        let mut cfg = *base;
        cfg.runs = group_runs;
        cfg.disks = base.disks.min(group_runs.max(1));
        let mult = if base.strategy.is_inter_run() { 4 } else { 1 };
        let depth = (base.cache_blocks / (mult * group_runs.max(1))).max(1);
        cfg.strategy = match base.strategy {
            PrefetchStrategy::None => PrefetchStrategy::None,
            PrefetchStrategy::IntraRun { .. } => PrefetchStrategy::IntraRun { n: depth },
            PrefetchStrategy::InterRun { .. } => PrefetchStrategy::InterRun { n: depth },
            PrefetchStrategy::InterRunAdaptive { n_min, .. } => {
                PrefetchStrategy::InterRunAdaptive {
                    n_min: n_min.min(depth),
                    n_max: depth.max(n_min),
                }
            }
        };
        if base.strategy.is_inter_run() && base.per_run_cap.is_none() {
            cfg.per_run_cap = Some((base.cache_blocks / group_runs.max(1)).max(2 * depth));
        }
        cfg.seed = Self::pass_seed(base.seed, pass, group);
        cfg.validate()?;
        Ok(cfg)
    }

    /// The per-(pass, group) seed every multi-pass component derives —
    /// a splitmix64-style mix so sibling groups never share streams.
    #[must_use]
    pub fn pass_seed(master: u64, pass: u32, group: u32) -> u64 {
        let mut z = master.wrapping_add(
            0x9E37_79B9_7F4A_7C15_u64
                .wrapping_mul(1 + u64::from(pass) * 0x0001_0000 + u64::from(group)),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Sets the number of blocks in every run.
    #[must_use]
    pub fn run_blocks(mut self, blocks: u32) -> Self {
        self.cfg.run_blocks = blocks;
        self
    }

    /// Sets the prefetch strategy directly.
    #[must_use]
    pub fn strategy(mut self, strategy: PrefetchStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Intra-run prefetching with depth `n`.
    #[must_use]
    pub fn intra(self, n: u32) -> Self {
        self.strategy(PrefetchStrategy::IntraRun { n })
    }

    /// Inter-run prefetching with depth `n`.
    #[must_use]
    pub fn inter(self, n: u32) -> Self {
        self.strategy(PrefetchStrategy::InterRun { n })
    }

    /// Adaptive inter-run prefetching with AIMD depth in
    /// `[n_min, n_max]`.
    #[must_use]
    pub fn adaptive(self, n_min: u32, n_max: u32) -> Self {
        self.strategy(PrefetchStrategy::InterRunAdaptive { n_min, n_max })
    }

    /// Sets the synchronization mode.
    #[must_use]
    pub fn sync_mode(mut self, sync: SyncMode) -> Self {
        self.cfg.sync = sync;
        self
    }

    /// Synchronized operation (the default is unsynchronized).
    #[must_use]
    pub fn synchronized(self) -> Self {
        self.sync_mode(SyncMode::Synchronized)
    }

    /// Sets the cache capacity in blocks, overriding the depth-aware
    /// default.
    #[must_use]
    pub fn cache_blocks(mut self, blocks: u32) -> Self {
        self.cache = Some(blocks);
        self
    }

    /// Sets the CPU time to merge one block (zero = infinitely fast).
    #[must_use]
    pub fn cpu_per_block(mut self, cost: SimDuration) -> Self {
        self.cfg.cpu_per_block = cost;
        self
    }

    /// Sets the prefetch admission policy.
    #[must_use]
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.cfg.admission = policy;
        self
    }

    /// Sets how inter-run prefetch targets are chosen per disk.
    #[must_use]
    pub fn prefetch_choice(mut self, choice: PrefetchChoice) -> Self {
        self.cfg.prefetch_choice = choice;
        self
    }

    /// Caps the held blocks of a run for it to remain a prefetch target
    /// (`None` = uncapped).
    #[must_use]
    pub fn per_run_cap(mut self, cap: Option<u32>) -> Self {
        self.cfg.per_run_cap = cap;
        self
    }

    /// Sets the per-disk queue discipline.
    #[must_use]
    pub fn discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.cfg.discipline = discipline;
        self
    }

    /// Sets the disk model.
    #[must_use]
    pub fn disk_spec(mut self, spec: DiskSpec) -> Self {
        self.cfg.disk_spec = spec;
        self
    }

    /// Sets the data layout (concatenated or striped).
    #[must_use]
    pub fn layout(mut self, layout: DataLayout) -> Self {
        self.cfg.layout = layout;
        self
    }

    /// Models output traffic on dedicated write disks.
    #[must_use]
    pub fn write(mut self, spec: Option<WriteSpec>) -> Self {
        self.cfg.write = spec;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Finalizes the scenario: applies the depth-aware cache default if
    /// no capacity was set, then validates.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Config`] if the resulting configuration is
    /// inconsistent.
    pub fn build(self) -> Result<MergeConfig, PmError> {
        let mut cfg = self.cfg;
        cfg.cache_blocks = self
            .cache
            .unwrap_or_else(|| Self::default_cache_blocks(cfg.runs, cfg.strategy));
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_default_cache_is_quadrupled() {
        let cfg = ScenarioBuilder::new(25, 5).inter(10).build().unwrap();
        assert_eq!(cfg.cache_blocks, 4 * 25 * 10);
        let cfg = ScenarioBuilder::new(25, 5).adaptive(2, 16).build().unwrap();
        assert_eq!(cfg.cache_blocks, 4 * 25 * 2);
        let cfg = ScenarioBuilder::new(25, 5).intra(10).build().unwrap();
        assert_eq!(cfg.cache_blocks, 25 * 10);
        let cfg = ScenarioBuilder::new(25, 5).build().unwrap();
        assert_eq!(cfg.cache_blocks, 25);
    }

    #[test]
    fn build_validates() {
        let err = ScenarioBuilder::new(0, 5).build().unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(ScenarioBuilder::new(25, 5)
            .inter(10)
            .layout(DataLayout::Striped)
            .build()
            .is_err());
    }

    #[test]
    fn planned_fan_in_inverts_default_cache() {
        for strategy in [
            PrefetchStrategy::None,
            PrefetchStrategy::IntraRun { n: 4 },
            PrefetchStrategy::InterRun { n: 4 },
            PrefetchStrategy::InterRunAdaptive { n_min: 2, n_max: 8 },
        ] {
            for k in [2, 8, 25] {
                let cache = ScenarioBuilder::default_cache_blocks(k, strategy);
                assert_eq!(ScenarioBuilder::planned_fan_in(cache, strategy), k);
                assert!(ScenarioBuilder::max_feasible_fan_in(cache, strategy) >= k);
            }
        }
    }

    #[test]
    fn pass_scenario_deepens_prefetch_for_small_groups() {
        let base = ScenarioBuilder::new(8, 4).inter(4).build().unwrap();
        assert_eq!(base.cache_blocks, 128);
        // A 4-run group gets the whole budget: depth 128/(4*4) = 8.
        let cfg = ScenarioBuilder::pass_scenario(&base, 4, 0, 0).unwrap();
        assert_eq!(cfg.runs, 4);
        assert_eq!(cfg.strategy, PrefetchStrategy::InterRun { n: 8 });
        assert_eq!(cfg.cache_blocks, base.cache_blocks);
        assert_eq!(cfg.per_run_cap, Some(32));
        // Full-width groups reproduce the base depth.
        let cfg = ScenarioBuilder::pass_scenario(&base, 8, 1, 0).unwrap();
        assert_eq!(cfg.strategy, PrefetchStrategy::InterRun { n: 4 });
    }

    #[test]
    fn pass_scenario_seeds_are_distinct_per_group() {
        let base = ScenarioBuilder::new(8, 2).inter(2).build().unwrap();
        let mut seeds: Vec<u64> = Vec::new();
        for pass in 0..3 {
            for group in 0..3 {
                seeds.push(
                    ScenarioBuilder::pass_scenario(&base, 2, pass, group)
                        .unwrap()
                        .seed,
                );
            }
        }
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "seed collision: {seeds:?}");
        // And the derivation is deterministic.
        assert_eq!(
            ScenarioBuilder::pass_seed(base.seed, 1, 2),
            ScenarioBuilder::pass_seed(base.seed, 1, 2)
        );
    }

    #[test]
    fn pass_scenario_respects_cache_budget() {
        // Derived configs always validate against the shared cache.
        for strategy in [
            PrefetchStrategy::IntraRun { n: 3 },
            PrefetchStrategy::InterRun { n: 3 },
        ] {
            let base = ScenarioBuilder::new(6, 3)
                .strategy(strategy)
                .build()
                .unwrap();
            for kg in 1..=6 {
                let cfg = ScenarioBuilder::pass_scenario(&base, kg, 0, 0).unwrap();
                assert!(cfg.min_cache_blocks() <= cfg.cache_blocks);
            }
        }
    }

    #[test]
    fn setters_apply() {
        let cfg = ScenarioBuilder::new(8, 4)
            .run_blocks(200)
            .inter(6)
            .synchronized()
            .cpu_per_block(SimDuration::from_nanos(1_000_000))
            .admission(AdmissionPolicy::Greedy)
            .prefetch_choice(PrefetchChoice::LeastHeld)
            .per_run_cap(Some(12))
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(cfg.run_blocks, 200);
        assert_eq!(cfg.sync, SyncMode::Synchronized);
        assert_eq!(cfg.admission, AdmissionPolicy::Greedy);
        assert_eq!(cfg.prefetch_choice, PrefetchChoice::LeastHeld);
        assert_eq!(cfg.per_run_cap, Some(12));
        assert_eq!(cfg.seed, 7);
    }
}
