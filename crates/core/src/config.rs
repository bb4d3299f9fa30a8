//! Simulation configuration.

use pm_cache::AdmissionPolicy;
use pm_disk::{DiskSpec, QueueDiscipline};
use pm_sim::SimDuration;

use crate::{PrefetchChoice, PrefetchStrategy, SyncMode, WriteSpec};

/// How run data is placed on the input disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataLayout {
    /// Each run stored contiguously on one disk, runs distributed
    /// round-robin — the paper's arrangement.
    #[default]
    Concatenated,
    /// Every run block-striped across all disks (the declustered
    /// arrangement of the paper's related work). Incompatible with
    /// inter-run prefetching, whose premise is that each run has a home
    /// disk.
    Striped,
}

impl DataLayout {
    /// Short label, as `pmerge --layout` spells it.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DataLayout::Concatenated => "concatenated",
            DataLayout::Striped => "striped",
        }
    }

    /// The layout whose [`label`](Self::label) is `label`, or `"concat"`
    /// for [`DataLayout::Concatenated`]; `None` for an unknown one.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "concat" => Some(DataLayout::Concatenated),
            _ => [DataLayout::Concatenated, DataLayout::Striped]
                .into_iter()
                .find(|l| l.label() == label),
        }
    }
}

/// A fully specified merge-phase simulation.
///
/// Use [`ScenarioBuilder`](crate::ScenarioBuilder) for the
/// configurations evaluated in the paper, then adjust fields as needed.
/// Pass the result to [`MergeSim::run`](crate::MergeSim::run) or
/// [`run_trials`](crate::run_trials).
///
/// # Examples
///
/// ```
/// use pm_core::{MergeSim, PrefetchStrategy, ScenarioBuilder};
///
/// // The paper's headline configuration: 25 runs over 5 disks with
/// // combined inter-run + intra-run prefetching of depth 10.
/// let mut cfg = ScenarioBuilder::new(25, 5)
///     .inter(10)
///     .cache_blocks(1200)
///     .seed(42)
///     .build()
///     .unwrap();
///
/// // Scale it down for a quick run.
/// cfg.runs = 5;
/// cfg.run_blocks = 50;
/// cfg.cache_blocks = 250;
/// let report = MergeSim::run_uniform(cfg).unwrap();
/// assert_eq!(report.blocks_merged, 250);
/// assert!(report.success_ratio.is_some());
/// # let _ = PrefetchStrategy::None;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeConfig {
    /// Number of sorted runs `k`.
    pub runs: u32,
    /// Blocks per run `B` (the paper uses 1000).
    pub run_blocks: u32,
    /// Number of input disks `D`.
    pub disks: u32,
    /// Placement of run data on the disks.
    pub layout: DataLayout,
    /// Prefetching strategy.
    pub strategy: PrefetchStrategy,
    /// Synchronized or unsynchronized operation.
    pub sync: SyncMode,
    /// Cache capacity `C` in blocks.
    pub cache_blocks: u32,
    /// CPU time to merge one block (zero models the paper's
    /// infinitely fast CPU).
    pub cpu_per_block: SimDuration,
    /// Cache admission policy for prefetch operations.
    pub admission: AdmissionPolicy,
    /// How inter-run prefetching picks the run to read on each non-demand
    /// disk.
    pub prefetch_choice: PrefetchChoice,
    /// Optional cap on a run's held blocks (resident + in-flight) above
    /// which it is no longer an inter-run prefetch target. `None`
    /// reproduces the paper. Prevents cache clogging when a disk holds few
    /// runs: with a single run per disk, every operation otherwise pours
    /// `N` more blocks onto the same run until the cache fills.
    pub per_run_cap: Option<u32>,
    /// Disk queue scheduling discipline.
    pub discipline: QueueDiscipline,
    /// Disk geometry and timing.
    pub disk_spec: DiskSpec,
    /// Optional output subsystem. `None` reproduces the paper (write
    /// traffic excluded, assumed to go to separate disks with ample
    /// bandwidth).
    pub write: Option<WriteSpec>,
    /// Master random seed (depletion choices, prefetch-run choices, and
    /// per-disk latency streams all derive from it).
    pub seed: u64,
}

/// Why a [`MergeConfig`] is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `runs`, `run_blocks`, or `disks` is zero.
    ZeroParameter(&'static str),
    /// The prefetch depth `N` is zero.
    ZeroDepth,
    /// The cache cannot hold the initial load of
    /// `runs × min(N, run_blocks)` blocks.
    CacheTooSmall {
        /// Configured capacity.
        have: u32,
        /// Minimum required capacity.
        need: u32,
    },
    /// Striped layout combined with inter-run prefetching (which requires
    /// each run to have a home disk).
    StripedInterRun,
    /// A disk cannot hold its share of runs.
    DiskTooSmall {
        /// Blocks required on the fullest disk.
        need: u64,
        /// Disk capacity in blocks.
        have: u64,
    },
    /// The block size is not a multiple of the alignment a direct-I/O
    /// backend requires (`O_DIRECT` needs logical-block-size multiples).
    BlockAlignment {
        /// Configured block size in bytes (`records_per_block × 16`).
        block_bytes: usize,
        /// Required alignment in bytes.
        required: usize,
    },
    /// More input or write disks than a disk id can name
    /// ([`MergeConfig::MAX_DISKS`]).
    TooManyDisks {
        /// `"disks"` or `"write disks"`.
        what: &'static str,
        /// Configured count.
        count: u32,
    },
    /// The merge was asked to combine more runs than the cache can fan
    /// in at once; a multi-pass plan is required.
    FanInExceeded {
        /// Runs the merge was asked to combine.
        runs: u32,
        /// Largest fan-in the cache supports.
        fan_in: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroParameter(what) => write!(f, "{what} must be positive"),
            ConfigError::ZeroDepth => write!(f, "prefetch depth N must be positive"),
            ConfigError::StripedInterRun => {
                write!(f, "inter-run prefetching requires the concatenated layout")
            }
            ConfigError::CacheTooSmall { have, need } => write!(
                f,
                "cache of {have} blocks cannot hold the initial load of {need} blocks"
            ),
            ConfigError::DiskTooSmall { need, have } => {
                write!(f, "fullest disk needs {need} blocks but holds only {have}")
            }
            ConfigError::BlockAlignment {
                block_bytes,
                required,
            } => write!(
                f,
                "block size of {block_bytes} bytes is not a multiple of the \
                 {required}-byte alignment direct I/O requires; choose \
                 records_per_block so that records_per_block x 16 is a \
                 multiple of {required} (e.g. --rpb 32 for 512 bytes)"
            ),
            ConfigError::TooManyDisks { what, count } => write!(
                f,
                "{count} {what} exceed the limit of {}",
                MergeConfig::MAX_DISKS
            ),
            ConfigError::FanInExceeded { runs, fan_in } => write!(
                f,
                "{runs} runs exceed the cache-supported fan-in of {fan_in}; \
                 use 'pmerge plan' to preview a multi-pass schedule and \
                 'pmerge exec --fan-in <F>' to run it"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl MergeConfig {
    /// Most input (and most write) disks a configuration may have: disk
    /// ids are 16-bit.
    pub const MAX_DISKS: u32 = u16::MAX as u32;

    /// Minimum cache capacity: the initial load places
    /// `min(N, run_blocks)` blocks of every run.
    #[must_use]
    pub fn min_cache_blocks(&self) -> u32 {
        self.runs * self.strategy.depth().min(self.run_blocks)
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.runs == 0 {
            return Err(ConfigError::ZeroParameter("runs"));
        }
        if self.run_blocks == 0 {
            return Err(ConfigError::ZeroParameter("run_blocks"));
        }
        if self.disks == 0 {
            return Err(ConfigError::ZeroParameter("disks"));
        }
        if self.disks > Self::MAX_DISKS {
            return Err(ConfigError::TooManyDisks {
                what: "disks",
                count: self.disks,
            });
        }
        if self.strategy.depth() == 0 {
            return Err(ConfigError::ZeroDepth);
        }
        if let PrefetchStrategy::InterRunAdaptive { n_min, n_max } = self.strategy {
            if n_min == 0 || n_max < n_min {
                return Err(ConfigError::ZeroDepth);
            }
        }
        let need = self.min_cache_blocks();
        if self.cache_blocks < need {
            return Err(ConfigError::CacheTooSmall {
                have: self.cache_blocks,
                need,
            });
        }
        if self.layout == DataLayout::Striped && self.strategy.is_inter_run() {
            return Err(ConfigError::StripedInterRun);
        }
        let have_blocks = self.disk_spec.geometry.capacity_blocks();
        let need_blocks = match self.layout {
            DataLayout::Concatenated => {
                let runs_on_fullest = self.runs.div_ceil(self.disks);
                u64::from(runs_on_fullest) * u64::from(self.run_blocks)
            }
            DataLayout::Striped => {
                u64::from(self.runs) * u64::from(self.run_blocks.div_ceil(self.disks))
            }
        };
        if need_blocks > have_blocks {
            return Err(ConfigError::DiskTooSmall {
                need: need_blocks,
                have: have_blocks,
            });
        }
        if let Some(write) = self.write {
            if write.disks == 0 {
                return Err(ConfigError::ZeroParameter("write disks"));
            }
            if write.disks > Self::MAX_DISKS {
                return Err(ConfigError::TooManyDisks {
                    what: "write disks",
                    count: write.disks,
                });
            }
            if write.buffer_blocks == 0 {
                return Err(ConfigError::ZeroParameter("write buffer"));
            }
            let per_disk = self.total_blocks().div_ceil(u64::from(write.disks));
            if per_disk > have_blocks {
                return Err(ConfigError::DiskTooSmall {
                    need: per_disk,
                    have: have_blocks,
                });
            }
        }
        Ok(())
    }

    /// Total number of blocks the merge consumes.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        u64::from(self.runs) * u64::from(self.run_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioBuilder;

    /// The paper's no-prefetching baseline over `d` disks.
    fn base(k: u32, d: u32) -> MergeConfig {
        ScenarioBuilder::new(k, d).build().unwrap()
    }

    /// The paper's intra-run configuration (cache `k·n` by default).
    fn intra(k: u32, d: u32, n: u32) -> MergeConfig {
        ScenarioBuilder::new(k, d).intra(n).build().unwrap()
    }

    #[test]
    fn builder_scenarios_validate() {
        assert!(base(25, 1).validate().is_ok());
        assert!(base(25, 5).validate().is_ok());
        assert!(intra(50, 10, 30).validate().is_ok());
        let c = ScenarioBuilder::new(25, 5)
            .inter(10)
            .cache_blocks(600)
            .build()
            .unwrap();
        assert!(c.validate().is_ok());
    }

    #[test]
    fn intra_cache_is_kn() {
        let c = intra(25, 5, 10);
        assert_eq!(c.cache_blocks, 250);
        assert_eq!(c.min_cache_blocks(), 250);
    }

    #[test]
    fn zero_parameters_rejected() {
        let mut c = base(25, 5);
        c.runs = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroParameter("runs")));

        let mut c = base(25, 5);
        c.disks = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroParameter("disks")));

        let mut c = base(25, 5);
        c.run_blocks = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroParameter("run_blocks")));

        let mut c = base(25, 5);
        c.strategy = PrefetchStrategy::IntraRun { n: 0 };
        assert_eq!(c.validate(), Err(ConfigError::ZeroDepth));
    }

    #[test]
    fn disk_counts_are_bounded_by_the_disk_id_width() {
        // Only `validate` runs here: a simulator or engine over this many
        // disks would build one disk (or worker) each.
        let mut c = base(25, 5);
        c.disks = 65_535;
        assert_eq!(c.validate(), Ok(()));
        c.disks = 65_536;
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyDisks {
                what: "disks",
                count: 65_536
            }
        );
        assert_eq!(err.to_string(), "65536 disks exceed the limit of 65535");

        let mut c = base(2, 1);
        c.run_blocks = 2;
        c.write = Some(WriteSpec {
            disks: 65_535,
            buffer_blocks: 1,
        });
        assert_eq!(c.validate(), Ok(()));
        c.write = Some(WriteSpec {
            disks: 65_536,
            buffer_blocks: 1,
        });
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyDisks {
                what: "write disks",
                count: 65_536
            })
        );
    }

    #[test]
    fn undersized_cache_rejected() {
        let mut c = intra(25, 5, 10);
        c.cache_blocks = 249;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::CacheTooSmall {
                have: 249,
                need: 250
            })
        ));
    }

    #[test]
    fn oversubscribed_disk_rejected() {
        // 60 x 1000-block runs exceed one paper disk's 53,760 blocks.
        let mut c = base(50, 1);
        c.runs = 60;
        c.cache_blocks = 60;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::DiskTooSmall { .. })
        ));
    }

    #[test]
    fn min_cache_clamps_to_run_length() {
        let mut c = intra(4, 2, 50);
        c.run_blocks = 20;
        assert_eq!(c.min_cache_blocks(), 4 * 20);
    }

    #[test]
    fn total_blocks() {
        assert_eq!(base(25, 5).total_blocks(), 25_000);
    }

    #[test]
    fn write_spec_is_validated() {
        let mut c = base(25, 5);
        c.write = Some(crate::WriteSpec {
            disks: 2,
            buffer_blocks: 32,
        });
        assert!(c.validate().is_ok());
        c.write = Some(crate::WriteSpec {
            disks: 0,
            buffer_blocks: 32,
        });
        assert_eq!(c.validate(), Err(ConfigError::ZeroParameter("write disks")));
        c.write = Some(crate::WriteSpec {
            disks: 2,
            buffer_blocks: 0,
        });
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroParameter("write buffer"))
        );
    }

    #[test]
    fn undersized_write_disks_rejected() {
        // 50 runs x 1000 blocks on one write disk: 50,000 > 53,760 fits;
        // bump runs so it does not.
        let mut c = base(50, 10);
        c.write = Some(crate::WriteSpec {
            disks: 1,
            buffer_blocks: 8,
        });
        assert!(c.validate().is_ok());
        c.runs = 54;
        c.cache_blocks = 54;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::DiskTooSmall { .. })
        ));
    }

    #[test]
    fn striped_layout_validates() {
        let mut c = intra(25, 5, 10);
        c.layout = DataLayout::Striped;
        assert!(c.validate().is_ok());
        // Striping lets even 100 runs fit on one "disk" worth of bands.
        c.runs = 100;
        c.cache_blocks = 1000;
        assert!(c.validate().is_ok());
        // But inter-run prefetching is incompatible.
        c.strategy = PrefetchStrategy::InterRun { n: 10 };
        assert_eq!(c.validate(), Err(ConfigError::StripedInterRun));
    }

    #[test]
    fn layout_labels_round_trip() {
        for l in [DataLayout::Concatenated, DataLayout::Striped] {
            assert_eq!(DataLayout::from_label(l.label()), Some(l));
        }
        assert_eq!(
            DataLayout::from_label("concat"),
            Some(DataLayout::Concatenated)
        );
        assert_eq!(DataLayout::from_label("bogus"), None);
    }

    #[test]
    fn errors_display() {
        let e = ConfigError::CacheTooSmall { have: 1, need: 2 };
        assert!(e.to_string().contains("initial load"));
        assert!(ConfigError::ZeroDepth.to_string().contains('N'));
        // The fan-in overflow message must point the user at the planner.
        let e = ConfigError::FanInExceeded {
            runs: 64,
            fan_in: 8,
        };
        assert!(e.to_string().contains("pmerge plan"), "{e}");
        assert!(e.to_string().contains("64"));
        // The alignment message must name the required alignment and the
        // knob that fixes it.
        let e = ConfigError::BlockAlignment {
            block_bytes: 640,
            required: 512,
        };
        assert!(e.to_string().contains("512"), "{e}");
        assert!(e.to_string().contains("records_per_block"), "{e}");
    }
}
