//! **Figure 3.6**: the success ratio (probability that an inter-run
//! prefetch could be fully admitted to the cache) vs. cache size, for the
//! same configurations as Figure 3.5. `--panel 1|2|3` runs one panel.

use super::fig5_time_vs_cache::cache_figure;
use crate::Harness;

pub(super) fn run(h: &Harness) -> Result<(), String> {
    cache_figure(h, 6, "Success ratio", "success ratio", |s| s.mean_success_ratio.unwrap_or(0.0))
}
