//! **Extension E12**: block-size sensitivity.
//!
//! The paper fixes the transfer unit at 4 KiB; its baseline reference
//! (Kwan & Baer) treated block size as a first-class variable. This
//! experiment re-opens the knob on the same physical drive
//! ([`DiskSpec::paper_with_block_bytes`] preserves cylinder capacity,
//! rotation, seek, and the sustained transfer rate): the data volume
//! (100 MB in 25 runs) and the cache *bytes* (4.9 MB) stay fixed while
//! the block size sweeps 512 B – 16 KiB.
//!
//! Bigger blocks amortize each operation's mechanical delay over more
//! bytes, but out of a fixed-size cache they leave fewer slots, so the
//! inter-run success ratio falls — block size has an optimum for a given
//! cache, which 4 KiB sits near for the paper's configuration.

use pm_core::{DiskSpec, PrefetchStrategy, ScenarioBuilder};

use crate::{Harness, Output};

const RUN_BYTES: u64 = 4096 * 1000; // the paper's run: 4,096,000 bytes
const CACHE_BYTES: u64 = 4096 * 1200; // the fig-3.5(a) asymptote cache
const OP_BYTES: u64 = 4096 * 10; // inter-run op depth: N·bs = 40 KiB

pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let k = 25u32;
    let d = 5u32;
    let title = format!(
        "E12: block-size sensitivity — 25 runs x 4 MB, 5 disks, 4.9 MB cache (trials={})",
        h.trials
    );
    let mut out = Output::new(
        "ext_blocksize",
        title,
        0,
        &[
            "block bytes",
            "blocks/run",
            "N",
            "cache blocks",
            "no-prefetch (s)",
            "inter-run (s)",
            "success ratio",
        ],
    );

    for bs in [512u32, 1024, 2048, 4096, 8192, 16384] {
        let spec = DiskSpec::paper_with_block_bytes(bs);
        let run_blocks = (RUN_BYTES / u64::from(bs)) as u32;
        let cache_blocks = (CACHE_BYTES / u64::from(bs)) as u32;
        let n = ((OP_BYTES / u64::from(bs)) as u32).max(1);

        let mut base = ScenarioBuilder::new(k, d).build().unwrap();
        base.disk_spec = spec;
        base.run_blocks = run_blocks;
        base.seed = h.seed ^ u64::from(bs);

        let baseline = h.run_trials(&base)?.mean_total_secs;

        let mut inter = base;
        inter.strategy = PrefetchStrategy::InterRun { n };
        inter.cache_blocks = cache_blocks;
        let summary = h.run_trials(&inter)?;
        let ratio = summary.mean_success_ratio.unwrap_or(0.0);

        out.row(vec![
            bs.to_string(),
            run_blocks.to_string(),
            n.to_string(),
            cache_blocks.to_string(),
            format!("{baseline:.1}"),
            format!("{:.1}", summary.mean_total_secs),
            format!("{ratio:.3}"),
        ]);
    }
    Ok(vec![out])
}
