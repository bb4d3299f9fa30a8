//! **Extension E8**: how much write bandwidth does the paper's setup
//! implicitly assume?
//!
//! The paper writes the merged output "to a separate set of disks" and
//! excludes that traffic from the study. This experiment models it: output
//! blocks append round-robin across `W` dedicated write disks through a
//! bounded buffer, and the merge stalls when the buffer fills. Sweeping
//! `W` shows the break-even point where the write side stops being the
//! bottleneck — i.e. how many write disks the paper's numbers require.

use pm_core::{ScenarioBuilder, WriteSpec};

use crate::{right_aligned, Harness};

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let (k, d, n, cache) = (25u32, 5u32, 10u32, 1200u32);
    let buffer = 64u32;

    let base = ScenarioBuilder::new(k, d).inter(n).cache_blocks(cache).build().unwrap();
    let baseline = {
        let mut cfg = base;
        cfg.seed = h.seed;
        h.run_trials(&cfg)?.mean_total_secs
    };

    let mut table = right_aligned(0, &[
        "write disks W", "total (s)", "slowdown vs no-write model", "write-side bound kBT/W (s)",
    ]);
    let mut csv = h.csv(
        "ext_write_traffic",
        &["write_disks", "total_secs", "slowdown", "bound_secs"],
    )?;

    println!(
        "== E8: write traffic — inter-run k={k}, D={d}, N={n}, C={cache}, buffer={buffer} ==\n"
    );
    println!("paper's model (writes excluded): {baseline:.1} s\n");
    for w in 1..=6u32 {
        let mut cfg = base;
        cfg.write = Some(WriteSpec {
            disks: w,
            buffer_blocks: buffer,
        });
        cfg.seed = h.seed ^ u64::from(w);
        let total = h.run_trials(&cfg)?.mean_total_secs;
        // Sequential append: ~T per output block on the write side.
        let bound = f64::from(k) * 1000.0 * 2.16e-3 / f64::from(w);
        table.add_row(vec![
            w.to_string(),
            format!("{total:.1}"),
            format!("{:.2}x", total / baseline),
            format!("{bound:.1}"),
        ]);
        csv.row(&[
            w.to_string(),
            format!("{total:.3}"),
            format!("{:.4}", total / baseline),
            format!("{bound:.3}"),
        ])?;
    }
    println!("{}", table.render());
    println!(
        "With few write disks the write side is the bottleneck (total tracks\n\
         kBT/W); the writes-excluded model only becomes accurate (<10% error)\n\
         once W approaches D — the paper's separate write subsystem must be\n\
         nearly as wide as the read subsystem it serves."
    );
    csv.finish()
}
