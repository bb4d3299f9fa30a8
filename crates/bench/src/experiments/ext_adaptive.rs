//! **Extension E14**: adaptive prefetch depth.
//!
//! The paper observes (§3.2) that "for a given cache size, there is an
//! optimal value of N which provides the best tradeoff" — and leaves the
//! operator to find it. `PrefetchStrategy::InterRunAdaptive` finds it
//! online with AIMD control on admission outcomes: full admission → one
//! block deeper, rejection → halve. This experiment sweeps the cache size
//! and compares the adaptive policy against every fixed depth it
//! subsumes.

use pm_core::{PrefetchStrategy, ScenarioBuilder};

use crate::{Harness, Output};

pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let (k, d) = (25u32, 5u32);
    let caches: Vec<u32> = if h.quick {
        vec![100, 400, 900]
    } else {
        vec![100, 200, 300, 450, 600, 750, 900, 1200]
    };
    let fixed_ns = [1u32, 2, 5, 10, 20];
    let mut header: Vec<String> = vec!["cache (blocks)".into()];
    header.extend(fixed_ns.iter().map(|n| format!("N={n} (s)")));
    header.push("adaptive 1..20 (s)".into());
    header.push("adaptive / best fixed".into());
    let title = format!(
        "E14: adaptive prefetch depth — inter-run, k={k}, D={d} (trials={})",
        h.trials
    );
    let mut out = Output::new("ext_adaptive", title, 0, &header);

    for &cache in &caches {
        let mut row = vec![cache.to_string()];
        let mut best = f64::INFINITY;
        for &n in &fixed_ns {
            if cache < k * n {
                row.push("-".into());
                continue;
            }
            let mut cfg = ScenarioBuilder::new(k, d)
                .inter(n)
                .cache_blocks(cache)
                .build()
                .unwrap();
            cfg.seed = h.seed ^ u64::from(cache) ^ (u64::from(n) << 32);
            let secs = h.run_trials(&cfg)?.mean_total_secs;
            best = best.min(secs);
            row.push(format!("{secs:.1}"));
        }
        let mut cfg = ScenarioBuilder::new(k, d)
            .inter(1)
            .cache_blocks(cache)
            .build()
            .unwrap();
        cfg.strategy = PrefetchStrategy::InterRunAdaptive {
            n_min: 1,
            n_max: 20,
        };
        cfg.seed = h.seed ^ u64::from(cache);
        let adaptive = h.run_trials(&cfg)?.mean_total_secs;
        row.push(format!("{adaptive:.1}"));
        row.push(format!("{:.2}", adaptive / best));
        out.row(row);
    }
    Ok(vec![out])
}
