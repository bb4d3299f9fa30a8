//! Runs the experiments of `pm_bench::EXPERIMENTS` that the command line
//! names (all of them when it names none), one after another in this
//! process: the full reproduction, or any part of it.
//!
//! Usage: `run_all [experiment…] [--trials n] [--quick] [--seed n]
//! [--out dir] [--jobs n] [--panel p]`
//!
//! `--jobs n` (or the `PM_JOBS` environment variable) sizes each
//! experiment's own pool of sweep points and trials; the output is
//! byte-identical for every value. Each experiment's output follows a
//! banner on stdout, and a progress line per experiment goes to stderr.
//! An unknown experiment name or a malformed flag exits 2. An experiment
//! that fails (returns an error or panics) is reported in the summary
//! and the rest still run; `run_all` then exits 1.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pm_bench::{select, usage_error, Harness};
use pm_core::parallel;

fn main() {
    let (h, names) = Harness::from_args();
    let selected = select(&names, h.panel.as_deref()).unwrap_or_else(|e| usage_error(&e));
    let jobs = parallel::effective_jobs(h.jobs);
    eprintln!(
        "running {} experiments with {jobs} job{}",
        selected.len(),
        if jobs == 1 { "" } else { "s" }
    );
    let started = Instant::now();
    let mut failed: Vec<(&str, String)> = Vec::new();
    for (i, (name, run)) in selected.iter().enumerate() {
        println!("\n================ {name} ================");
        let launched = Instant::now();
        // The panic hook has already printed the message to stderr.
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&h)))
            .unwrap_or_else(|_| Err("panicked (message above on stderr)".into()));
        eprintln!(
            "  [{}/{}] {name} {} in {:.1}s (elapsed {:.1}s)",
            i + 1,
            selected.len(),
            if outcome.is_ok() { "ok" } else { "FAILED" },
            launched.elapsed().as_secs_f64(),
            started.elapsed().as_secs_f64()
        );
        if let Err(why) = outcome {
            eprintln!("{name} failed: {why}");
            failed.push((name, why));
        }
    }

    println!("\n================ summary ================");
    if failed.is_empty() {
        println!(
            "all {} experiments completed in {:.1}s",
            selected.len(),
            started.elapsed().as_secs_f64()
        );
    } else {
        println!("{}/{} experiments FAILED:", failed.len(), selected.len());
        for (name, why) in &failed {
            println!("  {name}: {why}");
        }
        std::process::exit(1);
    }
}
