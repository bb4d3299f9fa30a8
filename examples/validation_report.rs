//! Run the validation suite with convergence-controlled trial counts and
//! write the self-contained HTML report plus the JSONL manifest.
//!
//! Run with: `cargo run --release --example validation_report`
//! (pass `--full` for the un-thinned Fig. 3.2 curves).
//!
//! This is the library-level equivalent of `pmerge validate`: it shows how
//! to assemble the observability pieces — suite points, convergence
//! policy, progress sink, manifest, HTML report — by hand.

use prefetchmerge::obs::{
    render_manifest, render_report, run_suite, validation_points, ConvergencePolicy, NullProgress,
    StderrProgress, SuiteOptions, TrialsMode,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = !args.iter().any(|a| a == "--full");
    let master_seed = 1992;

    let points = validation_points(master_seed, quick);
    let opts = SuiteOptions {
        // Adaptive trials: stop each point once the 95% CI half-width is
        // within 2% of the mean, between 3 and 12 trials.
        trials: TrialsMode::Auto(ConvergencePolicy {
            rel_ci: 0.02,
            min_trials: 3,
            max_trials: 12,
            ..ConvergencePolicy::default()
        }),
        jobs: 0, // all cores; results are bit-identical regardless
        ..SuiteOptions::new(master_seed)
    };

    // Live progress goes to stderr only when it is a terminal.
    let progress: Box<dyn prefetchmerge::obs::ProgressSink> =
        if std::io::IsTerminal::is_terminal(&std::io::stderr()) {
            Box::new(StderrProgress::new())
        } else {
            Box::new(NullProgress)
        };
    let records = run_suite(&points, &opts, progress.as_ref()).expect("valid suite");

    println!("case | trials | converged | rel-hw | sim/analytic | check");
    for r in &records {
        let (trials, converged, rel) = match &r.auto {
            Some(d) => (
                d.trials,
                if d.converged { "yes" } else { "no" },
                d.rel_half_width
                    .map_or_else(|| "-".into(), |v| format!("{v:.4}")),
            ),
            None => (r.trials, "-", "-".to_string()),
        };
        let (ratio, verdict) = match &r.analytic {
            Some(a) => (
                format!("{:.3} ({})", a.ratio, a.kind),
                if a.pass { "pass" } else { "FAIL" },
            ),
            None => ("-".to_string(), "n/a"),
        };
        println!(
            "{} | {trials} | {converged} | {rel} | {ratio} | {verdict}",
            r.label
        );
    }

    let breaches = records
        .iter()
        .filter(|r| r.analytic.as_ref().is_some_and(|a| !a.pass))
        .count();
    println!("\n{} points, {} residual breaches", records.len(), breaches);

    std::fs::create_dir_all("target/experiments").expect("output dir");
    std::fs::write(
        "target/experiments/validation_report.html",
        render_report(&records),
    )
    .expect("write html");
    std::fs::write(
        "target/experiments/validation_manifest.jsonl",
        render_manifest(&records),
    )
    .expect("write manifest");
    println!("wrote target/experiments/validation_report.html");
    println!("wrote target/experiments/validation_manifest.jsonl");
}
