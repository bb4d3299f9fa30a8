//! **T1**: every estimated-vs-simulated comparison quoted in the paper's
//! text (§3.1–3.2): equations (1)–(5) against the simulator, plus the
//! transfer-time lower bounds and the unsynchronized asymptotics. The
//! cases are `pm_workload::paper::t1_cases`; each analytic value is the
//! closed form `pm_obs::closed_form` maps the case to.

use pm_obs::closed_form;
use pm_report::Table;
use pm_workload::paper::t1_cases;

use crate::{right_aligned, Harness};

/// Table T1 (case, analytic, paper's simulation, ours, ratio), with the
/// CSV rows of the same simulations.
fn t1(h: &Harness) -> Result<(Table, Vec<Vec<String>>), String> {
    let mut table = right_aligned(1, &[
        "case", "analytic (s)", "paper sim (s)", "our sim (s)", "sim/analytic",
    ]);
    let mut rows = Vec::new();
    for case in t1_cases(h.seed) {
        let analytic = closed_form(&case.config)
            .ok_or_else(|| format!("{}: no closed form", case.label))?
            .secs;
        let sim = h.run_trials(&case.config)?.mean_total_secs;
        table.add_row(vec![
            case.label.clone(),
            format!("{analytic:.1}"),
            case.paper_secs.map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            format!("{sim:.1}"),
            format!("{:.3}", sim / analytic),
        ]);
        rows.push(vec![
            case.label,
            format!("{analytic:.3}"),
            case.paper_secs.map_or_else(String::new, |v| format!("{v:.3}")),
            format!("{sim:.3}"),
        ]);
    }
    Ok((table, rows))
}

/// Table T1 as EXPERIMENTS.md shows it: one row per
/// `pm_workload::paper::t1_cases` case, simulated with the harness's
/// trials and seed.
///
/// # Panics
///
/// Panics if a T1 case is invalid or lacks a closed form.
#[must_use]
pub fn t1_table(h: &Harness) -> Table {
    t1(h).expect("every T1 case is valid and has a closed form").0
}

pub(super) fn run(h: &Harness) -> Result<(), String> {
    let (table, rows) = t1(h)?;
    println!("== T1: analytical predictions vs simulation (trials={}) ==\n", h.trials);
    println!("{}", table.render());
    let mut csv = h.csv("validation_table", &["case", "analytic_s", "paper_sim_s", "our_sim_s"])?;
    for row in &rows {
        csv.row(row)?;
    }
    csv.finish()
}
