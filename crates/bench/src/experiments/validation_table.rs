//! **T1**: every estimated-vs-simulated comparison quoted in the paper's
//! text (§3.1–3.2): equations (1)–(5) against the simulator, plus the
//! transfer-time lower bounds and the unsynchronized asymptotics. The
//! cases are `pm_workload::paper::t1_cases`; each analytic value is the
//! closed form `pm_obs::closed_form` maps the case to.

use pm_obs::closed_form;
use pm_workload::paper::t1_cases;

use crate::{Harness, Output};

/// Table T1: case, analytic, the paper's simulation, ours, and the ratio.
pub(super) fn run(h: &Harness) -> Result<Vec<Output>, String> {
    let title = format!(
        "T1: analytical predictions vs simulation (trials={})",
        h.trials
    );
    let mut out = Output::new(
        "validation_table",
        title,
        1,
        &[
            "case",
            "analytic (s)",
            "paper sim (s)",
            "our sim (s)",
            "sim/analytic",
        ],
    );
    for case in t1_cases(h.seed) {
        let analytic = closed_form(&case.config)
            .ok_or_else(|| format!("{}: no closed form", case.label))?
            .secs;
        let sim = h.run_trials(&case.config)?.mean_total_secs;
        out.row(vec![
            case.label,
            format!("{analytic:.1}"),
            case.paper_secs
                .map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            format!("{sim:.1}"),
            format!("{:.3}", sim / analytic),
        ]);
    }
    Ok(vec![out])
}
