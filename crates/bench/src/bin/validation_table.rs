//! Regenerates every **estimated-vs-simulated** comparison quoted in the
//! paper's text (§3.1–3.2): equations (1)–(5) against the simulator, plus
//! the transfer-time lower bounds and the unsynchronized asymptotics.
//! The cases are `pm_workload::paper::t1_cases`; each analytic value is
//! the closed form `pm_obs::closed_form` maps the case to.
//!
//! Usage: `validation_table [--trials n]`

use pm_bench::Harness;
use pm_obs::closed_form;
use pm_report::{Align, Csv, Table};
use pm_workload::paper::t1_cases;

fn main() {
    let (harness, _) = Harness::from_args();
    let mut table = Table::new(vec![
        "case".into(),
        "analytic (s)".into(),
        "paper sim (s)".into(),
        "our sim (s)".into(),
        "sim/analytic".into(),
    ]);
    for i in 1..=4 {
        table.set_align(i, Align::Right);
    }
    let mut rows_csv: Vec<Vec<String>> = Vec::new();
    for case in t1_cases(harness.seed) {
        let analytic = closed_form(&case.config).expect("every T1 case has a closed form").secs;
        let summary = harness.run_trials(&case.config).expect("valid case");
        let sim = summary.mean_total_secs;
        let ratio = sim / analytic;
        table.add_row(vec![
            case.label.clone(),
            format!("{analytic:.1}"),
            case.paper_secs.map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            format!("{sim:.1}"),
            format!("{ratio:.3}"),
        ]);
        rows_csv.push(vec![
            case.label,
            format!("{analytic:.3}"),
            case.paper_secs.map_or_else(String::new, |v| format!("{v:.3}")),
            format!("{sim:.3}"),
        ]);
    }
    println!("== T1: analytical predictions vs simulation (trials={}) ==\n", harness.trials);
    println!("{}", table.render());

    std::fs::create_dir_all(&harness.out_dir).expect("create output dir");
    let file = std::fs::File::create(harness.out_path("validation_table.csv")).expect("csv");
    let mut csv = Csv::with_header(file, &["case", "analytic_s", "paper_sim_s", "our_sim_s"])
        .expect("header");
    for row in &rows_csv {
        csv.row_strings(row).expect("row");
    }
    println!("wrote {}", harness.out_path("validation_table.csv").display());
}
