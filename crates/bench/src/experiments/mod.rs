//! The experiment registry: one module per experiment, each exposing
//! `run(&Harness)`, listed once in [`EXPERIMENTS`].

use crate::Harness;

mod ablation_admission;
mod ablation_prefetch;
mod ablation_queue;
pub(crate) mod concurrency_table;
mod ext_adaptive;
mod ext_blocksize;
mod ext_end_to_end;
mod ext_k100;
mod ext_multipass;
mod ext_replacement_selection;
mod ext_striping;
mod ext_variance;
mod ext_write_traffic;
pub(crate) mod fig2_time_vs_n;
mod fig3_cpu_speed;
mod fig5_time_vs_cache;
mod fig6_success_ratio;
mod make_report;
mod model_vs_real;
pub(crate) mod validation_table;

/// An experiment's entry point: prints its tables and writes its CSVs
/// under the harness's output directory.
pub type Experiment = fn(&Harness) -> Result<(), String>;

/// Every experiment, by name, in the order `run_all` runs them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("validation_table", validation_table::run),
    ("concurrency_table", concurrency_table::run),
    ("fig2_time_vs_n", fig2_time_vs_n::run),
    ("fig3_cpu_speed", fig3_cpu_speed::run),
    ("fig5_time_vs_cache", fig5_time_vs_cache::run),
    ("fig6_success_ratio", fig6_success_ratio::run),
    ("ablation_admission", ablation_admission::run),
    ("ablation_queue", ablation_queue::run),
    ("ablation_prefetch", ablation_prefetch::run),
    ("model_vs_real", model_vs_real::run),
    ("ext_replacement_selection", ext_replacement_selection::run),
    ("ext_write_traffic", ext_write_traffic::run),
    ("ext_k100", ext_k100::run),
    ("ext_multipass", ext_multipass::run),
    ("ext_striping", ext_striping::run),
    ("ext_blocksize", ext_blocksize::run),
    ("ext_variance", ext_variance::run),
    ("ext_adaptive", ext_adaptive::run),
    ("ext_end_to_end", ext_end_to_end::run),
    ("make_report", make_report::run),
];

/// The values `--panel` accepts for experiment `name`; empty for an
/// experiment without panels.
fn panels(name: &str) -> &'static [&'static str] {
    match name {
        "fig2_time_vs_n" => fig2_time_vs_n::PANELS,
        "fig5_time_vs_cache" | "fig6_success_ratio" => fig5_time_vs_cache::PANELS,
        _ => &[],
    }
}

/// The experiments `names` selects (every one when `names` is empty), in
/// the order given.
///
/// # Errors
///
/// Returns a message for a name not in [`EXPERIMENTS`], or for a `panel`
/// given without exactly one named experiment that has that panel.
pub fn select(
    names: &[String],
    panel: Option<&str>,
) -> Result<Vec<(&'static str, Experiment)>, String> {
    let find = |n: &String| {
        let found = EXPERIMENTS.iter().find(|(name, _)| name == n);
        found.copied().ok_or_else(|| format!("unknown experiment '{n}'"))
    };
    let selected = if names.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        names.iter().map(find).collect::<Result<_, _>>()?
    };
    if let Some(p) = panel {
        let [(name, _)] = selected[..] else {
            return Err("--panel needs exactly one experiment name".into());
        };
        match panels(name) {
            [] => return Err(format!("{name} has no panels")),
            all if !all.contains(&p) => {
                let all = all.join(", ");
                return Err(format!("unknown panel '{p}' for {name}, expected one of {all}"));
            }
            _ => {}
        }
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn registry_names_are_unique() {
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|(n, _)| n != name), "{name}");
        }
        assert_eq!(EXPERIMENTS.len(), 20);
    }

    #[test]
    fn select_resolves_names_and_panels() {
        assert_eq!(select(&[], None).unwrap().len(), 20);
        let picked = select(&names(&["make_report", "ext_k100"]), None).unwrap();
        let picked: Vec<&str> = picked.iter().map(|(n, _)| *n).collect();
        assert_eq!(picked, ["make_report", "ext_k100"]);
        assert!(select(&names(&["fig2_time_vs_n"]), Some("b")).is_ok());
        assert!(select(&names(&["fig6_success_ratio"]), Some("3")).is_ok());
        for (list, panel, needle) in [
            (&["fig2"][..], None, "unknown experiment 'fig2'"),
            (&[][..], Some("a"), "exactly one"),
            (&["fig2_time_vs_n", "fig3_cpu_speed"][..], Some("a"), "exactly one"),
            (&["fig3_cpu_speed"][..], Some("a"), "fig3_cpu_speed has no panels"),
            (&["fig2_time_vs_n"][..], Some("1"), "unknown panel '1'"),
        ] {
            let err = select(&names(list), panel).unwrap_err();
            assert!(err.contains(needle), "{list:?} {panel:?}: {err}");
        }
    }
}
