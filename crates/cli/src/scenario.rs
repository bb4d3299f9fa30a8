//! The scenario flags every merge command shares.
//!
//! `simulate`, `trace`, `sweep` and `batch` (the simulator commands) and
//! `exec` and `plan` (the engine commands) all build their [`MergeConfig`]
//! here. The names the flags take (`--strategy`, `--admission`,
//! `--choice`, `--layout`) are mapped to values by pm-core's types, so a
//! new strategy or layout is one enum arm there, not one more parser here.

use pm_core::{
    AdmissionPolicy, DataLayout, MergeConfig, PmError, PrefetchChoice, PrefetchStrategy,
    ScenarioBuilder, SimDuration, SyncMode, WriteSpec,
};

use crate::args::Args;

/// The flag defaults that differ between the command families.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Defaults {
    /// `--disks`.
    pub disks: u32,
    /// `--n`.
    pub n: u32,
}

/// The simulator commands default to the paper's 5-disk array at N=10.
pub(crate) const SIM: Defaults = Defaults { disks: 5, n: 10 };

/// `exec` and `plan` default to a small 2-disk array at N=4.
pub(crate) const ENGINE: Defaults = Defaults { disks: 2, n: 4 };

/// The scenario flags `exec` and `plan` accept.
pub(crate) const ENGINE_KEYS: &[&str] = &[
    "disks",
    "strategy",
    "n",
    "cache",
    "sync",
    "admission",
    "choice",
    "cap",
    "layout",
    "seed",
];

/// The scenario flags the simulator commands accept: the engine's plus
/// the run shape, CPU cost, write disks and trial count.
pub(crate) const SIM_KEYS: &[&str] = &[
    "runs",
    "blocks",
    "disks",
    "strategy",
    "n",
    "cache",
    "sync",
    "cpu-ms",
    "admission",
    "choice",
    "cap",
    "layout",
    "write-disks",
    "write-buffer",
    "trials",
    "seed",
];

/// The value `--<key>` names, parsed by `parse`; `default` when the flag
/// is absent.
fn named<T>(
    args: &Args,
    key: &str,
    what: &str,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, PmError> {
    match args.get(key) {
        None => Ok(default),
        Some(name) => parse(name).ok_or_else(|| PmError::Usage(format!("unknown {what} '{name}'"))),
    }
}

/// The strategy `--strategy` and `--n` select (inter-run by default; the
/// adaptive strategy takes `--n` as its ceiling over a floor of 1).
pub(crate) fn strategy(args: &Args, defaults: Defaults) -> Result<PrefetchStrategy, PmError> {
    let n: u32 = args.get_parsed("n", defaults.n)?;
    named(
        args,
        "strategy",
        "strategy",
        PrefetchStrategy::InterRun { n },
        |s| PrefetchStrategy::from_name(s, n),
    )
}

/// A builder for the scenario the flags describe over `runs` runs. The
/// caller sets the run length, if it has one, and builds.
pub(crate) fn builder(
    args: &Args,
    runs: u32,
    defaults: Defaults,
) -> Result<ScenarioBuilder, PmError> {
    let disks: u32 = args.get_parsed("disks", defaults.disks)?;
    let strategy = strategy(args, defaults)?;
    let cpu_ms: f64 = args.get_parsed("cpu-ms", 0.0)?;
    if !(cpu_ms.is_finite() && cpu_ms >= 0.0) {
        return Err(PmError::Usage("--cpu-ms must be >= 0".into()));
    }
    let admission = named(
        args,
        "admission",
        "admission policy",
        AdmissionPolicy::AllOrNothing,
        AdmissionPolicy::from_label,
    )?;
    let choice = named(
        args,
        "choice",
        "prefetch choice",
        PrefetchChoice::Random,
        PrefetchChoice::from_label,
    )?;
    let layout = named(
        args,
        "layout",
        "layout",
        DataLayout::Concatenated,
        DataLayout::from_label,
    )?;
    let cap: u32 = args.get_parsed("cap", 0)?;
    let write_disks: u32 = args.get_parsed("write-disks", 0)?;
    let write_buffer: u32 = args.get_parsed("write-buffer", 64)?;
    let mut builder = ScenarioBuilder::new(runs, disks)
        .strategy(strategy)
        .sync_mode(if args.flag("sync") {
            SyncMode::Synchronized
        } else {
            SyncMode::Unsynchronized
        })
        .cpu_per_block(SimDuration::from_millis_f64(cpu_ms))
        .admission(admission)
        .prefetch_choice(choice)
        .layout(layout)
        .per_run_cap((cap > 0).then_some(cap))
        .write((write_disks > 0).then_some(WriteSpec {
            disks: write_disks,
            buffer_blocks: write_buffer,
        }))
        .seed(args.get_parsed("seed", 1992)?);
    if args.get("cache").is_some() {
        builder = builder.cache_blocks(args.get_parsed("cache", 0)?);
    }
    Ok(builder)
}

/// The scenario of `exec` and `plan` over `runs` runs: the run count
/// comes from run formation or the plan, not `--runs`.
pub(crate) fn for_engine(args: &Args, runs: u32) -> Result<MergeConfig, PmError> {
    builder(args, runs, ENGINE)?.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(ToString::to_string)).unwrap()
    }

    #[test]
    fn defaults_differ_by_command_family() {
        let sim = builder(&args(&["simulate"]), 25, SIM)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(
            (sim.disks, sim.strategy),
            (5, PrefetchStrategy::InterRun { n: 10 })
        );
        let engine = for_engine(&args(&["exec"]), 8).unwrap();
        assert_eq!(
            (engine.disks, engine.strategy),
            (2, PrefetchStrategy::InterRun { n: 4 })
        );
        assert_eq!(engine.seed, 1992);
    }

    #[test]
    fn names_and_aliases_map_to_values() {
        let cfg = builder(
            &args(&[
                "exec",
                "--strategy",
                "adaptive",
                "--n",
                "6",
                "--admission",
                "aon",
                "--choice",
                "head-proximity",
                "--layout",
                "concat",
            ]),
            8,
            ENGINE,
        )
        .unwrap()
        .build()
        .unwrap();
        assert_eq!(
            cfg.strategy,
            PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 6 }
        );
        assert_eq!(cfg.admission, AdmissionPolicy::AllOrNothing);
        assert_eq!(cfg.prefetch_choice, PrefetchChoice::HeadProximity);
        assert_eq!(cfg.layout, DataLayout::Concatenated);
        let cfg = builder(
            &args(&[
                "exec",
                "--strategy",
                "intra",
                "--layout",
                "striped",
                "--admission",
                "greedy",
            ]),
            8,
            ENGINE,
        )
        .unwrap()
        .build()
        .unwrap();
        assert_eq!(cfg.layout, DataLayout::Striped);
        assert_eq!(cfg.admission, AdmissionPolicy::Greedy);
    }
}
