//! `pmerge plan` — preview a multi-pass merge schedule without running it.
//!
//! Takes the run population either as a uniform grid (`--runs`/`--blocks`)
//! or from an actual run-formation pass (`--records`/`--memory`), bounds
//! the fan-in (`--fan-in`, `--passes`, or the cache budget), and prints
//! each policy's merge tree with the simulator's predicted per-pass read
//! time. `--json` emits the same structure as a single JSON object for
//! scripting.

use pm_core::{ConfigError, PmError, ScenarioBuilder, SimDuration};
use pm_engine::{block_bytes, MAX_BLOCK_BYTES};
use pm_extsort::plan::{
    fan_in_for_passes, plan_merge_tree, predict_plan, MergeTreePlan, PassPrediction, PlanPolicy,
};
use pm_extsort::{generate, Record, RunFormation};
use pm_obs::json::Value;
use pm_report::{Align, Table};

use crate::args::Args;
use crate::scenario::{self, ENGINE_KEYS};

/// Flags `plan` accepts (see the usage text for semantics).
const PLAN_KEYS: &[&str] = &[
    // Run population: uniform grid, or a real run-formation pass.
    "runs",
    "blocks",
    "records",
    "memory",
    "formation",
    "rpb",
    // Fan-in bound and output (the scenario flags, which drive the
    // per-pass cost prediction, are ENGINE_KEYS).
    "fan-in",
    "passes",
    "plan-policy",
    "json",
];

/// `pmerge plan`
pub fn plan(args: &Args) -> Result<(), PmError> {
    args.check_known(&[PLAN_KEYS, ENGINE_KEYS].concat())?;
    let seed: u64 = args.get_parsed("seed", 1992)?;
    let lens = run_lengths(args, seed)?;
    let k = lens.len() as u32;
    let fan_in_cap = fan_in_cap(args, k)?;
    let policies: Vec<PlanPolicy> = match args.get("plan-policy").unwrap_or("both") {
        "both" => vec![PlanPolicy::GreedyMax, PlanPolicy::Balanced],
        other => vec![PlanPolicy::parse(other)?],
    };

    // The base scenario is sized for one full-width merge group; every
    // pass of every plan derives its depth, cap, and seed from it.
    let base = scenario::for_engine(args, fan_in_cap.min(k))?;
    let mut planned: Vec<(MergeTreePlan, Vec<PassPrediction>)> = Vec::new();
    for policy in policies {
        let plan = plan_merge_tree(&lens, fan_in_cap, policy)?;
        let preds = predict_plan(&plan, &base)?;
        planned.push((plan, preds));
    }

    if args.flag("json") || args.get("json").is_some() {
        let obj = Value::Obj(vec![
            ("runs".into(), Value::Num(f64::from(k))),
            (
                "run_blocks".into(),
                Value::Arr(lens.iter().map(|&b| Value::Num(f64::from(b))).collect()),
            ),
            ("fan_in_cap".into(), Value::Num(f64::from(fan_in_cap))),
            (
                "policies".into(),
                Value::Arr(planned.iter().map(|(p, d)| policy_json(p, d)).collect()),
            ),
        ]);
        println!("{}", obj.to_json());
        return Ok(());
    }

    println!(
        "plan: {} runs ({} blocks total), fan-in cap {}, {} disks, {} (N={}), cache {} blocks",
        k,
        lens.iter().map(|&b| u64::from(b)).sum::<u64>(),
        fan_in_cap,
        base.disks,
        base.strategy.label(),
        base.strategy.depth(),
        base.cache_blocks,
    );
    for (plan, preds) in &planned {
        print_plan(plan, preds);
    }
    if planned.len() == 2 {
        let read = |i: usize| predicted_read(&planned[i].1);
        println!(
            "\n{} vs {}: {} vs {} blocks read, predicted read {:.3} s vs {:.3} s",
            planned[1].0.policy.label(),
            planned[0].0.policy.label(),
            planned[1].0.total_blocks_read(),
            planned[0].0.total_blocks_read(),
            read(1),
            read(0),
        );
    }
    Ok(())
}

/// The run population: per-run lengths in blocks.
fn run_lengths(args: &Args, seed: u64) -> Result<Vec<u32>, PmError> {
    if args.get("records").is_some() {
        let records: usize = args.get_parsed("records", 50_000usize)?;
        let memory: usize = args.get_parsed("memory", 5_000usize)?;
        if records == 0 || memory == 0 {
            return Err(PmError::Usage(
                "--records and --memory must be positive".into(),
            ));
        }
        let rpb = records_per_block(args, 40)?;
        let formation = RunFormation::parse(args.get("formation").unwrap_or("load-sort"))?;
        let input = generate::uniform(records, seed);
        Ok(run_blocks(&formation.form(&input, memory), rpb))
    } else {
        let k: u32 = args.get_parsed("runs", 25u32)?;
        let blocks: u32 = args.get_parsed("blocks", 1000u32)?;
        if k == 0 || blocks == 0 {
            return Err(PmError::Usage(
                "--runs and --blocks must be positive".into(),
            ));
        }
        Ok(vec![blocks; k as usize])
    }
}

/// `--rpb`, the records per on-device block: positive, and small enough
/// that a block fits the engine's [`MAX_BLOCK_BYTES`], so every block
/// count derived from it describes blocks `exec` can run.
pub(crate) fn records_per_block(args: &Args, default: u32) -> Result<u32, PmError> {
    let rpb: u32 = args.get_parsed("rpb", default)?;
    if rpb == 0 {
        return Err(PmError::Usage("--rpb must be positive".into()));
    }
    if block_bytes(rpb) > MAX_BLOCK_BYTES {
        return Err(PmError::Usage(format!(
            "--rpb {rpb} makes a block over {MAX_BLOCK_BYTES} bytes"
        )));
    }
    Ok(rpb)
}

/// Each run's length in blocks of `rpb` records (at least one).
pub(crate) fn run_blocks(runs: &[Vec<Record>], rpb: u32) -> Vec<u32> {
    runs.iter()
        .map(|r| (r.len() as u32).div_ceil(rpb).max(1))
        .collect()
}

/// The fan-in bound `--fan-in` or `--passes` sets for `k` runs, or `None`
/// when neither is given: `--fan-in` verbatim, or the smallest fan-in
/// that finishes within `--passes` passes. Giving both is a usage error.
pub(crate) fn fan_in_flags(args: &Args, k: u32) -> Result<Option<u32>, PmError> {
    if args.get("fan-in").is_some() {
        let f: u32 = args.get_parsed("fan-in", 0u32)?;
        if f < 2 {
            return Err(PmError::Usage("--fan-in must be at least 2".into()));
        }
        if args.get("passes").is_some() {
            return Err(PmError::Usage(
                "--fan-in and --passes are mutually exclusive".into(),
            ));
        }
        return Ok(Some(f));
    }
    if args.get("passes").is_none() {
        return Ok(None);
    }
    let p: u32 = args.get_parsed("passes", 0u32)?;
    if p == 0 {
        return Err(PmError::Usage("--passes must be positive".into()));
    }
    Ok(Some(fan_in_for_passes(k, p)))
}

/// The fan-in bound: `--fan-in` or `--passes` (see [`fan_in_flags`]), or
/// the widest merge the `--cache` budget supports.
fn fan_in_cap(args: &Args, k: u32) -> Result<u32, PmError> {
    if let Some(f) = fan_in_flags(args, k)? {
        return Ok(f);
    }
    if args.get("cache").is_some() {
        let cache: u32 = args.get_parsed("cache", 0u32)?;
        let strategy = scenario::strategy(args, scenario::ENGINE)?;
        let f = ScenarioBuilder::planned_fan_in(cache, strategy);
        if f < 2 {
            return Err(ConfigError::FanInExceeded { runs: k, fan_in: f }.into());
        }
        return Ok(f);
    }
    Err(PmError::Usage(
        "specify --fan-in, --passes, or --cache to bound the fan-in".into(),
    ))
}

/// Predicted read seconds of a whole plan: `0` (never `-0`) for none.
fn predicted_read(preds: &[PassPrediction]) -> f64 {
    preds
        .iter()
        .map(|p| p.read_time)
        .sum::<SimDuration>()
        .as_secs_f64()
}

/// Prints one policy's merge tree as a per-pass table.
fn print_plan(plan: &MergeTreePlan, preds: &[PassPrediction]) {
    println!(
        "\npolicy {}: fan-in {}, {} passes, {} blocks read, predicted read {:.3} s",
        plan.policy.label(),
        plan.fan_in,
        plan.num_passes(),
        plan.total_blocks_read(),
        predicted_read(preds),
    );
    if plan.passes.is_empty() {
        println!("(a single run needs no merging)");
        return;
    }
    let mut t = Table::new(vec![
        "pass".into(),
        "fan-in".into(),
        "inputs".into(),
        "groups".into(),
        "merged".into(),
        "blocks read".into(),
        "sim read (s)".into(),
    ]);
    for i in 1..7 {
        t.set_align(i, Align::Right);
    }
    for (i, (pass, pred)) in plan.passes.iter().zip(preds).enumerate() {
        t.add_row(vec![
            (i + 1).to_string(),
            pass.fan_in.to_string(),
            pass.run_blocks.len().to_string(),
            pass.groups.len().to_string(),
            pred.merged_groups.to_string(),
            pass.blocks_read.to_string(),
            format!("{:.3}", pred.read_time.as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
}

/// One policy's plan as a JSON object.
fn policy_json(plan: &MergeTreePlan, preds: &[PassPrediction]) -> Value {
    Value::Obj(vec![
        ("policy".into(), Value::Str(plan.policy.label().into())),
        ("fan_in".into(), Value::Num(f64::from(plan.fan_in))),
        ("num_passes".into(), Value::Num(plan.num_passes() as f64)),
        (
            "total_blocks_read".into(),
            Value::Num(plan.total_blocks_read() as f64),
        ),
        (
            "predicted_read_secs".into(),
            Value::Num(predicted_read(preds)),
        ),
        (
            "passes".into(),
            Value::Arr(
                plan.passes
                    .iter()
                    .zip(preds)
                    .enumerate()
                    .map(|(i, (pass, pred))| {
                        Value::Obj(vec![
                            ("pass".into(), Value::Num((i + 1) as f64)),
                            ("fan_in".into(), Value::Num(f64::from(pass.fan_in))),
                            ("inputs".into(), Value::Num(pass.run_blocks.len() as f64)),
                            ("groups".into(), Value::Num(pass.groups.len() as f64)),
                            (
                                "merged_groups".into(),
                                Value::Num(f64::from(pred.merged_groups)),
                            ),
                            ("blocks_read".into(), Value::Num(pass.blocks_read as f64)),
                            (
                                "predicted_read_secs".into(),
                                Value::Num(pred.read_time.as_secs_f64()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
