//! The metric tables (name, unit) and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two in
//! step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sort_records_per_s", "records/s"),
    ("sim_blocks_per_s", "blocks/s"),
    ("model_merge_s", "s"),
    ("peak_heap_mb", "MB"),
    ("cpu_ns_per_record", "ns/record"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("extsort.formation_s", "s"),
    ("extsort.runs", "count"),
    ("extsort.plan_passes", "count"),
    ("extsort.read_amplification", "ratio"),
    ("engine.load_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.ns_per_block", "ns/block"),
    ("engine.stall_frac", "ratio"),
    ("engine.self_s", "s"),
    ("engine.allocs_per_block", "count/block"),
    ("engine.alloc_bytes_per_block", "B/block"),
    ("engine.events_per_block", "count/block"),
    ("engine.predict_s", "s"),
    ("engine.demand_ops", "count"),
    ("engine.fallback_ops", "count"),
    ("engine.success_ratio", "ratio"),
    ("engine.sequential_frac", "ratio"),
    ("io.requests", "count"),
    ("io.submit_calls", "count"),
    ("io.submit_batch", "count/call"),
    ("io.submit_s", "s"),
    ("io.complete_wait_s", "s"),
    ("io.complete_poll_s", "s"),
    ("io.reap_batch", "count/call"),
    ("io.queue_wait_us.p50", "us"),
    ("io.queue_wait_us.p99", "us"),
    ("io.service_us.p50", "us"),
    ("io.service_us.p99", "us"),
    ("io.queue_depth_mean", "count"),
    ("multipass.pass1_s", "s"),
    ("multipass.pass2_s", "s"),
    ("multipass.stall_frac", "ratio"),
    ("multipass.staging_s", "s"),
    ("sim.ns_per_block.d8", "ns/block"),
    ("sim.ns_per_block.d16", "ns/block"),
    ("sim.ns_per_block.d32", "ns/block"),
    ("sim.setup_us", "us"),
    ("sim.events_per_block", "count/block"),
    ("sim.trace_overhead", "ratio"),
    ("sim.success_ratio", "ratio"),
    ("sim.avg_concurrency", "count"),
    ("disk.seek_frac", "ratio"),
    ("disk.sequential_frac", "ratio"),
    ("trace.overhead", "ratio"),
    ("bench.machine_speed", "ratio"),
    ("trace.model_merge_s", "s"),
];

/// Whether a per-layer metric is a duration, which calibration scales.
pub fn is_duration(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|&(n, unit)| n == name && matches!(unit, "s" | "us" | "ns/block"))
}

/// Metric values by name, as one run measured them.
pub type Values = BTreeMap<&'static str, f64>;

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation (0 for none).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Checks `values` against `table`: every name must be known, and — unless
/// `missing_is_zero` — present. Returns the values in table order.
pub fn complete(
    table: &[(&'static str, &'static str)],
    values: &Values,
    missing_is_zero: bool,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if let Some(unknown) = values.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {unknown} is not in the table"));
    }
    let mut out = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match values.get(name) {
            Some(&v) => v,
            None if missing_is_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        out.push((name, unit, value));
    }
    Ok(out)
}

/// The result line: one JSON object with the run's counts and metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that reads back to the
        // same f64, always with a decimal point or exponent.
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
