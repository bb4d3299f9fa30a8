//! JSONL run manifests.
//!
//! Every experiment point a suite runs is recorded as one JSON line: the
//! full scenario (its name and the [`MergeConfig`] itself, which reads
//! back as written, so the point replays from the line alone), the seeds,
//! the trial count (and the convergence decision that chose it), the
//! aggregated metrics, the residual check against the paper's analysis,
//! and — when tracing is on — per-disk rollups of trial 0's event stream.
//!
//! **Determinism contract.** A manifest is a pure function of the suite's
//! inputs: floats are emitted with shortest-round-trip formatting, object
//! keys keep a fixed order, and nothing host- or schedule-dependent is
//! recorded. Running the same suite with any `--jobs` value produces a
//! byte-identical manifest (the `manifest_determinism` integration test
//! enforces this). Host facts (job count, wall-clock) are available only
//! as an opt-in **env record** ([`env_record_line`]), which
//! [`parse_manifest`] skips — it is deliberately outside the contract.
//!
//! 64-bit seeds are serialized as JSON *strings*: JSON numbers are
//! doubles, which cannot represent every `u64`.

use pm_core::{
    AdmissionPolicy, DataLayout, DiskSpec, MergeConfig, PmError, PrefetchChoice, PrefetchStrategy,
    QueueDiscipline, SimDuration, SyncMode, WriteSpec,
};
use pm_trace::TraceMetrics;

use crate::convergence::ConvergenceDecision;
use crate::json::Value;
use crate::residual::{Bound, ResidualCheck};

/// Manifest schema version, bumped on breaking field changes.
///
/// History: v2 added the optional `pass` field (multi-pass `exec`
/// records); v3 added the optional `tenant` field and the `contend`
/// record kind (multi-tenant service runs). The parser accepts v1/v2
/// lines — absent fields read as `None`.
pub const SCHEMA_VERSION: u32 = 3;

/// Oldest schema version [`ManifestRecord::from_json_line`] still reads.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// What kind of experiment point a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A table-T1 case: one closed-form equation vs. simulation.
    T1Case,
    /// A table-T2 case: urn-model concurrency vs. simulation.
    T2Concurrency,
    /// One point of a figure sweep.
    SweepPoint,
    /// A real-I/O execution-engine run (`pmerge exec`): measured, not
    /// simulated; `analytic` holds the sim-vs-engine residual when the
    /// latency backend makes one meaningful.
    EngineExec,
    /// One tenant of a multi-tenant contention run (`pmerge contend` /
    /// `pmerge serve`); the `tenant` field carries the service terms and
    /// contention outcome.
    Contend,
}

impl RecordKind {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::T1Case => "t1",
            RecordKind::T2Concurrency => "t2",
            RecordKind::SweepPoint => "sweep",
            RecordKind::EngineExec => "exec",
            RecordKind::Contend => "contend",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "t1" => Some(RecordKind::T1Case),
            "t2" => Some(RecordKind::T2Concurrency),
            "sweep" => Some(RecordKind::SweepPoint),
            "exec" => Some(RecordKind::EngineExec),
            "contend" => Some(RecordKind::Contend),
            _ => None,
        }
    }
}

/// Aggregated per-point measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMetrics {
    /// Mean total merge time over the trials, seconds.
    pub mean_total_secs: f64,
    /// Confidence-interval half-width on the mean, seconds.
    pub ci_half_width_secs: f64,
    /// Confidence level of that interval.
    pub confidence: f64,
    /// Mean I/O concurrency (busy disks averaged over busy time).
    pub mean_concurrency: f64,
    /// Mean busy-disk count averaged over the whole run.
    pub mean_busy_disks: f64,
    /// Mean prefetch success ratio, if the strategy reports one.
    pub mean_success_ratio: Option<f64>,
    /// Blocks merged per trial (identical across trials by construction).
    pub blocks_merged: u64,
}

/// Per-disk rollup of a recorded trace (input side, trial 0).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskRollup {
    /// Fraction of the run this disk spent servicing requests.
    pub utilization: f64,
    /// Requests completed.
    pub requests: u64,
    /// Requests that streamed sequentially.
    pub sequential: u64,
    /// Time-averaged outstanding-request count.
    pub avg_queue_depth: f64,
}

/// Trace-derived aggregates attached when tracing is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRollup {
    /// Input disks, indexed by disk id.
    pub disks: Vec<DiskRollup>,
}

impl TraceRollup {
    /// The input-disk readings of a folded trace.
    #[must_use]
    pub fn from_metrics(m: &TraceMetrics) -> Self {
        let disks = m
            .input_disks
            .iter()
            .map(|lane| DiskRollup {
                utilization: lane.utilization(m.span_end),
                requests: lane.requests,
                sequential: lane.sequential,
                avg_queue_depth: lane.mean_queue_depth(m.span_end),
            })
            .collect();
        TraceRollup { disks }
    }
}

/// One tenant's service terms and contention outcome (schema v3).
///
/// Attached to `contend` records (one per tenant) and to per-tenant
/// `exec` records emitted by `pmerge serve`; `None` on single-job
/// records and on v1/v2 lines.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantInfo {
    /// Tenant display name.
    pub name: String,
    /// Scheduling weight the tenant ran with.
    pub priority: u32,
    /// Arrival offset, seconds of sim time.
    pub arrival_secs: f64,
    /// Cache frames the policy granted.
    pub cache_blocks: u32,
    /// I/O scheduling policy label ("fifo" / "wfq" / "priority").
    pub sched: String,
    /// Cache partitioning policy label ("static" / "proportional" /
    /// "free").
    pub cache_policy: String,
    /// Makespan of the tenant's demand alone on the shared set, seconds.
    pub isolated_secs: f64,
    /// Arrival-to-completion under contention, seconds.
    pub makespan_secs: f64,
    /// Mean per-request queue wait under contention, seconds.
    pub queue_wait_secs: f64,
    /// `makespan_secs / isolated_secs`.
    pub slowdown: f64,
}

/// One experiment point, fully described.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestRecord {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Point kind.
    pub kind: RecordKind,
    /// Human-readable case label.
    pub label: String,
    /// Merge-pass index (1-based) for per-pass multi-pass `exec`
    /// records; `None` for single-pass records and whole-run summaries.
    pub pass: Option<u32>,
    /// Service terms and contention outcome for multi-tenant records;
    /// `None` for single-job records.
    pub tenant: Option<TenantInfo>,
    /// Sweep (curve) name for sweep points.
    pub sweep: Option<String>,
    /// Independent-variable value for sweep points.
    pub x: Option<f64>,
    /// Independent-variable axis label for sweep points.
    pub x_label: Option<String>,
    /// The scenario's name (free-form, used in reports).
    pub scenario_name: String,
    /// The full replayable scenario (including the point's derived seed).
    /// The manifest pins the FIFO discipline and the paper's disk, so a
    /// parsed record always carries those.
    pub scenario: MergeConfig,
    /// The suite's master seed the point seed was derived from.
    pub master_seed: u64,
    /// Trials actually run.
    pub trials: u32,
    /// Convergence decision when trials were chosen adaptively.
    pub auto: Option<ConvergenceDecision>,
    /// Aggregated measurements.
    pub metrics: PointMetrics,
    /// Residual check against the paper's analysis, when one applies.
    pub analytic: Option<ResidualCheck>,
    /// Trace rollups, when tracing was enabled.
    pub trace: Option<TraceRollup>,
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn opt_num(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Num)
}

fn opt_str(v: &Option<String>) -> Value {
    v.as_ref().map_or(Value::Null, |s| Value::Str(s.clone()))
}

fn strategy_to_json(s: PrefetchStrategy) -> Value {
    let mut pairs = vec![("kind".to_string(), Value::Str(s.name().to_string()))];
    match s {
        PrefetchStrategy::None => {}
        PrefetchStrategy::IntraRun { n } | PrefetchStrategy::InterRun { n } => {
            pairs.push(("n".into(), num(f64::from(n))));
        }
        PrefetchStrategy::InterRunAdaptive { n_min, n_max } => {
            pairs.push(("n_min".into(), num(f64::from(n_min))));
            pairs.push(("n_max".into(), num(f64::from(n_max))));
        }
    }
    Value::Obj(pairs)
}

fn scenario_to_json(name: &str, c: &MergeConfig) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::Str(name.to_string())),
        ("runs".into(), num(f64::from(c.runs))),
        ("run_blocks".into(), num(f64::from(c.run_blocks))),
        ("disks".into(), num(f64::from(c.disks))),
        ("strategy".into(), strategy_to_json(c.strategy)),
        (
            "synchronized".into(),
            Value::Bool(c.sync == SyncMode::Synchronized),
        ),
        (
            "striped".into(),
            Value::Bool(c.layout == DataLayout::Striped),
        ),
        ("cache_blocks".into(), num(f64::from(c.cache_blocks))),
        (
            "cpu_ms_per_block".into(),
            num(c.cpu_per_block.as_millis_f64()),
        ),
        (
            "greedy_admission".into(),
            Value::Bool(c.admission == AdmissionPolicy::Greedy),
        ),
        (
            "prefetch_choice".into(),
            Value::Str(c.prefetch_choice.label().to_string()),
        ),
        (
            "per_run_cap".into(),
            num(f64::from(c.per_run_cap.unwrap_or(0))),
        ),
        (
            "write_disks".into(),
            num(f64::from(c.write.map_or(0, |w| w.disks))),
        ),
        (
            "write_buffer_blocks".into(),
            num(f64::from(c.write.map_or(0, |w| w.buffer_blocks))),
        ),
        ("seed".into(), Value::Str(c.seed.to_string())),
    ])
}

impl ManifestRecord {
    /// Serializes the record as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics = Value::Obj(vec![
            ("mean_total_secs".into(), num(self.metrics.mean_total_secs)),
            (
                "ci_half_width_secs".into(),
                num(self.metrics.ci_half_width_secs),
            ),
            ("confidence".into(), num(self.metrics.confidence)),
            (
                "mean_concurrency".into(),
                num(self.metrics.mean_concurrency),
            ),
            ("mean_busy_disks".into(), num(self.metrics.mean_busy_disks)),
            (
                "mean_success_ratio".into(),
                opt_num(self.metrics.mean_success_ratio),
            ),
            (
                "blocks_merged".into(),
                num(self.metrics.blocks_merged as f64),
            ),
        ]);
        let auto = self.auto.as_ref().map_or(Value::Null, |d| {
            Value::Obj(vec![
                ("trials".into(), num(f64::from(d.trials))),
                ("converged".into(), Value::Bool(d.converged)),
                ("rel_half_width".into(), opt_num(d.rel_half_width)),
                ("target_rel_ci".into(), num(d.target_rel_ci)),
                ("max_trials".into(), num(f64::from(d.max_trials))),
            ])
        });
        let analytic = self.analytic.as_ref().map_or(Value::Null, |a| {
            Value::Obj(vec![
                ("kind".into(), Value::Str(a.kind.clone())),
                ("predicted".into(), num(a.predicted)),
                ("ratio".into(), num(a.ratio)),
                ("bound".into(), Value::Str(a.bound.as_str().to_string())),
                ("tolerance".into(), num(a.tolerance)),
                ("pass".into(), Value::Bool(a.pass)),
            ])
        });
        let trace = self.trace.as_ref().map_or(Value::Null, |t| {
            Value::Obj(vec![(
                "disks".into(),
                Value::Arr(
                    t.disks
                        .iter()
                        .map(|d| {
                            Value::Obj(vec![
                                ("utilization".into(), num(d.utilization)),
                                ("requests".into(), num(d.requests as f64)),
                                ("sequential".into(), num(d.sequential as f64)),
                                ("avg_queue_depth".into(), num(d.avg_queue_depth)),
                            ])
                        })
                        .collect(),
                ),
            )])
        });
        let tenant = self.tenant.as_ref().map_or(Value::Null, |t| {
            Value::Obj(vec![
                ("name".into(), Value::Str(t.name.clone())),
                ("priority".into(), num(f64::from(t.priority))),
                ("arrival_secs".into(), num(t.arrival_secs)),
                ("cache_blocks".into(), num(f64::from(t.cache_blocks))),
                ("sched".into(), Value::Str(t.sched.clone())),
                ("cache_policy".into(), Value::Str(t.cache_policy.clone())),
                ("isolated_secs".into(), num(t.isolated_secs)),
                ("makespan_secs".into(), num(t.makespan_secs)),
                ("queue_wait_secs".into(), num(t.queue_wait_secs)),
                ("slowdown".into(), num(t.slowdown)),
            ])
        });
        Value::Obj(vec![
            ("schema".into(), num(f64::from(self.schema))),
            ("kind".into(), Value::Str(self.kind.as_str().to_string())),
            ("label".into(), Value::Str(self.label.clone())),
            ("pass".into(), opt_num(self.pass.map(f64::from))),
            ("tenant".into(), tenant),
            ("sweep".into(), opt_str(&self.sweep)),
            ("x".into(), opt_num(self.x)),
            ("x_label".into(), opt_str(&self.x_label)),
            (
                "scenario".into(),
                scenario_to_json(&self.scenario_name, &self.scenario),
            ),
            (
                "master_seed".into(),
                Value::Str(self.master_seed.to_string()),
            ),
            ("trials".into(), num(f64::from(self.trials))),
            ("auto".into(), auto),
            ("metrics".into(), metrics),
            ("analytic".into(), analytic),
            ("trace".into(), trace),
        ])
        .to_json()
    }

    /// Parses one manifest line.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Usage`] describing the first missing or
    /// ill-typed field.
    pub fn from_json_line(line: &str) -> Result<Self, PmError> {
        Self::parse_record(line).map_err(PmError::Usage)
    }

    fn parse_record(line: &str) -> Result<Self, String> {
        let v = Value::parse(line)?;
        let schema = get_u64(&v, "schema")? as u32;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
            return Err(format!("unsupported manifest schema {schema}"));
        }
        // v1 lines have no `pass` field; absent and null both read as None.
        let pass = match v.get("pass") {
            None | Some(Value::Null) => None,
            Some(p) => Some(
                p.as_u64()
                    .ok_or("field 'pass' is not an unsigned integer")? as u32,
            ),
        };
        // v1/v2 lines have no `tenant` field; absent and null read as None.
        let tenant = match v.get("tenant") {
            None | Some(Value::Null) => None,
            Some(t) => Some(TenantInfo {
                name: get_str(t, "name")?,
                priority: get_u64(t, "priority")? as u32,
                arrival_secs: get_f64(t, "arrival_secs")?,
                cache_blocks: get_u64(t, "cache_blocks")? as u32,
                sched: get_str(t, "sched")?,
                cache_policy: get_str(t, "cache_policy")?,
                isolated_secs: get_f64(t, "isolated_secs")?,
                makespan_secs: get_f64(t, "makespan_secs")?,
                queue_wait_secs: get_f64(t, "queue_wait_secs")?,
                slowdown: get_f64_or_nan(t, "slowdown")?,
            }),
        };
        let kind_str = get_str(&v, "kind")?;
        let kind = RecordKind::from_str(&kind_str)
            .ok_or_else(|| format!("unknown record kind '{kind_str}'"))?;
        let metrics_v = get(&v, "metrics")?;
        let metrics = PointMetrics {
            mean_total_secs: get_f64(metrics_v, "mean_total_secs")?,
            ci_half_width_secs: get_f64(metrics_v, "ci_half_width_secs")?,
            confidence: get_f64(metrics_v, "confidence")?,
            mean_concurrency: get_f64(metrics_v, "mean_concurrency")?,
            mean_busy_disks: get_f64(metrics_v, "mean_busy_disks")?,
            mean_success_ratio: get_opt_f64(metrics_v, "mean_success_ratio")?,
            blocks_merged: get_u64(metrics_v, "blocks_merged")?,
        };
        let auto = match get(&v, "auto")? {
            Value::Null => None,
            d => Some(ConvergenceDecision {
                trials: get_u64(d, "trials")? as u32,
                converged: get_bool(d, "converged")?,
                rel_half_width: get_opt_f64(d, "rel_half_width")?,
                target_rel_ci: get_f64(d, "target_rel_ci")?,
                max_trials: get_u64(d, "max_trials")? as u32,
            }),
        };
        let analytic = match get(&v, "analytic")? {
            Value::Null => None,
            a => {
                let bound_str = get_str(a, "bound")?;
                let bound = Bound::from_str(&bound_str)
                    .ok_or_else(|| format!("unknown bound '{bound_str}'"))?;
                Some(ResidualCheck {
                    kind: get_str(a, "kind")?,
                    predicted: get_f64(a, "predicted")?,
                    ratio: get_f64(a, "ratio")?,
                    bound,
                    tolerance: get_f64(a, "tolerance")?,
                    pass: get_bool(a, "pass")?,
                })
            }
        };
        let trace = match get(&v, "trace")? {
            Value::Null => None,
            t => {
                let disks = get(t, "disks")?
                    .as_arr()
                    .ok_or("'disks' is not an array")?
                    .iter()
                    .map(|d| {
                        Ok(DiskRollup {
                            utilization: get_f64(d, "utilization")?,
                            requests: get_u64(d, "requests")?,
                            sequential: get_u64(d, "sequential")?,
                            avg_queue_depth: get_f64(d, "avg_queue_depth")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Some(TraceRollup { disks })
            }
        };
        let (scenario_name, scenario) = scenario_from_json(get(&v, "scenario")?)?;
        Ok(ManifestRecord {
            schema,
            kind,
            label: get_str(&v, "label")?,
            pass,
            tenant,
            sweep: get_opt_str(&v, "sweep")?,
            x: get_opt_f64(&v, "x")?,
            x_label: get_opt_str(&v, "x_label")?,
            scenario_name,
            scenario,
            master_seed: get_u64(&v, "master_seed")?,
            trials: get_u64(&v, "trials")? as u32,
            auto,
            metrics,
            analytic,
            trace,
        })
    }
}

fn strategy_from_json(v: &Value) -> Result<PrefetchStrategy, String> {
    let kind = get_str(v, "kind")?;
    let n = |key| get_u64(v, key).map(|n| n as u32);
    Ok(match PrefetchStrategy::from_name(&kind, 0) {
        None => return Err(format!("unknown strategy kind '{kind}'")),
        Some(PrefetchStrategy::None) => PrefetchStrategy::None,
        Some(PrefetchStrategy::IntraRun { .. }) => PrefetchStrategy::IntraRun { n: n("n")? },
        Some(PrefetchStrategy::InterRun { .. }) => PrefetchStrategy::InterRun { n: n("n")? },
        Some(PrefetchStrategy::InterRunAdaptive { .. }) => PrefetchStrategy::InterRunAdaptive {
            n_min: n("n_min")?,
            n_max: n("n_max")?,
        },
    })
}

/// Reads a scenario object back into its name and the [`MergeConfig`] it
/// was written from, with the FIFO discipline and the paper's disk.
fn scenario_from_json(v: &Value) -> Result<(String, MergeConfig), String> {
    let strategy = strategy_from_json(get(v, "strategy")?)?;
    let choice = get_str(v, "prefetch_choice")?;
    let prefetch_choice = PrefetchChoice::from_label(&choice)
        .ok_or_else(|| format!("unknown prefetch choice '{choice}'"))?;
    let name = get_str(v, "name")?;
    let runs = get_u64(v, "runs")? as u32;
    let run_blocks = get_u64(v, "run_blocks")? as u32;
    let disks = get_u64(v, "disks")? as u32;
    let synchronized = get_bool(v, "synchronized")?;
    let striped = get_bool(v, "striped")?;
    let cache_blocks = get_u64(v, "cache_blocks")? as u32;
    let cpu_ms = get_f64(v, "cpu_ms_per_block")?;
    if !(cpu_ms.is_finite() && cpu_ms >= 0.0) {
        return Err("field 'cpu_ms_per_block' is not a finite non-negative number".into());
    }
    let greedy = get_bool(v, "greedy_admission")?;
    let per_run_cap = get_u64(v, "per_run_cap")? as u32;
    let write_disks = get_u64(v, "write_disks")? as u32;
    let write_buffer_blocks = get_u64(v, "write_buffer_blocks")? as u32;
    let config = MergeConfig {
        runs,
        run_blocks,
        disks,
        layout: if striped {
            DataLayout::Striped
        } else {
            DataLayout::Concatenated
        },
        strategy,
        sync: if synchronized {
            SyncMode::Synchronized
        } else {
            SyncMode::Unsynchronized
        },
        cache_blocks,
        cpu_per_block: SimDuration::from_millis_f64(cpu_ms),
        admission: if greedy {
            AdmissionPolicy::Greedy
        } else {
            AdmissionPolicy::AllOrNothing
        },
        prefetch_choice,
        per_run_cap: (per_run_cap > 0).then_some(per_run_cap),
        discipline: QueueDiscipline::Fifo,
        disk_spec: DiskSpec::paper(),
        write: (write_disks > 0).then_some(WriteSpec {
            disks: write_disks,
            buffer_blocks: write_buffer_blocks,
        }),
        seed: get_u64(v, "seed")?,
    };
    Ok((name, config))
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    get(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

/// Like [`get_f64`], but `null` (how [`Value::Num`] serializes NaN —
/// JSON has no NaN literal) and an absent key parse back as NaN. Used
/// for fields that are legitimately undefined, e.g. a tenant's slowdown
/// when its isolated baseline measured zero seconds.
fn get_f64_or_nan(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(f64::NAN),
        Some(other) => other
            .as_f64()
            .ok_or_else(|| format!("field '{key}' is not a number")),
    }
}

fn get_opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match get(v, key)? {
        Value::Null => Ok(None),
        other => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' is not a number")),
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

fn get_bool(v: &Value, key: &str) -> Result<bool, String> {
    get(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field '{key}' is not a boolean"))
}

fn get_str(v: &Value, key: &str) -> Result<String, String> {
    get(v, key)?
        .as_str()
        .map(ToString::to_string)
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

fn get_opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match get(v, key)? {
        Value::Null => Ok(None),
        other => other
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("field '{key}' is not a string")),
    }
}

/// Renders records as a JSONL document (one line each, trailing newline).
#[must_use]
pub fn render_manifest(records: &[ManifestRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

/// Parses a JSONL manifest, skipping blank lines and env records.
///
/// # Errors
///
/// Returns [`PmError::Usage`] with `"line N: <detail>"` for the first
/// malformed line.
pub fn parse_manifest(text: &str) -> Result<Vec<ManifestRecord>, PmError> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |e| PmError::Usage(format!("line {}: {e}", i + 1));
        let v = Value::parse(line).map_err(bad)?;
        if v.get("kind").and_then(Value::as_str) == Some("env") {
            continue;
        }
        records.push(ManifestRecord::parse_record(line).map_err(bad)?);
    }
    Ok(records)
}

/// Builds the opt-in env record: host/run facts (worker count, wall-clock)
/// that are **excluded from the determinism contract**. Append it to a
/// manifest only when asked (`--record-env`); [`parse_manifest`] ignores
/// it.
#[must_use]
pub fn env_record_line(jobs: usize, wall_clock_secs: f64) -> String {
    Value::Obj(vec![
        ("schema".into(), num(f64::from(SCHEMA_VERSION))),
        ("kind".into(), Value::Str("env".to_string())),
        ("jobs".into(), num(jobs as f64)),
        ("wall_clock_secs".into(), num(wall_clock_secs)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: RecordKind) -> ManifestRecord {
        let mut scenario = pm_core::ScenarioBuilder::new(25, 5)
            .inter(10)
            .cache_blocks(1000)
            .build()
            .unwrap();
        scenario.seed = u64::MAX - 3;
        ManifestRecord {
            schema: SCHEMA_VERSION,
            kind,
            label: "eq5: inter sync, k=25, D=5, N=10".into(),
            pass: None,
            tenant: None,
            sweep: match kind {
                RecordKind::SweepPoint => Some("All Disks One Run (25 runs, 5 disks)".into()),
                _ => None,
            },
            x: (kind == RecordKind::SweepPoint).then_some(10.0),
            x_label: (kind == RecordKind::SweepPoint)
                .then(|| "N (blocks fetched per run)".to_string()),
            scenario_name: "eq5 demo".into(),
            scenario,
            master_seed: 1992,
            trials: 7,
            auto: Some(ConvergenceDecision {
                trials: 7,
                converged: true,
                rel_half_width: Some(0.0042),
                target_rel_ci: 0.01,
                max_trials: 30,
            }),
            metrics: PointMetrics {
                mean_total_secs: 17.25,
                ci_half_width_secs: 0.07,
                confidence: 0.95,
                mean_concurrency: 3.21,
                mean_busy_disks: 2.9,
                mean_success_ratio: Some(0.97),
                blocks_merged: 25_000,
            },
            analytic: Some(ResidualCheck {
                kind: "eq5".into(),
                predicted: 17.4,
                ratio: 0.9914,
                bound: Bound::TwoSided,
                tolerance: 0.02,
                pass: true,
            }),
            trace: Some(TraceRollup {
                disks: vec![
                    DiskRollup {
                        utilization: 0.84,
                        requests: 5000,
                        sequential: 4600,
                        avg_queue_depth: 1.7,
                    },
                    DiskRollup {
                        utilization: 0.81,
                        requests: 5010,
                        sequential: 4580,
                        avg_queue_depth: 1.6,
                    },
                ],
            }),
        }
    }

    #[test]
    fn record_round_trips() {
        for kind in [
            RecordKind::T1Case,
            RecordKind::T2Concurrency,
            RecordKind::SweepPoint,
        ] {
            let r = sample(kind);
            let line = r.to_json_line();
            assert!(!line.contains('\n'));
            assert_eq!(ManifestRecord::from_json_line(&line).unwrap(), r);
        }
    }

    #[test]
    fn every_truncated_line_is_an_error() {
        for kind in [
            RecordKind::T1Case,
            RecordKind::T2Concurrency,
            RecordKind::SweepPoint,
        ] {
            let line = sample(kind).to_json_line();
            for (cut, _) in line.char_indices() {
                let prefix = &line[..cut];
                assert!(
                    ManifestRecord::from_json_line(prefix).is_err(),
                    "truncation at byte {cut} parsed"
                );
                assert!(parse_manifest(prefix).is_err() || prefix.trim().is_empty());
            }
        }
    }

    #[test]
    fn optional_fields_round_trip_as_null() {
        let mut r = sample(RecordKind::T1Case);
        r.auto = None;
        r.analytic = None;
        r.trace = None;
        r.metrics.mean_success_ratio = None;
        let line = r.to_json_line();
        assert!(line.contains("\"auto\":null"));
        assert_eq!(ManifestRecord::from_json_line(&line).unwrap(), r);
    }

    #[test]
    fn nan_slowdown_emits_null_and_parses_back_nan() {
        // A serve tenant whose isolated baseline measured zero seconds
        // has an undefined slowdown; NaN serializes as JSON null and
        // must round-trip without failing the whole manifest parse.
        let mut r = sample(RecordKind::Contend);
        r.tenant = Some(TenantInfo {
            name: "zero-baseline".into(),
            priority: 1,
            arrival_secs: 0.0,
            cache_blocks: 100,
            sched: "wfq".into(),
            cache_policy: "static".into(),
            isolated_secs: 0.0,
            makespan_secs: 0.25,
            queue_wait_secs: 0.001,
            slowdown: f64::NAN,
        });
        let line = r.to_json_line();
        assert!(line.contains("\"slowdown\":null"), "{line}");
        let back = ManifestRecord::from_json_line(&line).unwrap();
        assert!(back.tenant.unwrap().slowdown.is_nan());
    }

    #[test]
    fn seeds_survive_beyond_f64_precision() {
        let r = sample(RecordKind::T1Case);
        let back = ManifestRecord::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back.scenario.seed, u64::MAX - 3);
    }

    #[test]
    fn hostile_cpu_cost_is_an_error_not_a_panic() {
        let line = sample(RecordKind::T1Case).to_json_line();
        for bad in ["-1", "1e999"] {
            let hostile = line.replace(
                "\"cpu_ms_per_block\":0",
                &format!("\"cpu_ms_per_block\":{bad}"),
            );
            assert_ne!(hostile, line);
            let err = ManifestRecord::from_json_line(&hostile).unwrap_err();
            assert!(err.to_string().contains("cpu_ms_per_block"), "{err}");
        }
    }

    #[test]
    fn manifest_round_trips_and_skips_env_records() {
        let records = vec![sample(RecordKind::T1Case), sample(RecordKind::SweepPoint)];
        let mut text = render_manifest(&records);
        text.push_str(&env_record_line(8, 12.5));
        text.push('\n');
        text.push('\n'); // blank line tolerated
        let parsed = parse_manifest(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn env_record_is_valid_json_with_host_facts() {
        let line = env_record_line(4, 1.25);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("env"));
        assert_eq!(v.get("jobs").and_then(Value::as_u64), Some(4));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let good = sample(RecordKind::T1Case).to_json_line();
        let text = format!("{good}\n{{\"schema\":1,\"kind\":\"t1\"}}\n");
        let err = parse_manifest(&text).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().starts_with("line 2:"), "{err}");
    }

    #[test]
    fn pass_field_round_trips() {
        let mut r = sample(RecordKind::EngineExec);
        r.pass = Some(2);
        let line = r.to_json_line();
        assert!(line.contains("\"pass\":2"));
        assert_eq!(ManifestRecord::from_json_line(&line).unwrap(), r);
    }

    #[test]
    fn tenant_field_round_trips_on_contend_records() {
        let mut r = sample(RecordKind::Contend);
        r.tenant = Some(TenantInfo {
            name: "big".into(),
            priority: 3,
            arrival_secs: 0.002,
            cache_blocks: 1500,
            sched: "wfq".into(),
            cache_policy: "proportional".into(),
            isolated_secs: 9.5,
            makespan_secs: 17.3,
            queue_wait_secs: 0.004,
            slowdown: 1.8210526315789475,
        });
        let line = r.to_json_line();
        assert!(line.contains("\"kind\":\"contend\""));
        assert!(line.contains("\"sched\":\"wfq\""));
        assert_eq!(ManifestRecord::from_json_line(&line).unwrap(), r);
    }

    #[test]
    fn v2_lines_without_tenant_still_parse() {
        let mut r = sample(RecordKind::EngineExec);
        r.schema = 2;
        r.pass = Some(1);
        let line = r.to_json_line().replace("\"tenant\":null,", "");
        assert!(!line.contains("\"tenant\""));
        let back = ManifestRecord::from_json_line(&line).unwrap();
        assert_eq!(back.schema, 2);
        assert_eq!(back.tenant, None);
        assert_eq!(back.pass, Some(1));
    }

    #[test]
    fn v1_lines_without_pass_still_parse() {
        // A schema-1 line predates the `pass` field entirely.
        let mut r = sample(RecordKind::T1Case);
        r.schema = 1;
        let line = r.to_json_line().replace("\"pass\":null,", "");
        // Only the residual check's own `pass` flag remains.
        assert!(!line.contains("\"pass\":null"));
        let back = ManifestRecord::from_json_line(&line).unwrap();
        assert_eq!(back.schema, 1);
        assert_eq!(back.pass, None);
        assert_eq!(back.scenario, r.scenario);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut r = sample(RecordKind::T1Case);
        r.schema = 99;
        let err = ManifestRecord::from_json_line(&r.to_json_line()).unwrap_err();
        assert!(err.to_string().contains("schema 99"), "{err}");
    }

    #[test]
    fn strategy_kinds_keep_their_wire_names() {
        for (strategy, json) in [
            (PrefetchStrategy::None, r#"{"kind":"none"}"#),
            (
                PrefetchStrategy::IntraRun { n: 7 },
                r#"{"kind":"intra","n":7}"#,
            ),
            (
                PrefetchStrategy::InterRun { n: 3 },
                r#"{"kind":"inter","n":3}"#,
            ),
            (
                PrefetchStrategy::InterRunAdaptive { n_min: 2, n_max: 9 },
                r#"{"kind":"adaptive","n_min":2,"n_max":9}"#,
            ),
        ] {
            let mut r = sample(RecordKind::T1Case);
            r.scenario.strategy = strategy;
            let line = r.to_json_line();
            assert!(line.contains(&format!("\"strategy\":{json}")), "{line}");
            let back = ManifestRecord::from_json_line(&line).unwrap();
            assert_eq!(back.scenario.strategy, strategy);
        }
        let line = sample(RecordKind::T1Case)
            .to_json_line()
            .replace("\"inter\"", "\"bogus\"");
        let err = ManifestRecord::from_json_line(&line).unwrap_err();
        assert!(
            err.to_string().contains("unknown strategy kind 'bogus'"),
            "{err}"
        );
    }

    #[test]
    fn emission_is_deterministic() {
        let r = sample(RecordKind::SweepPoint);
        assert_eq!(r.to_json_line(), r.to_json_line());
        assert_eq!(
            render_manifest(&[r.clone(), r.clone()]),
            render_manifest(&[r.clone(), r])
        );
    }
}
