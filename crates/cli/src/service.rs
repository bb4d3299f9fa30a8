//! `pmerge contend` and `pmerge serve` — the multi-tenant service face.
//!
//! Both commands admit a set of tenant jobs (from a `--scenario-file`
//! JSON spec, or synthesized with `--tenants` for quick sweeps) and
//! divide shared hardware by policy: a [`pm_service::CachePolicy`]
//! grants each tenant its cache frames and a [`pm_service::IoSched`]
//! arbitrates the shared disks.
//!
//! * `contend` is pure simulation: [`pm_service::TenantSim`] profiles
//!   every tenant in isolation and replays the contention, sweeping one
//!   or more scheduling × cache-policy combinations. Output is
//!   deterministic and `--jobs`-invariant (CSV rows byte-identical for
//!   any worker count).
//! * `serve` executes: each tenant's records are generated and merged
//!   for real through a [`pm_engine::SharedDeviceSet`] on the in-memory
//!   backend, scheduled by the *same* policy object the simulator
//!   sweeps. Every job is verified against its own isolated run
//!   (byte-identical output, identical request sequences) and against
//!   the simulator ([`pm_engine::MergeEngine::predict`] parity).
//!
//! The scenario file is one JSON object:
//!
//! ```json
//! {
//!   "disks": 4,
//!   "cache_blocks": 6000,
//!   "tenants": [
//!     {"name": "big", "runs": 12, "n": 8, "priority": 2,
//!      "arrival_ms": 0, "records": 30000, "memory": 3000}
//!   ]
//! }
//! ```
//!
//! Tenant fields and defaults: `runs` 8, `run_blocks` 60, `disks`
//! (shared set size), `strategy` "inter" with depth `n` 4, `cache` 0
//! (strategy default), `arrival_ms` 0, `priority` 1, plus the
//! serve-only workload knobs `records` 20000 and `memory` 2000.

use std::sync::Arc;

use pm_core::{MergeConfig, PmError, ScenarioBuilder};
use pm_engine::{ExecConfig, ExecOutcome, MergeEngine, SharedDeviceSet, ThreadedQueue};
use pm_metrics::{MetricsSink, StackMetrics};
use pm_extsort::{generate, run_formation};
use pm_obs::json::Value;
use pm_obs::{ManifestRecord, PointMetrics, RecordKind, TenantInfo, SCHEMA_VERSION};
use pm_report::{Align, Table};
use pm_service::{
    cache_policy_by_name, sched_by_name, ContentionReport, SharedSpec, TenantJob, TenantSim,
    TenantSimOptions,
};
use pm_sim::{derive_seeds, SimDuration};
use pm_trace::EventKind;
use pm_workload::spec::ScenarioSpec;

use crate::args::Args;
use crate::metrics::MetricsArgs;

/// One [`StackMetrics`] bundle sized for the shared hardware and the
/// tenant roster, when `--metrics-out` asked for one.
fn stack_metrics_for(
    metrics_args: &Option<MetricsArgs>,
    disks: u32,
    jobs: &[TenantJob],
) -> Option<Arc<StackMetrics>> {
    metrics_args.as_ref().map(|_| {
        let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
        Arc::new(StackMetrics::new(disks as usize, &names))
    })
}

const CONTEND_KEYS: &[&str] = &[
    "scenario-file", "tenants", "disks", "cache", "sched", "cache-policy", "jobs", "seed",
    "csv", "manifest-out", "metrics-out", "metrics-interval",
];

const SERVE_KEYS: &[&str] = &[
    "scenario-file", "sched", "cache-policy", "rpb", "queue-depth", "seed",
    "manifest-out",
    "metrics-out", "metrics-interval",
];

/// One tenant's parsed spec: scenario shape plus service terms and the
/// serve-side workload knobs.
struct JobSpec {
    name: String,
    runs: u32,
    run_blocks: u32,
    disks: u32,
    strategy: String,
    n: u32,
    cache: u32,
    arrival_ms: f64,
    priority: u32,
    records: usize,
    memory: usize,
}

impl JobSpec {
    /// Builds the tenant's merge scenario (cache 0 = strategy default).
    fn scenario(&self, shared_disks: u32) -> Result<MergeConfig, PmError> {
        let disks = self.disks.min(shared_disks).max(1);
        let mut b = ScenarioBuilder::new(self.runs, disks).run_blocks(self.run_blocks);
        b = match self.strategy.as_str() {
            "none" => b.no_prefetch(),
            "intra" => b.intra(self.n),
            "inter" => b.inter(self.n),
            "adaptive" => b.adaptive(1, self.n.max(2)),
            other => {
                return Err(PmError::Usage(format!(
                    "tenant '{}': unknown strategy '{other}' (none | intra | inter | adaptive)",
                    self.name
                )))
            }
        };
        if self.cache > 0 {
            b = b.cache_blocks(self.cache);
        }
        b.build()
    }

    fn tenant_job(&self, shared_disks: u32) -> Result<TenantJob, PmError> {
        Ok(TenantJob {
            name: self.name.clone(),
            scenario: self.scenario(shared_disks)?,
            arrival: SimDuration::from_millis_f64(self.arrival_ms.max(0.0)),
            priority: self.priority,
        })
    }
}

/// The parsed scenario file: shared hardware plus the tenant roster.
struct ServiceSpec {
    shared: SharedSpec,
    tenants: Vec<JobSpec>,
}

fn get_f64(v: &Value, key: &str, default: f64) -> Result<f64, PmError> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| PmError::Usage(format!("scenario file: '{key}' must be a number"))),
    }
}

fn get_u32(v: &Value, key: &str, default: u32) -> Result<u32, PmError> {
    Ok(get_f64(v, key, f64::from(default))? as u32)
}

fn parse_spec(text: &str) -> Result<ServiceSpec, PmError> {
    let v = Value::parse(text).map_err(|e| PmError::Usage(format!("scenario file: {e}")))?;
    let disks = get_u32(&v, "disks", 4)?;
    let cache_blocks = get_u32(&v, "cache_blocks", 6000)?;
    let tenants = v
        .get("tenants")
        .and_then(Value::as_arr)
        .ok_or_else(|| PmError::Usage("scenario file: missing 'tenants' array".into()))?;
    if tenants.is_empty() {
        return Err(PmError::Usage("scenario file: 'tenants' is empty".into()));
    }
    let mut specs = Vec::with_capacity(tenants.len());
    for (i, t) in tenants.iter().enumerate() {
        let name = match t.get("name").and_then(Value::as_str) {
            Some(s) => s.to_string(),
            None => format!("tenant-{i}"),
        };
        specs.push(JobSpec {
            runs: get_u32(t, "runs", 8)?,
            run_blocks: get_u32(t, "run_blocks", 60)?,
            disks: get_u32(t, "disks", disks)?,
            strategy: t
                .get("strategy")
                .and_then(Value::as_str)
                .unwrap_or("inter")
                .to_string(),
            n: get_u32(t, "n", 4)?,
            cache: get_u32(t, "cache", 0)?,
            arrival_ms: get_f64(t, "arrival_ms", 0.0)?,
            priority: get_u32(t, "priority", 1)?.max(1),
            records: get_u32(t, "records", 20_000)? as usize,
            memory: get_u32(t, "memory", 2_000)? as usize,
            name,
        });
    }
    Ok(ServiceSpec {
        shared: SharedSpec { disks, cache_blocks },
        tenants: specs,
    })
}

/// Synthesizes a skewed-burst roster for `--tenants N`: heterogeneous
/// prefetch depths (deep tenants monopolize FIFO disks), bursts of
/// three arriving together every 250 ms, the deep tenant of each burst
/// carrying double weight.
fn synth_spec(n: u32, disks: u32, cache_blocks: u32) -> ServiceSpec {
    let tenants = (0..n)
        .map(|t| {
            let class = (t % 3) as usize;
            JobSpec {
                name: format!("t{t}-{}", ["big", "mid", "small"][class]),
                runs: [12, 8, 4][class],
                run_blocks: 60,
                disks,
                strategy: "inter".into(),
                n: [8, 4, 2][class],
                cache: 0,
                arrival_ms: f64::from(t / 3) * 250.0,
                priority: [2, 1, 1][class],
                records: [30_000, 20_000, 10_000][class],
                memory: [3_000, 2_500, 2_500][class],
            }
        })
        .collect();
    ServiceSpec {
        shared: SharedSpec { disks, cache_blocks },
        tenants,
    }
}

fn load_spec(args: &Args) -> Result<ServiceSpec, PmError> {
    let mut spec = match args.get("scenario-file") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| PmError::io(format!("cannot read '{path}'"), e))?;
            parse_spec(&text)?
        }
        None => {
            let n: u32 = args.get_parsed("tenants", 0u32)?;
            if n == 0 {
                return Err(PmError::Usage(
                    "pass --scenario-file <jobs.json> or --tenants <n>".into(),
                ));
            }
            synth_spec(
                n,
                args.get_parsed("disks", 4u32)?,
                args.get_parsed("cache", 24_000u32)?,
            )
        }
    };
    // Flags override the file's shared-hardware block.
    if let Some(d) = args.get("disks") {
        spec.shared.disks = d
            .parse()
            .map_err(|_| PmError::Usage(format!("invalid value '{d}' for --disks")))?;
    }
    if let Some(c) = args.get("cache") {
        spec.shared.cache_blocks = c
            .parse()
            .map_err(|_| PmError::Usage(format!("invalid value '{c}' for --cache")))?;
    }
    if spec.shared.disks == 0 {
        return Err(PmError::Usage("--disks must be positive".into()));
    }
    Ok(spec)
}

/// `pmerge contend`
pub fn contend(args: &Args) -> Result<(), PmError> {
    args.check_known(CONTEND_KEYS)?;
    let spec = load_spec(args)?;
    let seed: u64 = args.get_parsed("seed", 1992)?;
    let opts = TenantSimOptions {
        jobs: args.get_parsed("jobs", 0usize)?,
    };
    let scheds: Vec<&str> = args.get("sched").unwrap_or("fifo,wfq").split(',').collect();
    let cache_policies: Vec<&str> = args
        .get("cache-policy")
        .unwrap_or("static")
        .split(',')
        .collect();

    let jobs: Vec<TenantJob> = spec
        .tenants
        .iter()
        .map(|t| t.tenant_job(spec.shared.disks))
        .collect::<Result<_, _>>()?;
    let metrics_args = MetricsArgs::from_args(args)?;
    let metrics = stack_metrics_for(&metrics_args, spec.shared.disks, &jobs);
    let live = metrics_args
        .as_ref()
        .zip(metrics.as_ref())
        .map(|(ma, m)| ma.live(m));

    let mut sim = TenantSim::new(spec.shared);
    let mut reports = Vec::new();
    for cp_name in &cache_policies {
        let cache = cache_policy_by_name(cp_name)
            .map_err(|n| PmError::Usage(format!("unknown cache policy '{n}'")))?;
        for sched_name in &scheds {
            let mut sched = sched_by_name(sched_name)
                .map_err(|n| PmError::Usage(format!("unknown scheduler '{n}'")))?;
            reports.push(match &metrics {
                Some(m) => sim.run_metered(&jobs, &*cache, &mut *sched, seed, &opts, &**m)?,
                None => sim.run(&jobs, &*cache, &mut *sched, seed, &opts)?,
            });
        }
    }
    if let Some(live) = live {
        live.finish();
    }

    for report in &reports {
        print_contention(report, spec.shared.cache_blocks);
    }
    if let Some(path) = args.get("csv") {
        let csv = contention_csv(&reports);
        std::fs::write(path, csv).map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote CSV -> {path}");
    }
    if let Some(path) = args.get("manifest-out") {
        let records = contention_manifest(&jobs, &reports, seed);
        std::fs::write(path, pm_obs::render_manifest(&records))
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote manifest -> {path} ({} records)", records.len());
    }
    if let (Some(ma), Some(m)) = (&metrics_args, &metrics) {
        ma.write(m)?;
    }
    Ok(())
}

fn print_contention(report: &ContentionReport, cache_total: u32) {
    println!(
        "\n=== sched {} · cache {} ===",
        report.sched, report.cache_policy
    );
    let mut t = Table::new(
        ["tenant", "prio", "arrive ms", "cache", "isolated ms", "makespan ms", "wait ms",
         "slowdown"]
            .iter()
            .map(ToString::to_string)
            .collect(),
    );
    for i in 1..8 {
        t.set_align(i, Align::Right);
    }
    for o in &report.tenants {
        t.add_row(vec![
            o.name.clone(),
            o.priority.to_string(),
            format!("{:.0}", o.arrival.as_millis_f64()),
            o.cache_blocks.to_string(),
            format!("{:.2}", o.isolated.as_millis_f64()),
            format!("{:.2}", o.makespan.as_millis_f64()),
            format!("{:.3}", o.queue_wait.as_millis_f64()),
            format!("{:.4}", o.slowdown),
        ]);
    }
    println!("{}", t.render());
    println!(
        "makespan {:.2} ms · fairness (max/min slowdown) {:.4} · shared cache {} blocks",
        report.makespan.as_millis_f64(),
        report.fairness(),
        cache_total,
    );
}

/// Deterministic CSV over every (policy combo, tenant) row. All values
/// derive from integer sim time, so rows are byte-identical for any
/// `--jobs` value.
fn contention_csv(reports: &[ContentionReport]) -> String {
    let mut out = String::from(
        "sched,cache_policy,tenant,priority,arrival_ms,cache_blocks,\
         isolated_ms,makespan_ms,queue_wait_ms,slowdown,fairness\n",
    );
    for r in reports {
        let fairness = r.fairness();
        for o in &r.tenants {
            out.push_str(&format!(
                "{},{},{},{},{:.3},{},{:.3},{:.3},{:.3},{:.6},{:.6}\n",
                r.sched,
                r.cache_policy,
                o.name,
                o.priority,
                o.arrival.as_millis_f64(),
                o.cache_blocks,
                o.isolated.as_millis_f64(),
                o.makespan.as_millis_f64(),
                o.queue_wait.as_millis_f64(),
                o.slowdown,
                fairness,
            ));
        }
    }
    out
}

fn tenant_info(report: &ContentionReport, o: &pm_service::TenantOutcome) -> TenantInfo {
    TenantInfo {
        name: o.name.clone(),
        priority: o.priority,
        arrival_secs: o.arrival.as_secs_f64(),
        cache_blocks: o.cache_blocks,
        sched: report.sched.to_string(),
        cache_policy: report.cache_policy.to_string(),
        isolated_secs: o.isolated.as_secs_f64(),
        makespan_secs: o.makespan.as_secs_f64(),
        queue_wait_secs: o.queue_wait.as_secs_f64(),
        slowdown: o.slowdown,
    }
}

/// One `kind: "contend"` record per (policy combo, tenant).
fn contention_manifest(
    jobs: &[TenantJob],
    reports: &[ContentionReport],
    master_seed: u64,
) -> Vec<ManifestRecord> {
    let seeds = derive_seeds(master_seed, jobs.len());
    let mut records = Vec::new();
    for report in reports {
        for (t, o) in report.tenants.iter().enumerate() {
            let mut cfg = jobs[t].scenario;
            cfg.cache_blocks = o.cache_blocks;
            cfg.seed = seeds[t];
            records.push(ManifestRecord {
                schema: SCHEMA_VERSION,
                kind: RecordKind::Contend,
                label: format!(
                    "contend: {} · {} · {}",
                    report.sched, report.cache_policy, o.name
                ),
                pass: None,
                tenant: Some(tenant_info(report, o)),
                sweep: None,
                x: None,
                x_label: None,
                scenario: ScenarioSpec::from_config(o.name.clone(), &cfg),
                master_seed,
                trials: 1,
                auto: None,
                metrics: PointMetrics {
                    mean_total_secs: o.makespan.as_secs_f64(),
                    ci_half_width_secs: 0.0,
                    confidence: 0.95,
                    mean_concurrency: 0.0,
                    mean_busy_disks: 0.0,
                    mean_success_ratio: None,
                    blocks_merged: o.requests,
                },
                analytic: None,
                trace: None,
            });
        }
    }
    records
}

/// `pmerge serve`
pub fn serve(args: &Args) -> Result<(), PmError> {
    args.check_known(SERVE_KEYS)?;
    let spec = load_spec_for_serve(args)?;
    let seed: u64 = args.get_parsed("seed", 1992)?;
    let rpb: u32 = args.get_parsed("rpb", 20u32)?;
    // Per-disk I/O queue depth (0 = each tenant's prefetch depth).
    let queue: usize = args.get_parsed("queue-depth", 0usize)?;
    let sched_name = args.get("sched").unwrap_or("wfq");
    let cp_name = args.get("cache-policy").unwrap_or("static");
    let sched = sched_by_name(sched_name)
        .map_err(|n| PmError::Usage(format!("unknown scheduler '{n}'")))?;
    let cache = cache_policy_by_name(cp_name)
        .map_err(|n| PmError::Usage(format!("unknown cache policy '{n}'")))?;

    // Admission: grant cache by policy, then plan every tenant's engine
    // over its own formed runs.
    let jobs: Vec<TenantJob> = spec
        .tenants
        .iter()
        .map(|t| t.tenant_job(spec.shared.disks))
        .collect::<Result<_, _>>()?;
    let demands: Vec<pm_service::CacheDemand> = jobs
        .iter()
        .map(|j| pm_service::CacheDemand {
            weight: j.priority.max(1),
            requested: j.scenario.cache_blocks,
            min: j.scenario.min_cache_blocks(),
        })
        .collect();
    let mut grants = Vec::new();
    cache.allocate(spec.shared.cache_blocks, &demands, &mut grants);
    for (t, (grant, demand)) in grants.iter().zip(&demands).enumerate() {
        if *grant < demand.min {
            return Err(PmError::Usage(format!(
                "cache policy '{}' grants tenant {t} ({}) {grant} blocks, below its \
                 minimum of {} — raise the shared cache or drop tenants",
                cache.label(),
                jobs[t].name,
                demand.min
            )));
        }
    }

    let metrics_args = MetricsArgs::from_args(args)?;
    let metrics = stack_metrics_for(&metrics_args, spec.shared.disks, &jobs);
    if let Some(m) = &metrics {
        for (t, grant) in grants.iter().enumerate() {
            m.tenant_grant(t, u64::from(*grant));
        }
    }

    let seeds = derive_seeds(seed, jobs.len());
    let mut engines = Vec::with_capacity(jobs.len());
    let mut run_sets = Vec::with_capacity(jobs.len());
    for (t, (job, spec_t)) in jobs.iter().zip(&spec.tenants).enumerate() {
        let input = generate::uniform(spec_t.records, seeds[t]);
        let runs = run_formation::load_sort(&input, spec_t.memory);
        let mut cfg = job.scenario;
        cfg.cache_blocks = grants[t];
        cfg.seed = seeds[t];
        let mut exec = ExecConfig::new(cfg);
        exec.records_per_block = rpb;
        exec.queue_depth = queue;
        let engine = MergeEngine::new(exec, runs.iter().map(Vec::len).collect())?;
        engines.push(engine);
        run_sets.push(runs);
    }

    // Shared execution: every engine merges concurrently through one
    // SharedDeviceSet, scheduled by the chosen policy.
    let disks = spec.shared.disks as usize;
    let live = metrics_args
        .as_ref()
        .zip(metrics.as_ref())
        .map(|(ma, m)| ma.live(m));
    let mut set =
        SharedDeviceSet::start_with_metrics(disks, jobs.len(), sched, 1.0, metrics.clone());
    let mut threads = Vec::new();
    for (t, (engine, runs)) in engines.iter().zip(&run_sets).enumerate() {
        let mut queue = ThreadedQueue::memory(disks, engine.block_bytes(), engine.queue_options());
        engine.load(&mut queue, runs)?;
        let port = set.port(queue.into_device(), jobs[t].priority);
        threads.push(std::thread::spawn({
            let engine = engine.clone();
            let metrics = metrics.clone();
            move || match &metrics {
                Some(m) => engine.execute_shared_metered(port, &**m),
                None => engine.execute_shared(port),
            }
        }));
    }
    let mut outcomes = Vec::with_capacity(threads.len());
    for t in threads {
        outcomes.push(t.join().map_err(|_| {
            PmError::Usage("a tenant's merge thread panicked".into())
        })??);
    }
    set.shutdown();
    if let Some(live) = live {
        live.finish();
    }

    // Verification: each tenant byte-identical to its isolated run, with
    // simulator parity on its request sequences.
    let mut isolated = Vec::with_capacity(engines.len());
    for (engine, runs) in engines.iter().zip(&run_sets) {
        let mut queue = ThreadedQueue::memory(disks, engine.block_bytes(), engine.queue_options());
        engine.load(&mut queue, runs)?;
        isolated.push(engine.execute(Box::new(queue))?);
    }
    for (t, ((engine, shared), alone)) in
        engines.iter().zip(&outcomes).zip(&isolated).enumerate()
    {
        let name = &jobs[t].name;
        if shared.output != alone.output {
            return Err(PmError::Tolerance(format!(
                "tenant {t} ({name}): shared output differs from its isolated run"
            )));
        }
        if shared.requests != alone.requests {
            return Err(PmError::Tolerance(format!(
                "tenant {t} ({name}): shared request sequences differ from isolated"
            )));
        }
        let prediction = engine.predict(&shared.depletion)?;
        if prediction.requests != shared.requests {
            return Err(PmError::Tolerance(format!(
                "tenant {t} ({name}): simulator replay diverged from the engine"
            )));
        }
    }

    // The isolated verification runs above go through the unmetered
    // `execute`, so the export reflects only the shared service.
    if let Some(m) = &metrics {
        for (t, (shared, alone)) in outcomes.iter().zip(&isolated).enumerate() {
            let alone_secs = alone.report.wall.as_secs_f64();
            if alone_secs > 0.0 {
                m.tenant_slowdown(t, shared.report.wall.as_secs_f64() / alone_secs);
            }
        }
    }

    print_serve(&jobs, &grants, &outcomes, &isolated, sched_name, cp_name);
    if let Some(path) = args.get("manifest-out") {
        let records = serve_manifest(
            &jobs, &grants, &engines, &outcomes, &isolated, sched_name, cp_name, seed,
        );
        std::fs::write(path, pm_obs::render_manifest(&records))
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote manifest -> {path} ({} records)", records.len());
    }
    if let (Some(ma), Some(m)) = (&metrics_args, &metrics) {
        ma.write(m)?;
    }
    println!(
        "\nserved {} tenants over {} shared disks: every job byte-identical to its \
         isolated run, simulator parity held",
        jobs.len(),
        disks,
    );
    Ok(())
}

fn load_spec_for_serve(args: &Args) -> Result<ServiceSpec, PmError> {
    if args.get("scenario-file").is_none() {
        return Err(PmError::Usage(
            "serve needs --scenario-file <jobs.json> (see 'pmerge help')".into(),
        ));
    }
    load_spec(args)
}

/// Mean input-request queue wait (submit → service start) in seconds,
/// from the engine's trace events.
fn mean_queue_wait_secs(outcome: &ExecOutcome) -> f64 {
    let mut issued = std::collections::BTreeMap::new();
    let mut total = 0.0f64;
    let mut served = 0u64;
    for ev in &outcome.events {
        match ev.kind {
            EventKind::DiskIssue { disk, output: false, span, .. } => {
                issued.insert((disk, span), ev.at);
            }
            EventKind::DiskTransferDone { disk, output: false, span, started, .. } => {
                if let Some(at) = issued.remove(&(disk, span)) {
                    total += started.since(at).as_secs_f64();
                    served += 1;
                }
            }
            _ => {}
        }
    }
    if served == 0 {
        0.0
    } else {
        total / served as f64
    }
}

fn print_serve(
    jobs: &[TenantJob],
    grants: &[u32],
    outcomes: &[ExecOutcome],
    isolated: &[ExecOutcome],
    sched: &str,
    cache_policy: &str,
) {
    println!("\n=== serve: sched {sched} · cache {cache_policy} ===");
    let mut t = Table::new(
        ["tenant", "prio", "cache", "records", "shared ms", "isolated ms", "slowdown",
         "wait ms"]
            .iter()
            .map(ToString::to_string)
            .collect(),
    );
    for i in 1..8 {
        t.set_align(i, Align::Right);
    }
    for (((job, grant), shared), alone) in
        jobs.iter().zip(grants).zip(outcomes).zip(isolated)
    {
        let shared_ms = shared.report.wall.as_secs_f64() * 1e3;
        let alone_ms = alone.report.wall.as_secs_f64() * 1e3;
        t.add_row(vec![
            job.name.clone(),
            job.priority.to_string(),
            grant.to_string(),
            shared.output.len().to_string(),
            format!("{shared_ms:.2}"),
            format!("{alone_ms:.2}"),
            format!("{:.3}", if alone_ms > 0.0 { shared_ms / alone_ms } else { f64::NAN }),
            format!("{:.3}", mean_queue_wait_secs(shared) * 1e3),
        ]);
    }
    println!("{}", t.render());
}

/// One `kind: "exec"` record per tenant, tagged with its service terms.
#[allow(clippy::too_many_arguments)]
fn serve_manifest(
    jobs: &[TenantJob],
    grants: &[u32],
    engines: &[MergeEngine],
    outcomes: &[ExecOutcome],
    isolated: &[ExecOutcome],
    sched: &str,
    cache_policy: &str,
    master_seed: u64,
) -> Vec<ManifestRecord> {
    jobs.iter()
        .enumerate()
        .map(|(t, job)| {
            let shared = &outcomes[t];
            let alone = &isolated[t];
            let cfg = engines[t].merge_config();
            let shared_secs = shared.report.wall.as_secs_f64();
            let alone_secs = alone.report.wall.as_secs_f64();
            ManifestRecord {
                schema: SCHEMA_VERSION,
                kind: RecordKind::EngineExec,
                label: format!("serve: {sched} · {cache_policy} · {}", job.name),
                pass: None,
                tenant: Some(TenantInfo {
                    name: job.name.clone(),
                    priority: job.priority,
                    arrival_secs: job.arrival.as_secs_f64(),
                    cache_blocks: grants[t],
                    sched: sched.to_string(),
                    cache_policy: cache_policy.to_string(),
                    isolated_secs: alone_secs,
                    makespan_secs: shared_secs,
                    queue_wait_secs: mean_queue_wait_secs(shared),
                    slowdown: if alone_secs > 0.0 {
                        shared_secs / alone_secs
                    } else {
                        f64::NAN
                    },
                }),
                sweep: None,
                x: None,
                x_label: None,
                scenario: ScenarioSpec::from_config(job.name.clone(), cfg),
                master_seed,
                trials: 1,
                auto: None,
                metrics: PointMetrics {
                    mean_total_secs: shared_secs,
                    ci_half_width_secs: 0.0,
                    confidence: 0.95,
                    mean_concurrency: 0.0,
                    mean_busy_disks: 0.0,
                    mean_success_ratio: None,
                    blocks_merged: shared
                        .requests
                        .iter()
                        .map(|d| d.len() as u64)
                        .sum(),
                },
                analytic: None,
                trace: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_scenario_file() {
        let spec = parse_spec(
            r#"{"disks": 3, "cache_blocks": 4000,
                "tenants": [{"name": "a", "runs": 6, "n": 4},
                            {"priority": 2, "arrival_ms": 150.5}]}"#,
        )
        .unwrap();
        assert_eq!(spec.shared.disks, 3);
        assert_eq!(spec.shared.cache_blocks, 4000);
        assert_eq!(spec.tenants.len(), 2);
        assert_eq!(spec.tenants[0].name, "a");
        assert_eq!(spec.tenants[0].runs, 6);
        assert_eq!(spec.tenants[1].name, "tenant-1");
        assert_eq!(spec.tenants[1].priority, 2);
        assert!((spec.tenants[1].arrival_ms - 150.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_missing_tenants() {
        assert!(parse_spec(r#"{"disks": 2}"#).is_err());
        assert!(parse_spec(r#"{"disks": 2, "tenants": []}"#).is_err());
    }

    #[test]
    fn synth_roster_is_heterogeneous_and_bursty() {
        let spec = synth_spec(6, 4, 24_000);
        assert_eq!(spec.tenants.len(), 6);
        let depths: Vec<u32> = spec.tenants.iter().map(|t| t.n).collect();
        assert_eq!(depths, vec![8, 4, 2, 8, 4, 2]);
        assert_eq!(spec.tenants[2].arrival_ms, 0.0);
        assert_eq!(spec.tenants[3].arrival_ms, 250.0);
    }

    #[test]
    fn scenario_respects_shared_disk_cap() {
        let spec = synth_spec(1, 8, 24_000);
        let cfg = spec.tenants[0].scenario(2).unwrap();
        assert_eq!(cfg.disks, 2);
    }
}
