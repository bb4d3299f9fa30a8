//! [`TenantSim`] — N merge jobs contending for shared disks and cache.
//!
//! The paper models one merge owning `D` disks and `kBT` of cache. A
//! service runs many: jobs arrive over time, each with its own scenario
//! and priority, and the shared hardware is divided by policy. This
//! module answers "what does policy X cost tenant Y" without real I/O,
//! in two stages:
//!
//! 1. **Isolated profile.** Each tenant's scenario — its cache budget
//!    set by the [`CachePolicy`] grant, its seed drawn from the
//!    per-tenant stream of [`pm_sim::derive_seeds`] — runs through the
//!    full [`pm_core::MergeSim`], yielding its per-disk busy time and
//!    request count. That profile *is* the paper's model: prefetch
//!    strategy, admission and cache pressure all shape it.
//! 2. **Contention replay.** Each tenant's per-disk demand is replayed
//!    as batched requests (batch = its prefetch depth, the burst a
//!    prefetch operation issues) over the shared disk set, with the
//!    [`IoSched`] policy choosing the next request every time a disk
//!    frees. One closed batch per tenant-disk lane is outstanding at a
//!    time — the next batch is enqueued when the current one completes,
//!    exactly the demand-paced loop the merge runs.
//!
//! # Determinism
//!
//! Everything is integer arithmetic over a calendar queue whose events
//! are totally ordered by `(time, tenant, seq)` — the tie-break the
//! whole workspace contracts on. Stage 1 runs tenants on a worker pool
//! ([`pm_core::parallel::run_ordered`]) with pre-derived seeds, so the
//! report is bit-identical for every `--jobs` value; stage 2 is a
//! sequential replay of stage-1 numbers. Steady state allocates
//! nothing: lanes, queues and the event calendar are pre-sized at
//! admission (the perf-smoke harness gates this).

use pm_core::{MergeConfig, MergeSim, PmError};
use pm_metrics::{MetricsSink, NullMetrics};
use pm_sim::{derive_seeds, SimDuration};

use crate::policy::{CacheDemand, CachePolicy, Fifo, IoSched, PendingIo};

/// Nanoseconds per second, for metric observations (seconds-valued).
const NANOS_PER_SEC: f64 = 1e9;

/// One tenant's admission request: a scenario plus service terms.
#[derive(Debug, Clone)]
pub struct TenantJob {
    /// Display name (report rows, CSV).
    pub name: String,
    /// The merge the tenant wants to run, built via
    /// [`pm_core::ScenarioBuilder`]. Its `cache_blocks` is what the
    /// tenant *asks* for; the [`CachePolicy`] decides the grant. Its
    /// `seed` is overwritten by the per-tenant derived stream.
    pub scenario: MergeConfig,
    /// When the tenant shows up.
    pub arrival: SimDuration,
    /// Scheduling weight, `>= 1`. Feeds [`PendingIo::weight`] and the
    /// proportional cache policy.
    pub priority: u32,
}

/// The shared hardware every tenant contends for.
#[derive(Debug, Clone, Copy)]
pub struct SharedSpec {
    /// Disks in the shared set. Tenant `t`'s disk `i` maps onto shared
    /// disk `(i + t) mod disks`, so tenants with fewer disks than the
    /// set still spread out instead of piling on disk 0.
    pub disks: u32,
    /// Global cache budget in blocks, divided by the [`CachePolicy`].
    pub cache_blocks: u32,
}

/// Knobs of one [`TenantSim::run`].
#[derive(Debug, Clone, Copy)]
pub struct TenantSimOptions {
    /// Worker threads for the isolated profiles (0 = all cores,
    /// 1 = inline). Output is bit-identical for every value.
    pub jobs: usize,
}

impl Default for TenantSimOptions {
    fn default() -> Self {
        TenantSimOptions { jobs: 1 }
    }
}

/// What one tenant experienced under contention.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The job's display name.
    pub name: String,
    /// Scheduling weight the job ran with.
    pub priority: u32,
    /// When the tenant arrived.
    pub arrival: SimDuration,
    /// Cache frames the policy granted.
    pub cache_blocks: u32,
    /// Total time of the tenant's isolated [`MergeSim`] run (context:
    /// the paper's single-job figure under the granted cache).
    pub sim_total: SimDuration,
    /// Requests the tenant replayed into the shared set.
    pub requests: u64,
    /// Makespan of the tenant's demand alone on the shared set — the
    /// slowdown baseline.
    pub isolated: SimDuration,
    /// Arrival-to-completion time under contention.
    pub makespan: SimDuration,
    /// Mean enqueue-to-service wait per request under contention.
    pub queue_wait: SimDuration,
    /// `makespan / isolated`.
    pub slowdown: f64,
}

/// Everything one contention run reports.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// Per-tenant outcomes, in job order.
    pub tenants: Vec<TenantOutcome>,
    /// First arrival to last completion.
    pub makespan: SimDuration,
    /// The I/O scheduling policy's label.
    pub sched: &'static str,
    /// The cache policy's label.
    pub cache_policy: &'static str,
}

impl ContentionReport {
    /// Max/min tenant slowdown — the unfairness measure the E17 sweep
    /// plots. `1.0` when every tenant slows down equally.
    #[must_use]
    pub fn fairness(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0_f64;
        for t in &self.tenants {
            min = min.min(t.slowdown);
            max = max.max(t.slowdown);
        }
        if min > 0.0 && min.is_finite() {
            max / min
        } else {
            f64::NAN
        }
    }
}

/// One tenant-disk demand lane: `requests` requests of `cost` ns each
/// against shared disk `disk`, issued `batch` at a time.
#[derive(Debug, Clone, Copy)]
struct Lane {
    tenant: u32,
    disk: u32,
    weight: u32,
    cost: u64,
    batch: u32,
    requests: u64,
}

/// A lane's live replay state.
#[derive(Debug, Clone, Copy, Default)]
struct LaneRun {
    /// Requests not yet placed in a batch.
    to_issue: u64,
    /// Requests of the current batch still waiting in the disk queue.
    queued: u32,
    /// Requests dispatched but not yet completed (0 or 1).
    outstanding: u32,
    /// Enqueue instant of the current batch (queue-wait accounting).
    enq_at: u64,
    /// Position of this lane's entry in its disk's pending vector, only
    /// meaningful while `queued > 0`.
    slot: u32,
}

/// Calendar event: what fires and the tenant it belongs to (completions
/// carry the disk; the served tenant is looked up from the disk state).
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(u32),
    Complete(u32),
}

/// `(time, tenant, seq)` — the workspace's documented tie-break, as a
/// directly comparable key.
type EvKey = (u64, u32, u64);

/// The contention simulator. Construct once per shared-hardware spec and
/// reuse across policy sweeps — scratch state is recycled.
#[derive(Debug)]
pub struct TenantSim {
    shared: SharedSpec,
    // --- scratch, reused across runs ---
    lanes: Vec<Lane>,
    lane_run: Vec<LaneRun>,
    /// Lane index ranges per tenant: lanes[range(t)] belong to tenant t.
    lane_start: Vec<usize>,
    /// Per-disk queues: the scheduler's view and the owning lane index,
    /// kept index-parallel.
    pending: Vec<Vec<PendingIo>>,
    pending_lane: Vec<Vec<u32>>,
    /// Per-disk dispatched request: (lane, completion cost), if any.
    in_service: Vec<Option<u32>>,
    /// Per-disk requests of every lane, queued plus in service.
    outstanding: Vec<u32>,
    /// The event calendar: flat min-scan on the (time, tenant, seq) key.
    calendar: Vec<(EvKey, Ev)>,
    // --- per-tenant replay accumulators ---
    finish: Vec<u64>,
    open_lanes: Vec<u32>,
    wait_sum: Vec<u64>,
    served: Vec<u64>,
}

impl TenantSim {
    /// A simulator over the given shared hardware.
    #[must_use]
    pub fn new(shared: SharedSpec) -> Self {
        TenantSim {
            shared,
            lanes: Vec::new(),
            lane_run: Vec::new(),
            lane_start: Vec::new(),
            pending: Vec::new(),
            pending_lane: Vec::new(),
            in_service: Vec::new(),
            outstanding: Vec::new(),
            calendar: Vec::new(),
            finish: Vec::new(),
            open_lanes: Vec::new(),
            wait_sum: Vec::new(),
            served: Vec::new(),
        }
    }

    /// Admits `jobs`, grants cache by `cache`, profiles every tenant in
    /// isolation (on up to `opts.jobs` threads, bit-identically), and
    /// replays the contention under `sched`.
    ///
    /// Live metrics go to `metrics`: cache grants, per-trial
    /// isolated-profile counters, per-dispatch disk/tenant observations
    /// and per-disk outstanding requests from the *contended* replay (the
    /// isolated baselines stay silent), WFQ virtual-time lag samples,
    /// and final slowdowns. Recording is
    /// observational — the returned report is bit-identical under
    /// [`NullMetrics`], which records nothing, and because the replay is
    /// sequential and counter aggregation commutes, the recorded totals
    /// are identical for every `opts.jobs` value.
    ///
    /// # Errors
    ///
    /// [`PmError::Usage`] if the job list is empty, a scenario wants
    /// more disks than the shared set has, or a cache grant is below a
    /// tenant's minimum; [`PmError::Config`] if a granted scenario fails
    /// validation.
    pub fn run<M: MetricsSink>(
        &mut self,
        jobs: &[TenantJob],
        cache: &dyn CachePolicy,
        sched: &mut dyn IoSched,
        master_seed: u64,
        opts: &TenantSimOptions,
        metrics: &M,
    ) -> Result<ContentionReport, PmError> {
        if jobs.is_empty() {
            return Err(PmError::Usage("no tenant jobs to admit".into()));
        }
        let disks = self.shared.disks as usize;
        for (t, job) in jobs.iter().enumerate() {
            if job.scenario.disks > self.shared.disks {
                return Err(PmError::Usage(format!(
                    "tenant {t} ({}) wants {} disks but the shared set has {}",
                    job.name, job.scenario.disks, self.shared.disks
                )));
            }
        }

        // Cache grants, validated against each tenant's floor.
        let demands: Vec<CacheDemand> = jobs
            .iter()
            .map(|j| CacheDemand {
                weight: j.priority.max(1),
                requested: j.scenario.cache_blocks,
                min: j.scenario.min_cache_blocks(),
            })
            .collect();
        let mut grants = Vec::new();
        cache.allocate(self.shared.cache_blocks, &demands, &mut grants);
        assert_eq!(grants.len(), jobs.len(), "policy must grant every tenant");
        for (t, (grant, demand)) in grants.iter().zip(&demands).enumerate() {
            if *grant < demand.min {
                return Err(PmError::Usage(format!(
                    "cache policy '{}' grants tenant {t} ({}) {grant} blocks, \
                     below its minimum of {} — raise --cache or drop tenants",
                    cache.label(),
                    jobs[t].name,
                    demand.min
                )));
            }
        }

        if M::ENABLED {
            for (t, grant) in grants.iter().enumerate() {
                metrics.tenant_grant(t, u64::from(*grant));
            }
        }

        // Isolated profiles: per-tenant seeds pre-derived, fan-out
        // jobs-invariant by construction.
        let seeds = derive_seeds(master_seed, jobs.len());
        let configs: Vec<MergeConfig> = jobs
            .iter()
            .zip(&grants)
            .zip(&seeds)
            .map(|((job, &grant), &seed)| {
                let mut cfg = job.scenario;
                cfg.cache_blocks = grant;
                cfg.seed = seed;
                cfg
            })
            .collect();
        let reports = pm_core::parallel::run_ordered(configs.len(), opts.jobs, |t| {
            MergeSim::run_uniform(configs[t])
        });

        // Demand lanes from the profiles.
        self.lanes.clear();
        self.lane_start.clear();
        let mut sim_totals = Vec::with_capacity(jobs.len());
        for (t, report) in reports.into_iter().enumerate() {
            let report = report.map_err(PmError::from)?;
            if M::ENABLED {
                metrics.trial_done(
                    configs[t].strategy.label(),
                    report.blocks_merged,
                    report.demand_ops,
                    report.fallback_ops,
                    report.full_prefetch_ops,
                );
            }
            self.lane_start.push(self.lanes.len());
            let total_busy: u64 = report.per_disk_busy.iter().map(|b| b.as_nanos()).sum();
            for (i, busy) in report.per_disk_busy.iter().enumerate() {
                let busy = busy.as_nanos();
                if busy == 0 || total_busy == 0 {
                    continue;
                }
                let requests = ((u128::from(report.disk_requests) * u128::from(busy)
                    / u128::from(total_busy)) as u64)
                    .max(1);
                self.lanes.push(Lane {
                    tenant: t as u32,
                    disk: ((i + t) % disks) as u32,
                    weight: jobs[t].priority.max(1),
                    cost: (busy / requests).max(1),
                    batch: configs[t].strategy.depth().max(1),
                    requests,
                });
            }
            sim_totals.push(report.total);
        }
        self.lane_start.push(self.lanes.len());

        // Pre-size every replay structure: nothing below allocates.
        let n = jobs.len();
        self.lane_run.resize(self.lanes.len(), LaneRun::default());
        self.pending.resize_with(disks, Vec::new);
        self.pending_lane.resize_with(disks, Vec::new);
        for d in 0..disks {
            self.pending[d].clear();
            self.pending[d].reserve(n);
            self.pending_lane[d].clear();
            self.pending_lane[d].reserve(n);
        }
        self.in_service.resize(disks, None);
        self.outstanding.resize(disks, 0);
        self.calendar
            .reserve((n + disks).saturating_sub(self.calendar.capacity()));
        self.finish.resize(n, 0);
        self.open_lanes.resize(n, 0);
        self.wait_sum.resize(n, 0);
        self.served.resize(n, 0);

        // Baselines: each tenant alone on the shared set, any
        // work-conserving policy is FIFO when only one tenant queues.
        let mut fifo = Fifo;
        let mut isolated = vec![0u64; n];
        for (t, iso) in isolated.iter_mut().enumerate() {
            fifo.reset(disks, n);
            self.replay(jobs, Some(t), &mut fifo, &NullMetrics);
            *iso = self.finish[t].saturating_sub(jobs[t].arrival.as_nanos());
        }

        // The contended run — the only replay that records.
        sched.reset(disks, n);
        self.replay(jobs, None, sched, metrics);

        let mut tenants = Vec::with_capacity(n);
        let mut first_arrival = u64::MAX;
        let mut last_finish = 0u64;
        for (t, job) in jobs.iter().enumerate() {
            let arrival = job.arrival.as_nanos();
            first_arrival = first_arrival.min(arrival);
            last_finish = last_finish.max(self.finish[t]);
            let makespan = self.finish[t].saturating_sub(arrival);
            let requests: u64 = self.tenant_lanes(t).map(|l| l.requests).sum();
            tenants.push(TenantOutcome {
                name: job.name.clone(),
                priority: job.priority.max(1),
                arrival: job.arrival,
                cache_blocks: grants[t],
                sim_total: sim_totals[t],
                requests,
                isolated: SimDuration::from_nanos(isolated[t]),
                makespan: SimDuration::from_nanos(makespan),
                queue_wait: SimDuration::from_nanos(self.wait_sum[t] / self.served[t].max(1)),
                slowdown: if isolated[t] > 0 {
                    makespan as f64 / isolated[t] as f64
                } else {
                    1.0
                },
            });
            if M::ENABLED {
                metrics.tenant_slowdown(t, tenants[t].slowdown);
            }
        }
        Ok(ContentionReport {
            tenants,
            makespan: SimDuration::from_nanos(last_finish.saturating_sub(first_arrival)),
            sched: sched.label(),
            cache_policy: cache.label(),
        })
    }

    fn tenant_lanes(&self, t: usize) -> impl Iterator<Item = &Lane> {
        self.lanes[self.lane_start[t]..self.lane_start[t + 1]].iter()
    }

    /// Replays the admitted demand through the shared disk set under
    /// `sched`. `only` restricts the replay to a single tenant (the
    /// isolated baseline). Fills `self.finish` / `wait_sum` / `served`.
    fn replay<M: MetricsSink>(
        &mut self,
        jobs: &[TenantJob],
        only: Option<usize>,
        sched: &mut dyn IoSched,
        metrics: &M,
    ) {
        let n = jobs.len();
        let active = |t: usize| only.map_or(true, |o| o == t);
        for t in 0..n {
            self.finish[t] = 0;
            self.wait_sum[t] = 0;
            self.served[t] = 0;
            self.open_lanes[t] = 0;
        }
        for (l, lane) in self.lanes.iter().enumerate() {
            self.lane_run[l] = LaneRun {
                to_issue: lane.requests,
                ..LaneRun::default()
            };
            if active(lane.tenant as usize) {
                self.open_lanes[lane.tenant as usize] += 1;
            }
        }
        for d in 0..self.pending.len() {
            self.pending[d].clear();
            self.pending_lane[d].clear();
            self.in_service[d] = None;
            self.outstanding[d] = 0;
        }
        self.calendar.clear();
        let mut seq = 0u64;
        for (t, job) in jobs.iter().enumerate() {
            if active(t) {
                self.calendar.push((
                    (job.arrival.as_nanos(), t as u32, seq),
                    Ev::Arrive(t as u32),
                ));
                seq += 1;
            }
        }
        while let Some((key, ev)) = pop_min(&mut self.calendar) {
            let now = key.0;
            match ev {
                Ev::Arrive(t) => {
                    let (start, end) =
                        (self.lane_start[t as usize], self.lane_start[t as usize + 1]);
                    if start == end {
                        // No I/O demand at all: the tenant is done on arrival.
                        self.finish[t as usize] = now;
                        continue;
                    }
                    for l in start..end {
                        self.enqueue_batch(l, now, &mut seq, sched, metrics);
                    }
                    for l in start..end {
                        self.try_start(self.lanes[l].disk as usize, now, &mut seq, sched, metrics);
                    }
                }
                Ev::Complete(d) => {
                    let d = d as usize;
                    let l = self.in_service[d]
                        .take()
                        .expect("completion without service") as usize;
                    let t = self.lanes[l].tenant as usize;
                    let run = &mut self.lane_run[l];
                    run.outstanding -= 1;
                    self.outstanding[d] -= 1;
                    if M::ENABLED {
                        metrics.disk_queue_depth(d, f64::from(self.outstanding[d]));
                    }
                    if run.queued == 0 && run.to_issue > 0 {
                        self.enqueue_batch(l, now, &mut seq, sched, metrics);
                    } else if run.queued == 0 && run.outstanding == 0 && run.to_issue == 0 {
                        self.open_lanes[t] -= 1;
                        if self.open_lanes[t] == 0 {
                            self.finish[t] = now;
                        }
                    }
                    self.try_start(d, now, &mut seq, sched, metrics);
                }
            }
        }
    }

    /// Opens lane `l`'s next batch: one pending entry covering
    /// `min(batch, to_issue)` requests, timestamped now.
    fn enqueue_batch<M: MetricsSink>(
        &mut self,
        l: usize,
        now: u64,
        seq: &mut u64,
        sched: &mut dyn IoSched,
        metrics: &M,
    ) {
        let lane = self.lanes[l];
        let run = &mut self.lane_run[l];
        debug_assert_eq!(run.queued, 0);
        let cnt = u64::from(lane.batch).min(run.to_issue);
        if cnt == 0 {
            return;
        }
        run.to_issue -= cnt;
        run.queued = cnt as u32;
        run.enq_at = now;
        run.slot = self.pending[lane.disk as usize].len() as u32;
        let io = PendingIo {
            tenant: lane.tenant,
            weight: lane.weight,
            seq: *seq,
            cost: lane.cost,
        };
        self.pending[lane.disk as usize].push(io);
        self.pending_lane[lane.disk as usize].push(l as u32);
        *seq += 1;
        for _ in 0..cnt {
            sched.enqueued(lane.disk as usize, &io);
        }
        let d = lane.disk as usize;
        self.outstanding[d] += cnt as u32;
        if M::ENABLED {
            metrics.disk_queue_depth(d, f64::from(self.outstanding[d]));
        }
    }

    /// Dispatches the scheduler's pick on disk `d` if it is idle.
    fn try_start<M: MetricsSink>(
        &mut self,
        d: usize,
        now: u64,
        seq: &mut u64,
        sched: &mut dyn IoSched,
        metrics: &M,
    ) {
        if self.in_service[d].is_some() || self.pending[d].is_empty() {
            return;
        }
        let idx = sched.pick(d, &self.pending[d]);
        let io = self.pending[d][idx];
        sched.served(d, &io);
        let l = self.pending_lane[d][idx] as usize;
        let t = self.lanes[l].tenant as usize;
        let run = &mut self.lane_run[l];
        run.queued -= 1;
        run.outstanding += 1;
        self.wait_sum[t] += now.saturating_sub(run.enq_at);
        self.served[t] += 1;
        if M::ENABLED {
            // bytes = 0: the replay models service time per request, not a
            // byte stream — the byte counter stays with the engine face.
            let wait = now.saturating_sub(run.enq_at) as f64 / NANOS_PER_SEC;
            let service = io.cost as f64 / NANOS_PER_SEC;
            metrics.disk_io(d, 0, wait, service);
            metrics.tenant_wait(t, wait);
            metrics.tenant_blocks(t, 1);
            if let Some(lag) = sched.vtime_lag(d, t) {
                metrics.wfq_lag(t, lag);
            }
        }
        if run.queued == 0 {
            // The batch's last request left the queue: drop the entry.
            self.pending[d].swap_remove(idx);
            self.pending_lane[d].swap_remove(idx);
            if idx < self.pending_lane[d].len() {
                let moved = self.pending_lane[d][idx] as usize;
                self.lane_run[moved].slot = idx as u32;
            }
        }
        self.in_service[d] = Some(l as u32);
        self.calendar
            .push(((now + io.cost, t as u32, *seq), Ev::Complete(d as u32)));
        *seq += 1;
    }
}

/// Removes and returns the smallest-keyed event by a linear min-scan. The
/// calendar holds at most one completion per disk plus the un-fired
/// arrivals. Its key orders same-instant events by tenant before
/// arrival, which `pm_sim::EventQueue`'s `(time, insertion order)` key
/// cannot express, so it keeps its own store.
fn pop_min(calendar: &mut Vec<(EvKey, Ev)>) -> Option<(EvKey, Ev)> {
    let mut best = 0;
    for i in 1..calendar.len() {
        if calendar[i].0 < calendar[best].0 {
            best = i;
        }
    }
    if calendar.is_empty() {
        None
    } else {
        Some(calendar.swap_remove(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ProportionalShare, StaticPartition, StrictPriority, Wfq};
    use pm_core::ScenarioBuilder;

    fn job(name: &str, runs: u32, disks: u32, n: u32, arrival_ms: u64, priority: u32) -> TenantJob {
        TenantJob {
            name: name.into(),
            scenario: ScenarioBuilder::new(runs, disks)
                .inter(n)
                .run_blocks(60)
                .build()
                .unwrap(),
            arrival: SimDuration::from_millis(arrival_ms),
            priority,
        }
    }

    fn shared() -> SharedSpec {
        SharedSpec {
            disks: 4,
            cache_blocks: 4000,
        }
    }

    #[test]
    fn contention_slows_tenants_down() {
        let jobs = vec![job("a", 8, 4, 4, 0, 1), job("b", 8, 4, 4, 0, 1)];
        let mut sim = TenantSim::new(shared());
        let report = sim
            .run(
                &jobs,
                &StaticPartition,
                &mut Fifo,
                42,
                &TenantSimOptions::default(),
                &NullMetrics,
            )
            .unwrap();
        assert_eq!(report.tenants.len(), 2);
        for t in &report.tenants {
            assert!(t.slowdown >= 1.0, "{}: slowdown {}", t.name, t.slowdown);
            assert!(t.makespan >= t.isolated);
            assert!(t.requests > 0);
        }
        assert!(report.fairness() >= 1.0);
    }

    /// Every `disk_queue_depth` reading, and every dispatch (`None`), in
    /// order, with its disk.
    #[derive(Default)]
    struct DepthLog(std::sync::Mutex<Vec<(usize, Option<f64>)>>);

    impl MetricsSink for DepthLog {
        fn disk_io(&self, disk: usize, _bytes: u64, _wait: f64, _service: f64) {
            self.0.lock().unwrap().push((disk, None));
        }

        fn disk_queue_depth(&self, disk: usize, depth: f64) {
            self.0.lock().unwrap().push((disk, Some(depth)));
        }
    }

    #[test]
    fn the_contended_replay_reports_each_disks_outstanding_requests() {
        // Batches of 4 requests: a pending entry is not a request.
        let jobs = vec![job("a", 8, 4, 4, 0, 1), job("b", 6, 3, 4, 1, 1)];
        let log = DepthLog::default();
        TenantSim::new(shared())
            .run(
                &jobs,
                &StaticPartition,
                &mut Fifo,
                42,
                &TenantSimOptions::default(),
                &log,
            )
            .unwrap();
        let log = log.0.into_inner().unwrap();
        for d in 0..4 {
            let dispatched = log.iter().filter(|&&(e, r)| e == d && r.is_none()).count();
            assert!(dispatched > 0, "disk {d} served nothing");
            // Each reading rises by an enqueued batch's requests or falls
            // by one completed request, and ends at 0.
            let (mut depth, mut enqueued, mut completed) = (0.0, 0usize, 0usize);
            for &(_, next) in log.iter().filter(|&&(e, r)| e == d && r.is_some()) {
                let next = next.unwrap();
                if next > depth {
                    enqueued += (next - depth) as usize;
                } else {
                    assert_eq!(next, depth - 1.0, "disk {d}: a completion steps by one");
                    completed += 1;
                }
                depth = next;
            }
            assert_eq!(depth, 0.0, "disk {d}");
            assert_eq!((enqueued, completed), (dispatched, dispatched), "disk {d}");
        }
    }

    #[test]
    fn single_tenant_sees_no_contention() {
        let jobs = vec![job("solo", 8, 4, 4, 3, 1)];
        let mut sim = TenantSim::new(shared());
        let report = sim
            .run(
                &jobs,
                &StaticPartition,
                &mut Fifo,
                7,
                &TenantSimOptions::default(),
                &NullMetrics,
            )
            .unwrap();
        let t = &report.tenants[0];
        assert_eq!(t.makespan, t.isolated, "alone == baseline");
        assert!((t.slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_and_jobs_invariant() {
        let jobs = vec![
            job("a", 8, 4, 4, 0, 2),
            job("b", 6, 3, 2, 1, 1),
            job("c", 4, 2, 8, 2, 1),
        ];
        let run = |threads: usize| {
            let mut sim = TenantSim::new(shared());
            let mut wfq = Wfq::new();
            let opts = TenantSimOptions { jobs: threads };
            sim.run(
                &jobs,
                &ProportionalShare,
                &mut wfq,
                1992,
                &opts,
                &NullMetrics,
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.makespan, y.makespan);
            assert_eq!(x.queue_wait, y.queue_wait);
            assert_eq!(x.isolated, y.isolated);
            assert_eq!(x.requests, y.requests);
            assert!((x.slowdown - y.slowdown).abs() < 1e-15);
        }
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn strict_priority_favors_the_heavy_tenant() {
        let jobs = vec![job("hi", 8, 4, 4, 0, 8), job("lo", 8, 4, 4, 0, 1)];
        let mut sim = TenantSim::new(shared());
        let report = sim
            .run(
                &jobs,
                &StaticPartition,
                &mut StrictPriority,
                3,
                &TenantSimOptions::default(),
                &NullMetrics,
            )
            .unwrap();
        let hi = &report.tenants[0];
        let lo = &report.tenants[1];
        assert!(
            hi.slowdown < lo.slowdown,
            "priority tenant must suffer less: hi {} vs lo {}",
            hi.slowdown,
            lo.slowdown
        );
    }

    #[test]
    fn wfq_is_fairer_than_fifo_under_skewed_bursts() {
        // Heterogeneous prefetch depths arriving in a burst — the E17
        // shape. FIFO hands each tenant bandwidth proportional to its
        // batch depth (a deep batch holds the disk end to end), so the
        // shallow tenant's slowdown balloons; WFQ serves flows by tag and
        // equalizes the shares.
        let jobs = vec![
            job("big", 12, 4, 8, 0, 1),
            job("mid", 8, 4, 4, 1, 1),
            job("small", 4, 2, 2, 2, 1),
        ];
        let mut sim = TenantSim::new(SharedSpec {
            disks: 4,
            cache_blocks: 6000,
        });
        let opts = TenantSimOptions::default();
        let fifo = sim
            .run(&jobs, &StaticPartition, &mut Fifo, 11, &opts, &NullMetrics)
            .unwrap();
        let mut wfq_sched = Wfq::new();
        let wfq = sim
            .run(
                &jobs,
                &StaticPartition,
                &mut wfq_sched,
                11,
                &opts,
                &NullMetrics,
            )
            .unwrap();
        assert!(
            wfq.fairness() < fifo.fairness(),
            "WFQ must bound unfairness: wfq {} vs fifo {}",
            wfq.fairness(),
            fifo.fairness()
        );
    }

    #[test]
    fn undersized_cache_grant_is_rejected() {
        let jobs = vec![job("a", 8, 4, 4, 0, 1), job("b", 8, 4, 4, 0, 1)];
        let mut sim = TenantSim::new(SharedSpec {
            disks: 4,
            cache_blocks: 40,
        });
        let err = sim
            .run(
                &jobs,
                &StaticPartition,
                &mut Fifo,
                1,
                &TenantSimOptions::default(),
                &NullMetrics,
            )
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("below its minimum"), "{err}");
    }

    #[test]
    fn too_many_disks_is_rejected() {
        let jobs = vec![job("wide", 8, 8, 2, 0, 1)];
        let mut sim = TenantSim::new(shared());
        let err = sim
            .run(
                &jobs,
                &StaticPartition,
                &mut Fifo,
                1,
                &TenantSimOptions::default(),
                &NullMetrics,
            )
            .unwrap_err();
        assert!(err.to_string().contains("shared set"), "{err}");
    }
}
