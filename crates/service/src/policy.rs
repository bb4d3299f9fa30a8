//! The policy core: how tenants share the cache and the disks.
//!
//! Both faces of the service layer consume these traits — the pure
//! contention simulator ([`crate::TenantSim`]) and the engine's shared
//! device set (`pm_engine::SharedDeviceSet`) — so a policy measured in
//! simulation is the same object that schedules real I/O.
//!
//! [`CachePolicy`] divides the global cache budget among tenants once at
//! admission. [`IoSched`] picks, every time a disk frees up, which queued
//! request it services next; implementations keep whatever per-disk /
//! per-tenant state they need ([`IoSched::reset`] pre-sizes it, so the
//! dispatch path allocates nothing).

/// One queued request as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingIo {
    /// Issuing tenant (dense `0..tenants` index).
    pub tenant: u32,
    /// Scheduling weight — the tenant's priority, `>= 1`.
    pub weight: u32,
    /// Global enqueue sequence on this disk: smaller = enqueued earlier.
    /// A tenant's own requests always appear in `seq` order.
    pub seq: u64,
    /// Service-cost estimate in nanoseconds (the engine face, which has
    /// no model of a request's cost, passes a uniform `1`).
    pub cost: u64,
}

/// Picks the next request a freed disk services.
///
/// The contract shared by both faces: `pick` must return an index into
/// `pending` (which is never empty) and must not mutate scheduling state
/// — commitment happens in [`IoSched::served`], called exactly once for
/// the picked entry. Scheduling is work-conserving by construction: the
/// caller only asks when at least one request is queued.
pub trait IoSched: Send {
    /// Short stable policy name (CLI flag value and report label).
    fn label(&self) -> &'static str;

    /// Drops all state and pre-sizes for `disks` disks and `tenants`
    /// tenants. Called once before a run; dispatch never allocates.
    fn reset(&mut self, disks: usize, tenants: usize);

    /// A request joined `disk`'s queue. Called once per request, before
    /// it can ever be picked — this is where virtual-time schedulers
    /// stamp a flow's backlog transition.
    fn enqueued(&mut self, _disk: usize, _io: &PendingIo) {}

    /// Index into `pending` of the request `disk` services next.
    fn pick(&mut self, disk: usize, pending: &[PendingIo]) -> usize;

    /// The picked entry was dispatched on `disk`; update bookkeeping.
    fn served(&mut self, _disk: usize, _io: &PendingIo) {}

    /// Virtual-time lag of `tenant`'s flow on `disk`, in cost units: how
    /// far the flow's last finish tag trails the disk's virtual clock
    /// (0 when the flow is keeping pace). `None` for schedulers with no
    /// virtual-time notion — callers feed it to the per-tenant
    /// `pm_tenant_wfq_lag_ticks` gauge only when present.
    fn vtime_lag(&self, _disk: usize, _tenant: usize) -> Option<u64> {
        None
    }
}

/// First-come-first-served: strictly by enqueue order, blind to tenant,
/// weight and cost. A tenant that bursts a deep prefetch batch ahead of
/// others holds the disk for the whole batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl IoSched for Fifo {
    fn label(&self) -> &'static str {
        "fifo"
    }

    fn reset(&mut self, _disks: usize, _tenants: usize) {}

    fn pick(&mut self, _disk: usize, pending: &[PendingIo]) -> usize {
        let mut best = 0;
        for (i, io) in pending.iter().enumerate().skip(1) {
            if io.seq < pending[best].seq {
                best = i;
            }
        }
        best
    }
}

/// Strict priority: the highest weight wins, FIFO within a weight class.
/// Starves low-priority tenants for as long as higher ones have work.
#[derive(Debug, Default, Clone, Copy)]
pub struct StrictPriority;

impl IoSched for StrictPriority {
    fn label(&self) -> &'static str {
        "priority"
    }

    fn reset(&mut self, _disks: usize, _tenants: usize) {}

    fn pick(&mut self, _disk: usize, pending: &[PendingIo]) -> usize {
        let mut best = 0;
        for (i, io) in pending.iter().enumerate().skip(1) {
            let b = &pending[best];
            if (io.weight, std::cmp::Reverse(io.seq)) > (b.weight, std::cmp::Reverse(b.seq)) {
                best = i;
            }
        }
        best
    }
}

/// Fixed-point scale for virtual-time tags: `cost << WFQ_SHIFT / weight`
/// keeps sub-cost resolution for weights up to 2^16 without floats.
const WFQ_SHIFT: u32 = 16;

/// Weighted fair queueing, self-clocked (SCFQ, Golestani '94). Each
/// flow — a (disk, tenant) pair — carries a virtual finish tag: its next
/// request's tag is `max(last tag, virtual start) + cost/weight`, where
/// the virtual start is the disk's virtual time frozen at the instant
/// the flow went from idle to backlogged (so a flow cannot hoard credit
/// by sleeping). The disk serves the smallest tag and its virtual time
/// advances to the tag of the request in service. Over any backlogged
/// interval each tenant receives service proportional to its weight, so
/// one tenant's burst delays others by at most one request's worth of
/// service instead of a whole batch.
#[derive(Debug, Default)]
pub struct Wfq {
    /// Per-disk virtual time: tag of the most recently dispatched request.
    vtime: Vec<u64>,
    /// Last assigned finish tag per flow, indexed `disk * tenants + t`.
    finish: Vec<u64>,
    /// Virtual time at the flow's last idle-to-backlogged transition.
    vstart: Vec<u64>,
    /// Requests currently queued per flow (backlog detector).
    queued: Vec<u32>,
    tenants: usize,
}

impl Wfq {
    /// An empty scheduler; [`IoSched::reset`] sizes it.
    #[must_use]
    pub fn new() -> Self {
        Wfq::default()
    }

    /// The virtual finish tag of `io` — the head request of its flow.
    /// Later requests of the same flow share it (they can only be picked
    /// after the head anyway; the `seq` tie-break keeps them in order).
    fn tag(&self, disk: usize, io: &PendingIo) -> u64 {
        let flow = disk * self.tenants + io.tenant as usize;
        let start = self.finish[flow].max(self.vstart[flow]);
        start.saturating_add((io.cost << WFQ_SHIFT) / u64::from(io.weight.max(1)))
    }
}

impl IoSched for Wfq {
    fn label(&self) -> &'static str {
        "wfq"
    }

    fn reset(&mut self, disks: usize, tenants: usize) {
        self.tenants = tenants;
        self.vtime.clear();
        self.vtime.resize(disks, 0);
        self.finish.clear();
        self.finish.resize(disks * tenants, 0);
        self.vstart.clear();
        self.vstart.resize(disks * tenants, 0);
        self.queued.clear();
        self.queued.resize(disks * tenants, 0);
    }

    fn enqueued(&mut self, disk: usize, io: &PendingIo) {
        let flow = disk * self.tenants + io.tenant as usize;
        if self.queued[flow] == 0 {
            self.vstart[flow] = self.vtime[disk];
        }
        self.queued[flow] += 1;
    }

    fn pick(&mut self, disk: usize, pending: &[PendingIo]) -> usize {
        let mut best = 0;
        let mut best_key = (self.tag(disk, &pending[0]), pending[0].seq);
        for (i, io) in pending.iter().enumerate().skip(1) {
            let key = (self.tag(disk, io), io.seq);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    fn served(&mut self, disk: usize, io: &PendingIo) {
        let tag = self.tag(disk, io);
        let flow = disk * self.tenants + io.tenant as usize;
        self.finish[flow] = tag;
        self.vtime[disk] = tag;
        self.queued[flow] = self.queued[flow].saturating_sub(1);
    }

    fn vtime_lag(&self, disk: usize, tenant: usize) -> Option<u64> {
        let flow = disk * self.tenants + tenant;
        let lag = self
            .vtime
            .get(disk)?
            .saturating_sub(*self.finish.get(flow)?);
        Some(lag >> WFQ_SHIFT)
    }
}

/// Builds the scheduler named by a CLI flag value.
///
/// # Errors
///
/// Returns the unknown name so the caller can format a usage error.
pub fn sched_by_name(name: &str) -> Result<Box<dyn IoSched>, String> {
    match name {
        "fifo" => Ok(Box::new(Fifo)),
        "wfq" => Ok(Box::new(Wfq::new())),
        "priority" => Ok(Box::new(StrictPriority)),
        other => Err(other.to_string()),
    }
}

/// One tenant's cache needs as the partitioning policy sees them.
#[derive(Debug, Clone, Copy)]
pub struct CacheDemand {
    /// Scheduling weight (the tenant's priority), `>= 1`.
    pub weight: u32,
    /// Frames the tenant's scenario asks for when it runs alone.
    pub requested: u32,
    /// Frames below which the tenant's merge cannot start at all
    /// (its initial load; [`pm_core::MergeConfig::min_cache_blocks`]).
    pub min: u32,
}

/// Splits the global cache budget among tenants at admission time.
pub trait CachePolicy {
    /// Short stable policy name (CLI flag value and report label).
    fn label(&self) -> &'static str;

    /// Writes tenant `i`'s frame budget into `out[i]`. `out` arrives
    /// empty; implementations push exactly `demands.len()` entries. The
    /// caller validates every grant against [`CacheDemand::min`].
    fn allocate(&self, total: u32, demands: &[CacheDemand], out: &mut Vec<u32>);
}

/// Equal static shares: every tenant gets `total / n` frames regardless
/// of weight or demand. Predictable, but small jobs strand cache that
/// big jobs starve for.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticPartition;

impl CachePolicy for StaticPartition {
    fn label(&self) -> &'static str {
        "static"
    }

    fn allocate(&self, total: u32, demands: &[CacheDemand], out: &mut Vec<u32>) {
        let n = demands.len() as u32;
        out.extend(demands.iter().map(|_| total / n.max(1)));
    }
}

/// Weight-proportional shares: tenant `i` gets `total * w_i / Σw`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProportionalShare;

impl CachePolicy for ProportionalShare {
    fn label(&self) -> &'static str {
        "proportional"
    }

    fn allocate(&self, total: u32, demands: &[CacheDemand], out: &mut Vec<u32>) {
        let sum: u64 = demands.iter().map(|d| u64::from(d.weight.max(1))).sum();
        out.extend(
            demands
                .iter()
                .map(|d| (u64::from(total) * u64::from(d.weight.max(1)) / sum.max(1)) as u32),
        );
    }
}

/// No partitioning: every tenant is granted what it asked for, capped at
/// the whole budget. Optimistic — models an uncontrolled shared cache,
/// and overcommits whenever requests sum past the budget.
#[derive(Debug, Default, Clone, Copy)]
pub struct FreeForAll;

impl CachePolicy for FreeForAll {
    fn label(&self) -> &'static str {
        "free"
    }

    fn allocate(&self, total: u32, demands: &[CacheDemand], out: &mut Vec<u32>) {
        out.extend(demands.iter().map(|d| d.requested.min(total)));
    }
}

/// Builds the cache policy named by a CLI flag value.
///
/// # Errors
///
/// Returns the unknown name so the caller can format a usage error.
pub fn cache_policy_by_name(name: &str) -> Result<Box<dyn CachePolicy>, String> {
    match name {
        "static" => Ok(Box::new(StaticPartition)),
        "proportional" => Ok(Box::new(ProportionalShare)),
        "free" => Ok(Box::new(FreeForAll)),
        other => Err(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(tenant: u32, weight: u32, seq: u64, cost: u64) -> PendingIo {
        PendingIo {
            tenant,
            weight,
            seq,
            cost,
        }
    }

    #[test]
    fn fifo_picks_earliest_seq() {
        let mut s = Fifo;
        s.reset(2, 2);
        let pending = [io(1, 1, 7, 10), io(0, 9, 3, 10), io(0, 1, 5, 1)];
        assert_eq!(s.pick(0, &pending), 1);
    }

    #[test]
    fn strict_priority_prefers_weight_then_fifo() {
        let mut s = StrictPriority;
        s.reset(1, 3);
        let pending = [io(0, 1, 1, 10), io(1, 5, 4, 10), io(2, 5, 2, 10)];
        assert_eq!(s.pick(0, &pending), 2, "highest weight, earliest seq");
    }

    #[test]
    fn wfq_alternates_equal_weights() {
        // Tenant 0 bursts 4 requests before tenant 1's batch of 4; FIFO
        // would drain tenant 0 first, WFQ must alternate.
        let mut s = Wfq::new();
        s.reset(1, 2);
        let mut pending = vec![
            io(0, 1, 0, 100),
            io(0, 1, 1, 100),
            io(0, 1, 2, 100),
            io(0, 1, 3, 100),
            io(1, 1, 4, 100),
            io(1, 1, 5, 100),
            io(1, 1, 6, 100),
            io(1, 1, 7, 100),
        ];
        for p in &pending {
            s.enqueued(0, p);
        }
        let mut order = Vec::new();
        while !pending.is_empty() {
            let i = s.pick(0, &pending);
            let picked = pending.remove(i);
            s.served(0, &picked);
            order.push(picked.tenant);
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn wfq_shares_in_weight_proportion() {
        // Weight 3 vs 1 over a long backlog: tenant 0 gets ~3x the service.
        let mut s = Wfq::new();
        s.reset(1, 2);
        let mut pending: Vec<PendingIo> = Vec::new();
        for k in 0..40u64 {
            pending.push(io((k % 2) as u32, if k % 2 == 0 { 3 } else { 1 }, k, 100));
        }
        for p in &pending {
            s.enqueued(0, p);
        }
        let mut first16 = Vec::new();
        for _ in 0..16 {
            let i = s.pick(0, &pending);
            let picked = pending.remove(i);
            s.served(0, &picked);
            first16.push(picked.tenant);
        }
        let t0 = first16.iter().filter(|&&t| t == 0).count();
        assert_eq!(
            t0, 12,
            "weight-3 tenant gets 3/4 of early service: {first16:?}"
        );
    }

    #[test]
    fn wfq_denies_credit_to_sleeping_flows() {
        // Tenant 1 sleeps while tenant 0 is served 6 times; on waking its
        // virtual start is the disk's current virtual time, so it must not
        // monopolize the disk to "catch up" — the disk alternates at once
        // (seq breaks the first tag tie toward the never-idle flow).
        let mut s = Wfq::new();
        s.reset(1, 2);
        let mut pending: Vec<PendingIo> = (0..10).map(|k| io(0, 1, k, 100)).collect();
        for p in &pending {
            s.enqueued(0, p);
        }
        for _ in 0..6 {
            let i = s.pick(0, &pending);
            let picked = pending.remove(i);
            s.served(0, &picked);
        }
        // Tenant 1 wakes with a burst of 4.
        for k in 0..4u64 {
            let p = io(1, 1, 100 + k, 100);
            s.enqueued(0, &p);
            pending.push(p);
        }
        let mut order = Vec::new();
        while !pending.is_empty() {
            let i = s.pick(0, &pending);
            let picked = pending.remove(i);
            s.served(0, &picked);
            order.push(picked.tenant);
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn wfq_lag_tracks_the_starved_flow() {
        let mut s = Wfq::new();
        s.reset(1, 2);
        // Both flows backlogged, but only tenant 0 gets served.
        let pending: Vec<PendingIo> = vec![io(0, 1, 0, 100), io(0, 1, 1, 100), io(1, 1, 2, 100)];
        for p in &pending {
            s.enqueued(0, p);
        }
        s.served(0, &pending[0]);
        s.served(0, &pending[1]);
        assert_eq!(s.vtime_lag(0, 0), Some(0), "served flow keeps pace");
        let lag = s.vtime_lag(0, 1).unwrap();
        assert!(lag > 0, "starved flow trails the disk clock");
        assert_eq!(s.vtime_lag(9, 0), None, "unknown disk");
        assert_eq!(Fifo.vtime_lag(0, 0), None, "fifo has no virtual clock");
    }

    #[test]
    fn cache_policies_split_the_budget() {
        let demands = [
            CacheDemand {
                weight: 3,
                requested: 500,
                min: 50,
            },
            CacheDemand {
                weight: 1,
                requested: 200,
                min: 20,
            },
        ];
        let mut out = Vec::new();
        StaticPartition.allocate(1000, &demands, &mut out);
        assert_eq!(out, vec![500, 500]);
        out.clear();
        ProportionalShare.allocate(1000, &demands, &mut out);
        assert_eq!(out, vec![750, 250]);
        out.clear();
        FreeForAll.allocate(400, &demands, &mut out);
        assert_eq!(out, vec![400, 200]);
    }

    #[test]
    fn policies_resolve_by_name() {
        for name in ["fifo", "wfq", "priority"] {
            assert_eq!(sched_by_name(name).unwrap().label(), name);
        }
        assert!(sched_by_name("lifo").is_err());
        for name in ["static", "proportional", "free"] {
            assert_eq!(cache_policy_by_name(name).unwrap().label(), name);
        }
        assert!(cache_policy_by_name("magic").is_err());
    }
}
