//! The workspace's standard metric bundle.
//!
//! [`StackMetrics`] pre-registers every family the prefetchmerge stack
//! records — per-disk I/O, per-tenant service outcomes, per-pass merge
//! totals, per-strategy simulation counters — and implements
//! [`MetricsSink`] by indexing into handles bound once at construction.
//! Recording is therefore a bounds check plus one or two relaxed atomic
//! adds; the label directory ([`Family`]) is only consulted at setup and
//! at pass boundaries.
//!
//! Label cardinality is fixed up front: `disk` and `tenant` label values
//! come from the construction arguments (indices out of range are
//! silently dropped rather than allocated), `pass` grows one cell per
//! merge pass, and `strategy` one cell per distinct strategy name.

use std::sync::Arc;

use crate::family::Family;
use crate::metric::{exponential_buckets, Counter, Gauge, Histogram};
use crate::registry::{MetricSnapshot, Registry};
use crate::sink::MetricsSink;

/// Duration histogram layout: 1e-5 s … ~2.6 s in ×4 steps, then `+Inf`.
///
/// Spans modeled block service times (hundreds of microseconds), real
/// file-backend reads, and injected-latency waits without exceeding a
/// dozen buckets per series.
#[must_use]
pub fn duration_buckets() -> Vec<f64> {
    exponential_buckets(1e-5, 4.0, 10)
}

/// Batch-size histogram layout: 1, 2, 4, … 128, then `+Inf` — spans a
/// depth-1 compat shim through the deepest supported ring (depth 128).
#[must_use]
pub fn batch_buckets() -> Vec<f64> {
    exponential_buckets(1.0, 2.0, 8)
}

struct DiskCell {
    requests: Arc<Counter>,
    bytes: Arc<Counter>,
    depth: Arc<Gauge>,
    service: Arc<Histogram>,
    wait: Arc<Histogram>,
    submit_batch: Arc<Histogram>,
}

struct TenantCell {
    name: String,
    grant: Arc<Gauge>,
    blocks: Arc<Counter>,
    wait: Arc<Histogram>,
    slowdown: Arc<Gauge>,
    wfq_lag: Arc<Gauge>,
}

/// Every metric family the stack records, pre-bound for lock-free
/// recording.
pub struct StackMetrics {
    registry: Registry,
    disks: Vec<DiskCell>,
    tenants: Vec<TenantCell>,
    reap_batch: Arc<Histogram>,
    pass_blocks: Arc<Family<Counter>>,
    pass_records: Arc<Family<Counter>>,
    trial_count: Arc<Family<Counter>>,
    trial_blocks: Arc<Family<Counter>>,
    trial_demand: Arc<Family<Counter>>,
    trial_fallback: Arc<Family<Counter>>,
    trial_full: Arc<Family<Counter>>,
}

impl std::fmt::Debug for StackMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StackMetrics")
            .field("disks", &self.disks.len())
            .field("tenants", &self.tenants.len())
            .finish_non_exhaustive()
    }
}

impl StackMetrics {
    /// A bundle for `disks` devices and the given tenant names (empty for
    /// single-job runs).
    #[must_use]
    pub fn new(disks: usize, tenant_names: &[String]) -> Self {
        let mut registry = Registry::new();

        let requests: Arc<Family<Counter>> = Arc::new(Family::new(&["disk"]));
        let bytes: Arc<Family<Counter>> = Arc::new(Family::new(&["disk"]));
        let depth: Arc<Family<Gauge>> = Arc::new(Family::new(&["disk"]));
        let service: Arc<Family<Histogram>> =
            Arc::new(Family::new_with_constructor(&["disk"], || {
                Histogram::new(&duration_buckets())
            }));
        let wait: Arc<Family<Histogram>> =
            Arc::new(Family::new_with_constructor(&["disk"], || {
                Histogram::new(&duration_buckets())
            }));
        registry.register(
            "pm_disk_requests",
            "Completed read requests per disk.",
            Arc::clone(&requests),
        );
        registry.register(
            "pm_disk_read_bytes",
            "Payload bytes read per disk.",
            Arc::clone(&bytes),
        );
        registry.register(
            "pm_disk_queue_depth",
            "Outstanding requests per disk (queued plus in service), set when the count changes.",
            Arc::clone(&depth),
        );
        registry.register(
            "pm_disk_service_seconds",
            "Per-request service time (position + transfer) per disk.",
            Arc::clone(&service),
        );
        registry.register(
            "pm_disk_queue_wait_seconds",
            "Per-request wait before service began, per disk.",
            Arc::clone(&wait),
        );
        let submit_batch: Arc<Family<Histogram>> =
            Arc::new(Family::new_with_constructor(&["disk"], || {
                Histogram::new(&batch_buckets())
            }));
        registry.register(
            "pm_io_submit_batch_size",
            "Requests per submission batch handed to the disk's queue.",
            Arc::clone(&submit_batch),
        );
        let reap_batch = Arc::new(Histogram::new(&batch_buckets()));
        registry.register(
            "pm_io_reap_batch_size",
            "Completions returned per reap across all disks.",
            Arc::clone(&reap_batch),
        );
        let disk_cells = (0..disks)
            .map(|d| {
                let label = d.to_string();
                DiskCell {
                    requests: requests.get_or_create(&[&label]),
                    bytes: bytes.get_or_create(&[&label]),
                    depth: depth.get_or_create(&[&label]),
                    service: service.get_or_create(&[&label]),
                    wait: wait.get_or_create(&[&label]),
                    submit_batch: submit_batch.get_or_create(&[&label]),
                }
            })
            .collect();

        let grant: Arc<Family<Gauge>> = Arc::new(Family::new(&["tenant"]));
        let tblocks: Arc<Family<Counter>> = Arc::new(Family::new(&["tenant"]));
        let twait: Arc<Family<Histogram>> =
            Arc::new(Family::new_with_constructor(&["tenant"], || {
                Histogram::new(&duration_buckets())
            }));
        let slowdown: Arc<Family<Gauge>> = Arc::new(Family::new(&["tenant"]));
        let wfq_lag: Arc<Family<Gauge>> = Arc::new(Family::new(&["tenant"]));
        registry.register(
            "pm_tenant_cache_grant_blocks",
            "Cache blocks granted to the tenant at admission.",
            Arc::clone(&grant),
        );
        registry.register(
            "pm_tenant_blocks",
            "Blocks delivered to the tenant's merge.",
            Arc::clone(&tblocks),
        );
        registry.register(
            "pm_tenant_queue_wait_seconds",
            "Per-request wait behind other tenants' traffic.",
            Arc::clone(&twait),
        );
        registry.register(
            "pm_tenant_slowdown",
            "Shared-vs-isolated completion-time ratio.",
            Arc::clone(&slowdown),
        );
        registry.register(
            "pm_tenant_wfq_lag_ticks",
            "Fair-queueing virtual-time lag behind the disk clock.",
            Arc::clone(&wfq_lag),
        );
        let tenant_cells = tenant_names
            .iter()
            .map(|name| TenantCell {
                name: name.clone(),
                grant: grant.get_or_create(&[name]),
                blocks: tblocks.get_or_create(&[name]),
                wait: twait.get_or_create(&[name]),
                slowdown: slowdown.get_or_create(&[name]),
                wfq_lag: wfq_lag.get_or_create(&[name]),
            })
            .collect();

        let pass_blocks: Arc<Family<Counter>> = Arc::new(Family::new(&["pass"]));
        let pass_records: Arc<Family<Counter>> = Arc::new(Family::new(&["pass"]));
        registry.register(
            "pm_pass_blocks_read",
            "Blocks read per merge pass.",
            Arc::clone(&pass_blocks),
        );
        registry.register(
            "pm_pass_records_merged",
            "Records merged per merge pass.",
            Arc::clone(&pass_records),
        );

        let trial_count: Arc<Family<Counter>> = Arc::new(Family::new(&["strategy"]));
        let trial_blocks: Arc<Family<Counter>> = Arc::new(Family::new(&["strategy"]));
        let trial_demand: Arc<Family<Counter>> = Arc::new(Family::new(&["strategy"]));
        let trial_fallback: Arc<Family<Counter>> = Arc::new(Family::new(&["strategy"]));
        let trial_full: Arc<Family<Counter>> = Arc::new(Family::new(&["strategy"]));
        registry.register(
            "pm_sim_trials",
            "Completed simulation trials per strategy.",
            Arc::clone(&trial_count),
        );
        registry.register(
            "pm_sim_blocks_depleted",
            "Blocks consumed by simulated merges per strategy.",
            Arc::clone(&trial_blocks),
        );
        registry.register(
            "pm_sim_demand_fetches",
            "Demand fetches issued by simulated merges per strategy.",
            Arc::clone(&trial_demand),
        );
        registry.register(
            "pm_sim_demand_misses",
            "Prefetch fallbacks (demand misses) per strategy.",
            Arc::clone(&trial_fallback),
        );
        registry.register(
            "pm_sim_full_prefetches",
            "Full-depth prefetch batches per strategy.",
            Arc::clone(&trial_full),
        );

        StackMetrics {
            registry,
            disks: disk_cells,
            tenants: tenant_cells,
            reap_batch,
            pass_blocks,
            pass_records,
            trial_count,
            trial_blocks,
            trial_demand,
            trial_fallback,
            trial_full,
        }
    }

    /// The underlying registry, for exporters.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Convenience: snapshot of every registered series.
    #[must_use]
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.registry.snapshot()
    }

    /// Number of disks bound at construction.
    #[must_use]
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Completed requests on `disk` so far.
    #[must_use]
    pub fn disk_requests(&self, disk: usize) -> u64 {
        self.disks.get(disk).map_or(0, |c| c.requests.get())
    }

    /// Accumulated service seconds on `disk` — the numerator of a live
    /// utilization estimate.
    #[must_use]
    pub fn disk_busy_secs(&self, disk: usize) -> f64 {
        self.disks.get(disk).map_or(0.0, |c| c.service.sum())
    }

    /// Tenant names bound at construction.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }

    /// Blocks delivered to tenant `t` so far.
    #[must_use]
    pub fn tenant_blocks_done(&self, tenant: usize) -> u64 {
        self.tenants.get(tenant).map_or(0, |t| t.blocks.get())
    }
}

impl MetricsSink for StackMetrics {
    fn disk_io(&self, disk: usize, bytes: u64, queue_wait_secs: f64, service_secs: f64) {
        if let Some(c) = self.disks.get(disk) {
            c.requests.inc();
            c.bytes.inc_by(bytes);
            c.wait.observe(queue_wait_secs);
            c.service.observe(service_secs);
        }
    }

    fn disk_queue_depth(&self, disk: usize, depth: f64) {
        if let Some(c) = self.disks.get(disk) {
            c.depth.set(depth);
        }
    }

    fn io_submit_batch(&self, disk: usize, n: u64) {
        if let Some(c) = self.disks.get(disk) {
            c.submit_batch.observe(n as f64);
        }
    }

    fn io_reap_batch(&self, n: u64) {
        self.reap_batch.observe(n as f64);
    }

    fn tenant_grant(&self, tenant: usize, blocks: u64) {
        if let Some(t) = self.tenants.get(tenant) {
            t.grant.set(blocks as f64);
        }
    }

    fn tenant_blocks(&self, tenant: usize, blocks: u64) {
        if let Some(t) = self.tenants.get(tenant) {
            t.blocks.inc_by(blocks);
        }
    }

    fn tenant_wait(&self, tenant: usize, queue_wait_secs: f64) {
        if let Some(t) = self.tenants.get(tenant) {
            t.wait.observe(queue_wait_secs);
        }
    }

    fn tenant_slowdown(&self, tenant: usize, slowdown: f64) {
        if let Some(t) = self.tenants.get(tenant) {
            t.slowdown.set(slowdown);
        }
    }

    fn wfq_lag(&self, tenant: usize, lag_ticks: u64) {
        if let Some(t) = self.tenants.get(tenant) {
            t.wfq_lag.set(lag_ticks as f64);
        }
    }

    fn pass_done(&self, pass: u32, blocks_read: u64, records_merged: u64) {
        let label = pass.to_string();
        self.pass_blocks
            .get_or_create(&[&label])
            .inc_by(blocks_read);
        self.pass_records
            .get_or_create(&[&label])
            .inc_by(records_merged);
    }

    fn trial_done(
        &self,
        strategy: &str,
        blocks: u64,
        demand_ops: u64,
        fallback_ops: u64,
        full_prefetch_ops: u64,
    ) {
        self.trial_count.get_or_create(&[strategy]).inc();
        self.trial_blocks.get_or_create(&[strategy]).inc_by(blocks);
        self.trial_demand
            .get_or_create(&[strategy])
            .inc_by(demand_ops);
        self.trial_fallback
            .get_or_create(&[strategy])
            .inc_by(fallback_ops);
        self.trial_full
            .get_or_create(&[strategy])
            .inc_by(full_prefetch_ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_text;

    #[test]
    fn records_flow_into_the_right_families() {
        let m = StackMetrics::new(2, &["alice".to_string(), "bob".to_string()]);
        m.disk_io(0, 4096, 0.001, 0.002);
        m.disk_io(1, 4096, 0.0, 0.004);
        m.disk_queue_depth(1, 3.0);
        m.io_submit_batch(0, 4);
        m.io_reap_batch(2);
        m.tenant_grant(0, 128);
        m.tenant_blocks(1, 7);
        m.tenant_wait(0, 0.01);
        m.tenant_slowdown(1, 1.8);
        m.wfq_lag(0, 42);
        m.pass_done(1, 100, 4000);
        m.trial_done("inter", 1000, 3, 1, 250);
        assert_eq!(m.disk_requests(0), 1);
        assert!((m.disk_busy_secs(1) - 0.004).abs() < 1e-9);
        assert_eq!(m.tenant_blocks_done(1), 7);
        let text = encode_text(&m.snapshot());
        assert!(
            text.contains("pm_disk_requests_total{disk=\"0\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("pm_tenant_cache_grant_blocks{tenant=\"alice\"} 128\n"),
            "{text}"
        );
        assert!(
            text.contains("pm_tenant_slowdown{tenant=\"bob\"} 1.8\n"),
            "{text}"
        );
        assert!(
            text.contains("pm_pass_blocks_read_total{pass=\"1\"} 100\n"),
            "{text}"
        );
        assert!(
            text.contains("pm_io_submit_batch_size_count{disk=\"0\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("pm_io_reap_batch_size_count 1\n"), "{text}");
        assert!(
            text.contains("pm_sim_trials_total{strategy=\"inter\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn out_of_range_indices_are_dropped() {
        let m = StackMetrics::new(1, &[]);
        m.disk_io(5, 1, 0.0, 0.0);
        m.tenant_grant(0, 10);
        assert_eq!(m.disk_requests(5), 0);
        assert_eq!(m.tenant_blocks_done(0), 0);
    }
}
