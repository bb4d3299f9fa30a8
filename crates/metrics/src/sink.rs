//! Where instrumented components send their measurements.
//!
//! Mirrors `pm_trace::TraceSink`: components are generic over an
//! `M: MetricsSink` and guard every recording site with `if M::ENABLED`,
//! so a [`NullMetrics`] caller monomorphizes to code with no metrics
//! residue — no argument evaluation, no call, no branch. The perf-smoke
//! alloc gate and the bit-identical determinism contract both rest on
//! that: a disabled run *is* the uninstrumented run.
//!
//! Unlike `TraceSink`, recording takes `&self` — measurements arrive from
//! worker threads, so implementations aggregate through atomics (see
//! [`crate::StackMetrics`]). Implementations must treat measurements as
//! read-only observations; a sink that influenced scheduling or merge
//! decisions would break the guarantee that metered and unmetered runs
//! are bit-identical.

/// A consumer of stack measurements.
///
/// Every method has an empty default body, so a sink overrides only the
/// hooks it aggregates. Tenants and disks are addressed by dense index
/// (the order jobs/devices were declared in), which lets implementations
/// pre-bind label handles and keep the hot path lock-free.
pub trait MetricsSink: Send + Sync {
    /// Whether this sink records anything. Recording sites skip argument
    /// evaluation entirely when this is `false`.
    const ENABLED: bool = true;

    /// One completed read on `disk`: payload size plus measured
    /// queue-wait and service durations in seconds.
    fn disk_io(&self, disk: usize, bytes: u64, queue_wait_secs: f64, service_secs: f64) {
        let _ = (disk, bytes, queue_wait_secs, service_secs);
    }

    /// Outstanding requests on `disk` (queued plus in service), set
    /// whenever the count changes. Each disk has one writer: the merge
    /// that owns it, or the shared set or replay that sees every job.
    fn disk_queue_depth(&self, disk: usize, depth: f64) {
        let _ = (disk, depth);
    }

    /// One submission batch of `n` requests handed to `disk`'s queue.
    fn io_submit_batch(&self, disk: usize, n: u64) {
        let _ = (disk, n);
    }

    /// One completion reap returned `n` requests across all disks.
    fn io_reap_batch(&self, n: u64) {
        let _ = n;
    }

    /// Cache blocks granted to `tenant` at admission.
    fn tenant_grant(&self, tenant: usize, blocks: u64) {
        let _ = (tenant, blocks);
    }

    /// `blocks` more blocks delivered to `tenant`'s merge.
    fn tenant_blocks(&self, tenant: usize, blocks: u64) {
        let _ = (tenant, blocks);
    }

    /// One completed request for `tenant` waited `queue_wait_secs` behind
    /// other tenants' traffic.
    fn tenant_wait(&self, tenant: usize, queue_wait_secs: f64) {
        let _ = (tenant, queue_wait_secs);
    }

    /// Final (or running) shared-vs-isolated slowdown for `tenant`.
    fn tenant_slowdown(&self, tenant: usize, slowdown: f64) {
        let _ = (tenant, slowdown);
    }

    /// Fair-queueing virtual-time lag sample for `tenant`, in scheduler
    /// ticks: how far the flow's last finish tag trails the disk's
    /// virtual clock (0 when the flow is keeping pace).
    fn wfq_lag(&self, tenant: usize, lag_ticks: u64) {
        let _ = (tenant, lag_ticks);
    }

    /// One merge pass completed.
    fn pass_done(&self, pass: u32, blocks_read: u64, records_merged: u64) {
        let _ = (pass, blocks_read, records_merged);
    }

    /// One simulation trial completed under `strategy`.
    fn trial_done(
        &self,
        strategy: &str,
        blocks: u64,
        demand_ops: u64,
        fallback_ops: u64,
        full_prefetch_ops: u64,
    ) {
        let _ = (
            strategy,
            blocks,
            demand_ops,
            fallback_ops,
            full_prefetch_ops,
        );
    }
}

/// The do-nothing default sink; metrics compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullMetrics;

impl MetricsSink for NullMetrics {
    const ENABLED: bool = false;
}

impl<M: MetricsSink> MetricsSink for &M {
    const ENABLED: bool = M::ENABLED;

    #[inline]
    fn disk_io(&self, disk: usize, bytes: u64, queue_wait_secs: f64, service_secs: f64) {
        (**self).disk_io(disk, bytes, queue_wait_secs, service_secs);
    }

    #[inline]
    fn disk_queue_depth(&self, disk: usize, depth: f64) {
        (**self).disk_queue_depth(disk, depth);
    }

    #[inline]
    fn io_submit_batch(&self, disk: usize, n: u64) {
        (**self).io_submit_batch(disk, n);
    }

    #[inline]
    fn io_reap_batch(&self, n: u64) {
        (**self).io_reap_batch(n);
    }

    #[inline]
    fn tenant_grant(&self, tenant: usize, blocks: u64) {
        (**self).tenant_grant(tenant, blocks);
    }

    #[inline]
    fn tenant_blocks(&self, tenant: usize, blocks: u64) {
        (**self).tenant_blocks(tenant, blocks);
    }

    #[inline]
    fn tenant_wait(&self, tenant: usize, queue_wait_secs: f64) {
        (**self).tenant_wait(tenant, queue_wait_secs);
    }

    #[inline]
    fn tenant_slowdown(&self, tenant: usize, slowdown: f64) {
        (**self).tenant_slowdown(tenant, slowdown);
    }

    #[inline]
    fn wfq_lag(&self, tenant: usize, lag_ticks: u64) {
        (**self).wfq_lag(tenant, lag_ticks);
    }

    #[inline]
    fn pass_done(&self, pass: u32, blocks_read: u64, records_merged: u64) {
        (**self).pass_done(pass, blocks_read, records_merged);
    }

    #[inline]
    fn trial_done(
        &self,
        strategy: &str,
        blocks: u64,
        demand_ops: u64,
        fallback_ops: u64,
        full_prefetch_ops: u64,
    ) {
        (**self).trial_done(
            strategy,
            blocks,
            demand_ops,
            fallback_ops,
            full_prefetch_ops,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_accepts_everything() {
        let m = NullMetrics;
        m.disk_io(0, 4096, 0.001, 0.002);
        m.disk_queue_depth(0, 3.0);
        m.io_submit_batch(0, 8);
        m.io_reap_batch(3);
        m.tenant_grant(0, 100);
        m.tenant_blocks(0, 1);
        m.tenant_wait(0, 0.01);
        m.tenant_slowdown(0, 1.5);
        m.wfq_lag(0, 42);
        m.pass_done(1, 10, 400);
        m.trial_done("inter", 1000, 3, 1, 250);
    }

    // Compile-time checks: the enable flag must propagate through the
    // reference adapter so guarded recording sites vanish.
    const _: () = {
        assert!(!NullMetrics::ENABLED);
        assert!(!<&NullMetrics as MetricsSink>::ENABLED);
    };
}
