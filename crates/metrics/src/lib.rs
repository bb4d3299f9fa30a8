//! Hand-rolled metrics registry for the prefetchmerge stack.
//!
//! The build environment has no registry access, so this crate mirrors
//! the API shape of `prometheus_client` in miniature instead of depending
//! on it: [`Counter`] / [`Gauge`] / fixed-bucket [`Histogram`] primitives,
//! label [`Family`]s keyed by the stack's small static label sets (disk,
//! tenant, pass, strategy), a [`Registry`] that names them, and a
//! Prometheus text encoder ([`encode_text`]) producing standard
//! `# HELP`/`# TYPE` exposition. The JSON exporter lives in `pm-obs`,
//! which owns the workspace's JSON layer.
//!
//! Two properties shape every design choice:
//!
//! * **Zero cost when disabled.** Instrumented components are generic
//!   over a [`MetricsSink`] and guard recording with `if M::ENABLED`;
//!   the [`NullMetrics`] sink has `ENABLED = false`, so disabled builds
//!   monomorphize to the uninstrumented hot path — the perf-smoke
//!   counting-allocator gate (0.0000 allocs/block) and the bit-identical
//!   determinism contract keep holding with the instrumentation in place.
//! * **Deterministic aggregation and rendering.** Hot-path recording is
//!   relaxed atomic addition on handles bound once at setup ([`Family`]
//!   lookup is a setup-time directory, not a per-event path), histogram
//!   sums accumulate in fixed-point nanounits so addition commutes
//!   exactly, and exposition orders metrics by registration and samples
//!   by numeric-aware label order — a run whose *set* of observations is
//!   jobs-invariant renders byte-identical text at any `--jobs`.
//!
//! [`StackMetrics`] bundles the concrete families the workspace records
//! and implements [`MetricsSink`] over them; `pmerge` builds one per
//! metered run and exports it via `--metrics-out`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod family;
mod metric;
mod registry;
mod sink;
mod stack;

pub use encode::encode_text;
pub use family::Family;
pub use metric::{exponential_buckets, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{
    Collector, IntoCollector, MetricKind, MetricSnapshot, Registry, Sample, SampleValue,
};
pub use sink::{MetricsSink, NullMetrics};
pub use stack::{duration_buckets, StackMetrics};
