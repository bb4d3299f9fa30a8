//! The registry: names, help text, and snapshotting.
//!
//! Components create metrics, register them under a name + help string,
//! and keep their own `Arc` handles for recording. Exporters never touch
//! live atomics directly; they take a [`Registry::snapshot`] — a plain
//! data tree — and render it (Prometheus text here, JSON in `pm-obs`).
//! Snapshot order is registration order for metrics and numeric-aware
//! label order within a family, so rendering is deterministic.

use std::sync::Arc;

use crate::family::Family;
use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};

/// What kind of series a registry entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`_total` suffix in exposition).
    Counter,
    /// Free-moving gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Anything the registry can hold: a bare metric or a label family.
#[derive(Debug)]
pub enum Collector {
    /// A single unlabelled counter.
    Counter(Arc<Counter>),
    /// A single unlabelled gauge.
    Gauge(Arc<Gauge>),
    /// A single unlabelled histogram.
    Histogram(Arc<Histogram>),
    /// A labelled counter family.
    CounterFamily(Arc<Family<Counter>>),
    /// A labelled gauge family.
    GaugeFamily(Arc<Family<Gauge>>),
    /// A labelled histogram family.
    HistogramFamily(Arc<Family<Histogram>>),
}

impl Collector {
    fn kind(&self) -> MetricKind {
        match self {
            Collector::Counter(_) | Collector::CounterFamily(_) => MetricKind::Counter,
            Collector::Gauge(_) | Collector::GaugeFamily(_) => MetricKind::Gauge,
            Collector::Histogram(_) | Collector::HistogramFamily(_) => MetricKind::Histogram,
        }
    }
}

/// Conversion into a [`Collector`], so [`Registry::register`] accepts any
/// metric or family handle directly (mirroring `prometheus_client`).
pub trait IntoCollector {
    /// Wraps `self` in the matching [`Collector`] variant.
    fn into_collector(self) -> Collector;
}

impl IntoCollector for Arc<Counter> {
    fn into_collector(self) -> Collector {
        Collector::Counter(self)
    }
}

impl IntoCollector for Arc<Gauge> {
    fn into_collector(self) -> Collector {
        Collector::Gauge(self)
    }
}

impl IntoCollector for Arc<Histogram> {
    fn into_collector(self) -> Collector {
        Collector::Histogram(self)
    }
}

impl IntoCollector for Arc<Family<Counter>> {
    fn into_collector(self) -> Collector {
        Collector::CounterFamily(self)
    }
}

impl IntoCollector for Arc<Family<Gauge>> {
    fn into_collector(self) -> Collector {
        Collector::GaugeFamily(self)
    }
}

impl IntoCollector for Arc<Family<Histogram>> {
    fn into_collector(self) -> Collector {
        Collector::HistogramFamily(self)
    }
}

/// One registered entry.
#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    collector: Collector,
}

/// A set of named metrics, snapshot in registration order.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Vec<Entry>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers `metric` under `name` with `help` text.
    ///
    /// Counter names should *not* carry the `_total` suffix; exposition
    /// appends it, as `prometheus_client` does.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — duplicate names would
    /// produce an invalid exposition.
    pub fn register(&mut self, name: &str, help: &str, metric: impl IntoCollector) {
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "metric '{name}' registered twice"
        );
        self.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            collector: metric.into_collector(),
        });
    }

    /// A point-in-time copy of every registered series.
    #[must_use]
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                kind: e.collector.kind(),
                samples: collect_samples(&e.collector),
            })
            .collect()
    }
}

fn collect_samples(c: &Collector) -> Vec<Sample> {
    match c {
        Collector::Counter(m) => vec![Sample {
            labels: Vec::new(),
            value: SampleValue::Counter(m.get()),
        }],
        Collector::Gauge(m) => vec![Sample {
            labels: Vec::new(),
            value: SampleValue::Gauge(m.get()),
        }],
        Collector::Histogram(m) => vec![Sample {
            labels: Vec::new(),
            value: SampleValue::Histogram(m.snapshot()),
        }],
        Collector::CounterFamily(f) => family_samples(f, |m| SampleValue::Counter(m.get())),
        Collector::GaugeFamily(f) => family_samples(f, |m| SampleValue::Gauge(m.get())),
        Collector::HistogramFamily(f) => {
            family_samples(f, |m| SampleValue::Histogram(m.snapshot()))
        }
    }
}

fn family_samples<M>(f: &Family<M>, read: impl Fn(&M) -> SampleValue) -> Vec<Sample> {
    let names = f.label_names().to_vec();
    f.cells()
        .into_iter()
        .map(|(values, m)| Sample {
            labels: names
                .iter()
                .zip(values)
                .map(|(n, v)| ((*n).to_string(), v))
                .collect(),
            value: read(&m),
        })
        .collect()
}

/// A snapshot of one registered metric (possibly many labelled samples).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered name (without any counter `_total` suffix).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Series type.
    pub kind: MetricKind,
    /// One sample per label combination; empty labels for bare metrics.
    pub samples: Vec<Sample>,
}

/// One series sample within a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// `(name, value)` label pairs in family label order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// The typed value of one sample.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(f64),
    /// Histogram state (cumulative buckets, count, sum).
    Histogram(HistogramSnapshot),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_preserves_registration_order() {
        let mut r = Registry::new();
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        r.register("zzz", "last letter first", Arc::clone(&c));
        r.register("aaa", "first letter last", Arc::clone(&g));
        c.inc_by(7);
        g.set(-2.0);
        let snap = r.snapshot();
        assert_eq!(snap[0].name, "zzz");
        assert_eq!(snap[0].samples[0].value, SampleValue::Counter(7));
        assert_eq!(snap[1].name, "aaa");
        assert_eq!(snap[1].samples[0].value, SampleValue::Gauge(-2.0));
    }

    #[test]
    fn family_snapshot_carries_labels() {
        let mut r = Registry::new();
        let f: Arc<Family<Counter>> = Arc::new(Family::new(&["disk"]));
        r.register("reads", "reads per disk", Arc::clone(&f));
        f.get_or_create(&["3"]).inc();
        f.get_or_create(&["1"]).inc_by(2);
        let snap = r.snapshot();
        assert_eq!(snap[0].samples.len(), 2);
        assert_eq!(
            snap[0].samples[0].labels,
            vec![("disk".to_string(), "1".to_string())]
        );
        assert_eq!(snap[0].samples[0].value, SampleValue::Counter(2));
        assert_eq!(
            snap[0].samples[1].labels,
            vec![("disk".to_string(), "3".to_string())]
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut r = Registry::new();
        r.register("x", "one", Arc::new(Counter::new()));
        r.register("x", "two", Arc::new(Counter::new()));
    }
}
