//! Metrics exporters and the live status view.
//!
//! [`pm_metrics`] owns the registry and the Prometheus text exposition;
//! this module adds the JSON export (on the same [`crate::json::Value`]
//! the manifests use), the `--metrics-out` format dispatch, and
//! [`LiveMetrics`] — a background thread that repaints a throttled
//! single-line status view on stderr (same `\r` + erase-line idiom as
//! [`crate::progress::StderrProgress`]) and, when asked, writes
//! numbered periodic snapshot files.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_metrics::{encode_text, MetricSnapshot, SampleValue, StackMetrics};

use crate::json::Value;

/// On-disk format of a metrics export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition 0.0.4.
    Prom,
    /// The pm-obs JSON layer ([`metrics_json`]).
    Json,
}

impl MetricsFormat {
    /// Picks the format from a path: `.json` exports JSON, everything
    /// else the Prometheus text exposition.
    #[must_use]
    pub fn from_path(path: &str) -> MetricsFormat {
        if path
            .rsplit('.')
            .next()
            .is_some_and(|ext| ext.eq_ignore_ascii_case("json"))
        {
            MetricsFormat::Json
        } else {
            MetricsFormat::Prom
        }
    }
}

/// Renders a registry snapshot in the chosen format.
#[must_use]
pub fn render_metrics(snaps: &[MetricSnapshot], format: MetricsFormat) -> String {
    match format {
        MetricsFormat::Prom => encode_text(snaps),
        MetricsFormat::Json => {
            let mut out = metrics_json(snaps).to_json();
            out.push('\n');
            out
        }
    }
}

/// A registry snapshot as one JSON object:
/// `{"metrics": [{name, help, type, samples: [...]}]}`. Histogram
/// samples carry cumulative buckets with `le` rendered as a number
/// (`"+Inf"` as a string — JSON has no infinity literal).
#[must_use]
pub fn metrics_json(snaps: &[MetricSnapshot]) -> Value {
    let metrics = snaps
        .iter()
        .map(|snap| {
            let samples = snap
                .samples
                .iter()
                .map(|sample| {
                    let labels = Value::Obj(
                        sample
                            .labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                            .collect(),
                    );
                    let mut fields = vec![("labels".to_string(), labels)];
                    match &sample.value {
                        SampleValue::Counter(v) => {
                            fields.push(("value".into(), Value::Num(*v as f64)));
                        }
                        SampleValue::Gauge(v) => {
                            fields.push(("value".into(), Value::Num(*v)));
                        }
                        SampleValue::Histogram(h) => {
                            fields.push(("count".into(), Value::Num(h.count as f64)));
                            fields.push(("sum".into(), Value::Num(h.sum)));
                            let mut buckets: Vec<Value> = h
                                .buckets
                                .iter()
                                .map(|&(le, count)| {
                                    Value::Obj(vec![
                                        ("le".into(), Value::Num(le)),
                                        ("count".into(), Value::Num(count as f64)),
                                    ])
                                })
                                .collect();
                            buckets.push(Value::Obj(vec![
                                ("le".into(), Value::Str("+Inf".into())),
                                ("count".into(), Value::Num(h.count as f64)),
                            ]));
                            fields.push(("buckets".into(), Value::Arr(buckets)));
                        }
                    }
                    Value::Obj(fields)
                })
                .collect();
            Value::Obj(vec![
                ("name".into(), Value::Str(snap.name.clone())),
                ("help".into(), Value::Str(snap.help.clone())),
                ("type".into(), Value::Str(snap.kind.as_str().into())),
                ("samples".into(), Value::Arr(samples)),
            ])
        })
        .collect();
    Value::Obj(vec![("metrics".into(), Value::Arr(metrics))])
}

/// The path of periodic snapshot `n` for a `--metrics-out` base path:
/// the counter slots in before the extension (`m.prom` →
/// `m.0001.prom`; extensionless paths append).
#[must_use]
pub fn snapshot_path(base: &str, n: u64) -> String {
    match base.rfind('.').filter(|&dot| !base[dot..].contains('/')) {
        Some(dot) => format!("{}.{n:04}{}", &base[..dot], &base[dot..]),
        None => format!("{base}.{n:04}"),
    }
}

/// Knobs of one [`LiveMetrics`] thread.
#[derive(Debug, Clone, Default)]
pub struct LiveMetricsOptions {
    /// Repaint a throttled single-line status view on stderr.
    pub status: bool,
    /// Base path for periodic snapshot files (numbered via
    /// [`snapshot_path`]; format from [`MetricsFormat::from_path`]).
    /// `None` disables periodic snapshots.
    pub snapshot_base: Option<String>,
    /// Snapshot cadence. `None` disables periodic snapshots.
    pub interval: Option<Duration>,
}

/// Background observer of a [`StackMetrics`] sink: live status line
/// and/or periodic snapshot files while a command runs. Construct with
/// [`LiveMetrics::start`], stop with [`LiveMetrics::finish`] (dropping
/// stops it too).
#[derive(Debug)]
pub struct LiveMetrics {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Status repaint cadence (mirrors `StderrProgress`).
const STATUS_THROTTLE: Duration = Duration::from_millis(200);
/// Poll granularity of the observer loop.
const TICK: Duration = Duration::from_millis(25);

impl LiveMetrics {
    /// Spawns the observer thread.
    #[must_use]
    pub fn start(metrics: Arc<StackMetrics>, opts: LiveMetricsOptions) -> LiveMetrics {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || observe(&metrics, &opts, &thread_stop));
        LiveMetrics {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the observer and clears the status line.
    pub fn finish(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveMetrics {
    fn drop(&mut self) {
        self.halt();
    }
}

fn observe(metrics: &StackMetrics, opts: &LiveMetricsOptions, stop: &AtomicBool) {
    let started = Instant::now();
    let mut painted = false;
    let mut last_paint = started - STATUS_THROTTLE;
    let mut last_busy: Vec<f64> = (0..metrics.disk_count())
        .map(|d| metrics.disk_busy_secs(d))
        .collect();
    let mut last_sample = started;
    let mut next_snapshot = started + opts.interval.unwrap_or_default();
    let mut snapshot_n = 0u64;
    let snapshots = opts.interval.is_some() && opts.snapshot_base.is_some();
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if opts.status && now.duration_since(last_paint) >= STATUS_THROTTLE {
            let wall = now.duration_since(last_sample).as_secs_f64().max(1e-9);
            let disks: Vec<(u64, f64)> = (0..metrics.disk_count())
                .map(|d| {
                    let busy = metrics.disk_busy_secs(d);
                    let util = ((busy - last_busy[d]) / wall).clamp(0.0, 1.0);
                    last_busy[d] = busy;
                    (metrics.disk_requests(d), util)
                })
                .collect();
            let tenants: Vec<(String, u64)> = metrics
                .tenant_names()
                .iter()
                .enumerate()
                .map(|(t, name)| ((*name).to_string(), metrics.tenant_blocks_done(t)))
                .collect();
            eprint!("\r\x1b[2K{}", status_line(&disks, &tenants));
            painted = true;
            last_sample = now;
            last_paint = now;
        }
        if snapshots && now >= next_snapshot {
            let base = opts.snapshot_base.as_deref().expect("snapshots checked");
            let text = render_metrics(&metrics.snapshot(), MetricsFormat::from_path(base));
            // Best-effort: a failed periodic snapshot must not kill the run.
            let _ = std::fs::write(snapshot_path(base, snapshot_n), text);
            snapshot_n += 1;
            next_snapshot = now + opts.interval.expect("snapshots checked");
        }
        std::thread::sleep(TICK);
    }
    if painted {
        eprint!("\r\x1b[2K");
    }
}

/// One status line: per-disk utilization, total requests, per-tenant
/// progress. Pure, for tests.
#[must_use]
fn status_line(disks: &[(u64, f64)], tenants: &[(String, u64)]) -> String {
    let mut line = String::from("metrics");
    let total: u64 = disks.iter().map(|&(reqs, _)| reqs).sum();
    if !disks.is_empty() {
        line.push_str(" ·");
        for (d, &(_, util)) in disks.iter().enumerate() {
            line.push_str(&format!(" d{d} {:3.0}%", util * 100.0));
        }
    }
    line.push_str(&format!(" · reqs {total}"));
    if !tenants.is_empty() {
        line.push_str(" ·");
        for (name, blocks) in tenants {
            line.push_str(&format!(" {name}:{blocks}"));
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_metrics::MetricsSink;

    #[test]
    fn format_follows_the_extension() {
        assert_eq!(MetricsFormat::from_path("m.json"), MetricsFormat::Json);
        assert_eq!(MetricsFormat::from_path("m.JSON"), MetricsFormat::Json);
        assert_eq!(MetricsFormat::from_path("m.prom"), MetricsFormat::Prom);
        assert_eq!(MetricsFormat::from_path("metrics"), MetricsFormat::Prom);
    }

    #[test]
    fn snapshot_paths_number_before_the_extension() {
        assert_eq!(snapshot_path("m.prom", 3), "m.0003.prom");
        assert_eq!(snapshot_path("out/m.json", 12), "out/m.0012.json");
        assert_eq!(snapshot_path("metrics", 0), "metrics.0000");
        // A dot in a directory name is not an extension.
        assert_eq!(snapshot_path("a.b/metrics", 1), "a.b/metrics.0001");
    }

    #[test]
    fn json_export_parses_back_and_carries_histograms() {
        let m = StackMetrics::new(2, &["a".to_string()]);
        m.disk_io(0, 4096, 0.001, 0.004);
        m.tenant_blocks(0, 7);
        let text = render_metrics(&m.snapshot(), MetricsFormat::Json);
        let v = Value::parse(&text).unwrap();
        let metrics = v.get("metrics").and_then(Value::as_arr).unwrap();
        let by_name = |name: &str| {
            metrics
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        let hist = by_name("pm_disk_service_seconds");
        assert_eq!(hist.get("type").and_then(Value::as_str), Some("histogram"));
        let sample = &hist.get("samples").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(sample.get("count").and_then(Value::as_u64), Some(1));
        let buckets = sample.get("buckets").and_then(Value::as_arr).unwrap();
        assert_eq!(
            buckets.last().unwrap().get("le").and_then(Value::as_str),
            Some("+Inf")
        );
        let blocks = by_name("pm_tenant_blocks");
        let sample = &blocks.get("samples").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(sample.get("value").and_then(Value::as_u64), Some(7));
        assert_eq!(
            sample
                .get("labels")
                .and_then(|l| l.get("tenant"))
                .and_then(Value::as_str),
            Some("a")
        );
    }

    #[test]
    fn status_line_shows_disks_and_tenants() {
        let line = status_line(
            &[(10, 0.5), (20, 1.0)],
            &[("big".into(), 42), ("small".into(), 7)],
        );
        assert_eq!(line, "metrics · d0  50% d1 100% · reqs 30 · big:42 small:7");
        assert_eq!(status_line(&[], &[]), "metrics · reqs 0");
    }
}
