//! Prometheus text exposition (version 0.0.4).
//!
//! Renders a registry snapshot as the plain-text format scrapers consume:
//! `# HELP` / `# TYPE` headers, `name{label="value"} value` samples,
//! histogram `_bucket`/`_sum`/`_count` expansion with the `le` label and
//! a trailing `+Inf` bucket. Everything about the output is deterministic
//! — metrics in registration order, samples in numeric-aware label order,
//! floats in Rust's shortest-round-trip form — so two processes that made
//! the same observations emit byte-identical text regardless of thread
//! interleaving.

use std::fmt::Write as _;

use crate::registry::{MetricKind, MetricSnapshot, SampleValue};

/// Renders snapshots as Prometheus text exposition, ending with `# EOF`.
#[must_use]
pub fn encode_text(snapshots: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for m in snapshots {
        let exposed = exposed_name(m);
        let _ = writeln!(out, "# HELP {exposed} {}", escape_help(&m.help));
        let _ = writeln!(out, "# TYPE {exposed} {}", m.kind.as_str());
        for s in &m.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    sample_line(&mut out, &exposed, &s.labels, None, &format_u64(*v));
                }
                SampleValue::Gauge(v) => {
                    sample_line(&mut out, &exposed, &s.labels, None, &format_f64(*v));
                }
                SampleValue::Histogram(h) => {
                    let bucket = format!("{exposed}_bucket");
                    for (bound, cum) in &h.buckets {
                        sample_line(
                            &mut out,
                            &bucket,
                            &s.labels,
                            Some(&format_f64(*bound)),
                            &format_u64(*cum),
                        );
                    }
                    sample_line(
                        &mut out,
                        &bucket,
                        &s.labels,
                        Some("+Inf"),
                        &format_u64(h.count),
                    );
                    sample_line(
                        &mut out,
                        &format!("{exposed}_sum"),
                        &s.labels,
                        None,
                        &format_f64(h.sum),
                    );
                    sample_line(
                        &mut out,
                        &format!("{exposed}_count"),
                        &s.labels,
                        None,
                        &format_u64(h.count),
                    );
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// The exposition name: counters gain `_total`, as in `prometheus_client`.
fn exposed_name(m: &MetricSnapshot) -> String {
    match m.kind {
        MetricKind::Counter => format!("{}_total", m.name),
        _ => m.name.clone(),
    }
}

fn sample_line(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "le=\"{le}\"");
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn format_u64(v: u64) -> String {
    v.to_string()
}

/// Shortest-round-trip float; `NaN`/`+Inf`/`-Inf` per exposition spec.
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Family;
    use crate::metric::{exponential_buckets, Counter, Gauge, Histogram};
    use crate::registry::Registry;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_lines() {
        let mut r = Registry::new();
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        r.register("pm_reads", "Total reads.", Arc::clone(&c));
        r.register("pm_depth", "Queue depth.", Arc::clone(&g));
        c.inc_by(3);
        g.set(1.5);
        let text = encode_text(&r.snapshot());
        assert!(
            text.contains("# HELP pm_reads_total Total reads.\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE pm_reads_total counter\n"), "{text}");
        assert!(text.contains("pm_reads_total 3\n"), "{text}");
        assert!(text.contains("# TYPE pm_depth gauge\n"), "{text}");
        assert!(text.contains("pm_depth 1.5\n"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
    }

    #[test]
    fn histogram_expands_buckets() {
        let mut r = Registry::new();
        let f: Arc<Family<Histogram>> = Arc::new(Family::new_with_constructor(&["disk"], || {
            Histogram::new(&exponential_buckets(0.1, 10.0, 2))
        }));
        r.register("pm_service_seconds", "Service time.", Arc::clone(&f));
        let h = f.get_or_create(&["0"]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(50.0);
        let text = encode_text(&r.snapshot());
        assert!(
            text.contains("pm_service_seconds_bucket{disk=\"0\",le=\"0.1\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("pm_service_seconds_bucket{disk=\"0\",le=\"1\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("pm_service_seconds_bucket{disk=\"0\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("pm_service_seconds_sum{disk=\"0\"} 50.55\n"),
            "{text}"
        );
        assert!(
            text.contains("pm_service_seconds_count{disk=\"0\"} 3\n"),
            "{text}"
        );
    }

    #[test]
    fn labels_escape_and_sort() {
        let mut r = Registry::new();
        let f: Arc<Family<Counter>> = Arc::new(Family::new(&["tenant"]));
        r.register("pm_jobs", "Jobs.", Arc::clone(&f));
        f.get_or_create(&["t\"quote\""]).inc();
        f.get_or_create(&["t10"]).inc();
        f.get_or_create(&["t2"]).inc();
        let text = encode_text(&r.snapshot());
        assert!(
            text.contains("pm_jobs_total{tenant=\"t\\\"quote\\\"\"} 1\n"),
            "{text}"
        );
        let p2 = text.find("tenant=\"t2\"").unwrap();
        let p10 = text.find("tenant=\"t10\"").unwrap();
        assert!(
            p10 < p2,
            "lexicographic fallback sorts t10 before t2: {text}"
        );
    }

    #[test]
    fn special_floats_render_per_spec() {
        assert_eq!(format_f64(f64::NAN), "NaN");
        assert_eq!(format_f64(f64::INFINITY), "+Inf");
        assert_eq!(format_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_f64(0.001), "0.001");
    }
}
