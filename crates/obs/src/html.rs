//! Self-contained HTML validation reports.
//!
//! [`render_report`] turns a list of manifest records into a single HTML
//! document with **no external assets**: styling is inline CSS and every
//! figure is inline SVG ([`pm_report::SvgPlot`]). The document reproduces
//! the paper's T1 (estimated vs. simulated time) and T2 (urn concurrency)
//! tables with pass/fail residual badges, and the Fig. 3.2 curves with
//! confidence-interval error bars and `kBT/D` reference lines.
//!
//! Rendering is a pure function of the records — no timestamps, no host
//! facts — so reports are byte-deterministic and golden-snapshot-testable.

use std::fmt::Write as _;

use pm_report::SvgPlot;

use crate::manifest::{ManifestRecord, RecordKind};
use crate::residual::Bound;

const STYLE: &str = "\
body{font-family:system-ui,sans-serif;margin:2em auto;max-width:62em;\
padding:0 1em;color:#1a1a1a}\
h1{font-size:1.5em}h2{font-size:1.2em;margin-top:2em}\
table{border-collapse:collapse;margin:1em 0;font-size:0.92em}\
th,td{border:1px solid #ccc;padding:0.35em 0.6em;text-align:left}\
th{background:#f2f2f2}td.num{text-align:right;font-variant-numeric:tabular-nums}\
.badge{display:inline-block;padding:0.1em 0.5em;border-radius:0.6em;\
color:#fff;font-size:0.85em}\
.pass{background:#009e73}.fail{background:#d55e00}.none{background:#888}\
.breach{color:#d55e00}\
figure{margin:1em 0}\
";

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn badge(r: &ManifestRecord) -> String {
    match &r.analytic {
        None => "<span class=\"badge none\">n/a</span>".to_string(),
        Some(a) if a.pass => "<span class=\"badge pass\">pass</span>".to_string(),
        Some(_) => "<span class=\"badge fail\">FAIL</span>".to_string(),
    }
}

fn num_cell(out: &mut String, text: &str) {
    let _ = write!(out, "<td class=\"num\">{text}</td>");
}

fn sim_cell(r: &ManifestRecord) -> String {
    format!(
        "{:.2} ± {:.2}",
        r.metrics.mean_total_secs, r.metrics.ci_half_width_secs
    )
}

fn t1_table(out: &mut String, rows: &[&ManifestRecord]) {
    out.push_str(
        "<h2>T1 — analytical predictions vs. simulation</h2>\n\
         <table>\n<tr><th>case</th><th>model</th><th>predicted (s)</th>\
         <th>simulated (s)</th><th>sim/analytic</th><th>tolerance</th>\
         <th>check</th></tr>\n",
    );
    for r in rows {
        out.push_str("<tr>");
        let _ = write!(out, "<td>{}</td>", esc(&r.label));
        match &r.analytic {
            Some(a) => {
                let _ = write!(out, "<td>{}</td>", esc(&a.kind));
                num_cell(out, &format!("{:.2}", a.predicted));
                num_cell(out, &sim_cell(r));
                num_cell(out, &format!("{:.3}", a.ratio));
                let tol = match a.bound {
                    Bound::TwoSided => format!("± {:.1}%", a.tolerance * 100.0),
                    Bound::Lower => format!("≥ {:.3}", 1.0 - a.tolerance),
                    Bound::Upper => format!("≤ {:.3}", 1.0 + a.tolerance),
                };
                num_cell(out, &tol);
            }
            None => {
                out.push_str("<td>—</td><td class=\"num\">—</td>");
                num_cell(out, &sim_cell(r));
                out.push_str("<td class=\"num\">—</td><td class=\"num\">—</td>");
            }
        }
        let _ = writeln!(out, "<td>{}</td></tr>", badge(r));
    }
    out.push_str("</table>\n");
}

fn t2_table(out: &mut String, rows: &[&ManifestRecord]) {
    out.push_str(
        "<h2>T2 — I/O concurrency vs. the urn model</h2>\n\
         <table>\n<tr><th>case</th><th>D</th><th>urn E[D]</th>\
         <th>asymptote √(πD/2)−⅓</th><th>simulated</th><th>sim/E[D]</th>\
         <th>check</th></tr>\n",
    );
    for r in rows {
        let d = r.scenario.disks;
        out.push_str("<tr>");
        let _ = write!(out, "<td>{}</td>", esc(&r.label));
        num_cell(out, &d.to_string());
        num_cell(
            out,
            &format!("{:.3}", pm_analysis::urn::expected_concurrency(d)),
        );
        num_cell(
            out,
            &format!(
                "{:.3}",
                pm_analysis::urn::expected_concurrency_asymptotic(d)
            ),
        );
        num_cell(out, &format!("{:.3}", r.metrics.mean_concurrency));
        match &r.analytic {
            Some(a) => num_cell(out, &format!("{:.3}", a.ratio)),
            None => out.push_str("<td class=\"num\">—</td>"),
        }
        let _ = writeln!(out, "<td>{}</td></tr>", badge(r));
    }
    out.push_str("</table>\n");
}

/// Groups sweep records into one plot per axis label, one series per
/// curve, preserving first-appearance order.
fn figures(out: &mut String, sweeps: &[&ManifestRecord]) {
    let mut axes: Vec<String> = Vec::new();
    for r in sweeps {
        if let Some(xl) = &r.x_label {
            if !axes.contains(xl) {
                axes.push(xl.clone());
            }
        }
    }
    for axis in &axes {
        let mut plot = SvgPlot::new(
            format!("Total merge time vs {axis}"),
            axis.clone(),
            "total time (s)",
        );
        let mut curves: Vec<String> = Vec::new();
        for r in sweeps {
            if r.x_label.as_ref() == Some(axis) {
                if let Some(sw) = &r.sweep {
                    if !curves.contains(sw) {
                        curves.push(sw.clone());
                    }
                }
            }
        }
        let mut hlines: Vec<(String, f64)> = Vec::new();
        for curve in &curves {
            let mut points = Vec::new();
            let mut errs = Vec::new();
            for r in sweeps {
                if r.x_label.as_ref() == Some(axis) && r.sweep.as_ref() == Some(curve) {
                    if let Some(x) = r.x {
                        points.push((x, r.metrics.mean_total_secs));
                        errs.push(r.metrics.ci_half_width_secs);
                        // One kBT/D reference line per bounded curve.
                        if let Some(a) = &r.analytic {
                            if a.kind == "kBT/D" && !hlines.iter().any(|(_, y)| *y == a.predicted) {
                                hlines.push((format!("kBT/D = {:.1}s", a.predicted), a.predicted));
                            }
                        }
                    }
                }
            }
            plot.add_series_with_error(curve.clone(), points, errs);
        }
        for (label, y) in hlines {
            plot.add_hline(label, y);
        }
        let _ = write!(
            out,
            "<h2>Fig. 3.2 — total time vs. prefetch depth</h2>\n\
             <figure>{}</figure>\n",
            plot.render()
        );
    }
}

fn exec_table(out: &mut String, rows: &[&ManifestRecord]) {
    out.push_str(
        "<h2>Execution engine — per-pass cost breakdown</h2>\n\
         <table>\n<tr><th>case</th><th>pass</th><th>runs</th>\
         <th>blocks</th><th>measured (s)</th><th>predicted (s)</th>\
         <th>sim/engine</th><th>check</th></tr>\n",
    );
    for r in rows {
        out.push_str("<tr>");
        let _ = write!(out, "<td>{}</td>", esc(&r.label));
        num_cell(
            out,
            &r.pass.map_or_else(|| "all".to_string(), |p| p.to_string()),
        );
        num_cell(out, &r.scenario.runs.to_string());
        num_cell(out, &r.metrics.blocks_merged.to_string());
        num_cell(out, &format!("{:.3}", r.metrics.mean_total_secs));
        match &r.analytic {
            Some(a) => {
                num_cell(out, &format!("{:.3}", a.predicted));
                num_cell(out, &format!("{:.4}", a.ratio));
            }
            None => {
                out.push_str("<td class=\"num\">—</td><td class=\"num\">—</td>");
            }
        }
        let _ = writeln!(out, "<td>{}</td></tr>", badge(r));
    }
    out.push_str("</table>\n");
}

/// One table per (sched, cache-policy) combination, in first-appearance
/// order, each headed by its makespan-fairness summary (max/min tenant
/// slowdown — the E17 number the policy sweep compares).
fn tenant_tables(out: &mut String, rows: &[&ManifestRecord]) {
    out.push_str("<h2>Multi-tenant service — per-tenant contention outcomes</h2>\n");
    let mut groups: Vec<(String, String)> = Vec::new();
    for r in rows {
        let t = r.tenant.as_ref().expect("filtered to tenant records");
        let key = (t.sched.clone(), t.cache_policy.clone());
        if !groups.contains(&key) {
            groups.push(key);
        }
    }
    for (sched, cache_policy) in &groups {
        let members: Vec<&&ManifestRecord> = rows
            .iter()
            .filter(|r| {
                let t = r.tenant.as_ref().expect("filtered to tenant records");
                &t.sched == sched && &t.cache_policy == cache_policy
            })
            .collect();
        let mut min = f64::INFINITY;
        let mut max = 0.0_f64;
        for r in &members {
            let s = r.tenant.as_ref().expect("filtered").slowdown;
            min = min.min(s);
            max = max.max(s);
        }
        let fairness = if min > 0.0 && min.is_finite() {
            format!("{:.3}", max / min)
        } else {
            "—".to_string()
        };
        let _ = writeln!(
            out,
            "<h3>sched <code>{}</code> · cache <code>{}</code> · \
             fairness (max/min slowdown) {}</h3>",
            esc(sched),
            esc(cache_policy),
            fairness
        );
        out.push_str(
            "<table>\n<tr><th>tenant</th><th>priority</th><th>arrival (s)</th>\
             <th>cache grant</th><th>isolated (s)</th><th>makespan (s)</th>\
             <th>queue wait (s)</th><th>slowdown</th></tr>\n",
        );
        for r in &members {
            let t = r.tenant.as_ref().expect("filtered to tenant records");
            out.push_str("<tr>");
            let _ = write!(out, "<td>{}</td>", esc(&t.name));
            num_cell(out, &t.priority.to_string());
            num_cell(out, &format!("{:.3}", t.arrival_secs));
            num_cell(out, &t.cache_blocks.to_string());
            num_cell(out, &format!("{:.3}", t.isolated_secs));
            num_cell(out, &format!("{:.3}", t.makespan_secs));
            num_cell(out, &format!("{:.4}", t.queue_wait_secs));
            // Undefined slowdown (zero-second isolated baseline round-trips
            // as NaN) renders as a dash, not "NaN".
            if t.slowdown.is_finite() {
                num_cell(out, &format!("{:.3}", t.slowdown));
            } else {
                num_cell(out, "—");
            }
            out.push_str("</tr>\n");
        }
        out.push_str("</table>\n");
    }
}

fn convergence_table(out: &mut String, rows: &[&ManifestRecord]) {
    out.push_str(
        "<h2>Convergence diagnostics</h2>\n\
         <table>\n<tr><th>case</th><th>trials</th><th>converged</th>\
         <th>rel. half-width</th><th>target</th></tr>\n",
    );
    for r in rows {
        let d = r.auto.as_ref().expect("filtered to auto records");
        out.push_str("<tr>");
        let _ = write!(out, "<td>{}</td>", esc(&r.label));
        num_cell(out, &d.trials.to_string());
        let _ = write!(
            out,
            "<td>{}</td>",
            if d.converged {
                "yes".to_string()
            } else {
                format!("<span class=\"breach\">no (cap {})</span>", d.max_trials)
            }
        );
        num_cell(
            out,
            &d.rel_half_width
                .map_or_else(|| "—".to_string(), |v| format!("{v:.4}")),
        );
        num_cell(out, &format!("{:.4}", d.target_rel_ci));
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
}

/// Renders the complete validation report.
///
/// Sections appear only when the record list feeds them (a manifest with
/// no sweep points produces no figure, etc.).
#[must_use]
pub fn render_report(records: &[ManifestRecord]) -> String {
    let t1: Vec<&ManifestRecord> = records
        .iter()
        .filter(|r| r.kind == RecordKind::T1Case)
        .collect();
    let t2: Vec<&ManifestRecord> = records
        .iter()
        .filter(|r| r.kind == RecordKind::T2Concurrency)
        .collect();
    let sweeps: Vec<&ManifestRecord> = records
        .iter()
        .filter(|r| r.kind == RecordKind::SweepPoint)
        .collect();
    let execs: Vec<&ManifestRecord> = records
        .iter()
        .filter(|r| r.kind == RecordKind::EngineExec)
        .collect();
    let tenants: Vec<&ManifestRecord> = records.iter().filter(|r| r.tenant.is_some()).collect();
    let auto: Vec<&ManifestRecord> = records.iter().filter(|r| r.auto.is_some()).collect();

    let checked = records.iter().filter(|r| r.analytic.is_some()).count();
    let breaches: Vec<&ManifestRecord> = records
        .iter()
        .filter(|r| r.analytic.as_ref().is_some_and(|a| !a.pass))
        .collect();

    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>prefetchmerge validation report</title>\n");
    let _ = writeln!(out, "<style>{STYLE}</style>");
    out.push_str("</head>\n<body>\n<h1>prefetchmerge validation report</h1>\n");
    let master = records.first().map_or(0, |r| r.master_seed);
    let _ = writeln!(
        out,
        "<p>{} experiment points · {} residual checks · master seed {}</p>",
        records.len(),
        checked,
        master
    );
    if breaches.is_empty() {
        let _ = writeln!(
            out,
            "<p><span class=\"badge pass\">all {checked} residual checks passed</span></p>"
        );
    } else {
        let _ = write!(
            out,
            "<p><span class=\"badge fail\">{} of {} residual checks failed</span></p>\n<ul>\n",
            breaches.len(),
            checked
        );
        for r in &breaches {
            let a = r.analytic.as_ref().expect("breaches have checks");
            let _ = writeln!(
                out,
                "<li class=\"breach\">{}: {} ratio {:.3} outside tolerance</li>",
                esc(&r.label),
                esc(&a.kind),
                a.ratio
            );
        }
        out.push_str("</ul>\n");
    }
    if !t1.is_empty() {
        t1_table(&mut out, &t1);
    }
    if !t2.is_empty() {
        t2_table(&mut out, &t2);
    }
    if !sweeps.is_empty() {
        figures(&mut out, &sweeps);
    }
    if !execs.is_empty() {
        exec_table(&mut out, &execs);
    }
    if !tenants.is_empty() {
        tenant_tables(&mut out, &tenants);
    }
    if !auto.is_empty() {
        convergence_table(&mut out, &auto);
    }
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::ConvergenceDecision;
    use crate::manifest::{PointMetrics, SCHEMA_VERSION};
    use crate::residual::ResidualCheck;

    fn record(kind: RecordKind, label: &str, pass: Option<bool>) -> ManifestRecord {
        let cfg = pm_core::ScenarioBuilder::new(25, 5)
            .inter(10)
            .cache_blocks(1000)
            .build()
            .unwrap();
        ManifestRecord {
            schema: SCHEMA_VERSION,
            kind,
            label: label.into(),
            pass: None,
            tenant: None,
            sweep: (kind == RecordKind::SweepPoint).then(|| "curve <A&B>".to_string()),
            x: (kind == RecordKind::SweepPoint).then_some(10.0),
            x_label: (kind == RecordKind::SweepPoint).then(|| "N".to_string()),
            scenario_name: label.into(),
            scenario: cfg,
            master_seed: 1992,
            trials: 5,
            auto: None,
            metrics: PointMetrics {
                mean_total_secs: 17.0,
                ci_half_width_secs: 0.2,
                confidence: 0.95,
                mean_concurrency: 3.1,
                mean_busy_disks: 2.8,
                mean_success_ratio: Some(0.96),
                blocks_merged: 25_000,
            },
            analytic: pass.map(|p| ResidualCheck {
                kind: "kBT/D".into(),
                predicted: 10.8,
                ratio: if p { 1.574 } else { 0.574 },
                bound: Bound::Lower,
                tolerance: 0.005,
                pass: p,
            }),
            trace: None,
        }
    }

    #[test]
    fn all_sections_render() {
        let mut auto = record(RecordKind::T1Case, "auto case", Some(true));
        auto.auto = Some(ConvergenceDecision {
            trials: 9,
            converged: true,
            rel_half_width: Some(0.008),
            target_rel_ci: 0.01,
            max_trials: 30,
        });
        let records = vec![
            record(RecordKind::T1Case, "eq5 case", Some(true)),
            record(RecordKind::T2Concurrency, "urn case", Some(true)),
            record(RecordKind::SweepPoint, "sweep @ N=10", Some(true)),
            auto,
        ];
        let html = render_report(&records);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("T1 — analytical predictions"));
        assert!(html.contains("T2 — I/O concurrency"));
        assert!(html.contains("<svg"));
        assert!(html.contains("Convergence diagnostics"));
        assert!(html.contains("all 4 residual checks passed"));
        // No external assets: the only URL is the SVG namespace.
        let stripped = html.replace("http://www.w3.org/2000/svg", "");
        assert!(!stripped.contains("http://") && !stripped.contains("https://"));
        assert!(!html.contains("<script"));
        assert!(!html.contains("<img"));
        assert!(!html.contains("<link"));
    }

    #[test]
    fn exec_records_render_per_pass_rows() {
        let mut p1 = record(RecordKind::EngineExec, "exec pass 1/2", Some(true));
        p1.pass = Some(1);
        let mut p2 = record(RecordKind::EngineExec, "exec pass 2/2", Some(true));
        p2.pass = Some(2);
        let total = record(RecordKind::EngineExec, "exec: file backend", None);
        let html = render_report(&[p1, p2, total]);
        assert!(html.contains("Execution engine — per-pass cost breakdown"));
        assert!(html.contains("<td class=\"num\">1</td>"));
        assert!(html.contains("<td class=\"num\">2</td>"));
        // The whole-run summary row shows "all" instead of a pass index.
        assert!(html.contains("<td class=\"num\">all</td>"));
    }

    #[test]
    fn tenant_records_render_grouped_fairness_tables() {
        use crate::manifest::TenantInfo;
        let tenant = |name: &str, sched: &str, slowdown: f64| TenantInfo {
            name: name.into(),
            priority: 1,
            arrival_secs: 0.001,
            cache_blocks: 1500,
            sched: sched.into(),
            cache_policy: "static".into(),
            isolated_secs: 10.0,
            makespan_secs: 10.0 * slowdown,
            queue_wait_secs: 0.002,
            slowdown,
        };
        let mut rows = Vec::new();
        for (sched, slow) in [("fifo", [1.2, 3.0]), ("wfq", [1.5, 1.8])] {
            for (name, s) in ["a", "b"].iter().zip(slow) {
                let mut r = record(RecordKind::Contend, &format!("{sched}:{name}"), None);
                r.tenant = Some(tenant(name, sched, s));
                rows.push(r);
            }
        }
        let html = render_report(&rows);
        assert!(html.contains("Multi-tenant service"));
        assert!(html.contains("sched <code>fifo</code>"));
        assert!(html.contains("fairness (max/min slowdown) 2.500"));
        assert!(html.contains("sched <code>wfq</code>"));
        assert!(html.contains("fairness (max/min slowdown) 1.200"));
    }

    /// A manifest that mixes schema-v1/v2 records (no `tenant` field)
    /// with v3 tenant records — one of them carrying an undefined
    /// (NaN → JSON null) slowdown — must still render the fairness
    /// summary from the finite slowdowns, with the undefined cell
    /// dashed out instead of "NaN".
    #[test]
    fn mixed_manifest_with_nan_slowdown_renders_fairness() {
        use crate::manifest::TenantInfo;
        let mut v1 = record(RecordKind::T1Case, "legacy v1 point", Some(true));
        v1.schema = 1;
        v1.pass = None;
        let mut v2 = record(RecordKind::EngineExec, "v2 exec pass", None);
        v2.schema = 2;
        v2.pass = Some(1);
        let tenant = |name: &str, slowdown: f64| TenantInfo {
            name: name.into(),
            priority: 1,
            arrival_secs: 0.0,
            cache_blocks: 1500,
            sched: "wfq".into(),
            cache_policy: "static".into(),
            isolated_secs: if slowdown.is_finite() { 10.0 } else { 0.0 },
            makespan_secs: 10.0,
            queue_wait_secs: 0.002,
            slowdown,
        };
        let mut rows = vec![v1, v2];
        for (name, s) in [("a", 2.0), ("b", 4.0), ("zero-baseline", f64::NAN)] {
            let mut r = record(RecordKind::EngineExec, &format!("serve:{name}"), None);
            r.tenant = Some(tenant(name, s));
            rows.push(r);
        }
        // Round-trip through the manifest text first: the NaN slowdown
        // travels as null and used to abort the whole re-parse.
        let text = crate::manifest::render_manifest(&rows);
        let parsed = crate::manifest::parse_manifest(&text).unwrap();
        assert_eq!(parsed.len(), rows.len());
        let html = render_report(&parsed);
        assert!(html.contains("Multi-tenant service"));
        assert!(html.contains("fairness (max/min slowdown) 2.000"));
        assert!(html.contains("<td class=\"num\">—</td>"));
        assert!(!html.contains("NaN"));
    }

    #[test]
    fn breaches_are_listed_and_badged() {
        let records = vec![
            record(RecordKind::T1Case, "good case", Some(true)),
            record(RecordKind::T1Case, "bad case", Some(false)),
            record(RecordKind::T1Case, "unchecked case", None),
        ];
        let html = render_report(&records);
        assert!(html.contains("1 of 2 residual checks failed"));
        assert!(html.contains("bad case"));
        assert!(html.contains("badge fail"));
        assert!(html.contains("badge none"));
    }

    #[test]
    fn labels_are_escaped() {
        let records = vec![
            record(RecordKind::T1Case, "a <b> & \"c\"", Some(true)),
            record(RecordKind::SweepPoint, "sweep @ N=10", Some(true)),
        ];
        let html = render_report(&records);
        assert!(html.contains("a &lt;b&gt; &amp; &quot;c&quot;"));
        assert!(!html.contains("a <b>"));
        // The sweep label inside the SVG legend is escaped by SvgPlot.
        assert!(html.contains("curve &lt;A&amp;B&gt;"));
    }

    #[test]
    fn kbtd_reference_line_appears_once() {
        let mut a = record(RecordKind::SweepPoint, "sweep @ N=10", Some(true));
        let mut b = record(RecordKind::SweepPoint, "sweep @ N=20", Some(true));
        a.x = Some(10.0);
        b.x = Some(20.0);
        let html = render_report(&[a, b]);
        assert_eq!(html.matches("kBT/D = 10.8s").count(), 1);
    }

    #[test]
    fn rendering_is_deterministic_and_empty_safe() {
        let records = vec![record(RecordKind::T1Case, "case", Some(true))];
        assert_eq!(render_report(&records), render_report(&records));
        let empty = render_report(&[]);
        assert!(empty.contains("0 experiment points"));
        assert!(empty.ends_with("</html>\n"));
    }
}
