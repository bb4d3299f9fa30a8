//! Trace-backed ASCII Gantt chart.
//!
//! Rows are built from the *recorded* per-request intervals —
//! [`crate::EventKind::DiskTransferDone`] carries the exact service window
//! — rather than re-deriving activity from aggregate statistics. Rendering
//! itself is delegated to [`pm_report::Gantt`].

use std::collections::BTreeMap;

use pm_sim::SimTime;

use crate::{EventKind, TraceEvent};

/// Rendering options for [`gantt`].
#[derive(Debug, Clone, Copy)]
pub struct GanttOptions {
    /// Time cells per row (passed to [`pm_report::Gantt::new`]).
    pub width: usize,
    /// Window start; defaults to the trace start (time zero).
    pub from: Option<SimTime>,
    /// Window end; defaults to the last stamped event.
    pub to: Option<SimTime>,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions {
            width: 100,
            from: None,
            to: None,
        }
    }
}

/// Renders an event stream (oldest first) as an ASCII Gantt chart.
///
/// One row per input disk (`#` = in service) and per output disk (`=`),
/// plus a `miss` row marking each demand-miss instant with `!`. The axis
/// reads in the largest of ns, µs, ms and s in which the window's end is
/// at least 10. Returns a note instead of a chart when the window is empty.
#[must_use]
pub fn gantt(events: &[TraceEvent], options: &GanttOptions) -> String {
    // BTreeMaps keep the row order stable by disk id.
    let mut input: BTreeMap<u16, Vec<(u64, u64)>> = BTreeMap::new();
    let mut output: BTreeMap<u16, Vec<(u64, u64)>> = BTreeMap::new();
    let mut misses: Vec<(u64, u64)> = Vec::new();
    let mut span_end = SimTime::ZERO;
    for ev in events {
        span_end = span_end.max(ev.at);
        match ev.kind {
            EventKind::DiskTransferDone {
                disk,
                output: out_side,
                started,
                ..
            } => {
                let side = if out_side { &mut output } else { &mut input };
                side.entry(disk)
                    .or_default()
                    .push((started.as_nanos(), ev.at.as_nanos()));
            }
            EventKind::DemandMiss { .. } => {
                // An instant; widen by 1 ns so the renderer marks a cell.
                misses.push((ev.at.as_nanos(), ev.at.as_nanos() + 1));
            }
            _ => {}
        }
    }

    let from = options.from.unwrap_or(SimTime::ZERO).as_nanos();
    let to = options.to.unwrap_or(span_end).as_nanos();
    if from >= to {
        return String::from("(empty trace window)\n");
    }

    let mut chart = pm_report::Gantt::new(options.width);
    for (disk, intervals) in input {
        chart.add_row(format!("disk {disk}"), '#', intervals);
    }
    for (disk, intervals) in output {
        chart.add_row(format!("write {disk}"), '=', intervals);
    }
    if !misses.is_empty() {
        chart.add_row("miss", '!', misses);
    }
    let (unit, ns_per_unit) = [("s", 1e9), ("ms", 1e6), ("µs", 1e3)]
        .into_iter()
        .find(|&(_, scale)| to as f64 / scale >= 10.0)
        .unwrap_or(("ns", 1.0));
    chart.render(from, to, |ns| format!("{} {unit}", ns as f64 / ns_per_unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_tag;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn xfer(disk: u16, output: bool, started: u64, done: u64) -> TraceEvent {
        TraceEvent {
            at: t(done),
            kind: EventKind::DiskTransferDone {
                disk,
                output,
                tag: pack_tag(0, 0),
                span: 0,
                started: t(started),
                sequential: false,
            },
        }
    }

    #[test]
    fn rows_per_disk_in_id_order_plus_miss_row() {
        let events = vec![
            xfer(1, false, 0, 500),
            xfer(0, false, 100, 400),
            xfer(0, true, 200, 900),
            TraceEvent {
                at: t(450),
                kind: EventKind::DemandMiss {
                    run: 0,
                    block: 1,
                    free: 2,
                },
            },
        ];
        let out = gantt(&events, &GanttOptions::default());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("disk 0"));
        assert!(lines[1].contains("disk 1"));
        assert!(lines[2].contains("write 0"));
        assert!(lines[3].contains("miss"));
        assert!(lines[3].contains('!'));
        assert!(out.contains("900 ns"));
    }

    #[test]
    fn explicit_window_overrides_span() {
        let events = vec![xfer(0, false, 0, 1_000)];
        let out = gantt(
            &events,
            &GanttOptions {
                width: 20,
                from: Some(t(2_000)),
                to: Some(t(3_000)),
            },
        );
        // The service lies before the window: no marks, axis shows window.
        assert!(!out.lines().next().unwrap().contains('#'));
        assert!(out.contains("2000 ns"));
    }

    #[test]
    fn axis_reads_in_the_largest_unit_that_keeps_the_end_at_least_10() {
        let events = vec![xfer(0, false, 2_000_000_000, 25_000_000_000)];
        let out = gantt(&events, &GanttOptions::default());
        let axis = out.lines().last().unwrap();
        assert!(
            axis.trim_start().starts_with("0 s") && axis.ends_with(" 25 s"),
            "{axis}"
        );
        let window = GanttOptions {
            from: Some(t(1_500_000_000)),
            ..GanttOptions::default()
        };
        let out = gantt(&events, &window);
        assert!(out.lines().last().unwrap().contains("1.5 s"), "{out}");
        let micros = gantt(&[xfer(0, false, 0, 12_500)], &GanttOptions::default());
        assert!(
            micros.lines().last().unwrap().ends_with(" 12.5 µs"),
            "{micros}"
        );
    }

    #[test]
    fn empty_trace_degrades_gracefully() {
        assert_eq!(
            gantt(&[], &GanttOptions::default()),
            "(empty trace window)\n"
        );
    }
}
