//! Chrome `chrome://tracing` / Perfetto JSON export.
//!
//! The produced JSON follows the Trace Event Format: an object with a
//! `traceEvents` array of metadata (`ph:"M"`), complete (`ph:"X"`),
//! instant (`ph:"i"`) and counter (`ph:"C"`) events. Load it via
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Layout: every disk is a "process" (input disks at pid `100 + d`,
//! output disks at pid `1000 + d`) with one thread lane per request
//! phase — `queue` (submission until service start), `position` (seek +
//! rotational latency) and `transfer`. The merge itself is pid 1,
//! carrying demand-miss / run-exhausted instants and a cache free-frame
//! counter. Timestamps are microseconds, as the format requires.

use std::collections::HashMap;
use std::fmt::Write as _;

use pm_sim::SimTime;

use crate::{DiskLaneMetrics, EventKind, TraceEvent};

const MERGE_PID: u32 = 1;
const INPUT_PID_BASE: u32 = 100;
const OUTPUT_PID_BASE: u32 = 1000;

fn pid_of(disk: u16, output: bool) -> u32 {
    if output {
        OUTPUT_PID_BASE + u32::from(disk)
    } else {
        INPUT_PID_BASE + u32::from(disk)
    }
}

fn us(t: SimTime) -> String {
    format!("{:.3}", t.as_nanos() as f64 / 1_000.0)
}

fn dur_us(from: SimTime, to: SimTime) -> String {
    format!("{:.3}", (to - from).as_nanos() as f64 / 1_000.0)
}

/// Renders an event stream (oldest first) as Chrome-trace JSON.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: &str| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(line);
    };

    // Metadata: name every disk process and phase lane, in id order.
    let mut pids: Vec<(u32, u16, bool)> = events
        .iter()
        .filter_map(|e| e.kind.disk())
        .map(|(d, o)| (pid_of(d, o), d, o))
        .collect();
    pids.sort_unstable();
    pids.dedup();
    let has_merge_events = events.iter().any(|e| e.kind.disk().is_none());
    if has_merge_events {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{MERGE_PID},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"merge\"}}}}"
            ),
        );
    }
    for &(pid, disk, output) in &pids {
        let side = if output { "output" } else { "input" };
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{side} disk {disk}\"}}}}"
            ),
        );
        for (tid, lane) in [(1, "queue"), (2, "position"), (3, "transfer")] {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{lane}\"}}}}"
                ),
            );
        }
    }

    // Span bookkeeping: each disk's lane pairs a completion with its
    // issue; seek-done instants by (pid, span).
    let mut lanes: HashMap<u32, DiskLaneMetrics> = HashMap::new();
    let mut positioned: HashMap<(u32, u64), SimTime> = HashMap::new();

    for ev in events {
        match ev.kind {
            EventKind::DiskIssue {
                disk, output, span, ..
            } => lanes
                .entry(pid_of(disk, output))
                .or_default()
                .issue(ev.at, span),
            EventKind::DiskSeekDone {
                disk, output, span, ..
            } => {
                positioned.insert((pid_of(disk, output), span), ev.at);
            }
            EventKind::DiskTransferDone {
                disk,
                output,
                span,
                started,
                sequential,
                ..
            } => {
                let pid = pid_of(disk, output);
                let run = ev.kind.run();
                let block = ev.kind.block().unwrap_or(0);
                let label = match run {
                    Some(r) => format!("r{r}/b{block}"),
                    None => format!("out b{block}"),
                };
                let issued = lanes
                    .entry(pid)
                    .or_default()
                    .complete(ev.at, span, started, sequential);
                if let Some(at) = issued {
                    if started > at {
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"cat\":\"disk\",\
                                 \"name\":\"queue {label}\",\"ts\":{},\"dur\":{},\
                                 \"args\":{{\"span\":{span}}}}}",
                                us(at),
                                dur_us(at, started),
                            ),
                        );
                    }
                }
                let xfer_from = match positioned.remove(&(pid, span)) {
                    Some(mech_end) => {
                        if mech_end > started {
                            push(
                                &mut out,
                                &format!(
                                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":2,\"cat\":\"disk\",\
                                     \"name\":\"position {label}\",\"ts\":{},\"dur\":{},\
                                     \"args\":{{\"span\":{span}}}}}",
                                    us(started),
                                    dur_us(started, mech_end),
                                ),
                            );
                        }
                        mech_end
                    }
                    None => started,
                };
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":3,\"cat\":\"disk\",\
                         \"name\":\"transfer {label}\",\"ts\":{},\"dur\":{},\
                         \"args\":{{\"span\":{span},\"sequential\":{sequential}}}}}",
                        us(xfer_from),
                        dur_us(xfer_from, ev.at),
                    ),
                );
            }
            EventKind::DemandMiss { run, block, free } => {
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"i\",\"pid\":{MERGE_PID},\"tid\":1,\"s\":\"p\",\
                         \"cat\":\"cache\",\"name\":\"demand miss r{run}/b{block}\",\
                         \"ts\":{}}}",
                        us(ev.at),
                    ),
                );
                push(&mut out, &counter(ev.at, free));
            }
            EventKind::PrefetchBatch {
                groups,
                blocks,
                depth,
            } => {
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"i\",\"pid\":{MERGE_PID},\"tid\":1,\"s\":\"p\",\
                         \"cat\":\"cache\",\"name\":\"prefetch {groups}x (depth {depth}, \
                         {blocks} blocks)\",\"ts\":{}}}",
                        us(ev.at),
                    ),
                );
            }
            EventKind::CacheReject { run, blocks } => {
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"i\",\"pid\":{MERGE_PID},\"tid\":1,\"s\":\"p\",\
                         \"cat\":\"cache\",\"name\":\"reject r{run} ({blocks} blocks)\",\
                         \"ts\":{}}}",
                        us(ev.at),
                    ),
                );
            }
            EventKind::CacheEvictConsumed { free, .. } => {
                push(&mut out, &counter(ev.at, free));
            }
            EventKind::RunExhausted { run } => {
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"i\",\"pid\":{MERGE_PID},\"tid\":1,\"s\":\"p\",\
                         \"cat\":\"merge\",\"name\":\"run {run} exhausted\",\"ts\":{}}}",
                        us(ev.at),
                    ),
                );
            }
            EventKind::PassBoundary { pass, groups } => {
                // Global-scope instant so the boundary is visible across
                // every disk lane, not just the merge process.
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"i\",\"pid\":{MERGE_PID},\"tid\":1,\"s\":\"g\",\
                         \"cat\":\"merge\",\"name\":\"pass {pass} start \
                         ({groups} groups)\",\"ts\":{}}}",
                        us(ev.at),
                    ),
                );
            }
            // Per-block CPU consumes would dwarf every other lane;
            // they are summarized by the cache-free counter instead.
            EventKind::CacheAdmit { .. } | EventKind::CpuConsume { .. } => {}
        }
    }

    out.push_str("\n]}\n");
    out
}

fn counter(at: SimTime, free: u32) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"ph\":\"C\",\"pid\":{MERGE_PID},\"tid\":0,\"name\":\"cache free\",\
         \"ts\":{},\"args\":{{\"free\":{free}}}}}",
        us(at),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_tag;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn service(
        disk: u16,
        span: u64,
        issue: u64,
        start: u64,
        mech: u64,
        done: u64,
    ) -> Vec<TraceEvent> {
        let tag = pack_tag(2, 9);
        vec![
            TraceEvent {
                at: t(issue),
                kind: EventKind::DiskIssue {
                    disk,
                    output: false,
                    tag,
                    span,
                },
            },
            TraceEvent {
                at: t(mech),
                kind: EventKind::DiskSeekDone {
                    disk,
                    output: false,
                    tag,
                    span,
                    started: t(start),
                },
            },
            TraceEvent {
                at: t(done),
                kind: EventKind::DiskTransferDone {
                    disk,
                    output: false,
                    tag,
                    span,
                    started: t(start),
                    sequential: false,
                },
            },
        ]
    }

    #[test]
    fn emits_three_lanes_for_a_queued_request() {
        let json = chrome_trace_json(&service(0, 7, 0, 1_000, 3_000, 10_000));
        assert!(json.contains("\"name\":\"input disk 0\""));
        assert!(json.contains("\"name\":\"queue r2/b9\",\"ts\":0.000,\"dur\":1.000"));
        assert!(json.contains("\"name\":\"position r2/b9\",\"ts\":1.000,\"dur\":2.000"));
        assert!(json.contains("\"name\":\"transfer r2/b9\",\"ts\":3.000,\"dur\":7.000"));
    }

    #[test]
    fn immediate_sequential_service_skips_queue_and_position() {
        // Issue == start == mech end: only the transfer slice remains.
        let json = chrome_trace_json(&service(1, 0, 500, 500, 500, 2_500));
        assert!(!json.contains("queue r2"));
        assert!(!json.contains("position r2"));
        assert!(json.contains("\"name\":\"transfer r2/b9\",\"ts\":0.500,\"dur\":2.000"));
    }

    #[test]
    fn merge_events_land_on_the_merge_process() {
        let events = vec![TraceEvent {
            at: t(42_000),
            kind: EventKind::DemandMiss {
                run: 3,
                block: 12,
                free: 40,
            },
        }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"process_name\",\"args\":{\"name\":\"merge\"}"));
        assert!(json.contains("\"name\":\"demand miss r3/b12\",\"ts\":42.000"));
        assert!(json.contains("\"name\":\"cache free\",\"ts\":42.000,\"args\":{\"free\":40}"));
    }

    #[test]
    fn output_disks_get_their_own_process() {
        let mut events = service(0, 1, 0, 0, 100, 1_000);
        for e in &mut events {
            e.kind = e.kind.as_output();
        }
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"output disk 0\""));
        assert!(json.contains("\"pid\":1000,"));
        assert!(json.contains("transfer out b"));
    }

    #[test]
    fn pass_boundaries_are_global_instants() {
        let events = vec![TraceEvent {
            at: t(5_000),
            kind: EventKind::PassBoundary { pass: 1, groups: 3 },
        }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"pass 1 start (3 groups)\",\"ts\":5.000"));
        assert!(json.contains("\"s\":\"g\""));
    }

    #[test]
    fn empty_stream_is_valid_json_shell() {
        let json = chrome_trace_json(&[]);
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with("]}"));
    }
}
