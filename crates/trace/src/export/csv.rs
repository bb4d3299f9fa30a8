//! Flat CSV export — one row per event, spreadsheet-friendly.

use std::fmt::Write as _;

use crate::{EventKind, TraceEvent};

/// Column header emitted as the first CSV line.
pub const CSV_HEADER: &str =
    "at_ns,event,side,disk,run,block,span,started_ns,sequential,free,groups,blocks,depth";

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| x.to_string()).unwrap_or_default()
}

/// Renders an event stream (oldest first) as CSV with a header row.
///
/// Columns not applicable to an event's kind are left empty, so the file
/// round-trips through any CSV reader without per-kind schemas.
#[must_use]
pub fn csv(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 * (events.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for ev in events {
        let kind = &ev.kind;
        let side = match kind.disk() {
            Some((_, true)) => "out",
            Some((_, false)) => "in",
            None => "",
        };
        let (started, sequential) = match *kind {
            EventKind::DiskSeekDone { started, .. } => (Some(started.as_nanos()), None),
            EventKind::DiskTransferDone {
                started,
                sequential,
                ..
            } => (Some(started.as_nanos()), Some(sequential)),
            _ => (None, None),
        };
        let free = match *kind {
            EventKind::DemandMiss { free, .. } | EventKind::CacheEvictConsumed { free, .. } => {
                Some(free)
            }
            _ => None,
        };
        let (groups, blocks, depth) = match *kind {
            EventKind::PrefetchBatch {
                groups,
                blocks,
                depth,
            } => (Some(groups), Some(blocks), Some(depth)),
            EventKind::CacheAdmit { blocks, .. } | EventKind::CacheReject { blocks, .. } => {
                (None, Some(blocks), None)
            }
            _ => (None, None, None),
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            ev.at.as_nanos(),
            kind.name(),
            side,
            opt(kind.disk().map(|(d, _)| d)),
            opt(kind.run()),
            opt(kind.block()),
            opt(kind.span()),
            opt(started),
            opt(sequential),
            opt(free),
            opt(groups),
            opt(blocks),
            opt(depth),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_tag;
    use pm_sim::SimTime;

    #[test]
    fn header_then_one_row_per_event() {
        let events = vec![
            TraceEvent {
                at: SimTime::from_nanos(100),
                kind: EventKind::DiskIssue {
                    disk: 2,
                    output: false,
                    tag: pack_tag(1, 4),
                    span: 11,
                },
            },
            TraceEvent {
                at: SimTime::from_nanos(900),
                kind: EventKind::DiskTransferDone {
                    disk: 2,
                    output: false,
                    tag: pack_tag(1, 4),
                    span: 11,
                    started: SimTime::from_nanos(100),
                    sequential: true,
                },
            },
            TraceEvent {
                at: SimTime::from_nanos(950),
                kind: EventKind::DemandMiss {
                    run: 7,
                    block: 0,
                    free: 3,
                },
            },
        ];
        let text = csv(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines[1], "100,disk_issue,in,2,1,4,11,,,,,,");
        assert_eq!(lines[2], "900,disk_transfer_done,in,2,1,4,11,100,true,,,,");
        assert_eq!(lines[3], "950,demand_miss,,,7,0,,,,3,,,");
    }

    #[test]
    fn output_side_and_batch_columns() {
        let events = vec![
            TraceEvent {
                at: SimTime::from_nanos(5),
                kind: EventKind::DiskIssue {
                    disk: 0,
                    output: true,
                    tag: 12,
                    span: 3,
                },
            },
            TraceEvent {
                at: SimTime::from_nanos(6),
                kind: EventKind::PrefetchBatch {
                    groups: 2,
                    blocks: 10,
                    depth: 5,
                },
            },
        ];
        let text = csv(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "5,disk_issue,out,0,,12,3,,,,,,");
        assert_eq!(lines[2], "6,prefetch_batch,,,,,,,,,2,10,5");
    }

    #[test]
    fn empty_stream_is_header_only() {
        assert_eq!(csv(&[]), format!("{CSV_HEADER}\n"));
    }
}
