//! Chrome-trace / Perfetto export: serializes a [`TraceData`] snapshot to
//! the Trace Event Format JSON that `chrome://tracing` and
//! <https://ui.perfetto.dev> load directly — one timeline row (`tid`) per
//! worker plus a `driver` row for the iterative-deepening coordinator.
//!
//! Span kinds become complete (`"ph":"X"`) events with microsecond
//! timestamps and durations; instant kinds become thread-scoped
//! (`"ph":"i"`, `"s":"t"`) events. A metadata (`"ph":"M"`) record names
//! each row.

use std::fmt::Write as _;

use crate::event::{job_label, EventKind};
use crate::tracer::{RowData, TraceData};

/// Escapes `s` as JSON string *contents* (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Microseconds with nanosecond precision kept as a decimal fraction.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn push_meta_row(out: &mut String, tid: u64, name: &str, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
    let _ = write!(out, "{tid}");
    out.push_str(",\"args\":{\"name\":\"");
    escape_into(out, name);
    out.push_str("\"}}");
}

fn push_event_row(out: &mut String, tid: u64, row: &RowData, first: &mut bool) {
    for ev in &row.events {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("\n  {\"name\":\"");
        if ev.kind == EventKind::JobExecute {
            out.push_str("job:");
            escape_into(out, job_label(ev.arg));
        } else {
            escape_into(out, ev.kind.label());
        }
        out.push_str("\",\"cat\":\"");
        escape_into(out, ev.kind.category());
        out.push_str("\",\"pid\":0,\"tid\":");
        let _ = write!(out, "{tid}");
        out.push_str(",\"ts\":");
        push_us(out, ev.ts_ns);
        if ev.kind.is_span() {
            out.push_str(",\"ph\":\"X\",\"dur\":");
            push_us(out, ev.dur_ns);
        } else {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"args\":{{\"arg\":{}}}}}", ev.arg);
    }
}

/// Serializes `data` to a Trace Event Format JSON document.
pub fn chrome_json(data: &TraceData) -> String {
    let mut out = String::with_capacity(128 * (data.total_events() as usize + 8));
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let driver_tid = data
        .workers
        .iter()
        .map(|(i, _)| *i as u64 + 1)
        .max()
        .unwrap_or(0);
    for (index, _) in &data.workers {
        push_meta_row(
            &mut out,
            *index as u64,
            &format!("worker {index}"),
            &mut first,
        );
    }
    if !data.driver.events.is_empty() {
        push_meta_row(&mut out, driver_tid, "driver", &mut first);
    }
    for (index, row) in &data.workers {
        push_event_row(&mut out, *index as u64, row, &mut first);
    }
    push_event_row(&mut out, driver_tid, &data.driver, &mut first);
    out.push_str("\n]}\n");
    out
}

/// Serializes many sessions' snapshots into **one** Trace Event Format
/// document with session-tagged rows: session `s`'s workers land on rows
/// named `s<id>/worker <k>` and its driver on `s<id>/driver`, each session
/// occupying a contiguous `tid` band so Perfetto groups its rows together.
///
/// This is the multi-session twin of [`chrome_json`]: the engine server
/// gives every session its own bounded tracer ring, and this export merges
/// the per-session rings onto one shared timeline (all tracers must be
/// created from the same epoch burst for timestamps to be comparable — the
/// server creates them together at scheduler start).
pub fn chrome_json_sessions(sessions: &[(u32, &TraceData)]) -> String {
    let total: u64 = sessions.iter().map(|(_, d)| d.total_events()).sum();
    let mut out = String::with_capacity(128 * (total as usize + 8));
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut base_tid = 0u64;
    for (sid, data) in sessions {
        let driver_tid = base_tid
            + data
                .workers
                .iter()
                .map(|(i, _)| *i as u64 + 1)
                .max()
                .unwrap_or(0);
        for (index, _) in &data.workers {
            push_meta_row(
                &mut out,
                base_tid + *index as u64,
                &format!("s{sid}/worker {index}"),
                &mut first,
            );
        }
        if !data.driver.events.is_empty() {
            push_meta_row(&mut out, driver_tid, &format!("s{sid}/driver"), &mut first);
        }
        for (index, row) in &data.workers {
            push_event_row(&mut out, base_tid + *index as u64, row, &mut first);
        }
        push_event_row(&mut out, driver_tid, &data.driver, &mut first);
        base_tid = driver_tid + 1;
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::lint;

    fn ev(kind: EventKind, ts: u64, dur: u64, arg: u32) -> TraceEvent {
        TraceEvent {
            kind,
            ts_ns: ts,
            dur_ns: dur,
            arg,
        }
    }

    /// A synthetic snapshot carrying at least one event of every declared
    /// kind, so the exporter's handling of each is pinned deterministically
    /// (the threaded runs exercise the same path stochastically).
    fn full_coverage_data() -> TraceData {
        let worker = RowData {
            events: vec![
                ev(EventKind::LockWait, 0, 1500, 0),
                ev(EventKind::LockHold, 1500, 800, 8),
                ev(EventKind::QueueDepth, 2300, 0, 12),
                ev(EventKind::JobExecute, 2300, 9000, 5),
                ev(EventKind::TtProbe, 4000, 0, 1),
                ev(EventKind::TtStore, 5000, 0, 3),
                ev(EventKind::Park, 13000, 2000, 0),
                ev(EventKind::Unpark, 15000, 0, 0),
                ev(EventKind::AbortTrip, 16000, 0, 1),
            ],
            dropped: 0,
        };
        TraceData {
            workers: vec![(0, worker.clone()), (1, worker)],
            driver: RowData {
                events: vec![
                    ev(EventKind::IdDepthStart, 0, 0, 1),
                    ev(EventKind::AspirationResearch, 9000, 0, 1),
                    ev(EventKind::QExtension, 12000, 0, 2),
                    ev(EventKind::IdDepthFinish, 17000, 0, 1),
                ],
                dropped: 0,
            },
            wall_ns: 17000,
        }
    }

    #[test]
    fn export_is_well_formed_json_with_all_kinds() {
        let data = full_coverage_data();
        assert_eq!(data.kinds_seen(), crate::event::KIND_COUNT);
        let json = chrome_json(&data);
        lint::check(&json).expect("chrome export must be valid JSON");
        for kind in EventKind::ALL {
            if kind != EventKind::JobExecute {
                assert!(
                    json.contains(&format!("\"name\":\"{}\"", kind.label())),
                    "missing {kind:?}"
                );
            }
        }
        assert!(json.contains("\"name\":\"job:serial\""));
    }

    #[test]
    fn one_metadata_row_per_worker_plus_driver() {
        let json = chrome_json(&full_coverage_data());
        assert_eq!(json.matches("\"thread_name\"").count(), 3);
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"name\":\"worker 1\""));
        assert!(json.contains("\"name\":\"driver\""));
        // The driver row's tid must not collide with a worker's.
        assert!(json.contains("\"tid\":2,\"args\":{\"name\":\"driver\"}"));
    }

    #[test]
    fn session_export_tags_rows_and_separates_tid_bands() {
        let a = full_coverage_data();
        let b = full_coverage_data();
        let json = chrome_json_sessions(&[(0, &a), (7, &b)]);
        lint::check(&json).expect("session export must be valid JSON");
        // Rows are session-tagged…
        assert!(json.contains("\"name\":\"s0/worker 0\""));
        assert!(json.contains("\"name\":\"s0/driver\""));
        assert!(json.contains("\"name\":\"s7/worker 1\""));
        assert!(json.contains("\"name\":\"s7/driver\""));
        // …and the second session's band starts after the first's driver
        // row (2 workers + driver = tids 0..=2, so s7 starts at tid 3).
        assert!(json.contains("\"tid\":3,\"args\":{\"name\":\"s7/worker 0\"}"));
        assert!(json.contains("\"tid\":5,\"args\":{\"name\":\"s7/driver\"}"));
        // Both sessions' events all landed.
        assert_eq!(
            json.matches("\"thread_name\"").count(),
            6,
            "2 sessions x (2 workers + driver)"
        );
    }

    #[test]
    fn timestamps_are_fractional_microseconds() {
        let data = TraceData {
            workers: vec![(
                0,
                RowData {
                    events: vec![ev(EventKind::JobExecute, 1234567, 890, 0)],
                    dropped: 0,
                },
            )],
            driver: RowData::default(),
            wall_ns: 2000000,
        };
        let json = chrome_json(&data);
        assert!(json.contains("\"ts\":1234.567"), "got: {json}");
        assert!(json.contains("\"dur\":0.890"), "got: {json}");
        lint::check(&json).expect("valid JSON");
    }

    #[test]
    fn empty_snapshot_exports_an_empty_event_list() {
        let data = TraceData {
            workers: vec![],
            driver: RowData::default(),
            wall_ns: 0,
        };
        let json = chrome_json(&data);
        lint::check(&json).expect("valid JSON");
        assert!(json.contains("\"traceEvents\":[\n]"));
    }
}
