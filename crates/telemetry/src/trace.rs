//! Chrome `trace_event` export: one JSON file a run drops straight
//! into Perfetto (ui.perfetto.dev) or `chrome://tracing`.
//!
//! Sampled packets become complete ("X") spans — one per lifecycle
//! phase — grouped by process id (router traces use the ingress
//! linecard, or the dropping linecard for a drop marker; network
//! traces use `cell × 4096 + router`, one track per router) with the
//! packet id as thread id, so a packet's phases stack on one timeline
//! row. Drops and anomalies are instant ("i") events. Network traces
//! additionally emit flow arrows ("s" start / "f" finish pairs sharing
//! an `id`) linking a packet's spans across router tracks.
//!
//! The writer streams over the [`crate::json`] primitives rather than
//! building a value tree: a sweep's trace can hold millions of events.

use crate::json::{write_num, write_str};
use std::fmt::Write as _;

/// One Chrome trace event (subset: complete + instant + flow phases).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name shown on the span.
    pub name: &'static str,
    /// `'X'` (complete, has `dur`), `'i'` (instant), or `'s'`/`'f'`
    /// (flow arrow start/finish).
    pub ph: char,
    /// Start, microseconds of sim-time.
    pub ts_us: f64,
    /// Duration in microseconds (complete events only).
    pub dur_us: f64,
    /// Process id lane (linecard, or the network track of a router).
    pub pid: u32,
    /// Thread id lane (packet id truncated to 32 bits).
    pub tid: u32,
    /// Full packet id, attached under `args`.
    pub packet: u64,
    /// Flow-arrow id pairing `'s'` with `'f'` (0 for other phases).
    pub id: u64,
}

/// Serialize events to a Chrome `trace_event` JSON object.
///
/// Output is `{"traceEvents": [...], "displayTimeUnit": "ns"}`; event
/// order is preserved, so callers control determinism by ordering the
/// slice (the sweep envelope concatenates cells in index order).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(&mut out, ev.name);
        out.push_str(",\"ph\":");
        write_str(&mut out, ev.ph.encode_utf8(&mut [0; 4]));
        out.push_str(",\"ts\":");
        write_num(&mut out, ev.ts_us);
        if ev.ph == 'X' {
            out.push_str(",\"dur\":");
            write_num(&mut out, ev.dur_us);
        } else if ev.ph == 's' || ev.ph == 'f' {
            // Flow arrow: the id pairs start with finish; binding the
            // finish to its enclosing slice's end ("bp":"e") makes
            // Perfetto draw the arrow span-to-span.
            // Arrow ids reach 2^56: printed as exact integers.
            write!(out, ",\"cat\":\"flow\",\"id\":{}", ev.id).expect("write to String");
            if ev.ph == 'f' {
                out.push_str(",\"bp\":\"e\"");
            }
        } else {
            // Thread-scoped instant: renders as a marker on the row.
            out.push_str(",\"s\":\"t\"");
        }
        write!(
            out,
            ",\"pid\":{},\"tid\":{},\"args\":{{\"packet\":{}}}}}",
            ev.pid, ev.tid, ev.packet
        )
        .expect("write to String");
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_shape() {
        let events = vec![
            TraceEvent {
                name: "switching",
                ph: 'X',
                ts_us: 12.5,
                dur_us: 3.25,
                pid: 0,
                tid: 7,
                packet: (1 << 48) | 7,
                id: 0,
            },
            TraceEvent {
                name: "drop:voq-overflow",
                ph: 'i',
                ts_us: 20.0,
                dur_us: 0.0,
                pid: 0,
                tid: 9,
                packet: 9,
                id: 0,
            },
        ];
        let s = chrome_trace_json(&events);
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"dur\":3.25"));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"s\":\"t\""));
        assert!(s.ends_with("],\"displayTimeUnit\":\"ns\"}"));
        // Instant events carry no dur.
        let instant = &s[s.find("drop:voq-overflow").unwrap()..];
        assert!(!instant.contains("\"dur\""));
    }

    #[test]
    fn flow_arrows_pair_by_id() {
        let arrow = |ph| TraceEvent {
            name: "flow",
            ph,
            ts_us: 5.0,
            dur_us: 0.0,
            pid: 3,
            tid: 11,
            packet: 11,
            id: 11,
        };
        let s = chrome_trace_json(&[arrow('s'), arrow('f')]);
        assert!(s.contains("\"ph\":\"s\",\"ts\":5,\"cat\":\"flow\",\"id\":11"));
        assert!(s.contains("\"ph\":\"f\",\"ts\":5,\"cat\":\"flow\",\"id\":11,\"bp\":\"e\""));
        // Flow phases carry neither dur nor the instant scope marker.
        assert!(!s.contains("\"dur\""));
        assert!(!s.contains("\"s\":\"t\""));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}"
        );
    }
}
