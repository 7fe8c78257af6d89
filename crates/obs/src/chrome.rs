//! A `chrome://tracing` exporter for recorded histories.
//!
//! Chrome's trace-event profiling format (also read by Perfetto and
//! `ui.perfetto.dev`) is a JSON array of event objects. This exporter
//! renders a [`History`] — from the simulator, the software STM or
//! `sitm-serve`, they all record the same thing — into that format, one
//! lane per thread:
//!
//! - every attempt becomes a *complete* duration event (`"ph": "X"`)
//!   spanning `begin_seq..end_seq`, named by its outcome (`committed`,
//!   `aborted:write-write`, ...) and carrying the attempt id, the
//!   begin/commit timestamps and, on an attributed abort, the
//!   [`crate::AbortDetail`] cause, line and winner as arguments;
//! - every recorded operation becomes an *instant* event (`"ph": "i"`,
//!   thread scope) named `read` / `write` / `promote`, with the line
//!   (and its label, if the history names it) and the observed version.
//!
//! The time axis is the history's global operation sequence, reported
//! as microseconds (`"ts"`), which Chrome only uses for relative
//! placement. Output is deterministic: records appear in finish order,
//! each span followed by its own instants, and all JSON comes from the
//! deterministic in-tree [`crate::json::Json`] writer.

use crate::history::{History, TxnRecord};
use crate::json::Json;

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn span_event(r: &TxnRecord) -> Json {
    let mut args = vec![("txn", num(r.txn))];
    args.extend(r.begin_ts.map(|ts| ("begin_ts", num(ts))));
    args.extend(r.commit_ts.map(|ts| ("commit_ts", num(ts))));
    if let Some(detail) = r.abort {
        args.extend(detail.json_pairs());
    }
    Json::obj([
        ("name", Json::Str(r.outcome.to_string())),
        ("ph", Json::Str("X".to_string())),
        ("ts", num(r.begin_seq)),
        ("dur", num(r.end_seq - r.begin_seq)),
        ("pid", num(0)),
        ("tid", num(r.thread as u64)),
        ("args", Json::obj(args)),
    ])
}

/// Renders a recorded history as a Chrome trace-event JSON array.
pub fn chrome_trace(history: &History) -> String {
    let mut events = Vec::new();
    for r in history.records() {
        events.push(span_event(r));
        for op in &r.ops {
            let (name, line, observed) = op.kind.parts();
            let mut args = vec![("line", num(line))];
            args.extend(
                history
                    .label(line)
                    .map(|label| ("label", Json::Str(label.to_string()))),
            );
            args.extend(observed.map(|ts| ("observed", num(ts))));
            events.push(Json::obj([
                ("name", Json::Str(name.to_string())),
                ("ph", Json::Str("i".to_string())),
                ("ts", num(op.seq)),
                ("pid", num(0)),
                ("tid", num(r.thread as u64)),
                ("s", Json::Str("t".to_string())),
                ("args", Json::obj(args)),
            ]));
        }
    }
    Json::Arr(events).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forensics::ForensicCause;
    use crate::history::{AbortDetail, OpKind, TxnBuilder};

    fn events(history: &History) -> Vec<Json> {
        let doc = Json::parse(&chrome_trace(history)).expect("exporter emits valid JSON");
        doc.as_arr().expect("top level is an array").to_vec()
    }

    fn spans(events: &[Json]) -> Vec<&Json> {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect()
    }

    #[test]
    fn exports_spans_and_instants() {
        let mut h = History::default();
        let mut b = TxnBuilder::new(4, 0, 0, 10, Some(7));
        b.op(
            12,
            OpKind::Read {
                line: 64,
                observed: Some(3),
            },
        );
        b.op(13, OpKind::Write { line: 64 });
        b.op(14, OpKind::Promote { line: 128 });
        h.push(b.commit(25, Some(9)));
        h.set_label(128, "saving");
        let events = events(&h);
        // 1 duration span + 3 instants, the span first.
        assert_eq!(events.len(), 4);
        let span = &events[0];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("name").unwrap().as_str(), Some("committed"));
        assert_eq!(span.get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(15));
        let args = span.get("args").unwrap();
        assert_eq!(args.get("txn").unwrap().as_u64(), Some(4));
        assert_eq!(args.get("begin_ts").unwrap().as_u64(), Some(7));
        assert_eq!(args.get("commit_ts").unwrap().as_u64(), Some(9));
        let names: Vec<_> = events[1..]
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["read", "write", "promote"]);
        let read = events[1].get("args").unwrap();
        assert_eq!(read.get("line").unwrap().as_u64(), Some(64));
        assert_eq!(read.get("observed").unwrap().as_u64(), Some(3));
        assert_eq!(read.get("label"), None);
        assert_eq!(events[1].get("ts").unwrap().as_u64(), Some(12));
        let promote = events[3].get("args").unwrap();
        assert_eq!(promote.get("label").unwrap().as_str(), Some("saving"));
        assert_eq!(promote.get("observed"), None);
    }

    #[test]
    fn abort_spans_carry_the_cause() {
        let mut h = History::default();
        let mut full = TxnBuilder::new(1, 3, 0, 5, Some(1));
        full.detail(AbortDetail {
            cause: ForensicCause::WriteWriteFcw,
            line: Some(192),
            winner_ts: Some(6),
        });
        h.push(full.abort(9, "write-write"));
        // A 2PL lock conflict knows the line but no winner.
        let mut partial = TxnBuilder::new(2, 3, 0, 10, None);
        partial.detail(AbortDetail {
            cause: ForensicCause::LockTimeout,
            line: Some(64),
            winner_ts: None,
        });
        h.push(partial.abort(11, "read-write"));
        // A deliberate rollback carries no detail at all.
        h.push(TxnBuilder::new(3, 3, 0, 12, None).abort(13, "explicit"));
        let events = events(&h);
        let spans = spans(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[0].get("name").unwrap().as_str(),
            Some("aborted:write-write")
        );
        assert_eq!(spans[0].get("tid").unwrap().as_u64(), Some(3));
        let args = spans[0].get("args").unwrap();
        assert_eq!(
            args.get("abort_cause").unwrap().as_str(),
            Some("write-write-fcw")
        );
        assert_eq!(args.get("abort_line").unwrap().as_u64(), Some(192));
        assert_eq!(args.get("abort_winner_ts").unwrap().as_u64(), Some(6));
        assert_eq!(args.get("commit_ts"), None);
        let args = spans[1].get("args").unwrap();
        assert_eq!(
            args.get("abort_cause").unwrap().as_str(),
            Some("lock-timeout")
        );
        assert_eq!(args.get("abort_line").unwrap().as_u64(), Some(64));
        assert_eq!(args.get("abort_winner_ts"), None);
        assert_eq!(args.get("begin_ts"), None);
        let args = spans[2].get("args").unwrap();
        assert_eq!(args.get("abort_cause"), None);
        assert_eq!(args.get("txn").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn interleaved_threads_get_independent_spans() {
        // Thread 1's attempt nests inside thread 0's in sequence order;
        // records arrive in finish order.
        let mut h = History::default();
        h.push(TxnBuilder::new(1, 1, 0, 2, None).commit(3, None));
        h.push(TxnBuilder::new(0, 0, 0, 1, None).abort(4, "read-write"));
        let events = events(&h);
        let spans = spans(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(spans[0].get("dur").unwrap().as_u64(), Some(1));
        assert_eq!(spans[1].get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(spans[1].get("dur").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn empty_input_is_an_empty_array() {
        assert_eq!(chrome_trace(&History::default()), "[]");
    }
}
