//! Golden files for the two forensic export formats:
//!
//! * `tests/golden/chrome_trace.json` — the Chrome trace-event JSON
//!   array the [`sitm_obs::chrome_trace`] exporter renders from a fixed
//!   [`History`];
//! * `tests/golden/abort_forensics.jsonl` — `sitm.abort_forensics.v1`
//!   records rendered from fixed [`ForensicsSnapshot`]s.
//!
//! On an intentional format change regenerate with
//! `SITM_UPDATE_GOLDEN=1 cargo test -p sitm-obs --test golden_forensics`
//! and review the diff.

use std::path::Path;

use sitm_obs::forensics::TopK;
use sitm_obs::{
    chrome_trace, AbortDetail, ForensicCause, ForensicsReport, ForensicsSnapshot, Histogram,
    History, OpKind, TxnBuilder, TxnRecord,
};

/// An aborted attempt of thread 1 that began at sequence `begin_seq`
/// with snapshot `begin_ts` and lost on `line` to a winner at
/// `winner_ts`.
fn loser(
    txn: u64,
    begin_seq: u64,
    begin_ts: u64,
    cause: ForensicCause,
    line: u64,
    winner_ts: u64,
) -> TxnRecord {
    let mut b = TxnBuilder::new(txn, 1, 0, begin_seq, Some(begin_ts));
    b.op(begin_seq + 1, OpKind::Write { line });
    b.detail(AbortDetail {
        cause,
        line: Some(line),
        winner_ts: Some(winner_ts),
    });
    let label = match cause {
        ForensicCause::CapacityEviction => "version-overflow",
        _ => "write-write",
    };
    b.abort(begin_seq + 2, label)
}

/// A fixed history with one record of each shape a runtime writes: a
/// simulator-shaped commit (cache-line addresses, engine sequence
/// numbers), a simulator 2PL abort that knows its line but no winner
/// and has no timestamps, an STM-shaped fully attributed abort on a
/// labelled `TVar`, and a deliberate rollback with no detail.
fn golden_history() -> History {
    let mut h = History::default();
    let mut sim = TxnBuilder::new(0, 0, 0, 0, Some(3));
    sim.op(
        1,
        OpKind::Read {
            line: 0x40,
            observed: Some(2),
        },
    );
    sim.op(4, OpKind::Write { line: 0x80 });
    sim.op(5, OpKind::Promote { line: 0x40 });
    h.push(sim.commit(8, Some(7)));
    let mut two_pl = TxnBuilder::new(1, 1, 0, 2, None);
    two_pl.op(
        3,
        OpKind::Read {
            line: 0x80,
            observed: None,
        },
    );
    two_pl.detail(AbortDetail {
        cause: ForensicCause::LockTimeout,
        line: Some(0x80),
        winner_ts: None,
    });
    h.push(two_pl.abort(6, "read-write"));
    h.set_label(2, "checking");
    h.push(loser(2, 9, 7, ForensicCause::WriteWriteFcw, 2, 9));
    h.push(TxnBuilder::new(3, 0, 1, 12, Some(9)).abort(13, "explicit"));
    h
}

/// Two fixed forensics records: a contended SI-TM cell and an empty
/// 2PL cell (zero aborts, vacuously fully attributed).
fn golden_reports() -> Vec<ForensicsReport> {
    let mut hot = ForensicsSnapshot::default();
    {
        // Build deterministically through the same TopK machinery the
        // fold uses.
        let mut sketch = TopK::default();
        for _ in 0..3 {
            sketch.record(0x40);
        }
        sketch.record(0x80);
        hot.hot_lines = sketch.entries();
    }
    hot.by_cause[ForensicCause::WriteWriteFcw.index()] = 3;
    hot.by_cause[ForensicCause::CapacityEviction.index()] = 1;
    hot.total = 4;
    hot.attributed = 4;
    // Conflict ages matching the recorded events below: three aborts
    // whose winner committed at 7 against snapshot 5 (age 2), one whose
    // winner committed at 260 against snapshot 4 (age 256).
    let mut age = Histogram::new();
    for sample in [2, 2, 2, 256] {
        age.record(sample);
    }
    hot.conflict_age = age;

    vec![
        ForensicsReport {
            bench: "abort_forensics".into(),
            protocol: "SI-TM".into(),
            workload: "array".into(),
            threads: 16,
            seeds: 3,
            snapshot: hot,
        },
        ForensicsReport {
            bench: "abort_forensics".into(),
            protocol: "2PL".into(),
            workload: "ssca2".into(),
            threads: 16,
            seeds: 3,
            snapshot: ForensicsSnapshot::default(),
        },
    ]
}

fn check_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"));
    if std::env::var_os("SITM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden file");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run once with SITM_UPDATE_GOLDEN=1");
    assert_eq!(
        rendered, golden,
        "{name} drifted from its golden file; regenerate with SITM_UPDATE_GOLDEN=1 \
         only for a deliberate format change and review the diff"
    );
}

#[test]
fn chrome_export_matches_golden() {
    let mut rendered = chrome_trace(&golden_history());
    rendered.push('\n');
    check_golden("chrome_trace.json", &rendered);
    assert_eq!(chrome_trace(&History::default()), "[]");
}

#[test]
fn forensics_jsonl_matches_golden() {
    let mut rendered = String::new();
    for report in golden_reports() {
        rendered.push_str(&report.to_json_line());
        rendered.push('\n');
    }
    check_golden("abort_forensics.jsonl", &rendered);
}

#[test]
fn forensics_jsonl_round_trips_through_the_parser() {
    for report in golden_reports() {
        let line = report.to_json_line();
        let back = ForensicsReport::from_json_line(&line).expect("round-trip parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json_line(), line, "serialization is a fixed point");
    }
}

#[test]
fn recording_forensics_matches_the_handwritten_snapshot() {
    // Folding the four aborts behind the first golden snapshot, written
    // as the records a runtime would push, reproduces it — tying the
    // golden file to the real recording path, not just the serializer.
    let mut h = History::default();
    for txn in 0..3 {
        h.push(loser(
            txn,
            10 * txn,
            5,
            ForensicCause::WriteWriteFcw,
            0x40,
            7,
        ));
    }
    h.push(loser(3, 30, 4, ForensicCause::CapacityEviction, 0x80, 260));
    h.push(TxnBuilder::new(4, 0, 0, 40, Some(5)).commit(41, Some(261)));
    assert_eq!(
        ForensicsSnapshot::from_history(&h),
        golden_reports()[0].snapshot
    );
}
