//! The `sitm.txn.v1` JSONL export of a [`History`] reads back exactly
//! ([`History::from_jsonl`]), and malformed input is an error, never a
//! panic: the offline readers (`skew_analyze`, the forensics fold, the
//! oracle tooling) all take files.

use sitm_obs::{
    run_seeded_cases, AbortDetail, ForensicCause, History, OpKind, SmallRng, TxnBuilder, TxnRecord,
    ABORT_LABELS,
};

fn sample_record(txn: u64) -> TxnRecord {
    let mut b = TxnBuilder::new(txn, 0, 0, 1, Some(5));
    b.op(
        2,
        OpKind::Read {
            line: 64,
            observed: Some(3),
        },
    );
    b.op(3, OpKind::Write { line: 64 });
    b.commit(4, Some(9))
}

/// A random history within the JSON-exact integer range: labels,
/// commits, aborts with full, partial and no detail, self-reads.
fn random_history(rng: &mut SmallRng) -> History {
    let mut h = History::default();
    let mut seq = 0u64;
    let mut next = |rng: &mut SmallRng| {
        seq += rng.gen_range(1..4u64);
        seq
    };
    for txn in 0..rng.gen_range(0..12u64) {
        let begin_ts = (rng.gen_range(0..4u64) > 0).then(|| rng.gen_range(0..1u64 << 40));
        let mut b = TxnBuilder::new(
            txn,
            rng.gen_range(0..8usize),
            rng.gen_range(0..3u64),
            next(rng),
            begin_ts,
        );
        for _ in 0..rng.gen_range(0..6u64) {
            let line = rng.gen_range(0..16u64);
            let kind = match rng.gen_range(0..4u64) {
                0 => OpKind::Read {
                    line,
                    observed: None, // a self-read
                },
                1 => OpKind::Read {
                    line,
                    observed: Some(rng.gen_range(0..1u64 << 40)),
                },
                2 => OpKind::Write { line },
                _ => OpKind::Promote { line },
            };
            b.op(next(rng), kind);
            if rng.gen_range(0..4u64) == 0 {
                h.set_label(line, &format!("var \"{line}\""));
            }
        }
        let end = next(rng);
        h.push(match rng.gen_range(0..3u64) {
            0 => b.commit(end, Some(rng.gen_range(0..1u64 << 40))),
            1 => {
                let cause = ForensicCause::ALL[rng.gen_range(0..ForensicCause::ALL.len())];
                // The simulator's sites know a line without a winner
                // (2PL) or neither (clock overflow); the STM's know both.
                b.detail(AbortDetail {
                    cause,
                    line: (rng.gen_range(0..3u64) > 0).then(|| rng.gen_range(0..16u64)),
                    winner_ts: (rng.gen_range(0..3u64) > 0).then(|| rng.gen_range(0..1u64 << 40)),
                });
                b.abort(end, ABORT_LABELS[rng.gen_range(0..ABORT_LABELS.len())])
            }
            _ => b.abort(end, "explicit"),
        });
    }
    h
}

#[test]
fn jsonl_round_trips_generated_histories() {
    run_seeded_cases(200, 0x4157_0000, |_, rng| {
        let h = random_history(rng);
        let text = h.to_jsonl();
        assert_eq!(History::from_jsonl(&text), Ok(h), "export:\n{text}");
    });
}

#[test]
fn jsonl_round_trip_keeps_the_drop_count() {
    let mut h = History::with_capacity(1);
    h.push(sample_record(1));
    h.push(sample_record(2));
    let back = History::from_jsonl(&h.to_jsonl()).expect("parses");
    assert_eq!(back.dropped(), 1, "a truncated log reads back truncated");
    assert_eq!(back.records(), h.records());
}

#[test]
fn committed_records_serialise_without_the_detail_field() {
    // The `sitm.txn.v1` bytes of a commit predate `AbortDetail`;
    // only aborted lines gain keys.
    assert_eq!(
        sample_record(7).to_json().to_line(),
        "{\"begin_seq\":1,\"begin_ts\":5,\"commit_ts\":9,\"end_seq\":4,\"epoch\":0,\
         \"ops\":[{\"line\":64,\"observed\":3,\"op\":\"read\",\"seq\":2},\
         {\"line\":64,\"op\":\"write\",\"seq\":3}],\"outcome\":\"committed\",\
         \"schema\":\"sitm.txn.v1\",\"thread\":0,\"txn\":7}"
    );
    let mut b = TxnBuilder::new(1, 0, 0, 1, None);
    b.detail(AbortDetail {
        cause: ForensicCause::ReadValidation,
        line: Some(3),
        winner_ts: Some(8),
    });
    assert_eq!(b.clone().commit(2, None).abort, None);
    // A fully attributed abort (every STM abort site) keeps its bytes.
    assert_eq!(
        b.abort(2, "read-validation").to_json().to_line(),
        "{\"abort_cause\":\"read-validation\",\"abort_line\":3,\"abort_winner_ts\":8,\
         \"begin_seq\":1,\"begin_ts\":null,\"commit_ts\":null,\"end_seq\":2,\"epoch\":0,\
         \"ops\":[],\"outcome\":\"aborted:read-validation\",\
         \"schema\":\"sitm.txn.v1\",\"thread\":0,\"txn\":1}"
    );
}

#[test]
fn partial_details_write_only_the_keys_they_know() {
    let abort_with = |line, winner_ts| {
        let mut b = TxnBuilder::new(1, 0, 0, 1, None);
        b.detail(AbortDetail {
            cause: ForensicCause::LockTimeout,
            line,
            winner_ts,
        });
        b.abort(2, "read-write")
    };
    for (line, winner_ts) in [(Some(3), None), (None, None), (None, Some(8))] {
        let record = abort_with(line, winner_ts);
        let text = record.to_json().to_line();
        assert!(text.contains("\"abort_cause\":\"lock-timeout\""), "{text}");
        assert_eq!(text.contains("\"abort_line\""), line.is_some(), "{text}");
        assert_eq!(
            text.contains("\"abort_winner_ts\""),
            winner_ts.is_some(),
            "{text}"
        );
        let back = History::from_jsonl(&text).expect("partial details read back");
        assert_eq!(back.records(), [record]);
    }
}

#[test]
fn malformed_jsonl_is_an_error_not_a_panic() {
    let good = sample_record(1).to_json().to_line();
    // Every strict prefix of a valid line is truncated input.
    for cut in 0..good.len() {
        if good.is_char_boundary(cut) && !good[..cut].trim().is_empty() {
            assert!(History::from_jsonl(&good[..cut]).is_err(), "prefix {cut}");
        }
    }
    for garbage in [
        "not json",
        "[]",
        "{}",
        "{\"schema\":\"sitm.run_report.v1\"}",
        "{\"schema\":\"sitm.txn.v1\"}",
        "{\"schema\":\"sitm.history.v1\",\"dropped\":0,\"labels\":{\"x\":\"y\"}}",
        "{\"schema\":\"sitm.history.v1\",\"dropped\":-1,\"labels\":{}}",
    ] {
        assert!(History::from_jsonl(garbage).is_err(), "{garbage}");
    }
    for (needle, replacement) in [
        ("\"committed\"", "\"aborted:no-such-cause\""),
        ("\"committed\"", "\"finished\""),
        ("\"op\":\"write\"", "\"op\":\"frobnicate\""),
        ("\"txn\":1", "\"txn\":-1"),
        ("\"txn\":1", "\"txn\":1,\"abort_cause\":\"explicit\""),
    ] {
        assert!(good.contains(needle));
        let bad = good.replace(needle, replacement);
        let err = History::from_jsonl(&format!("\n{good}\n{bad}\n")).unwrap_err();
        assert_eq!(err.line, 3, "{bad}: errors carry 1-based line numbers");
    }
}
