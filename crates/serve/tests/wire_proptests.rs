//! Wire-protocol property tests: every frame type round-trips through
//! encode/decode under fuzzed payloads, and hostile bytes — truncated,
//! oversized, garbage — come back as graceful [`WireError`]s / framing
//! errors, never panics.
//!
//! Seeded-case convention (PR 8): deterministic per-case seeds, the
//! failing seed printed on panic, case count tunable via
//! `SITM_PROPTEST_CASES`.

use sitm_obs::{run_seeded_cases, SmallRng};
use sitm_serve::wire::{read_frame, write_frame};
use sitm_serve::{ErrCode, Request, Response, TxnOp, WireConflict, WireStats, MAX_FRAME};

fn arb_op(rng: &mut SmallRng) -> TxnOp {
    let key = rng.next_u64();
    match rng.gen_range(0..4u32) {
        0 => TxnOp::Get { key },
        1 => TxnOp::Put {
            key,
            value: rng.next_u64() as i64,
        },
        2 => TxnOp::Add {
            key,
            delta: rng.next_u64() as i64,
        },
        _ => TxnOp::Del { key },
    }
}

fn arb_ops(rng: &mut SmallRng) -> Vec<TxnOp> {
    let n = rng.gen_range(0..32usize);
    (0..n).map(|_| arb_op(rng)).collect()
}

fn arb_request(rng: &mut SmallRng) -> Request {
    match rng.gen_range(0..7u32) {
        0 => Request::Begin,
        1 => Request::Read {
            key: rng.next_u64(),
        },
        2 => Request::Write {
            key: rng.next_u64(),
            value: rng.next_u64() as i64,
        },
        3 => Request::Commit,
        4 => Request::Abort,
        5 => Request::Txn { ops: arb_ops(rng) },
        _ => Request::Stats,
    }
}

fn arb_string(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0..64usize);
    (0..n)
        .map(|_| char::from(rng.gen_range(0x20..0x7Fu32) as u8))
        .collect()
}

fn arb_response(rng: &mut SmallRng) -> Response {
    match rng.gen_range(0..7u32) {
        0 => Response::Ok,
        1 => Response::Value {
            value: if rng.gen_bool(0.5) {
                Some(rng.next_u64() as i64)
            } else {
                None
            },
        },
        2 => Response::Committed {
            commit_ts: rng.next_u64(),
        },
        3 => Response::Aborted {
            conflict: if rng.gen_bool(0.5) {
                WireConflict::WriteWrite
            } else {
                WireConflict::ReadValidation
            },
        },
        4 => {
            let n = rng.gen_range(0..32usize);
            Response::TxnResult {
                reads: (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            Some(rng.next_u64() as i64)
                        } else {
                            None
                        }
                    })
                    .collect(),
                commit_ts: rng.next_u64(),
            }
        }
        5 => Response::Err {
            code: match rng.gen_range(0..4u32) {
                0 => ErrCode::NoTxn,
                1 => ErrCode::TxnOpen,
                2 => ErrCode::Malformed,
                _ => ErrCode::EmptyTxn,
            },
            detail: arb_string(rng),
        },
        _ => Response::Stats(WireStats {
            commits: rng.next_u64(),
            aborts: rng.next_u64(),
            versions_retired: rng.next_u64(),
            gc_reclaimed: rng.next_u64(),
            gc_ticks: rng.next_u64(),
            live_snapshots: rng.next_u64(),
            keys: rng.next_u64(),
        }),
    }
}

#[test]
fn requests_round_trip_under_fuzz() {
    run_seeded_cases(256, 0x9E01, |_, rng| {
        let req = arb_request(rng);
        let bytes = req.encode();
        assert!(bytes.len() <= MAX_FRAME, "encoded frame fits the bound");
        assert_eq!(Request::decode(&bytes).expect("decodes"), req);
    });
}

#[test]
fn responses_round_trip_under_fuzz() {
    run_seeded_cases(256, 0x9E02, |_, rng| {
        let resp = arb_response(rng);
        let bytes = resp.encode();
        assert!(bytes.len() <= MAX_FRAME, "encoded frame fits the bound");
        assert_eq!(Response::decode(&bytes).expect("decodes"), resp);
    });
}

#[test]
fn truncation_is_a_graceful_error() {
    run_seeded_cases(256, 0x9E03, |_, rng| {
        let bytes = arb_request(rng).encode();
        // Every strict prefix must fail to decode (the encodings carry
        // no padding), and must do so without panicking.
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "strict prefix of length {cut} decoded"
            );
        }
        let bytes = arb_response(rng).encode();
        for cut in 0..bytes.len() {
            assert!(
                Response::decode(&bytes[..cut]).is_err(),
                "strict prefix of length {cut} decoded"
            );
        }
    });
}

#[test]
fn garbage_bytes_never_panic() {
    run_seeded_cases(512, 0x9E04, |_, rng| {
        let n = rng.gen_range(0..256usize);
        let garbage: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        // Either outcome is fine; what's checked is totality (no panic,
        // no unbounded allocation).
        let _ = Request::decode(&garbage);
        let _ = Response::decode(&garbage);
    });
}

#[test]
fn flipped_bytes_never_panic_and_trailing_bytes_fail() {
    run_seeded_cases(256, 0x9E05, |_, rng| {
        let mut bytes = arb_request(rng).encode();
        if !bytes.is_empty() {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
            let _ = Request::decode(&bytes); // total
        }
        let mut ok = arb_response(rng).encode();
        ok.push(0);
        assert!(Response::decode(&ok).is_err(), "trailing byte accepted");
    });
}

#[test]
fn framing_rejects_oversized_and_torn_streams() {
    run_seeded_cases(64, 0x9E06, |_, rng| {
        // Oversized length prefix: rejected before any allocation.
        let over = (MAX_FRAME as u32) + 1 + (rng.next_u64() as u32 % 1024);
        let mut stream: &[u8] = &over.to_le_bytes();
        assert!(read_frame(&mut stream).is_err());

        // Torn frame: the prefix promises more bytes than arrive.
        let body: Vec<u8> = (0..rng.gen_range(1..64usize))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        let cut = rng.gen_range(1..framed.len());
        let mut torn: &[u8] = &framed[..cut];
        match read_frame(&mut torn) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            Ok(got) => panic!("torn stream produced a frame: {got:?}"),
        }

        // Intact frame: round-trips; the stream then reports clean EOF.
        let mut whole: &[u8] = &framed;
        assert_eq!(read_frame(&mut whole).unwrap().as_deref(), Some(&body[..]));
        assert!(read_frame(&mut whole).unwrap().is_none());
    });
}
