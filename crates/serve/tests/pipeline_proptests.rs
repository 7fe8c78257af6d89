//! Pipelining property tests against the event-loop server: torn
//! frames reassemble across arbitrary read boundaries, interleaved
//! responses come back matched to their requests purely by order, and
//! a client that stops reading hits write-buffer backpressure instead
//! of growing server memory without bound.
//!
//! Seeded-case convention (PR 8): deterministic per-case seeds, the
//! failing seed printed on panic, case count tunable via
//! `SITM_PROPTEST_CASES`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sitm_obs::run_seeded_cases;
use sitm_serve::loadgen::FUND_PER_KEY;
use sitm_serve::wire::read_frame;
use sitm_serve::{Client, FrameBuffer, Request, Response, Server, ServerConfig, TxnOp};

// ---------------------------------------------------------------------------
// 1. Torn frames: FrameBuffer recovers the exact frame sequence from
//    any chunking of the byte stream.
// ---------------------------------------------------------------------------

#[test]
fn torn_frames_reassemble_under_arbitrary_chunking() {
    run_seeded_cases(64, 0xF8A6, |_, rng| {
        // A random request stream, encoded into one contiguous byte
        // stream of well-formed frames.
        let n = rng.gen_range(1..20usize);
        let mut requests = Vec::with_capacity(n);
        let mut stream = Vec::new();
        for _ in 0..n {
            let req = match rng.gen_range(0..3u32) {
                0 => Request::Read {
                    key: rng.next_u64(),
                },
                1 => Request::Txn {
                    ops: (0..rng.gen_range(1..5usize))
                        .map(|_| TxnOp::Add {
                            key: rng.next_u64() % 64,
                            delta: rng.next_u64() as i64 % 100,
                        })
                        .collect(),
                },
                _ => Request::Stats,
            };
            let body = req.encode();
            stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
            stream.extend_from_slice(&body);
            requests.push(body);
        }

        // Feed it through a FrameBuffer in random-sized chunks —
        // including empty and single-byte reads — and require the
        // exact frame sequence back out.
        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        let mut off = 0usize;
        while off < stream.len() {
            let take = rng.gen_range(0..7usize).min(stream.len() - off);
            fb.extend(&stream[off..off + take]);
            off += take;
            while let Some(frame) = fb.next_frame().expect("well-formed stream never poisons") {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, requests, "chunking changed the frame sequence");
        assert_eq!(fb.pending(), 0, "no bytes left over");
    });
}

// ---------------------------------------------------------------------------
// 2. Interleaved responses: a live server answers a pipelined mix of
//    async TXNs and inline requests strictly in request order.
// ---------------------------------------------------------------------------

#[test]
fn pipelined_responses_arrive_in_request_order() {
    run_seeded_cases(8, 0x91D3, |_, rng| {
        let server = Server::start(ServerConfig {
            // Force batching latency so TXN completions genuinely
            // trail the inline ops they were interleaved with.
            batch_deadline: Duration::from_micros(300),
            ..ServerConfig::default()
        })
        .expect("server start");
        let mut c = Client::connect(server.addr()).expect("connect");

        // Give every key a known balance so reads are predictable.
        let keys = 16u64;
        for k in 0..keys {
            c.txn(vec![TxnOp::Put {
                key: k,
                value: FUND_PER_KEY,
            }])
            .expect("fund");
        }

        // A pipelined burst mixing async TXNs (conserving transfers
        // and audits) with inline STATS/READ probes. Expectations are
        // positional: response i answers request i.
        #[derive(Debug)]
        enum Expect {
            TxnAudit,
            TxnTransfer,
            Stats,
            ReadAny,
        }
        let burst = rng.gen_range(10..60usize);
        let mut expected = Vec::with_capacity(burst);
        for _ in 0..burst {
            let a = rng.next_u64() % keys;
            let b = (a + 1 + rng.next_u64() % (keys - 1)) % keys;
            match rng.gen_range(0..4u32) {
                0 => {
                    let amt = 1 + (rng.next_u64() % 9) as i64;
                    c.send(&Request::Txn {
                        ops: vec![
                            TxnOp::Add {
                                key: a,
                                delta: -amt,
                            },
                            TxnOp::Add { key: b, delta: amt },
                        ],
                    })
                    .expect("send transfer");
                    expected.push(Expect::TxnTransfer);
                }
                1 => {
                    c.send(&Request::Txn {
                        ops: vec![TxnOp::Get { key: a }, TxnOp::Get { key: b }],
                    })
                    .expect("send audit");
                    expected.push(Expect::TxnAudit);
                }
                2 => {
                    c.send(&Request::Stats).expect("send stats");
                    expected.push(Expect::Stats);
                }
                _ => {
                    c.send(&Request::Read { key: a }).expect("send read");
                    expected.push(Expect::ReadAny);
                }
            }
        }
        c.flush().expect("flush burst");

        let mut newest_commit_ts = 0u64;
        for (i, want) in expected.iter().enumerate() {
            let resp = c.recv().expect("response");
            match (want, resp) {
                (Expect::TxnTransfer, Response::TxnResult { reads, commit_ts }) => {
                    assert!(reads.is_empty(), "transfer returns no reads (pos {i})");
                    assert!(commit_ts > 0);
                    newest_commit_ts = newest_commit_ts.max(commit_ts);
                }
                (Expect::TxnAudit, Response::TxnResult { reads, .. }) => {
                    // Read-only batches commit without a timestamp
                    // (commit_ts 0), so only the reads are checked.
                    assert_eq!(reads.len(), 2, "audit reads two keys (pos {i})");
                    assert!(
                        reads.iter().all(Option::is_some),
                        "funded keys always read Some (pos {i})"
                    );
                }
                (Expect::Stats, Response::Stats(s)) => {
                    assert!(s.commits > 0, "stats sees the funding commits (pos {i})");
                }
                (Expect::ReadAny, Response::Value { .. }) => {}
                (want, got) => panic!("response {i} out of order: expected {want:?}, got {got:?}"),
            }
        }
        assert!(newest_commit_ts > 0 || !expected.iter().any(|e| matches!(e, Expect::TxnTransfer)));

        // The interleaving conserved the bank.
        let (reads, _) = c
            .txn((0..keys).map(|key| TxnOp::Get { key }).collect())
            .expect("final audit");
        let total: i64 = reads.iter().flatten().sum();
        assert_eq!(total, keys as i64 * FUND_PER_KEY, "conservation");

        server.shutdown();
    });
}

// ---------------------------------------------------------------------------
// 3. Slow client: a peer that writes requests but never reads
//    responses trips backpressure (bounded server memory) and still
//    gets every response, in order, once it starts reading.
// ---------------------------------------------------------------------------

#[test]
fn slow_reader_hits_backpressure_not_unbounded_buffering() {
    let server = Server::start(ServerConfig {
        // A tiny write cap so the test trips it quickly; the floor in
        // Server::start is 4 KiB.
        write_buf_cap: 4096,
        max_inflight: 8,
        ..ServerConfig::default()
    })
    .expect("server start");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Pour STATS requests (tiny request, ~60-byte response — the
    // protocol's biggest amplification) without reading a single
    // reply. Enough of them that the response volume dwarfs what the
    // loopback kernel buffers can absorb, so the server's own write
    // buffer must fill and trip its cap. The server then stops
    // reading our socket; our blocking writes eventually stall on the
    // closed TCP window — so the pour is capped by a write timeout
    // and a deadline instead of counting on finishing.
    let n_requests = 400_000usize;
    let body = Request::Stats.encode();
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    stream
        .set_write_timeout(Some(Duration::from_millis(100)))
        .expect("write timeout");
    let mut sent = 0usize;
    let started = Instant::now();
    while sent < n_requests && started.elapsed() < Duration::from_secs(10) {
        // One frame per write: a torn partial write (timeout mid-
        // frame) then never completes its frame, so the server owes
        // exactly `sent` responses.
        match stream.write_all(&frame) {
            Ok(()) => sent += 1,
            // The kernel send buffer is full: end-to-end backpressure
            // reached our side. Stop pouring.
            Err(_) => break,
        }
    }
    assert!(sent > 0, "at least one request must go through");

    // Server memory is bounded: it must pause reading rather than
    // buffer megabytes of responses for a reader that never reads.
    // The pour may outrun the server (kernel buffers absorb our
    // writes), so poll until the backlog trips the cap.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.metrics().counter("serve.backpressure.pauses") > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "a never-reading client must trip at least one backpressure pause"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Now drain: every response arrives, well-formed and countable.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut got = 0usize;
    while got < sent {
        match read_frame(&mut reader) {
            Ok(Some(body)) => {
                let resp = Response::decode(&body).expect("well-formed response");
                assert!(matches!(resp, Response::Stats(_)), "response {got} kind");
                got += 1;
            }
            other => panic!("stream ended early at {got}/{sent}: {other:?}"),
        }
    }
    // No phantom extra responses: closing our write side drains the
    // connection; the server owes exactly `sent` responses.
    drop(reader);
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half close");
    let mut rest = Vec::new();
    let tail = stream.read_to_end(&mut rest);
    assert!(
        tail.is_ok() && rest.is_empty(),
        "server sent {} unrequested bytes",
        rest.len()
    );

    server.shutdown();
}
