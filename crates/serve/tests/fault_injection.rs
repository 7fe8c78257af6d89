//! Fault injection against a live server: clients that disconnect
//! mid-transaction, stall between BEGIN and COMMIT, send duplicate
//! COMMITs, write garbage on the wire, or get shut down under a
//! pipeline of in-flight transactions. The server must keep serving
//! (or stop cleanly), and the faults must leak nothing — every
//! epoch-registry slot is released (`live_snapshots` returns to
//! baseline) and every version a stalled snapshot pinned is reclaimed
//! once it is gone.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use sitm_serve::{Client, ErrCode, Request, Server, ServerConfig, TxnOp, WireConflict};
use sitm_stm::live_snapshots;

/// `live_snapshots` counts process-global epoch-registry slots, so the
/// tests in this binary must not overlap (the harness runs them on
/// parallel threads by default).
static SERIAL: Mutex<()> = Mutex::new(());

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One test fn on purpose: `live_snapshots` counts process-global
/// epoch-registry slots, so the leak assertions must not race other
/// tests in this binary.
#[test]
fn faults_leak_nothing_and_the_server_keeps_serving() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServerConfig {
        // Slow the background sweep down so the test controls
        // compaction timing via compact_now.
        gc_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();
    let baseline = live_snapshots();

    // -- Fault 1: disconnect mid-transaction. --------------------------------
    {
        let mut client = Client::connect(addr).expect("connect");
        client.begin().expect("begin");
        client.write(1, 10).expect("buffered write");
        assert!(live_snapshots() > baseline, "open txn holds an epoch slot");
        drop(client); // vanish without COMMIT or ABORT
    }
    // The handler notices the hangup, rolls the transaction back and
    // releases its epoch-registry slot.
    wait_until("mid-txn disconnect to release its epoch slot", || {
        live_snapshots() == baseline
    });
    // The buffered write died with the transaction.
    let mut probe = Client::connect(addr).expect("probe connect");
    assert_eq!(probe.read(1).expect("probe read"), None);

    // -- Fault 2: stall between BEGIN and COMMIT while writers churn. --------
    let mut staller = Client::connect(addr).expect("staller connect");
    staller.begin().expect("staller begin");
    assert_eq!(staller.read(2).expect("staller read"), None); // pin a snapshot
    for i in 0..50 {
        probe.write(2, i).expect("churn write");
    }
    // The stalled snapshot forces version retention on key 2.
    let retained_while_stalled = server.versions_retained();
    assert!(
        retained_while_stalled > server.keys(),
        "stalled snapshot must pin superseded versions \
         ({retained_while_stalled} retained over {} keys)",
        server.keys()
    );
    server.compact_now();
    assert!(
        server.versions_retained() > server.keys(),
        "compaction must not reclaim versions a live snapshot can reach"
    );
    // The staller's commit conflicts (its write races the churn) or
    // succeeds; either way the transaction is consumed...
    staller.write(2, -1).expect("staller write");
    let _ = staller.commit().expect("staller commit round-trip");
    // ...and with the snapshot gone, compaction reclaims the spill.
    server.compact_now();
    assert_eq!(
        server.versions_retained(),
        server.keys(),
        "after quiescence + compaction exactly one version per key remains"
    );
    assert_eq!(live_snapshots(), baseline, "staller released its slot");

    // -- Fault 3: duplicate COMMIT (and duplicate ABORT). --------------------
    let mut dup = Client::connect(addr).expect("dup connect");
    dup.begin().expect("dup begin");
    dup.write(3, 30).expect("dup write");
    dup.commit().expect("first commit").expect("no contention");
    for _ in 0..2 {
        match dup.commit() {
            Err(sitm_serve::ClientError::Refused { code, .. }) => {
                assert_eq!(code, ErrCode::NoTxn, "duplicate COMMIT is NoTxn");
            }
            other => panic!("duplicate COMMIT not refused: {other:?}"),
        }
    }
    match dup.abort() {
        Err(sitm_serve::ClientError::Refused { code, .. }) => {
            assert_eq!(code, ErrCode::NoTxn, "ABORT after COMMIT is NoTxn");
        }
        other => panic!("stray ABORT not refused: {other:?}"),
    }
    // The connection survived all three protocol errors.
    assert_eq!(dup.read(3).expect("dup still serves"), Some(30));

    // -- Fault 4: garbage and torn bytes on the wire. ------------------------
    {
        // A well-framed frame whose payload is garbage: polite error,
        // connection stays usable.
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        let garbage = [0xFFu8, 0xAA, 0x55];
        let mut frame = (garbage.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&garbage);
        raw.write_all(&frame).expect("send garbage frame");
        raw.flush().expect("flush");
        let mut fixed = Client::connect(addr).expect("alive during garbage");
        assert_eq!(fixed.read(3).expect("serving during garbage"), Some(30));

        // A torn frame (length prefix promising bytes that never come)
        // followed by a hangup: the handler just drops the connection.
        let mut torn = TcpStream::connect(addr).expect("torn connect");
        torn.write_all(&100u32.to_le_bytes()).expect("torn prefix");
        torn.write_all(&[1, 2, 3]).expect("torn partial body");
        drop(torn);

        // An oversized length prefix: rejected before allocation.
        let mut huge = TcpStream::connect(addr).expect("huge connect");
        huge.write_all(&u32::MAX.to_le_bytes())
            .expect("huge prefix");
        drop(huge);
    }

    // -- Aftermath: the server is intact. ------------------------------------
    wait_until("all faulty connections to drain", || {
        live_snapshots() == baseline
    });
    let mut after = Client::connect(addr).expect("post-fault connect");
    let (reads, ts) = after
        .txn(vec![TxnOp::Add { key: 9, delta: 4 }, TxnOp::Get { key: 9 }])
        .expect("post-fault txn");
    assert_eq!(reads, vec![Some(4)]);
    assert!(ts > 0);
    let stats = after.stats().expect("post-fault stats");
    assert!(stats.commits > 0);
    assert!(
        stats.versions_retired + stats.gc_reclaimed > 0,
        "the churned versions were reclaimed somewhere (epoch GC or sweep)"
    );

    server.shutdown();
}

/// Versions of one key the server retains, after a compaction, when
/// two interactive clients leapfrog (one `BEGIN`s and reads, then the
/// other `COMMIT`s) while a third client makes one-shot writes to the
/// key. Every live snapshot is then at most one write old.
fn leapfrog_retained(reactors: usize) -> usize {
    const KEY: u64 = 11;
    const WRITES: i64 = 2_000;
    let server = Server::start(ServerConfig {
        reactors,
        gc_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();
    // Connected first, so with two reactors they land on different
    // ones; with one, both keep their transactions on the same thread.
    let mut clients = [
        Client::connect(addr).expect("first connect"),
        Client::connect(addr).expect("second connect"),
    ];
    let mut writer = Client::connect(addr).expect("writer connect");
    writer.write(KEY, 0).expect("seed write");
    clients[0].begin().expect("begin");
    clients[0].read(KEY).expect("read");
    for i in 1..=WRITES {
        writer.write(KEY, i).expect("one-shot write");
        let next = i as usize % 2;
        let open = 1 - next;
        clients[next].begin().expect("begin");
        clients[next].read(KEY).expect("read");
        let committed = clients[open].commit().expect("commit round-trip");
        assert!(committed.is_ok(), "a read-only commit cannot conflict");
    }
    server.compact_now();
    let retained = server.versions_retained();
    assert_eq!(server.keys(), 1);
    server.shutdown();
    retained
}

/// Overlapping interactive transactions on one reactor thread each pin
/// their own snapshot: the server retains no more versions than when
/// the two transactions live on different reactors.
#[test]
fn leapfrogging_transactions_on_one_reactor_pin_only_their_own_snapshots() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let apart = leapfrog_retained(2);
    let together = leapfrog_retained(1);
    assert!(
        together <= apart,
        "one reactor retains {together} versions of the key, two retain {apart}"
    );
}

/// Interactive commits racing the same key: the loser gets a
/// write-write abort on the wire, not a hang or a protocol error.
#[test]
fn racing_interactive_commits_surface_write_write() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServerConfig::default()).expect("server start");
    let addr = server.addr();

    let mut first = Client::connect(addr).expect("first connect");
    let mut second = Client::connect(addr).expect("second connect");
    // Materialize the key so both transactions read-then-write it.
    first.write(7, 0).expect("seed key");

    first.begin().expect("first begin");
    second.begin().expect("second begin");
    let a = first.read(7).expect("first read").unwrap();
    let b = second.read(7).expect("second read").unwrap();
    first.write(7, a + 1).expect("first write");
    second.write(7, b + 100).expect("second write");

    assert!(first.commit().expect("first commit").is_ok());
    assert_eq!(
        second.commit().expect("second commit round-trip"),
        Err(WireConflict::WriteWrite),
        "first committer wins; the second learns why it lost"
    );
    assert_eq!(second.read(7).expect("read after abort"), Some(a + 1));

    server.shutdown();
}

/// Shutdown racing a full pipeline: clients keep whole windows of
/// `TXN` batches in flight (plus one open interactive transaction)
/// while the server stops. Every epoch slot must be released —
/// in-flight batches run to completion on the shard workers, the open
/// transaction is rolled back by its reactor — and `shutdown` must be
/// idempotent (the explicit call consumes the server, then `Drop`
/// re-enters the same guarded path as a no-op).
#[test]
fn shutdown_under_pipelined_load_releases_every_epoch_slot() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = live_snapshots();
    let server = Server::start(ServerConfig {
        // A nonzero deadline keeps batches parked in the packing
        // window so shutdown really does race queued work.
        batch_deadline: Duration::from_micros(500),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();

    // One interactive transaction left open across the shutdown.
    let mut dangling = Client::connect(addr).expect("dangling connect");
    dangling.begin().expect("dangling begin");
    dangling.write(100, 1).expect("dangling write");
    assert!(live_snapshots() > baseline, "open txn pins an epoch slot");

    // Pipelined flooders: each blasts a window of TXNs and only then
    // starts reading, so shutdown lands with frames queued at every
    // stage (socket, frame buffer, shard queue, completion channel).
    let mut flooders = Vec::new();
    for t in 0..3u64 {
        flooders.push(thread::spawn(move || {
            let Ok(mut c) = Client::connect(addr) else {
                return;
            };
            loop {
                for i in 0..64 {
                    let ops = vec![
                        TxnOp::Add {
                            key: t * 1000 + i,
                            delta: 1,
                        },
                        TxnOp::Add {
                            key: t * 1000 + i + 64,
                            delta: -1,
                        },
                    ];
                    if c.send(&Request::Txn { ops }).is_err() {
                        return;
                    }
                }
                if c.flush().is_err() {
                    return;
                }
                for _ in 0..64 {
                    // Server death mid-window surfaces here; done.
                    if c.recv().is_err() {
                        return;
                    }
                }
            }
        }));
    }
    // Let the flood reach the shard queues before pulling the plug.
    thread::sleep(Duration::from_millis(30));

    server.shutdown();

    // Shutdown joined every thread: queued batches committed (or the
    // connection died before dispatch), the dangling transaction was
    // aborted by its reactor — nothing may still hold a slot.
    assert_eq!(
        live_snapshots(),
        baseline,
        "shutdown with in-flight pipelined txns leaked an epoch slot"
    );
    for f in flooders {
        f.join().expect("flooder thread");
    }
    drop(dangling);

    // Idempotency from the other side: a server that dies by Drop
    // alone (no explicit shutdown) takes the identical guarded path.
    let server2 = Server::start(ServerConfig::default()).expect("second server");
    let mut c = Client::connect(server2.addr()).expect("connect 2");
    c.begin().expect("begin 2");
    c.write(1, 1).expect("write 2");
    drop(server2);
    assert_eq!(
        live_snapshots(),
        baseline,
        "drop-only shutdown leaked an epoch slot"
    );
}
