//! End-to-end bank test: concurrent clients run transfers against a
//! live TCP server — through both the interactive BEGIN/READ/WRITE/
//! COMMIT path and the one-shot group-committed TXN path — and at the
//! end the money is all still there and the server's recorded history
//! is certified snapshot-isolated by the sitm-check oracle.

use std::thread;
use std::time::Duration;

use sitm_check::{check, Discipline};
use sitm_obs::{ForensicCause, ForensicsSnapshot, History};
use sitm_serve::{Client, Server, ServerConfig, TxnOp};

const ACCOUNTS: u64 = 8;
const OPENING: i64 = 1_000;
const CLIENTS: usize = 4;
const TRANSFERS: usize = 60;

fn transfer_interactive(client: &mut Client, from: u64, to: u64, amount: i64) {
    // Read-modify-write across wire round-trips; on a write-write
    // conflict the server consumes the transaction and we retry whole.
    loop {
        client.begin().expect("begin");
        let a = client.read(from).expect("read from").unwrap_or(0);
        let b = client.read(to).expect("read to").unwrap_or(0);
        client.write(from, a - amount).expect("write from");
        client.write(to, b + amount).expect("write to");
        match client.commit().expect("commit round-trip") {
            Ok(_ts) => return,
            Err(_conflict) => thread::sleep(Duration::from_micros(50)),
        }
    }
}

fn transfer_batch(client: &mut Client, from: u64, to: u64, amount: i64) {
    // The server retries the batch internally until it commits.
    client
        .txn(vec![
            TxnOp::Add {
                key: from,
                delta: -amount,
            },
            TxnOp::Add {
                key: to,
                delta: amount,
            },
        ])
        .expect("txn batch");
}

#[test]
fn concurrent_transfers_conserve_and_certify() {
    let server = Server::start(ServerConfig {
        history_capacity: 1 << 17,
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();

    // Fund the accounts in one atomic batch.
    let mut funder = Client::connect(addr).expect("funder connect");
    funder
        .txn(
            (0..ACCOUNTS)
                .map(|key| TxnOp::Add {
                    key,
                    delta: OPENING,
                })
                .collect(),
        )
        .expect("funding");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|w| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connect");
                for i in 0..TRANSFERS {
                    // A fixed walk over a tiny account set: plenty of
                    // write-write contention on both server paths.
                    let from = (w as u64 + i as u64) % ACCOUNTS;
                    let to = (from + 1 + (i as u64 % (ACCOUNTS - 1))) % ACCOUNTS;
                    let amount = 1 + (i as i64 % 7);
                    if i % 2 == 0 {
                        transfer_interactive(&mut client, from, to, amount);
                    } else {
                        transfer_batch(&mut client, from, to, amount);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }

    // Conservation: one consistent audit sees the opening total.
    let (reads, _ts) = funder
        .txn((0..ACCOUNTS).map(|key| TxnOp::Get { key }).collect())
        .expect("audit");
    let total: i64 = reads.iter().flatten().sum();
    assert_eq!(
        total,
        ACCOUNTS as i64 * OPENING,
        "bank transfers must conserve the total"
    );

    // Interactive snapshot consistency: a reader that audits one
    // account per round-trip, against live traffic, still sums to the
    // invariant because every read serves from one snapshot.
    let churn = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("churn connect");
        for i in 0..40u64 {
            transfer_batch(&mut client, i % ACCOUNTS, (i + 3) % ACCOUNTS, 5);
        }
    });
    let mut auditor = Client::connect(addr).expect("auditor connect");
    auditor.begin().expect("audit begin");
    let mut slow_total = 0i64;
    for key in 0..ACCOUNTS {
        slow_total += auditor.read(key).expect("audit read").unwrap_or(0);
        thread::sleep(Duration::from_millis(1));
    }
    auditor.commit().expect("audit commit").expect("read-only");
    assert_eq!(
        slow_total,
        ACCOUNTS as i64 * OPENING,
        "interactive audit must read one consistent snapshot"
    );
    churn.join().expect("churn thread");

    // The stats the clients can see agree that work happened.
    let stats = funder.stats().expect("stats");
    assert!(stats.commits > (CLIENTS * TRANSFERS) as u64);
    assert_eq!(stats.keys, ACCOUNTS);

    // Oracle certification of the complete server-side history.
    let history = server.history().expect("history recording was on");
    let report = check(Discipline::for_protocol("STM"), &history);
    assert!(
        report.is_ok(),
        "server history failed SI certification: {report}"
    );
    assert!(report.committed > CLIENTS * TRANSFERS);

    // The same log attributes every conflict the runtime counted to a
    // cause, a key's variable and the winning commit, and survives the
    // JSONL export the offline tools (`skew_analyze`) read.
    let forensics = ForensicsSnapshot::from_history(&history);
    assert_eq!(forensics.total, server.stats().aborts());
    assert_eq!(forensics.attributed, forensics.total);
    assert_eq!(
        forensics.count(ForensicCause::WriteWriteFcw),
        server.stats().write_write_aborts()
    );
    let reread = History::from_jsonl(&history.to_jsonl()).expect("the export reads back");
    assert_eq!(reread.records(), history.records());

    server.shutdown();
}
