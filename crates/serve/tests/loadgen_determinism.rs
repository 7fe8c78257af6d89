//! Seeded determinism of `loadgen`'s loopback mode: the same seed
//! must produce the same op sequence (request-stream checksum) and the
//! same conserved invariants, run after run, closed-loop or pipelined
//! — so a failure always reproduces from its printed seed.
//!
//! Follows the PR 8 convention: `sitm_obs::run_seeded_cases` prints
//! the failing seed, and `SITM_PROPTEST_CASES` scales the case count.

use sitm_check::{check, Discipline};
use sitm_obs::run_seeded_cases;
use sitm_serve::loadgen::{run_against, run_loopback, LoadConfig, FUND_PER_KEY};
use sitm_serve::ServerConfig;

/// A dead server must surface as an error from every client, not a
/// hang: each load thread reaches the start barrier even when its
/// connect fails (regression test — an early `?` before the barrier
/// used to strand the coordinator forever).
#[test]
fn refused_connect_errors_instead_of_hanging() {
    // Bind-then-drop reserves a port with no listener behind it.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind probe")
        .local_addr()
        .expect("probe addr");
    let cfg = LoadConfig {
        clients: 4,
        ops_per_client: 10,
        read_pct: 40,
        keys: 8,
        hot_pct: 75,
        hot_keys: 4,
        seed: 0xDEAD,
        pipeline: 1,
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_against(addr, &cfg).is_err());
    });
    let errored = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("run_against hung on refused connect");
    assert!(errored, "connecting to a dead address must report failure");
}

#[test]
fn same_seed_same_ops_same_invariants() {
    run_seeded_cases(3, 0xBE9C, |_, rng| {
        let cfg = LoadConfig {
            clients: 3,
            ops_per_client: 40,
            read_pct: 40,
            keys: 32,
            hot_pct: 75,
            hot_keys: 4,
            seed: rng.next_u64(),
            pipeline: 1,
        };

        let (server_a, report_a) = run_loopback(ServerConfig::default(), &cfg).expect("first run");
        server_a.shutdown();
        let (server_b, report_b) = run_loopback(ServerConfig::default(), &cfg).expect("second run");
        server_b.shutdown();

        // Identical request streams: the op sequence is a pure
        // function of the seed, independent of scheduling.
        assert_eq!(
            report_a.checksum, report_b.checksum,
            "same seed must generate the same op sequence (seed {:#x})",
            cfg.seed
        );
        assert_eq!(report_a.ops_total, report_b.ops_total);
        assert_eq!(report_a.latencies_ns.len(), report_b.latencies_ns.len());

        // Identical conserved outcome: transfers net zero, so both
        // runs end at the funded total regardless of interleaving.
        for (name, report) in [("first", &report_a), ("second", &report_b)] {
            assert!(
                report.conserved(),
                "{name} run violated conservation: {} != {} (seed {:#x})",
                report.final_total,
                report.expected_total,
                cfg.seed
            );
        }
        assert_eq!(report_a.expected_total, cfg.keys as i64 * FUND_PER_KEY);

        // The pipelined mode issues the *same* stream: the window
        // changes pacing, never which frames are sent or their order,
        // so the checksum must match the closed loop's — and under
        // out-of-order completion the bank stays conserved and the
        // recorded server history still certifies as snapshot-isolated
        // (`e2e_bank` certifies closed-loop runs only).
        let piped = LoadConfig {
            pipeline: 8,
            ..cfg.clone()
        };
        let recording = ServerConfig {
            // Far above 120 requests plus funding and retries: the
            // oracle refuses a truncated history.
            history_capacity: 1 << 14,
            ..ServerConfig::default()
        };
        let (server_p, report_p) = run_loopback(recording, &piped).expect("pipelined");
        let history = server_p.history().expect("history recording was on");
        server_p.shutdown();
        let certified = check(Discipline::for_protocol("STM"), &history);
        assert!(
            certified.is_ok(),
            "pipelined history failed SI certification (seed {:#x}): {certified}",
            cfg.seed
        );
        // Group commit folds several requests into one transaction,
        // so the count is below `ops_total`; it must not be empty.
        assert!(certified.committed > 0);
        assert_eq!(
            report_a.checksum, report_p.checksum,
            "pipelining must not change the request stream (seed {:#x})",
            cfg.seed
        );
        assert_eq!(report_a.ops_total, report_p.ops_total);
        assert!(
            report_p.conserved(),
            "pipelined run violated conservation: {} != {} (seed {:#x})",
            report_p.final_total,
            report_p.expected_total,
            cfg.seed
        );

        // A different seed produces a different op stream (sanity that
        // the checksum actually discriminates).
        let other = LoadConfig {
            seed: cfg.seed.wrapping_add(1),
            ..cfg.clone()
        };
        let (server_c, report_c) = run_loopback(ServerConfig::default(), &other).expect("third");
        server_c.shutdown();
        assert_ne!(
            report_a.checksum, report_c.checksum,
            "different seeds should not collide on the op-stream digest"
        );
    });
}
