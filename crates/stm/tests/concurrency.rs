//! Cross-thread stress and anomaly tests for the software STM.
//!
//! These exercise the per-variable commit protocol from real threads:
//! money-conservation under concurrent transfers with read-only
//! auditors (who must never abort under snapshot isolation), the
//! write-skew anomaly admitted by SI and rejected by serializable
//! validation or read promotion, exactly-once effects, and two
//! isolation levels sharing variables. The registry workloads, the
//! paper's list with its Listing 2 fix among them, run on real threads
//! through `sitm-bench`'s STM driver.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::thread;

use sitm_obs::{run_seeded_cases, test_cases, SmallRng, CASES_ENV};
use sitm_stm::{Conflict, Stm, TVar};

/// Per-thread operation count for the stress tests: the default,
/// scaled by `SITM_PROPTEST_CASES` (relative to its own default of
/// 200) so soak runs crank every seeded test in the workspace with one
/// knob.
fn ops(default: usize) -> usize {
    (default * test_cases(CASES_ENV, 200) as usize).div_ceil(200)
}

/// Bank accounts under watermark-driven retention: epoch GC trims
/// behind the auditors' snapshots while they run.
fn make_bank(accounts: usize, initial: u64) -> Vec<TVar<u64>> {
    (0..accounts).map(|_| TVar::new(initial)).collect()
}

#[test]
fn transfers_conserve_money_and_auditors_never_abort() {
    const ACCOUNTS: usize = 8;
    const INITIAL: u64 = 1_000;
    const TOTAL: u64 = ACCOUNTS as u64 * INITIAL;
    const TRANSFER_THREADS: usize = 4;
    const TRANSFERS: usize = 150;
    const AUDITS: usize = 100;

    // Seeded cases (scaled by SITM_PROPTEST_CASES, failing seed
    // printed on panic): each case is one full bank run whose
    // per-thread RNG streams derive from the case seed.
    run_seeded_cases(2, 0xBA2C, |_, rng| {
        let salt = rng.next_u64();
        let bank = make_bank(ACCOUNTS, INITIAL);
        let writer_stm = Arc::new(Stm::snapshot());
        // Auditors get their own `Stm` handle so their abort counter is
        // theirs alone; all handles share the TVars and the global clock.
        let auditor_stm = Arc::new(Stm::snapshot());

        thread::scope(|s| {
            for t in 0..TRANSFER_THREADS {
                let stm = Arc::clone(&writer_stm);
                let bank = bank.clone();
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(
                        salt ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    for _ in 0..TRANSFERS {
                        let src = rng.gen_range(0..ACCOUNTS as u64) as usize;
                        let dst = rng.gen_range(0..ACCOUNTS as u64) as usize;
                        if src == dst {
                            continue;
                        }
                        let amount = rng.gen_range(1..=10u64);
                        stm.atomically(|tx| {
                            let from = tx.read(&bank[src])?;
                            if from >= amount {
                                let to = tx.read(&bank[dst])?;
                                tx.write(&bank[src], from - amount);
                                tx.write(&bank[dst], to + amount);
                            }
                            Ok(())
                        });
                    }
                });
            }
            for _ in 0..2 {
                let stm = Arc::clone(&auditor_stm);
                let bank = bank.clone();
                s.spawn(move || {
                    for _ in 0..AUDITS {
                        let sum = stm.atomically(|tx| {
                            let mut sum = 0u64;
                            for account in &bank {
                                sum += tx.read(account)?;
                            }
                            Ok(sum)
                        });
                        assert_eq!(sum, TOTAL, "snapshot reads must balance mid-run");
                    }
                });
            }
        });

        let finale: u64 = bank.iter().map(TVar::load).sum();
        assert_eq!(finale, TOTAL, "transfers must conserve money");
        assert_eq!(
            auditor_stm.stats().aborts(),
            0,
            "read-only transactions never abort under snapshot isolation"
        );
        assert_eq!(auditor_stm.stats().commits(), 2 * AUDITS as u64);
    });
}

/// Atomic visibility through the commit clock: one commit's whole
/// write set must enter a snapshot together or miss it together. Every
/// writer advances both halves of a pair in one transaction, so any
/// snapshot that observes the pair unequal has seen a commit's installs
/// appear mid-transaction — the torn-snapshot failure a commit could
/// produce if it ticked the clock before taking its commit locks.
#[test]
fn snapshots_are_never_torn_across_clock_shards() {
    const WRITER_THREADS: usize = 8;
    let writes = ops(400);
    let reads = ops(1_500);

    let a = TVar::new(0u64);
    let b = TVar::new(0u64);
    let stm = Arc::new(Stm::snapshot());

    thread::scope(|s| {
        // Many writer threads commit at uneven rates, so readers take
        // snapshots while some committer is between its tick and its
        // last install.
        for _ in 0..WRITER_THREADS {
            let stm = Arc::clone(&stm);
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for _ in 0..writes {
                    stm.atomically(|tx| {
                        let x = tx.read(&a)?;
                        let y = tx.read(&b)?;
                        tx.write(&a, x + 1);
                        tx.write(&b, y + 1);
                        Ok(())
                    });
                }
            });
        }
        for _ in 0..2 {
            let stm = Arc::clone(&stm);
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for _ in 0..reads {
                    let (x, y) = stm.atomically(|tx| Ok((tx.read(&a)?, tx.read(&b)?)));
                    assert_eq!(x, y, "a commit's writes must enter a snapshot together");
                }
            });
        }
    });

    assert_eq!(a.load(), (WRITER_THREADS * writes) as u64);
    assert_eq!(a.load(), b.load());
}

/// Runs the classic two-account write-skew schedule: both threads read
/// both balances on overlapping snapshots (a barrier between the reads
/// and the commits forces the overlap), then each withdraws from its
/// own account, believing the combined balance covers it. Returns the
/// per-thread commit outcomes and the final balances.
fn run_write_skew(stm: &Arc<Stm>, promote_other: bool) -> ([Result<(), Conflict>; 2], i64, i64) {
    let x = TVar::new(50i64);
    let y = TVar::new(50i64);
    let barrier = Arc::new(Barrier::new(2));

    let outcomes = thread::scope(|s| {
        let handles = [
            (0usize, x.clone(), y.clone()),
            (1usize, y.clone(), x.clone()),
        ]
        .map(|(who, mine, other)| {
            let stm = Arc::clone(stm);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                stm.try_atomically(&mut |tx| {
                    let own = tx.read(&mine)?;
                    let combined = own + tx.read(&other)?;
                    if promote_other {
                        tx.promote(&other);
                    }
                    // Overlap the two snapshots before either commits.
                    barrier.wait();
                    if combined >= 60 {
                        tx.write(&mine, own - 60);
                    }
                    let _ = who;
                    Ok(())
                })
            })
        });
        handles.map(|h| h.join().expect("skew thread panicked"))
    });

    (outcomes, x.load(), y.load())
}

#[test]
fn write_skew_is_admitted_under_snapshot_isolation() {
    let stm = Arc::new(Stm::snapshot());
    let (outcomes, x, y) = run_write_skew(&stm, false);
    assert!(
        outcomes.iter().all(Result::is_ok),
        "disjoint write sets both commit under SI: {outcomes:?}"
    );
    assert_eq!((x, y), (-10, -10));
    assert!(
        x + y < 0,
        "the anomaly violates the combined-balance invariant"
    );
}

#[test]
fn write_skew_is_rejected_under_serializable() {
    let stm = Arc::new(Stm::serializable());
    let (outcomes, x, y) = run_write_skew(&stm, false);
    let commits = outcomes.iter().filter(|o| o.is_ok()).count();
    assert_eq!(
        commits, 1,
        "first committer wins, the other validates and aborts"
    );
    assert!(
        outcomes.contains(&Err(Conflict::ReadValidation)),
        "the loser aborts on read validation: {outcomes:?}"
    );
    assert!(x + y >= 0, "the invariant survives: x={x} y={y}");
}

#[test]
fn write_skew_is_rejected_by_read_promotion_under_snapshot() {
    let stm = Arc::new(Stm::snapshot());
    let (outcomes, x, y) = run_write_skew(&stm, true);
    let commits = outcomes.iter().filter(|o| o.is_ok()).count();
    assert_eq!(commits, 1, "promotion makes the cross-reads conflict");
    assert!(x + y >= 0, "the invariant survives: x={x} y={y}");
}

/// The folded `StmStats` getters as `export_metrics` must name them.
fn assert_export_matches_getters(stm: &Stm) {
    let stats = stm.stats();
    let mut reg = sitm_obs::MetricsRegistry::new();
    stm.export_metrics(&mut reg);
    let counters: Vec<(&str, u64)> = reg.counters().collect();
    assert_eq!(
        counters,
        [
            ("stm.aborts.read_validation", stats.read_validation_aborts()),
            ("stm.aborts.write_write", stats.write_write_aborts()),
            ("stm.backoff_ns", stats.backoff_ns()),
            ("stm.backoffs", stats.backoffs()),
            ("stm.commits", stats.commits()),
            ("stm.versions_retired", stats.versions_retired()),
        ]
    );
    let gauges: Vec<(&str, f64)> = reg.gauges().collect();
    assert_eq!(
        gauges,
        [("stm.watermark_lag_max", stats.watermark_lag_max() as f64)]
    );
    let histograms: Vec<(&str, &sitm_obs::Histogram)> = reg.histograms().collect();
    assert_eq!(histograms, [("stm.retries", &stats.retry_histogram())]);
}

#[test]
fn sharded_stats_stay_exact_when_thread_indices_wrap() {
    // More threads than statistics cells (16), so at least four cells
    // are counted into by two threads at once: the fold must still be
    // exact, not merely close.
    const THREADS: u64 = 20;
    let per_thread = ops(150) as u64;
    let stm = Stm::snapshot();
    let shared = TVar::new(0u64);
    let body_runs = std::sync::atomic::AtomicU64::new(0);
    let start = Barrier::new(THREADS as usize);
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let own = TVar::new(0u64);
                start.wait();
                for _ in 0..per_thread {
                    stm.atomically(|tx| {
                        body_runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let (mine, all) = (tx.read(&own)?, tx.read(&shared)?);
                        tx.write(&own, mine + 1);
                        tx.write(&shared, all + 1);
                        Ok(())
                    });
                }
                assert_eq!(own.load(), per_thread);
            });
        }
    });
    let committed = THREADS * per_thread;
    assert_eq!(shared.load(), committed);
    let stats = stm.stats();
    assert_eq!(stats.commits(), committed);
    let retries = stats.retry_histogram();
    assert_eq!(retries.total(), committed, "one sample per committed txn");
    assert_eq!(
        stats.aborts(),
        stats.write_write_aborts() + stats.read_validation_aborts()
    );
    // Every run of the body ended in a commit or in an abort that
    // waited exactly once.
    let aborted = body_runs.into_inner() - committed;
    assert_eq!(stats.aborts(), aborted);
    assert_eq!(stats.write_write_aborts(), aborted, "only writers collide");
    assert_eq!(stats.backoffs(), aborted);
    assert_eq!(
        stats.backoff_ns() > 0,
        aborted > 0,
        "waiting takes time, and only waiting does"
    );
    assert!(
        stats.watermark_lag_max() > 0,
        "a write commit lands above the watermark"
    );
    assert_export_matches_getters(&stm);
}

#[test]
fn a_loser_on_another_thread_is_counted_once() {
    let stm = Stm::snapshot();
    let v = TVar::new(0u64);
    let (in_body, winner_done) = (Barrier::new(2), Barrier::new(2));
    thread::scope(|s| {
        let loser = s.spawn(|| {
            stm.try_atomically(&mut |tx| {
                let cur = tx.read(&v)?;
                tx.write(&v, cur + 1);
                in_body.wait();
                winner_done.wait();
                Ok(())
            })
        });
        in_body.wait();
        stm.atomically(|tx| {
            tx.write(&v, 10);
            Ok(())
        });
        winner_done.wait();
        assert_eq!(loser.join().unwrap(), Err(Conflict::WriteWrite));
    });
    assert_eq!(v.load(), 10);
    let stats = stm.stats();
    assert_eq!(stats.commits(), 1);
    assert_eq!(stats.write_write_aborts(), 1);
    assert_eq!(stats.aborts(), 1);
    assert_eq!(stats.backoffs(), 0, "try_atomically does not wait");
    assert_eq!(stats.retry_histogram().total(), 1);
    assert_export_matches_getters(&stm);
}

/// A transactional FIFO-ish queue built from TVars: producers append to
/// a grow-only log, consumers claim indices. All effects must be exactly
/// once.
#[test]
fn produce_consume_exactly_once() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u64 = 300;
    let stm = Arc::new(Stm::snapshot());
    let next_slot = TVar::new(0u64);
    let slots: Vec<TVar<u64>> = (0..(PRODUCERS as u64 * PER_PRODUCER))
        .map(|_| TVar::new(0))
        .collect();

    thread::scope(|s| {
        for p in 0..PRODUCERS as u64 {
            let stm = Arc::clone(&stm);
            let next_slot = next_slot.clone();
            let slots = slots.clone();
            s.spawn(move || {
                for i in 0..PER_PRODUCER {
                    let item = p * PER_PRODUCER + i + 1;
                    stm.atomically(|tx| {
                        let slot = tx.read(&next_slot)?;
                        tx.write(&next_slot, slot + 1);
                        tx.write(&slots[slot as usize], item);
                        Ok(())
                    });
                }
            });
        }
    });

    assert_eq!(next_slot.load(), PRODUCERS as u64 * PER_PRODUCER);
    let produced: BTreeSet<u64> = slots.iter().map(TVar::load).collect();
    assert_eq!(
        produced.len(),
        PRODUCERS * PER_PRODUCER as usize,
        "every item landed in exactly one slot"
    );
    assert!(!produced.contains(&0), "no slot was skipped");
}

/// Serializable mode makes an account-pair invariant hold under real
/// concurrency (the Listing 1 scenario, hammered).
#[test]
fn serializable_preserves_invariant_under_contention() {
    let stm = Arc::new(Stm::serializable());
    for _round in 0..50 {
        let a = TVar::new(60i64);
        let b = TVar::new(60i64);
        thread::scope(|s| {
            for take_a in [true, false] {
                let stm = Arc::clone(&stm);
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    stm.atomically(|tx| {
                        let va = tx.read(&a)?;
                        let vb = tx.read(&b)?;
                        if va + vb > 100 {
                            if take_a {
                                tx.write(&a, va - 100);
                            } else {
                                tx.write(&b, vb - 100);
                            }
                        }
                        Ok(())
                    });
                });
            }
        });
        assert!(a.load() + b.load() >= 0, "invariant must hold every round");
    }
}

/// TVars are usable from multiple runtimes concurrently (the clock is
/// process-global), e.g. a snapshot fast path and a serializable admin
/// path.
#[test]
fn mixed_isolation_levels_interoperate() {
    let fast = Arc::new(Stm::snapshot());
    let admin = Arc::new(Stm::serializable());
    let v = TVar::new(0i64);
    thread::scope(|s| {
        let fast2 = Arc::clone(&fast);
        let v1 = v.clone();
        s.spawn(move || {
            for _ in 0..500 {
                fast2.atomically(|tx| {
                    let x = tx.read(&v1)?;
                    tx.write(&v1, x + 1);
                    Ok(())
                });
            }
        });
        let v2 = v.clone();
        s.spawn(move || {
            for _ in 0..500 {
                admin.atomically(|tx| {
                    let x = tx.read(&v2)?;
                    tx.write(&v2, x + 1);
                    Ok(())
                });
            }
        });
    });
    assert_eq!(v.load(), 1000);
}
