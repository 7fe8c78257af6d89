//! Real-thread stress tests of the software STM: linearizable effects,
//! consistent snapshots under churn, serializable-mode invariants, and
//! the trace-analysis pipeline end to end.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use sitm_skew::analyze;
use sitm_stm::{Stm, TVar};

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

/// The history + analyzer pipeline on a history recorded from real
/// threads: a skew-prone workload is flagged, with both variables
/// named.
#[test]
fn skew_pipeline_on_real_traces() {
    // Run the two withdrawals behind a barrier that maximizes overlap
    // and retry until the recorded history contains an actual overlap.
    for _ in 0..500 {
        let stm = Arc::new(Stm::snapshot().with_history(64));
        let checking = TVar::new_labeled("checking", 60i64);
        let saving = TVar::new_labeled("saving", 60i64);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        thread::scope(|s| {
            for from_checking in [true, false] {
                let stm = Arc::clone(&stm);
                let (c, v) = (checking.clone(), saving.clone());
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    stm.atomically(|tx| {
                        let cv = tx.read(&c)?;
                        // Encourage overlap even on a single-CPU host.
                        std::thread::yield_now();
                        let sv = tx.read(&v)?;
                        if cv + sv > 100 {
                            if from_checking {
                                tx.write(&c, cv - 100);
                            } else {
                                tx.write(&v, sv - 100);
                            }
                        }
                        Ok(())
                    });
                });
            }
        });
        let report = analyze(&stm.history().expect("recording is on"));
        if !report.is_clean() {
            // Found an overlapping schedule: the analyzer must name both
            // variables and propose promotions.
            let names = report.involved_names();
            assert!(names.contains("checking") && names.contains("saving"));
            assert!(!report.promotions.is_empty());
            return;
        }
    }
    panic!("500 rounds never produced an overlapping schedule");
}

/// Bounded version history: a deliberately slow reader over a hot
/// variable retries (snapshot-too-old) but eventually completes, and
/// the runtime counts the conflict kind.
#[test]
fn slow_readers_survive_bounded_history() {
    let stm = Arc::new(Stm::snapshot());
    let hot = TVar::with_history(0u64, 2);
    let cold = TVar::with_history(0u64, 2);
    let stop = Arc::new(AtomicBool::new(false));
    thread::scope(|s| {
        {
            let stm = Arc::clone(&stm);
            let hot = hot.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    stm.atomically(|tx| {
                        let v = tx.read(&hot)?;
                        tx.write(&hot, v + 1);
                        Ok(())
                    });
                }
            });
        }
        let stm_r = Arc::clone(&stm);
        let (hot_r, cold_r) = (hot.clone(), cold.clone());
        let stop_r = Arc::clone(&stop);
        s.spawn(move || {
            for _ in 0..200 {
                // Read cold first so the snapshot ages before touching
                // the churning variable.
                let (_c, _h) = stm_r.atomically(|tx| {
                    let c = tx.read(&cold_r)?;
                    std::thread::yield_now();
                    let h = tx.read(&hot_r)?;
                    Ok((c, h))
                });
            }
            stop_r.store(true, Ordering::Relaxed);
        });
    });
    // The run completed; any snapshot-too-old conflicts were absorbed by
    // the retry loop.
    assert!(stm.stats().commits() >= 200);
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
