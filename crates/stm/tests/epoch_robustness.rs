//! Robustness of the epoch registry on its unhappy paths: transaction
//! bodies that panic, thread counts that overflow the fixed slot
//! array, and chains of overlapping transactions on one thread. All
//! must leave the registry clean — a leaked or stale registration pins
//! the GC watermark and versions accumulate unboundedly. So besides
//! safety these tests check liveness: with no commit in flight, a
//! rescan puts the watermark at the oldest live begin, or at the clock
//! when no transaction is live.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use sitm_stm::{live_snapshots, refresh_watermark, Stm, TVar, Tx};

/// Registry slots before the overflow table kicks in (`SLOT_COUNT` in
/// `epoch.rs`; it is crate-private, so the overflow test pins the
/// value here — if the constant grows past this the test stops
/// exercising overflow and must be bumped).
const SLOT_COUNT: usize = 256;

/// These tests assert *global* registry quantities (live snapshot
/// counts, watermark movement), so they cannot tolerate each other's
/// transactions running concurrently in this binary. Serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Commits one write of `value` to `var` and returns its timestamp,
/// which is the clock until the next commit.
fn commit_write(stm: &Stm, var: &TVar<u64>, value: u64) -> u64 {
    let mut tx = stm.begin();
    tx.write(var, value);
    stm.commit(tx)
        .expect("no concurrent writer")
        .expect("a write ticks the clock")
}

#[test]
fn panicking_body_releases_its_snapshot_and_watermark_advances() {
    let _guard = serial();
    let stm = Stm::snapshot();
    let var = TVar::new(0u64);
    let live_before = live_snapshots();

    // Panic mid-body, after the read pinned the snapshot: the `Tx` —
    // and with it the epoch `SnapshotGuard` — must be dropped during
    // the unwind, not leaked.
    let seen_snapshot = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&seen_snapshot);
    let result = catch_unwind(AssertUnwindSafe(|| {
        stm.atomically(|tx| -> Result<(), sitm_stm::StmError> {
            seen.store(tx.snapshot(), Ordering::Relaxed);
            let _ = tx.read(&var)?;
            panic!("transaction body blew up");
        })
    }));
    assert!(result.is_err(), "the body's panic must propagate");
    assert_eq!(
        live_snapshots(),
        live_before,
        "the panicked transaction leaked its registry entry"
    );

    // The registration is gone, so the watermark is free to move past
    // the panicked transaction's snapshot once the clock does.
    let clock = (1..=4).fold(0, |_, i| commit_write(&stm, &var, i));
    let wm = refresh_watermark();
    assert!(
        wm > seen_snapshot.load(Ordering::Relaxed),
        "watermark {wm} still pinned at the panicked snapshot"
    );
    assert_eq!(wm, clock, "nothing is live: the watermark is the clock");
}

#[test]
fn threads_beyond_the_slot_count_overflow_and_free_cleanly() {
    let _guard = serial();
    let stm = Arc::new(Stm::snapshot());
    let var = TVar::new(0u64);

    // More simultaneously-live transactional threads than registry
    // slots: the excess lands in the mutex-protected overflow table.
    // Two barriers bracket a window in which every transaction is
    // provably live at once, where one designated thread checks the
    // registry sees them all.
    let threads = SLOT_COUNT + 32;
    let gate = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = Arc::clone(&stm);
            let var = var.clone();
            let gate = Arc::clone(&gate);
            s.spawn(move || {
                stm.atomically(|tx| {
                    let _ = tx.read(&var)?;
                    // Read-only bodies never conflict, so the body runs
                    // exactly once and the barriers cannot deadlock a
                    // retry.
                    gate.wait();
                    if t == 0 {
                        let live = live_snapshots();
                        assert!(
                            live >= threads,
                            "only {live} of {threads} live transactions registered"
                        );
                    }
                    gate.wait();
                    Ok(())
                });
            });
        }
    });

    // Every transaction ended and every thread exited: both the slot
    // prefix and the overflow table must be empty again.
    assert_eq!(live_snapshots(), 0, "registry entries leaked");

    // And nothing pins retention: after churn, a refresh + compact
    // trims the variable back to the single newest version.
    let clock = (1..=8).fold(0, |_, i| commit_write(&stm, &var, i));
    assert_eq!(
        refresh_watermark(),
        clock,
        "nothing is live: the watermark is the clock"
    );
    var.compact();
    assert_eq!(
        var.version_count(),
        1,
        "retired snapshots still forced version retention"
    );
}

/// Runs `LINKS` one-write commits to a fresh variable on this thread
/// while holding a `Tx` across each: with `overlap`, the next `Tx`
/// begins before the held one commits (a chain of overlapping
/// transactions, as a server reactor or an engine driving many
/// simulated threads produces); without, the held one commits first.
/// Returns the one live `Tx`, the variable, and the rescanned
/// watermark.
fn held_chain(overlap: bool) -> (Tx, TVar<u64>, u64) {
    const LINKS: u64 = 10_000;
    let stm = Stm::snapshot();
    let var = TVar::new(0u64);
    let mut held = stm.begin();
    for i in 1..=LINKS {
        commit_write(&stm, &var, i);
        if overlap {
            let next = stm.begin();
            stm.commit(std::mem::replace(&mut held, next))
                .expect("read-only commits");
        } else {
            stm.commit(held).expect("read-only commits");
            held = stm.begin();
        }
    }
    let wm = refresh_watermark();
    (held, var, wm)
}

#[test]
fn overlapping_transactions_on_one_thread_do_not_pin_the_watermark() {
    let _guard = serial();
    for overlap in [false, true] {
        let (held, var, wm) = held_chain(overlap);
        assert_eq!(
            wm,
            held.snapshot(),
            "overlap {overlap}: the watermark is the one live begin"
        );
        // The held snapshot reads the newest version, so everything
        // older is reclaimable: 10 001 versions were made, one stays.
        var.compact();
        assert_eq!(
            (var.version_count(), var.retired_total()),
            (1, 10_000),
            "overlap {overlap}: versions kept, retired"
        );
        drop(held);
    }
}
