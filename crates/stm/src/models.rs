//! Loom models of the STM's concurrent protocols, compiled only under
//! `--cfg loom` (`RUSTFLAGS="--cfg loom" cargo test -p sitm-stm
//! --features loom-model --lib -- loom_`).
//!
//! Each model is a small closure over the *real* crate code (routed
//! through the `sitm-loom` shims by `src/sync.rs`) that the checker
//! runs under every thread interleaving within the preemption bound.
//! Two kinds of test live here:
//!
//! * **protocol models** — assert an invariant holds on *every*
//!   interleaving: commit atomicity (no lost updates), snapshot
//!   integrity (no torn reads of one commit's write set), the
//!   watermark never passing a live snapshot (slot and overflow
//!   registry paths alike) and reaching the oldest live one once
//!   nothing is in flight, and the lock-free newest-value read never
//!   pairing a value with another version's timestamp;
//! * **mutation checks** — flip a `model_support` knob that
//!   deliberately breaks the protocol (a committed winner escaping
//!   first-committer-wins, a commit tick drawn before the commit locks)
//!   and assert the corresponding model *fails*. A model that cannot
//!   catch the bug it exists to pin is decoration; these tests keep the
//!   models honest. Two more knobs each remove one half of the read
//!   seqlock (the stamp re-check, the lock-bit test), and two reorder
//!   the registry's begin path (the prefix raised after the publish,
//!   the clock read before it); each is checked the same way.

use std::sync::Arc;

use sitm_loom::{model, thread};

use crate::epoch;
use crate::model_support;
use crate::stm::Stm;
use crate::tvar::TVar;
use crate::txn::{IsolationLevel, Tx};

/// Which fixed bug, if any, a model run deliberately re-introduces.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mutation {
    None,
    /// PR 4 class: skip first-committer-wins validation at commit.
    SkipFcw,
    /// Draw the commit tick before taking the commit locks.
    TickBeforeLocks,
    /// Lock-free read: return the mirror word without re-loading the
    /// stamp.
    SkipStampRecheck,
    /// Lock-free read: ignore the lock bit on the first stamp load.
    IgnoreLockBit,
    /// Registry begin: raise the scanned prefix after the publish.
    ClaimAfterPublish,
    /// Registry begin: read the clock before the publish.
    ClockBeforePublish,
}

/// Every model execution starts from pristine process-global state
/// with every mutation knob set explicitly (the reset deliberately
/// leaves them alone, and test binaries run models from many threads).
fn pristine(mutation: Mutation) {
    model_support::reset();
    model_support::break_fcw_validation(mutation == Mutation::SkipFcw);
    model_support::break_tick_under_locks(mutation == Mutation::TickBeforeLocks);
    model_support::break_stamp_recheck(mutation == Mutation::SkipStampRecheck);
    model_support::break_lock_bit_check(mutation == Mutation::IgnoreLockBit);
    model_support::break_claim_before_publish(mutation == Mutation::ClaimAfterPublish);
    model_support::break_publish_before_clock(mutation == Mutation::ClockBeforePublish);
}

/// Two threads increment one counter through the full runtime retry
/// loop. Exercises the whole commit protocol — lock acquisition in id
/// order, FCW validation, the clock tick, install, release —
/// and the abort/retry path of the loser. Any interleaving that loses
/// an update fails the final assert.
fn lost_update_model(mutation: Mutation) {
    pristine(mutation);
    let stm = Arc::new(Stm::snapshot());
    let counter = TVar::new(0u64);
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let stm = Arc::clone(&stm);
            let counter = counter.clone();
            thread::spawn(move || {
                stm.atomically(|tx| {
                    let v = tx.read(&counter)?;
                    tx.write(&counter, v + 1);
                    Ok(())
                });
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(counter.load(), 2, "lost update");
}

/// Atomic visibility as a model: a writer updates `x` and `y` in one
/// transaction while a reader reads both in one transaction. On every
/// interleaving the reader must see `x == y`. With the commit tick
/// drawn before the commit locks ([`Mutation::TickBeforeLocks`]), the
/// reader can load a snapshot that covers the writer's end, read `x`
/// before the writer locks it, and read `y` after the install.
fn torn_snapshot_model(mutation: Mutation) {
    pristine(mutation);
    let x = TVar::new(0u64);
    let y = TVar::new(0u64);
    let writer = {
        let (x, y) = (x.clone(), y.clone());
        thread::spawn(move || {
            let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
            tx.write(&x, 1);
            tx.write(&y, 1);
            tx.commit().expect("uncontended writer commits");
        })
    };
    let reader = thread::spawn(move || {
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        let sx = tx.read(&x).expect("dynamic retention never evicts");
        let sy = tx.read(&y).expect("dynamic retention never evicts");
        assert_eq!(sx, sy, "torn snapshot: x={sx} y={sy}");
        tx.commit().expect("read-only commits");
    });
    writer.join();
    reader.join();
}

/// The value the [`seqlock_read_model`] installer commits; the
/// initial version (timestamp 0) holds 0.
const INSTALLED: u64 = 7;

/// The lock-free newest-value read against a concurrent install: a
/// reader registers a snapshot and reads a `TVar<u64>` twice while an
/// installer commits a new value to it. Every read must return the
/// value of the version whose timestamp it reports, at or below the
/// reader's snapshot. On the interleavings where the snapshot is taken
/// before the install, that is the initial version, and a seqlock with
/// either half missing ([`Mutation::SkipStampRecheck`],
/// [`Mutation::IgnoreLockBit`]) pairs timestamp 0 with the installed
/// value.
fn seqlock_read_model(mutation: Mutation) {
    pristine(mutation);
    let var = TVar::new(0u64);
    let installer = {
        let var = var.clone();
        thread::spawn(move || {
            let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
            tx.write(&var, INSTALLED);
            let receipt = tx.commit().expect("uncontended writer commits");
            receipt.end.expect("a writing commit installs")
        })
    };
    let reader = thread::spawn(move || {
        let (snapshot, _guard) = epoch::enter();
        let reads = [
            var.read_versioned_at(snapshot),
            var.read_versioned_at(snapshot),
        ];
        (snapshot, reads)
    });
    let end = installer.join();
    let (snapshot, reads) = reader.join();
    for (value, ts) in reads {
        let expected = if ts == 0 { 0 } else { INSTALLED };
        assert!(
            value == expected && (ts == 0 || ts == end) && ts <= snapshot,
            "mismatched read: value {value} at version {ts} (commit {end}, snapshot {snapshot})"
        );
    }
}

/// Two overlapping transactions on one thread beside a committing
/// thread, against `SLOT_COUNT = 2`: when all three registrations are
/// live at once, the last one lands in the overflow table. The
/// overlapping thread's scans must never pass a begin it holds
/// (safety). Once the committer is done and only the inner
/// transaction is left, a scan must return exactly its begin, and the
/// clock once it too is gone (liveness): a registry that lets the
/// outer begin stand in for the inner one pins the watermark at a
/// snapshot nobody holds whenever the commit lands between the two.
fn overlapping_registrations_model(mutation: Mutation) {
    pristine(mutation);
    let committer = thread::spawn(|| {
        let (_, guard) = epoch::enter();
        epoch::commit_tick();
        drop(guard);
        epoch::refresh_watermark();
    });
    let overlapping = thread::spawn(|| {
        let (outer, outer_guard) = epoch::enter();
        let (inner, inner_guard) = epoch::enter();
        let wm = epoch::refresh_watermark();
        assert!(wm <= outer, "watermark {wm} passed live snapshot {outer}");
        drop(outer_guard);
        let wm = epoch::refresh_watermark();
        assert!(wm <= inner, "watermark {wm} passed live snapshot {inner}");
        (inner, inner_guard)
    });
    committer.join();
    let (inner, inner_guard) = overlapping.join();
    let wm = epoch::refresh_watermark();
    assert_eq!(
        wm, inner,
        "watermark {wm} lags the one live snapshot {inner}"
    );
    drop(inner_guard);
    let (wm, clock) = (epoch::refresh_watermark(), epoch::clock_now());
    assert_eq!(wm, clock, "watermark {wm} lags the idle clock {clock}");
}

#[test]
fn loom_commit_path_loses_no_updates() {
    model(|| lost_update_model(Mutation::None));
}

#[test]
fn loom_snapshots_are_never_torn() {
    model(|| torn_snapshot_model(Mutation::None));
}

#[test]
fn loom_watermark_never_passes_a_live_snapshot() {
    // Three threads against SLOT_COUNT = 2: two land in padded slots,
    // one takes the mutex-protected overflow table, so one execution
    // covers both publish/scan protocols. Each thread races its own
    // registration and scan against the others' clock ticks.
    model(|| {
        pristine(Mutation::None);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                thread::spawn(|| {
                    let (begin, guard) = epoch::enter();
                    let wm = epoch::refresh_watermark();
                    assert!(wm <= begin, "watermark {wm} passed live snapshot {begin}");
                    drop(guard);
                    epoch::commit_tick();
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        // Every registration is released: the scan may move up to (but
        // never past) the clock bound.
        assert!(epoch::refresh_watermark() <= epoch::clock_now());
    });
}

#[test]
fn loom_overlapping_transactions_each_pin_their_own_snapshot() {
    model(|| overlapping_registrations_model(Mutation::None));
}

#[test]
fn loom_lock_free_reads_pair_each_value_with_its_version() {
    model(|| seqlock_read_model(Mutation::None));
}

/// The panic message out of a failing [`model`] call.
fn failure_text(result: std::thread::Result<()>) -> String {
    match result {
        Ok(()) => panic!("the mutated model passed: the model has no teeth"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("model failures carry a string payload"),
    }
}

#[test]
fn loom_mutation_skipped_fcw_validation_is_caught() {
    // Re-break the PR 4 bug class (conflicts with committed winners
    // escaping validation): the lost-update model must now find a
    // failing interleaving.
    let result = std::panic::catch_unwind(|| model(|| lost_update_model(Mutation::SkipFcw)));
    let msg = failure_text(result);
    assert!(
        msg.contains("loom model failed"),
        "unexpected failure: {msg}"
    );
    assert!(
        msg.contains("lost update"),
        "failed for the wrong reason: {msg}"
    );
}

#[test]
fn loom_mutation_tick_before_locks_is_caught() {
    // Tick the commit clock before taking the commit locks: the
    // snapshot-integrity model must fail.
    let result =
        std::panic::catch_unwind(|| model(|| torn_snapshot_model(Mutation::TickBeforeLocks)));
    let msg = failure_text(result);
    assert!(
        msg.contains("loom model failed"),
        "unexpected failure: {msg}"
    );
    assert!(
        msg.contains("torn snapshot"),
        "failed for the wrong reason: {msg}"
    );
}

#[test]
fn loom_mutation_skipped_stamp_recheck_is_caught() {
    // Drop the seqlock's closing stamp load: the reader can return a
    // value installed after its first stamp load.
    let result =
        std::panic::catch_unwind(|| model(|| seqlock_read_model(Mutation::SkipStampRecheck)));
    let msg = failure_text(result);
    assert!(
        msg.contains("loom model failed"),
        "unexpected failure: {msg}"
    );
    assert!(
        msg.contains("mismatched read"),
        "failed for the wrong reason: {msg}"
    );
}

#[test]
fn loom_mutation_ignored_lock_bit_is_caught() {
    // Drop the lock-bit test on the first stamp load: the reader can
    // pair the old stamp with a mirror word stored mid-install.
    let result = std::panic::catch_unwind(|| model(|| seqlock_read_model(Mutation::IgnoreLockBit)));
    let msg = failure_text(result);
    assert!(
        msg.contains("loom model failed"),
        "unexpected failure: {msg}"
    );
    assert!(
        msg.contains("mismatched read"),
        "failed for the wrong reason: {msg}"
    );
}

#[test]
fn loom_mutation_prefix_raised_after_publish_is_caught() {
    // Raise SLOTS_CLAIMED only after the publish: a scan that read the
    // old prefix skips a slot whose begin is older than its bound.
    let result = std::panic::catch_unwind(|| {
        model(|| overlapping_registrations_model(Mutation::ClaimAfterPublish))
    });
    let msg = failure_text(result);
    assert!(
        msg.contains("loom model failed"),
        "unexpected failure: {msg}"
    );
    assert!(
        msg.contains("passed live snapshot"),
        "failed for the wrong reason: {msg}"
    );
}

#[test]
fn loom_mutation_clock_read_before_publish_is_caught() {
    // Read the begin timestamp before publishing the slot: a commit and
    // a scan that fit between the two pass the begin.
    let result = std::panic::catch_unwind(|| {
        model(|| overlapping_registrations_model(Mutation::ClockBeforePublish))
    });
    let msg = failure_text(result);
    assert!(
        msg.contains("loom model failed"),
        "unexpected failure: {msg}"
    );
    assert!(
        msg.contains("passed live snapshot"),
        "failed for the wrong reason: {msg}"
    );
}
