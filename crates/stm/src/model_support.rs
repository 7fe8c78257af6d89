//! Model-checking support surface, compiled only under `--cfg loom`.
//!
//! Two jobs:
//!
//! 1. [`reset`] — returns the crate's process-global state (the commit
//!    clock, the epoch registry, the TVar id counter, attempt
//!    ids and mutation knobs) to its boot values. The model checker
//!    re-runs one closure across thousands of interleavings in a single
//!    process, so every execution must start from identical state; the
//!    model calls this first, before spawning any model thread.
//! 2. The **mutation knobs** — [`break_fcw_validation`] re-introduces
//!    a bug this repo has already fixed (a committed winner escaping
//!    first-committer-wins), and [`break_tick_under_locks`] moves the
//!    commit tick out from under the commit locks, the one ordering
//!    the commit clock's atomic-visibility argument rests on. The loom
//!    models assert that with a knob on, the checker *finds* a failing
//!    interleaving: proof the models have teeth, not just that they
//!    pass (a mutation check). Knobs are process-global and only read
//!    under `cfg(loom)`; release builds compile the checks to constant
//!    `false`.
//!    [`break_stamp_recheck`] and [`break_lock_bit_check`] are the same
//!    kind of check for the lock-free newest-value read: each removes
//!    one half of its seqlock. Two crate-private knobs,
//!    `break_claim_before_publish` and `break_publish_before_clock`,
//!    each reorder one step of the epoch registry's begin path, which
//!    the watermark invariant rests on.

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, commit-time first-committer-wins validation is skipped:
/// a writer no longer aborts when a competitor committed a newer
/// version of a written var after the writer's snapshot. This is the
/// PR 4 bug class (conflicts with committed winners escaping
/// detection) and admits lost updates.
static SKIP_FCW: AtomicBool = AtomicBool::new(false);

/// When set, a commit draws its end timestamp *before* it takes its
/// commit locks. A reader can then load a snapshot that covers `end`,
/// read one written variable before the commit locks it, and read
/// another after the install: a torn snapshot.
static TICK_BEFORE_LOCKS: AtomicBool = AtomicBool::new(false);

/// When set, the lock-free `TVar` read returns the mirror word without
/// re-loading the stamp: a reader that loaded an unlocked stamp can
/// pair it with the value of a commit that installed in between.
static SKIP_STAMP_RECHECK: AtomicBool = AtomicBool::new(false);

/// When set, the lock-free `TVar` read ignores the lock bit on its
/// first stamp load: a reader can pair the old timestamp with the
/// mirror word of a commit that has stored its value but not yet its
/// new stamp.
static IGNORE_LOCK_BIT: AtomicBool = AtomicBool::new(false);

/// When set, a beginning transaction raises the registry's scanned
/// prefix only after it has published its slot and stored its begin:
/// a scan that reads the old prefix skips the slot although its bound
/// is newer than the begin.
static CLAIM_AFTER_PUBLISH: AtomicBool = AtomicBool::new(false);

/// When set, a beginning transaction reads the clock before it
/// publishes its slot: a scan can read its bound after that clock
/// read and the slot before the publish, and pass the begin.
static CLOCK_BEFORE_PUBLISH: AtomicBool = AtomicBool::new(false);

/// True while [`break_fcw_validation`] is active.
pub(crate) fn skip_fcw_validation() -> bool {
    SKIP_FCW.load(Ordering::Relaxed)
}

/// True while [`break_tick_under_locks`] is active.
pub(crate) fn tick_before_locks() -> bool {
    TICK_BEFORE_LOCKS.load(Ordering::Relaxed)
}

/// True while [`break_stamp_recheck`] is active.
pub(crate) fn skip_stamp_recheck() -> bool {
    SKIP_STAMP_RECHECK.load(Ordering::Relaxed)
}

/// True while [`break_lock_bit_check`] is active.
pub(crate) fn ignore_lock_bit() -> bool {
    IGNORE_LOCK_BIT.load(Ordering::Relaxed)
}

/// True while `break_claim_before_publish` is active.
pub(crate) fn claim_after_publish() -> bool {
    CLAIM_AFTER_PUBLISH.load(Ordering::Relaxed)
}

/// True while `break_publish_before_clock` is active.
pub(crate) fn clock_before_publish() -> bool {
    CLOCK_BEFORE_PUBLISH.load(Ordering::Relaxed)
}

/// Turns the skip-FCW mutation on or off (see [`SKIP_FCW`]).
pub fn break_fcw_validation(on: bool) {
    SKIP_FCW.store(on, Ordering::Relaxed);
}

/// Turns the tick-before-locks mutation on or off (see
/// [`TICK_BEFORE_LOCKS`]).
pub fn break_tick_under_locks(on: bool) {
    TICK_BEFORE_LOCKS.store(on, Ordering::Relaxed);
}

/// Turns the skip-stamp-recheck mutation on or off (see
/// [`SKIP_STAMP_RECHECK`]).
pub fn break_stamp_recheck(on: bool) {
    SKIP_STAMP_RECHECK.store(on, Ordering::Relaxed);
}

/// Turns the ignore-lock-bit mutation on or off (see
/// [`IGNORE_LOCK_BIT`]).
pub fn break_lock_bit_check(on: bool) {
    IGNORE_LOCK_BIT.store(on, Ordering::Relaxed);
}

/// Turns the claim-after-publish mutation on or off (see
/// [`CLAIM_AFTER_PUBLISH`]).
#[cfg(test)]
pub(crate) fn break_claim_before_publish(on: bool) {
    CLAIM_AFTER_PUBLISH.store(on, Ordering::Relaxed);
}

/// Turns the clock-before-publish mutation on or off (see
/// [`CLOCK_BEFORE_PUBLISH`]).
#[cfg(test)]
pub(crate) fn break_publish_before_clock(on: bool) {
    CLOCK_BEFORE_PUBLISH.store(on, Ordering::Relaxed);
}

/// Resets all process-global STM state to boot values so one model
/// execution cannot leak clock ticks, registry slots or var ids into
/// the next. Must run before the model spawns any thread; the mutation
/// knobs are deliberately *not* cleared here, so a model can hold a
/// knob across every interleaving of a `model()` run.
pub fn reset() {
    crate::epoch::model_reset();
    crate::tvar::model_reset();
}
