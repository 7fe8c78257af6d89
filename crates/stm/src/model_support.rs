//! Model-checking support surface, compiled only under `--cfg loom`.
//!
//! Two jobs:
//!
//! 1. [`reset`] — returns the crate's process-global state (the sharded
//!    commit clock, the epoch registry, the TVar id counter, attempt
//!    ids and mutation knobs) to its boot values. The model checker
//!    re-runs one closure across thousands of interleavings in a single
//!    process, so every execution must start from identical state; the
//!    model calls this first, before spawning any model thread.
//! 2. The **mutation knobs** — [`break_fcw_validation`] and
//!    [`break_commit_tick_floor`] deliberately re-introduce two bugs
//!    this repo has already fixed (the PR 4 committed-pivot escape and
//!    the PR 7 torn-snapshot clock hole). The loom models assert that
//!    with a knob on, the checker *finds* a failing interleaving: proof
//!    the models have teeth, not just that they pass (a mutation
//!    check). Knobs are process-global and only read under `cfg(loom)`;
//!    release builds compile the checks to constant `false`.
//!    [`break_stamp_recheck`] and [`break_lock_bit_check`] are the same
//!    kind of check for a protocol with no past bug: each removes one
//!    half of the lock-free newest-value read's seqlock.

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, commit-time first-committer-wins validation is skipped:
/// a writer no longer aborts when a competitor committed a newer
/// version of a written var after the writer's snapshot. This is the
/// PR 4 bug class (conflicts with committed winners escaping
/// detection) and admits lost updates.
static SKIP_FCW: AtomicBool = AtomicBool::new(false);

/// When set, the commit timestamp is issued without folding the other
/// clock shards in — `commit_tick(snapshot)` instead of
/// `commit_tick(snapshot.max(clock_now()))`. This is the PR 7
/// torn-snapshot bug: a commit on a lagging shard can publish *below*
/// a snapshot another thread already took, tearing that snapshot.
static UNFLOORED_TICK: AtomicBool = AtomicBool::new(false);

/// When set, the lock-free `TVar` read returns the mirror word without
/// re-loading the stamp: a reader that loaded an unlocked stamp can
/// pair it with the value of a commit that installed in between.
static SKIP_STAMP_RECHECK: AtomicBool = AtomicBool::new(false);

/// When set, the lock-free `TVar` read ignores the lock bit on its
/// first stamp load: a reader can pair the old timestamp with the
/// mirror word of a commit that has stored its value but not yet its
/// new stamp.
static IGNORE_LOCK_BIT: AtomicBool = AtomicBool::new(false);

/// True while [`break_fcw_validation`] is active.
pub(crate) fn skip_fcw_validation() -> bool {
    SKIP_FCW.load(Ordering::Relaxed)
}

/// True while [`break_commit_tick_floor`] is active.
pub(crate) fn unfloored_commit_tick() -> bool {
    UNFLOORED_TICK.load(Ordering::Relaxed)
}

/// True while [`break_stamp_recheck`] is active.
pub(crate) fn skip_stamp_recheck() -> bool {
    SKIP_STAMP_RECHECK.load(Ordering::Relaxed)
}

/// True while [`break_lock_bit_check`] is active.
pub(crate) fn ignore_lock_bit() -> bool {
    IGNORE_LOCK_BIT.load(Ordering::Relaxed)
}

/// Turns the skip-FCW mutation on or off (see [`SKIP_FCW`]).
pub fn break_fcw_validation(on: bool) {
    SKIP_FCW.store(on, Ordering::Relaxed);
}

/// Turns the unfloored-commit-tick mutation on or off (see
/// [`UNFLOORED_TICK`]).
pub fn break_commit_tick_floor(on: bool) {
    UNFLOORED_TICK.store(on, Ordering::Relaxed);
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

/// Resets all process-global STM state to boot values so one model
/// execution cannot leak clock ticks, registry slots or var ids into
/// the next. Must run before the model spawns any thread; the mutation
/// knobs are deliberately *not* cleared here, so a model can hold a
/// knob across every interleaving of a `model()` run.
pub fn reset() {
    crate::epoch::model_reset();
    crate::tvar::model_reset();
}
