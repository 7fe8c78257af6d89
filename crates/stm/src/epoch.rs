//! The epoch layer: the commit clock and a live-snapshot registry
//! whose watermark drives version garbage collection.
//!
//! Two process-global structures live here (DESIGN.md §14):
//!
//! * **The commit clock.** One cache-line-padded counter. A snapshot
//!   is one load of it ([`clock_now`]); a commit timestamp is one
//!   `fetch_add` on it ([`commit_tick`]), which the commit path takes
//!   while holding every commit lock of its write set. A snapshot at
//!   or above a commit's end timestamp was therefore loaded after that
//!   commit locked its write set, so it waits out the installs and
//!   sees every one of them — atomic visibility in one sentence.
//!
//! * **The live-snapshot registry.** Every transaction claims a
//!   cache-padded slot of its own and holds its begin timestamp there
//!   for the duration of the transaction (a [`SnapshotGuard`] held by
//!   the `Tx`), so overlapping transactions on one thread each pin
//!   their own snapshot and nothing else. A periodic scan folds the
//!   minimum registered begin timestamp into the monotone
//!   **watermark** — a lower bound on the begin timestamp of every
//!   transaction alive now or starting later. Version GC in `tvar.rs`
//!   trims exactly the versions no snapshot at or above the watermark
//!   can ever read.
//!
//! # The watermark invariant
//!
//! `watermark() <= begin_ts` for every live and every future
//! transaction. The ordering argument (all operations here are
//! `SeqCst`, so they occur in one total order):
//!
//! 1. A beginning transaction *first* raises [`SLOTS_CLAIMED`] past
//!    the slot it is about to take, *then* publishes [`PENDING`] in
//!    that slot, and *then* reads the clock to form its begin
//!    timestamp, which it stores over `PENDING`.
//! 2. A watermark scan *first* reads the clock (call it `bound`),
//!    *then* `SLOTS_CLAIMED`, *then* the slots below it, folding `min`
//!    over `bound` and every non-idle slot value.
//!
//! For any transaction T and any scan C, either C reads T's slot after
//! T's publish — then it reads `PENDING` or `begin_ts(T)`, both `<=
//! begin_ts(T)` — or C's clock read precedes T's clock read, so
//! `begin_ts(T) >= bound(C) >= result(C)`. The second case covers C
//! reading the slot before the publish, and C's prefix missing the
//! slot: then C read `SLOTS_CLAIMED` before T raised it. Either way
//! the scan result is `<= begin_ts(T)`, and since the watermark only
//! moves up to a scan result (`fetch_max`), the invariant holds for
//! every transaction. §14 turns this sketch into the GC safety
//! argument.

use std::cell::Cell;

#[cfg(loom)]
use crate::model_support::{claim_after_publish, clock_before_publish};
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use crate::sync::Mutex;
use crate::tvar::lock_versions as lock;

/// Registry slots available before a registration falls back to the
/// mutex-protected overflow table. Each live transaction holds one,
/// so only a process with more than this many transactions open at
/// once pays for the fallback. Model builds shrink to 2 so a
/// three-transaction model exercises the slot and overflow paths in
/// one execution.
pub(crate) const SLOT_COUNT: usize = if cfg!(loom) { 2 } else { 256 };

/// Slot value meaning "no transaction live here". `u64::MAX` so an
/// idle slot is transparent to the `min` fold of a watermark scan.
const IDLE: u64 = u64::MAX;

/// Slot value of a claimed slot whose transaction has not read the
/// clock yet. 0 is at or below every begin timestamp, so a scan that
/// reads it folds a minimum the `fetch_max` watermark already holds:
/// a pending slot keeps the watermark where it is.
const PENDING: u64 = 0;

/// How far (in clock units) the cached watermark may trail the clock
/// before a commit triggers a rescan. Each writing commit advances the
/// clock by exactly 1, so this is one rescan per 64 commits — cheap
/// amortization with a retention overhang bounded by the rescan
/// interval. Model builds rescan almost every commit so GC
/// interleavings are in the explored space.
const REFRESH_TICKS: u64 = if cfg!(loom) { 4 } else { 64 };

/// The commit clock, alone on its cache line so no neighbouring static
/// shares the line every commit writes. 0 is the timestamp of initial
/// versions; commits draw 1, 2, 3, …
#[repr(align(128))]
struct Clock(AtomicU64);

static CLOCK: Clock = Clock(AtomicU64::new(0));

/// One live-snapshot slot, alone on its cache line: the begin
/// timestamp of the one transaction holding it, [`PENDING`] while that
/// transaction reads the clock, or [`IDLE`].
#[repr(align(128))]
struct Slot(AtomicU64);

static SLOTS: [Slot; SLOT_COUNT] = [const { Slot(AtomicU64::new(IDLE)) }; SLOT_COUNT];

/// High-water mark of claimed slots: watermark scans only walk this
/// prefix. A claim raises it before it publishes (step 1 of the
/// watermark invariant).
static SLOTS_CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// Overflow registry for transactions beyond [`SLOT_COUNT`]: one entry
/// per transaction (value = begin timestamp, [`IDLE`] = free). The
/// mutex itself provides the publish/scan ordering the slots get from
/// `SeqCst`.
static OVERFLOW: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// The live-snapshot watermark: a monotone lower bound on every live
/// and future begin timestamp. Only ever raised, via `fetch_max` of
/// scan results.
static WATERMARK: AtomicU64 = AtomicU64::new(0);

/// Clock value at the start of the last watermark scan, for the
/// [`REFRESH_TICKS`] staleness check.
static WATERMARK_STAMP: AtomicU64 = AtomicU64::new(0);

/// Dense per-thread indices: each OS thread draws one on first
/// transactional use. Selects the thread's `StmStats` cell and is the
/// thread id in history records and forensics.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, SeqCst);
    /// The slot this thread's last transaction claimed, tried first by
    /// its next one: a thread running one transaction at a time keeps
    /// reusing one line.
    static SLOT_HINT: Cell<usize> = const { Cell::new(0) };
}

#[cfg(not(loom))]
fn claim_after_publish() -> bool {
    false
}

#[cfg(not(loom))]
fn clock_before_publish() -> bool {
    false
}

/// This thread's dense index (stable for the thread's lifetime).
pub(crate) fn thread_index() -> usize {
    THREAD_INDEX.with(|&i| i)
}

/// A snapshot point: at least as new as every commit that completed
/// before this call started.
pub(crate) fn clock_now() -> u64 {
    CLOCK.0.load(SeqCst)
}

/// Draws a commit timestamp: one more than every value the clock held
/// before, so it is unique, and above every snapshot already loaded
/// (`end > begin` needs no floor). The commit path calls it **while
/// holding every commit lock**: no snapshot can cover the returned
/// value until this tick, so a reader whose snapshot does cover it
/// loaded the clock after the locks were taken and waits out the
/// complete install on every written variable.
pub(crate) fn commit_tick() -> u64 {
    CLOCK.0.fetch_add(1, SeqCst) + 1
}

/// Registration of one live transaction in the epoch registry,
/// released on drop. Held by `Tx` for its whole lifetime, so a live
/// snapshot always pins the watermark at or below its begin timestamp.
#[derive(Debug)]
pub(crate) enum SnapshotGuard {
    /// A padded slot this transaction alone holds.
    Slot(usize),
    /// An entry in the overflow table.
    Overflow(usize),
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        match *self {
            SnapshotGuard::Slot(i) => SLOTS[i].0.store(IDLE, SeqCst),
            SnapshotGuard::Overflow(k) => lock(&OVERFLOW)[k] = IDLE,
        }
    }
}

/// Begins a transaction's epoch: claims a registry slot (publishing
/// [`PENDING`]), then draws the begin timestamp from the clock and
/// stores it in the slot. Returns the begin (snapshot) timestamp and
/// the registration guard.
pub(crate) fn enter() -> (u64, SnapshotGuard) {
    let early = clock_before_publish().then(clock_now);
    match claim() {
        Some(i) => {
            let ts = early.unwrap_or_else(clock_now);
            SLOTS[i].0.store(ts, SeqCst);
            if claim_after_publish() {
                raise_claimed(i);
            }
            (ts, SnapshotGuard::Slot(i))
        }
        None => {
            // Every slot is taken: read the clock and publish in one
            // lock section. A scan takes the lock after reading its
            // bound, so it either locks first (and this clock read sees
            // at least its bound) or observes the entry.
            let mut table = lock(&OVERFLOW);
            let ts = early.unwrap_or_else(clock_now);
            let key = table.iter().position(|&v| v == IDLE).unwrap_or_else(|| {
                table.push(IDLE);
                table.len() - 1
            });
            table[key] = ts;
            (ts, SnapshotGuard::Overflow(key))
        }
    }
}

/// Claims a free slot for a beginning transaction and publishes
/// [`PENDING`] in it, trying the slot this thread used last before
/// probing the others in order. `None` when all [`SLOT_COUNT`] slots
/// are taken.
fn claim() -> Option<usize> {
    let hint = SLOT_HINT.with(Cell::get);
    for i in std::iter::once(hint).chain(0..SLOT_COUNT) {
        let slot = &SLOTS[i].0;
        if slot.load(SeqCst) != IDLE {
            continue;
        }
        // Raise the scanned prefix *before* the publish (watermark
        // invariant step 1): a scan whose prefix misses this slot then
        // read its bound before this transaction reads the clock.
        if !claim_after_publish() {
            raise_claimed(i);
        }
        if slot.compare_exchange(IDLE, PENDING, SeqCst, SeqCst).is_ok() {
            SLOT_HINT.with(|h| h.set(i));
            return Some(i);
        }
    }
    None
}

/// Makes slot `i` part of the prefix every later scan walks.
fn raise_claimed(i: usize) {
    if SLOTS_CLAIMED.load(SeqCst) <= i {
        SLOTS_CLAIMED.fetch_max(i + 1, SeqCst);
    }
}

/// The cached live-snapshot watermark: a lower bound on the begin
/// timestamp of every transaction currently live or yet to begin. Old
/// versions below it are unreachable and eligible for reclamation.
///
/// The cache trails the true minimum by at most the rescan interval
/// (see [`refresh_watermark`] to force a scan, e.g. from tests or
/// diagnostics).
pub fn watermark() -> u64 {
    WATERMARK.load(SeqCst)
}

/// Rescans the registry and folds the result into the watermark
/// (monotonically — the watermark never moves backwards). Returns the
/// updated watermark: with no registration in flight, the oldest live
/// begin timestamp, or the clock when no transaction is live.
///
/// Commits call this automatically once per 64 commits; it is
/// public for tests and diagnostics that need the bound fresh *now*.
pub fn refresh_watermark() -> u64 {
    // Read the clock before the slots (watermark invariant step 2):
    // `bound` is the scan result when no transaction is live.
    let bound = clock_now();
    let mut min = bound;
    let high = SLOTS_CLAIMED.load(SeqCst).min(SLOT_COUNT);
    for slot in &SLOTS[..high] {
        // IDLE is u64::MAX: transparent to the fold.
        min = min.min(slot.0.load(SeqCst));
    }
    for &v in lock(&OVERFLOW).iter() {
        min = min.min(v);
    }
    WATERMARK_STAMP.store(bound, SeqCst);
    WATERMARK.fetch_max(min, SeqCst).max(min)
}

/// The watermark, rescanned first if it is more than [`REFRESH_TICKS`]
/// behind `now` — the amortized form the commit path uses.
pub(crate) fn gc_watermark(now: u64) -> u64 {
    if now.saturating_sub(WATERMARK_STAMP.load(SeqCst)) >= REFRESH_TICKS {
        refresh_watermark()
    } else {
        WATERMARK.load(SeqCst)
    }
}

/// Number of transactions currently registered in the epoch registry
/// (diagnostics; racy by nature).
pub fn live_snapshots() -> usize {
    let high = SLOTS_CLAIMED.load(SeqCst).min(SLOT_COUNT);
    let in_slots = SLOTS[..high]
        .iter()
        .filter(|s| s.0.load(SeqCst) != IDLE)
        .count();
    let in_overflow = lock(&OVERFLOW).iter().filter(|&&v| v != IDLE).count();
    in_slots + in_overflow
}

/// Reset every epoch-layer global to its boot state. Model executions
/// reuse one process, so each one starts by wiping the clock, the
/// registry and the watermark; sound only while no transaction is
/// live, which the model driver guarantees (it runs this at the top
/// of the root closure, before any model thread spawns).
#[cfg(loom)]
pub(crate) fn model_reset() {
    CLOCK.0.store(0, SeqCst);
    for slot in &SLOTS {
        slot.0.store(IDLE, SeqCst);
    }
    SLOTS_CLAIMED.store(0, SeqCst);
    lock(&OVERFLOW).clear();
    WATERMARK.store(0, SeqCst);
    WATERMARK_STAMP.store(0, SeqCst);
    NEXT_THREAD_INDEX.store(0, SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::{Duration, Instant};

    // These tests share the process-global clock and registry with
    // every other test in the binary (the harness runs tests on
    // threads), so they assert relative properties — monotonicity and
    // bounds against values this test observed — not absolute clock
    // values. Where another test's transaction can hold the registry
    // back for a while, they wait for it with a deadline.

    /// Polls `cond` until it holds, for at most ten seconds.
    fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn ticks_are_monotone_and_visible() {
        let mut prev = clock_now();
        for _ in 0..100 {
            let t = commit_tick();
            assert!(t > prev, "ticks strictly increase");
            assert!(clock_now() >= t, "the tick is visible to the clock");
            prev = t;
        }
    }

    #[test]
    fn enter_pins_watermark_below_begin() {
        let (begin, guard) = enter();
        let wm = refresh_watermark();
        assert!(
            wm <= begin,
            "watermark {wm} must not pass live begin {begin}"
        );
        drop(guard);
    }

    #[test]
    fn overlapping_enters_pin_their_own_begins() {
        let (outer, g1) = enter();
        let _ = commit_tick();
        let (inner, g2) = enter();
        assert!(inner > outer, "a commit lies between the two begins");
        let registered = match g2 {
            SnapshotGuard::Slot(i) => SLOTS[i].0.load(SeqCst),
            SnapshotGuard::Overflow(k) => lock(&OVERFLOW)[k],
        };
        assert_eq!(registered, inner, "the inner begin is registered");
        assert!(refresh_watermark() <= outer);
        drop(g1);
        // Only the inner begin is ours now: once no other test's older
        // transaction is live, the scan reaches it exactly (and never
        // passes it while it is live).
        eventually("the watermark to reach the inner begin", || {
            let wm = refresh_watermark();
            assert!(wm <= inner, "watermark {wm} passed live begin {inner}");
            wm == inner
        });
        drop(g2);
    }

    #[test]
    fn more_open_transactions_than_slots_overflow_and_release() {
        const EXTRA: usize = 8;
        let baseline = live_snapshots();
        let guards: Vec<(u64, SnapshotGuard)> = (0..SLOT_COUNT + EXTRA).map(|_| enter()).collect();
        let overflowed = guards
            .iter()
            .filter(|(_, g)| matches!(g, SnapshotGuard::Overflow(_)))
            .count();
        assert!(overflowed >= EXTRA, "only {overflowed} overflowed");
        assert!(live_snapshots() >= SLOT_COUNT + EXTRA);
        let oldest = guards[0].0;
        assert!(refresh_watermark() <= oldest, "every registration pins");
        // The newest registrations are the overflowed ones: each pins
        // on its own once the older ones are gone.
        let (slotted, overflow): (Vec<_>, Vec<_>) = guards
            .into_iter()
            .partition(|(_, g)| matches!(g, SnapshotGuard::Slot(_)));
        drop(slotted);
        let first_overflow = overflow
            .iter()
            .map(|&(ts, _)| ts)
            .min()
            .expect("overflowed");
        assert!(refresh_watermark() <= first_overflow);
        drop(overflow);
        eventually("live_snapshots to return to its baseline", || {
            live_snapshots() <= baseline
        });
    }

    #[test]
    fn watermark_is_monotone() {
        let a = refresh_watermark();
        let _ = commit_tick();
        let b = refresh_watermark();
        assert!(b >= a);
        assert!(watermark() >= b, "cache holds the latest scan");
    }

    #[test]
    fn watermark_advances_past_dropped_guards() {
        let (begin, guard) = enter();
        drop(guard);
        // No guard of ours is live; after ticking the clock past our
        // begin, a scan must be free to move beyond it (other tests'
        // concurrent transactions may still hold it lower, so assert
        // only against the clock bound).
        let t = commit_tick();
        assert!(refresh_watermark() <= clock_now());
        assert!(t > begin);
    }

    #[test]
    fn live_snapshots_counts_guards() {
        let before = live_snapshots();
        let (_, guard) = enter();
        assert!(live_snapshots() >= before.max(1));
        drop(guard);
    }
}
