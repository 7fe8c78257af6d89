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
//! * **The live-snapshot registry.** Every transaction registers its
//!   begin timestamp in a cache-padded per-thread slot for the
//!   duration of the transaction (an [`SnapshotGuard`] held by the
//!   `Tx`). A periodic scan folds the minimum registered begin
//!   timestamp into the monotone **watermark** — a lower bound on the
//!   begin timestamp of every transaction alive now or starting later.
//!   Version GC in `tvar.rs` trims exactly the versions no snapshot at
//!   or above the watermark can ever read.
//!
//! # The watermark invariant
//!
//! `watermark() <= begin_ts` for every live and every future
//! transaction. The ordering argument (all operations here are
//! `SeqCst`, so they occur in one total order):
//!
//! 1. A beginning transaction *first* publishes a conservative
//!    timestamp into its slot (the last clock value its thread
//!    observed, which is `<=` the begin timestamp it is about to draw)
//!    and *then* reads the clock to form its begin timestamp.
//! 2. A watermark scan *first* reads the clock (call it `bound`) and
//!    *then* reads the slots, folding `min` over `bound` and every
//!    non-idle slot value.
//!
//! For any transaction T and any scan C, either C's slot read precedes
//! T's slot publish in the total order — then T's later clock read sees
//! at least the value C saw, so `begin_ts(T) >= bound(C) >= result(C)`
//! — or C observes T's published value, which is `<=` `begin_ts(T)` by
//! construction. Either way the scan result is `<= begin_ts(T)`, and
//! since the watermark only moves up to a scan result (`fetch_max`),
//! the invariant holds for every transaction. §14 turns this sketch
//! into the GC safety argument.

use std::cell::Cell;

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use crate::sync::Mutex;
use crate::tvar::lock_versions as lock;

/// Registry slots available before thread registration falls back to
/// the mutex-protected overflow table. One slot is claimed per OS
/// thread (and recycled on thread exit), so only processes running
/// more than this many concurrent transactional threads pay for the
/// fallback. Model builds shrink to 2 so a three-thread model
/// exercises the slot and overflow paths in one execution.
pub(crate) const SLOT_COUNT: usize = if cfg!(loom) { 2 } else { 256 };

/// Slot value meaning "no transaction live here". `u64::MAX` so an
/// idle slot is transparent to the `min` fold of a watermark scan.
const IDLE: u64 = u64::MAX;

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

/// One live-snapshot slot, alone on its cache line. `begin` holds the
/// (conservative) begin timestamp of the slot-owning thread's
/// outermost live transaction, or [`IDLE`]. `depth` counts the
/// thread's live transactions so nested/overlapping `Tx` values on one
/// thread share the slot (the outermost begin timestamp is a lower
/// bound for all of them).
#[repr(align(128))]
struct Slot {
    begin: AtomicU64,
    depth: AtomicU64,
}

static SLOTS: [Slot; SLOT_COUNT] = [const {
    Slot {
        begin: AtomicU64::new(IDLE),
        depth: AtomicU64::new(0),
    }
}; SLOT_COUNT];

/// High-water mark of claimed slots: watermark scans only walk this
/// prefix.
static SLOTS_CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// Slot indices returned by exited threads, recycled before
/// [`SLOTS_CLAIMED`] grows.
static FREE_SLOTS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

/// Overflow registry for threads beyond [`SLOT_COUNT`]: one entry per
/// *transaction* (value = begin timestamp, [`IDLE`] = free). The mutex
/// itself provides the publish/scan ordering the slot path gets from
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
    /// The registry slot this thread owns for its lifetime, if one was
    /// available.
    static THREAD_SLOT: SlotHandle = SlotHandle::claim();
    /// The newest clock value this thread has observed — the
    /// conservative timestamp published ahead of reading the clock on
    /// transaction begin (step 1 of the watermark invariant).
    static LAST_SEEN: Cell<u64> = const { Cell::new(0) };
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
    let end = CLOCK.0.fetch_add(1, SeqCst) + 1;
    LAST_SEEN.with(|c| c.set(c.get().max(end)));
    end
}

/// Registration of one live transaction in the epoch registry,
/// released on drop. Held by `Tx` for its whole lifetime, so a live
/// snapshot always pins the watermark at or below its begin timestamp.
#[derive(Debug)]
pub(crate) enum SnapshotGuard {
    /// Thread-owned padded slot (shared by the thread's nested
    /// transactions via the slot's depth counter).
    Slot(usize),
    /// Per-transaction entry in the overflow table.
    Overflow(usize),
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        match *self {
            SnapshotGuard::Slot(i) => {
                let slot = &SLOTS[i];
                if slot.depth.fetch_sub(1, SeqCst) == 1 {
                    slot.begin.store(IDLE, SeqCst);
                }
            }
            SnapshotGuard::Overflow(k) => lock(&OVERFLOW)[k] = IDLE,
        }
    }
}

/// Begins a transaction's epoch: registers a conservative begin
/// timestamp, then draws the real one from the clock. Returns the
/// begin (snapshot) timestamp and the registration guard.
pub(crate) fn enter() -> (u64, SnapshotGuard) {
    let slot_idx = THREAD_SLOT.with(|s| s.idx);
    match slot_idx {
        Some(i) => {
            let slot = &SLOTS[i];
            // Publish *before* reading the clock (watermark invariant
            // step 1). Only the outermost transaction publishes: any
            // begin already registered by this thread is older, hence
            // already a lower bound for this one.
            if slot.depth.fetch_add(1, SeqCst) == 0 {
                slot.begin.store(LAST_SEEN.with(|c| c.get()), SeqCst);
                let ts = clock_now();
                // Refine the conservative value so the watermark is
                // not pinned lower than necessary.
                slot.begin.store(ts, SeqCst);
                LAST_SEEN.with(|c| c.set(ts));
                (ts, SnapshotGuard::Slot(i))
            } else {
                let ts = clock_now();
                LAST_SEEN.with(|c| c.set(ts));
                (ts, SnapshotGuard::Slot(i))
            }
        }
        None => {
            // Overflow: publish under the mutex, then read the clock.
            // A scan either runs before our insert (its lock section
            // precedes ours, so our clock reads see its bound) or
            // observes our conservative value.
            let conservative = LAST_SEEN.with(|c| c.get());
            let key = {
                let mut table = lock(&OVERFLOW);
                match table.iter().position(|&v| v == IDLE) {
                    Some(k) => {
                        table[k] = conservative;
                        k
                    }
                    None => {
                        table.push(conservative);
                        table.len() - 1
                    }
                }
            };
            let ts = clock_now();
            lock(&OVERFLOW)[key] = ts;
            LAST_SEEN.with(|c| c.set(ts));
            (ts, SnapshotGuard::Overflow(key))
        }
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
/// updated watermark.
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
        min = min.min(slot.begin.load(SeqCst));
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
        .filter(|s| s.begin.load(SeqCst) != IDLE)
        .count();
    let in_overflow = lock(&OVERFLOW).iter().filter(|&&v| v != IDLE).count();
    in_slots + in_overflow
}

/// A thread's claim on one registry slot, returned to the free list
/// when the thread exits.
struct SlotHandle {
    idx: Option<usize>,
}

impl SlotHandle {
    fn claim() -> Self {
        let recycled = lock(&FREE_SLOTS).pop();
        let idx = recycled.or_else(|| {
            let i = SLOTS_CLAIMED.fetch_add(1, SeqCst);
            (i < SLOT_COUNT).then_some(i)
        });
        SlotHandle { idx }
    }
}

impl Drop for SlotHandle {
    fn drop(&mut self) {
        if let Some(i) = self.idx {
            // Recycle only a quiescent slot. A nonzero depth here means
            // a Tx was leaked (mem::forget) on this thread; losing the
            // slot keeps the registry sound at the cost of one slot.
            if SLOTS[i].depth.load(SeqCst) == 0 {
                lock(&FREE_SLOTS).push(i);
            }
        }
    }
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
        slot.begin.store(IDLE, SeqCst);
        slot.depth.store(0, SeqCst);
    }
    SLOTS_CLAIMED.store(0, SeqCst);
    lock(&FREE_SLOTS).clear();
    lock(&OVERFLOW).clear();
    WATERMARK.store(0, SeqCst);
    WATERMARK_STAMP.store(0, SeqCst);
    NEXT_THREAD_INDEX.store(0, SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share the process-global clock and registry with
    // every other test in the binary (the harness runs tests on
    // threads), so they assert relative properties — monotonicity and
    // bounds against values this test observed — not absolute clock
    // values.

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
    fn nested_enters_share_the_slot() {
        let (outer, g1) = enter();
        let (inner, g2) = enter();
        assert!(inner >= outer);
        // The registry still pins the *outermost* begin.
        assert!(refresh_watermark() <= outer);
        drop(g2);
        // Outer still live: watermark still pinned.
        assert!(refresh_watermark() <= outer);
        drop(g1);
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
