//! Multiversioned transactional variables.
//!
//! A [`TVar<T>`] is the software analogue of an MVM cache line: it
//! keeps timestamped versions so transactions read from a consistent
//! snapshot while writers commit new versions without disturbing
//! readers. The version chain uses the same layout idiom as the
//! simulator's `version_list`: the newest version lives in an inline
//! slot (the overwhelmingly common read target), superseded versions
//! spill into an ordered list behind it.
//!
//! Retention is watermark-driven (see DESIGN.md §14 for the lifecycle
//! contract): superseded versions are retained exactly while a live
//! snapshot's begin timestamp can still reach them, and reclaimed by
//! epoch GC once the live-snapshot watermark passes them (GC runs on
//! installs; [`TVar::compact`] trims a cold, no-longer-written variable
//! on demand). A snapshot read therefore has no failure path, which is
//! what makes the paper's "readers never abort" property hold for
//! arbitrarily long transactions. The paper's 4-version hardware cap is
//! modelled by the simulator's `sitm-mvm`, not here.
//!
//! Each variable additionally carries a TL2-style *versioned commit
//! lock* (an atomic word combining the newest write timestamp with a
//! lock bit) — the per-location software rendition of SI-TM's per-line
//! timestamped versions. Commits lock exactly the variables they wrote
//! or must validate, so transactions with disjoint footprints share no
//! synchronization state at all; see `txn.rs` for the protocol. The
//! stamp word is the one record of the newest version's timestamp.
//!
//! Readers of an `i64` or `u64` variable whose snapshot covers the
//! newest version take no lock at all: installs mirror the newest
//! value into a second atomic word, and a reader serves it through a
//! seqlock read on the stamp word (stamp, mirror, stamp again; DESIGN.md
//! §14 "The read path"). Older snapshots and every other value type
//! read the chain under its mutex.

use std::any::{Any, TypeId};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the data if a panicking thread poisoned it
/// (version lists stay structurally valid across any panic point).
pub(crate) fn lock_versions<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Spin iterations against a held commit lock before demoting to a
/// scheduler yield. Model builds yield immediately: a modeled spin
/// read burns the preemption budget without enabling anything.
const SPIN_LIMIT: u32 = if cfg!(loom) { 1 } else { 128 };

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(1);

/// Reset the variable-id source (model executions reuse one process;
/// see `epoch::model_reset`).
#[cfg(loom)]
pub(crate) fn model_reset() {
    NEXT_VAR_ID.store(1, Ordering::SeqCst);
}

/// Bit 0 of [`VarInner::stamp`]: set while a committing transaction
/// holds this variable's commit lock.
const LOCK_BIT: u64 = 1;

/// The version chain: newest inline, superseded versions spilled
/// oldest-first (ascending timestamps) behind it.
#[derive(Debug)]
struct Chain<T> {
    /// The newest committed value — the target of every read whose
    /// snapshot is current, served without touching the spill.
    newest: T,
    /// Superseded versions in ascending timestamp order. A snapshot
    /// older than the newest version is served by the last entry with
    /// `ts <= s`. The newest version's own timestamp lives in the
    /// stamp word ([`VarInner::newest_ts_locked`]).
    older: VecDeque<(u64, T)>,
}

impl<T> Chain<T> {
    /// Epoch GC: drops every spilled version no snapshot at or above
    /// `watermark` can bind to, returning how many were dropped. Every
    /// snapshot that is live or can still begin has `begin_ts >=
    /// watermark` (the epoch invariant), and a snapshot `s` is served
    /// by the newest version with `ts <= s` — so the newest version
    /// with `ts <= watermark`, and everything newer, must stay;
    /// everything older is unreachable forever. `newest_ts` is the
    /// timestamp of the inline newest version.
    fn trim(&mut self, newest_ts: u64, watermark: u64) -> u64 {
        if newest_ts <= watermark {
            // The inline newest serves every surviving snapshot.
            let dead = self.older.len();
            self.older.clear();
            dead as u64
        } else {
            let reachable_from = self.older.partition_point(|&(vts, _)| vts <= watermark);
            let dead = reachable_from.saturating_sub(1);
            self.older.drain(..dead).count() as u64
        }
    }
}

#[derive(Debug)]
pub(crate) struct VarInner<T> {
    id: u64,
    label: Option<Arc<str>>,
    /// The TL2-style versioned commit-lock word:
    /// `(newest_committed_ts << 1) | lock_bit`. Commits acquire the
    /// lock bit (in ascending id order across their whole lock set),
    /// validate and install while holding it, and release it after
    /// publishing the new write stamp — so `stamp >> 1` is always the
    /// timestamp of the newest *fully installed* version, and a set
    /// lock bit marks an installation in flight. It is also the
    /// sequence word of the lock-free newest-value read
    /// ([`VarInner::read_newest_word`]).
    stamp: AtomicU64,
    /// The newest value, mirrored as a word when `T` is `i64` or `u64`
    /// (see [`to_word`]); unused, and left at 0, for every other type.
    /// Written only by `install`, under the commit lock.
    word: AtomicU64,
    chain: Mutex<Chain<T>>,
    /// Lifetime count of versions reclaimed from this chain by epoch
    /// GC — the per-variable half of the `stm.versions_retired`
    /// counter.
    retired: AtomicU64,
}

/// Whether values of type `T` travel through the [`VarInner::word`]
/// mirror: exactly `i64` and `u64`. A `TypeId` comparison, so it
/// folds to a constant in each monomorphised read path.
fn is_word<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<u64>() || TypeId::of::<T>() == TypeId::of::<i64>()
}

/// Encodes a word-sized value for the mirror (`i64` by its two's
/// complement bits); `None` for every type [`is_word`] rejects.
fn to_word<T: 'static>(value: &T) -> Option<u64> {
    let value: &dyn Any = value;
    if let Some(&v) = value.downcast_ref::<u64>() {
        Some(v)
    } else {
        value.downcast_ref::<i64>().map(|&v| v as u64)
    }
}

/// Decodes a mirror word back into `T`, the inverse of [`to_word`];
/// `None` for every type [`is_word`] rejects.
fn from_word<T: 'static>(word: u64) -> Option<T> {
    let mut out: Option<T> = None;
    let slot: &mut dyn Any = &mut out;
    if let Some(slot) = slot.downcast_mut::<Option<u64>>() {
        *slot = Some(word);
    } else if let Some(slot) = slot.downcast_mut::<Option<i64>>() {
        *slot = Some(word as i64);
    }
    out
}

/// Whether the skip-stamp-recheck seqlock mutation is on (loom model
/// builds only; see `model_support`).
#[inline(always)]
fn mutate_skip_stamp_recheck() -> bool {
    #[cfg(loom)]
    {
        crate::model_support::skip_stamp_recheck()
    }
    #[cfg(not(loom))]
    {
        false
    }
}

/// Whether the ignore-lock-bit seqlock mutation is on (loom model
/// builds only; see `model_support`).
#[inline(always)]
fn mutate_ignore_lock_bit() -> bool {
    #[cfg(loom)]
    {
        crate::model_support::ignore_lock_bit()
    }
    #[cfg(not(loom))]
    {
        false
    }
}

impl<T: 'static> VarInner<T> {
    /// Timestamp of the chain's inline newest version. The guard is
    /// the proof of the chain lock: `install` publishes a new stamp
    /// before it releases the chain, and nothing else changes the
    /// stamp's timestamp, so under the chain lock `stamp >> 1` is
    /// exactly the inline version's timestamp (the mutex orders the
    /// load, so it can be `Relaxed`).
    fn newest_ts_locked(&self, _chain: &MutexGuard<'_, Chain<T>>) -> u64 {
        self.stamp.load(Ordering::Relaxed) >> 1
    }

    /// The lock-free read: serves the newest version through the
    /// [`VarInner::word`] mirror when `T` is word-sized, no commit holds
    /// the lock, and `snapshot` covers the newest version. A seqlock on
    /// the stamp word:
    ///
    /// 1. load the stamp (`Acquire`, pairs with `unlock_commit`'s
    ///    `Release`): an unlocked stamp `ts << 1` means every write of
    ///    the commit that published `ts`, mirror included, is visible;
    /// 2. load the mirror (`Acquire`, pairs with `install`'s `Release`
    ///    store): if it is a newer commit's value, that commit's lock
    ///    CAS happened before, so step 3 cannot see the step-1 stamp;
    /// 3. load the stamp again: unchanged means no commit touched the
    ///    variable in between (timestamps only grow, so the word cannot
    ///    come back to the same value), and the mirror is the version
    ///    stamped `ts`.
    ///
    /// `None` sends the read to the chain under its mutex.
    #[inline(always)]
    fn read_newest_word(&self, snapshot: u64) -> Option<(T, u64)> {
        if !is_word::<T>() {
            return None;
        }
        let stamp = self.stamp.load(Ordering::Acquire);
        if (stamp & LOCK_BIT != 0 && !mutate_ignore_lock_bit()) || stamp >> 1 > snapshot {
            return None;
        }
        let word = self.word.load(Ordering::Acquire);
        if self.stamp.load(Ordering::Acquire) != stamp && !mutate_skip_stamp_recheck() {
            return None;
        }
        Some((from_word(word)?, stamp >> 1))
    }

    /// Spins (then yields) until no commit holds this variable's lock.
    ///
    /// Readers on the locked path call this before scanning the version
    /// chain: a snapshot new enough to observe an in-flight commit's end
    /// timestamp can only exist *after* that commit ticked the clock,
    /// which happens while the lock is held — so
    /// waiting for the release guarantees the reader sees the fully
    /// installed version (the §14 atomic-visibility argument). The
    /// lock-free word read needs no wait: it sees the same lock bit and
    /// falls back to this path. Commits never wait on readers, and
    /// readers never hold commit locks, so this cannot deadlock.
    fn wait_unlocked(&self) {
        let mut spins = 0u32;
        while self.stamp.load(Ordering::Acquire) & LOCK_BIT != 0 {
            spins += 1;
            if spins < SPIN_LIMIT {
                crate::sync::hint::spin_loop();
            } else {
                crate::sync::thread::yield_now();
            }
        }
    }

    /// Installs `value` at `ts`, then garbage-collects the chain
    /// against `watermark` — the live-snapshot lower bound from
    /// `epoch::gc_watermark` — and returns the number of versions
    /// reclaimed. The caller must hold the commit lock; the new write
    /// stamp is published into the lock word (still locked) so it
    /// becomes the validation timestamp the instant the lock is
    /// released.
    ///
    /// # Panics
    ///
    /// Panics if `ts` is not newer than the newest version or the
    /// commit lock is not held.
    pub(crate) fn install(&self, ts: u64, value: T, watermark: u64) -> u64 {
        // Only the lock holder changes the stamp, so this load is the
        // current newest timestamp.
        let locked = self.stamp.load(Ordering::Relaxed);
        assert!(locked & LOCK_BIT != 0, "install requires the commit lock");
        let prev_ts = locked >> 1;
        assert!(ts > prev_ts, "install out of order: {ts} <= {prev_ts}");
        let word = to_word(&value);
        let mut chain = lock_versions(&self.chain);
        // Spill the superseded newest behind the inline slot.
        let prev = std::mem::replace(&mut chain.newest, value);
        chain.older.push_back((prev_ts, prev));
        // Mirror the new value for lock-free readers. `Release` orders
        // the lock CAS before it: a reader that loads this word then
        // re-loads a stamp that is locked or newer, never the one it
        // started from.
        if let Some(word) = word {
            self.word.store(word, Ordering::Release);
        }
        // Publish the new write stamp while still holding both locks:
        // validators that acquire the commit lock next see `ts`
        // immediately, and the chain lock's holders see the stamp and
        // the inline version change together (`newest_ts_locked`).
        self.stamp.store((ts << 1) | LOCK_BIT, Ordering::Release);
        // Trim whatever this install made unreachable.
        let dropped = chain.trim(ts, watermark);
        if dropped > 0 {
            self.retired.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }
}

/// A transactional variable holding multiversioned values of type `T`.
///
/// Values are cloned out on read; wrap large payloads in [`Arc`] to make
/// cloning cheap. `TVar`s are created outside transactions and accessed
/// inside them via [`crate::Tx::read`] / [`crate::Tx::write`].
///
/// # Examples
///
/// ```
/// use sitm_stm::{Stm, TVar};
/// let stm = Stm::snapshot();
/// let balance = TVar::new(100u64);
/// stm.atomically(|tx| {
///     let b = tx.read(&balance)?;
///     tx.write(&balance, b + 1);
///     Ok(())
/// });
/// assert_eq!(stm.atomically(|tx| tx.read(&balance)), 101);
/// ```
#[derive(Debug)]
pub struct TVar<T> {
    pub(crate) inner: Arc<VarInner<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Creates a variable with an initial value (committed at timestamp
    /// zero, visible to every snapshot) under **dynamic retention**:
    /// superseded versions stay reachable for as long as any live
    /// snapshot can read them and are reclaimed by epoch GC afterwards,
    /// so readers of this variable never abort — not even arbitrarily
    /// long scans under heavy write churn.
    ///
    /// # Examples
    ///
    /// A long read-only scan stays consistent while writers churn:
    ///
    /// ```
    /// use sitm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::snapshot();
    /// let cells: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(0)).collect();
    ///
    /// // Writers keep every cell-pair sum at zero...
    /// for k in 0..100 {
    ///     stm.atomically(|tx| {
    ///         let a = tx.read(&cells[k % 8])?;
    ///         tx.write(&cells[k % 8], a - 1);
    ///         let b = tx.read(&cells[(k + 4) % 8])?;
    ///         tx.write(&cells[(k + 4) % 8], b + 1);
    ///         Ok(())
    ///     });
    /// }
    /// // ...so a snapshot scan of all cells always sums to zero.
    /// let sum = stm.atomically(|tx| {
    ///     let mut sum = 0;
    ///     for c in &cells {
    ///         sum += tx.read(c)?;
    ///     }
    ///     Ok(sum)
    /// });
    /// assert_eq!(sum, 0);
    /// ```
    pub fn new(value: T) -> Self {
        Self::build(value, None)
    }

    /// Creates a labeled variable under dynamic retention (see
    /// [`TVar::new`]); the label appears in write-skew reports from the
    /// `sitm_check::skew` tooling.
    pub fn new_labeled(label: &str, value: T) -> Self {
        Self::build(value, Some(Arc::from(label)))
    }

    fn build(value: T, label: Option<Arc<str>>) -> Self {
        TVar {
            inner: Arc::new(VarInner {
                id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
                label,
                stamp: AtomicU64::new(0),
                word: AtomicU64::new(to_word(&value).unwrap_or(0)),
                chain: Mutex::new(Chain {
                    newest: value,
                    older: VecDeque::new(),
                }),
                retired: AtomicU64::new(0),
            }),
        }
    }

    /// The variable's unique id (used for deterministic lock ordering
    /// and trace correlation).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The label given at construction, if any.
    pub fn label(&self) -> Option<Arc<str>> {
        self.inner.label.clone()
    }

    /// Reads the newest committed value outside any transaction.
    pub fn load(&self) -> T {
        lock_versions(&self.inner.chain).newest.clone()
    }

    /// Reads the newest version at or below `snapshot`, waiting out any
    /// in-flight commit on this variable first (see
    /// [`VarInner::wait_unlocked`]).
    #[cfg(test)]
    pub(crate) fn read_at(&self, snapshot: u64) -> T {
        self.read_versioned_at(snapshot).0
    }

    /// Reads the newest version at or below `snapshot`, returning the
    /// value together with the commit timestamp of the version that
    /// served the read (0 for the initial value) — the observation the
    /// history recorder exports for the isolation oracle.
    ///
    /// An `i64`/`u64` variable whose newest version `snapshot` covers
    /// is served lock-free ([`VarInner::read_newest_word`]); every other
    /// read waits out any in-flight commit on this variable and reads
    /// the chain under its mutex.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` predates the oldest retained version. Epoch
    /// GC only drops versions below the live-snapshot watermark, and
    /// every live snapshot sits at or above it (DESIGN.md §14), so this
    /// is a broken invariant, never a reader to retry: the read stops
    /// the program rather than serve a wrong version.
    pub(crate) fn read_versioned_at(&self, snapshot: u64) -> (T, u64) {
        if let Some(hit) = self.inner.read_newest_word(snapshot) {
            return hit;
        }
        self.inner.wait_unlocked();
        let chain = lock_versions(&self.inner.chain);
        let newest_ts = self.inner.newest_ts_locked(&chain);
        if newest_ts <= snapshot {
            return (chain.newest.clone(), newest_ts);
        }
        // Ascending order: the last spilled entry at or below the
        // snapshot is the one this snapshot observes.
        let at = chain.older.partition_point(|&(ts, _)| ts <= snapshot);
        match at.checked_sub(1).and_then(|i| chain.older.get(i)) {
            Some((ts, value)) => (value.clone(), *ts),
            None => panic!(
                "snapshot below the GC watermark: snapshot {snapshot} predates the oldest retained version {}",
                chain.older.front().map_or(newest_ts, |&(ts, _)| ts)
            ),
        }
    }

    /// Number of currently retained versions (diagnostics).
    pub fn version_count(&self) -> usize {
        1 + lock_versions(&self.inner.chain).older.len()
    }

    /// Lifetime count of versions reclaimed from this variable by epoch
    /// GC. Diagnostics; see also `StmStats::versions_retired` for the
    /// runtime-wide aggregate.
    pub fn retired_total(&self) -> u64 {
        self.inner.retired.load(Ordering::Relaxed)
    }

    /// Reclaims this variable's retired versions *now*, against a
    /// freshly scanned live-snapshot watermark, and returns how many
    /// were reclaimed.
    ///
    /// Epoch GC normally piggybacks on installs, so a variable that
    /// stops being written keeps whatever spill a since-finished long
    /// reader forced it to retain — indefinitely, if no writer ever
    /// touches it again (DESIGN.md §14). `compact` is the explicit
    /// trim hook for such cold variables; it is always safe (it drops
    /// only versions the watermark proves unreachable, so a concurrent
    /// reader can never lose its version) and never blocks commits.
    ///
    /// Reclamations made here count toward [`TVar::retired_total`] but
    /// not toward any runtime's `StmStats` aggregate — no transaction
    /// is involved.
    ///
    /// # Examples
    ///
    /// ```
    /// use sitm_stm::{Stm, TVar};
    /// let stm = Stm::snapshot();
    /// let cell = TVar::new(0u32);
    /// for i in 1..=4 {
    ///     stm.atomically(|tx| {
    ///         tx.write(&cell, i);
    ///         Ok(())
    ///     });
    /// }
    /// // No snapshot is live, so everything superseded is
    /// // reclaimable without waiting for the next write.
    /// cell.compact();
    /// assert_eq!(cell.version_count(), 1);
    /// ```
    pub fn compact(&self) -> u64 {
        let watermark = crate::epoch::refresh_watermark();
        let mut chain = lock_versions(&self.inner.chain);
        let newest_ts = self.inner.newest_ts_locked(&chain);
        let dropped = chain.trim(newest_ts, watermark);
        drop(chain);
        if dropped > 0 {
            self.inner.retired.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }
}

/// Type-erased per-variable operations used by the commit protocol.
///
/// The locking methods implement the per-variable half of the TL2-style
/// commit: a committing transaction calls [`VarOps::lock_commit`] on
/// every written *and* validated variable in ascending id order (the
/// global order that makes concurrent commits deadlock-free), then
/// [`VarOps::newest_ts`] to validate first-committer-wins, then
/// [`PendingWrite::install`] for its writes, and finally
/// [`VarOps::unlock_commit`] on everything. Transactions with disjoint
/// lock sets never touch a shared lock.
pub(crate) trait VarOps: Send + Sync {
    /// Timestamp of the newest fully installed version (from the
    /// stamp word; never blocks).
    fn newest_ts(&self) -> u64;
    /// Acquires this variable's commit lock, spinning (then yielding)
    /// while another commit holds it.
    fn lock_commit(&self);
    /// Releases the commit lock, preserving the write stamp.
    fn unlock_commit(&self);
}

impl<T: Clone + Send + Sync + 'static> VarOps for VarInner<T> {
    fn newest_ts(&self) -> u64 {
        self.stamp.load(Ordering::Acquire) >> 1
    }

    fn lock_commit(&self) {
        let mut spins = 0u32;
        loop {
            let s = self.stamp.load(Ordering::Relaxed);
            if s & LOCK_BIT == 0
                && self
                    .stamp
                    .compare_exchange_weak(s, s | LOCK_BIT, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                crate::sync::hint::spin_loop();
            } else {
                crate::sync::thread::yield_now();
            }
        }
    }

    fn unlock_commit(&self) {
        // Only the lock holder writes a locked stamp, so a load and a
        // plain store release the lock without a locked RMW. The
        // `Release` store is also the seqlock's closing edge: a
        // lock-free reader whose `Acquire` load sees this unlocked
        // stamp sees the mirror word `install` stored before it.
        let stamp = self.stamp.load(Ordering::Relaxed);
        self.stamp.store(stamp & !LOCK_BIT, Ordering::Release);
    }
}

/// One buffered write of a transaction, type-erased: the single heap
/// allocation a [`crate::Tx::write`] makes. It owns the typed variable
/// handle and the value, so it can install itself at commit without a
/// downcast, and it keeps the handle afterwards so the commit can
/// still release the variable's lock.
pub(crate) trait PendingWrite: Send {
    /// The written variable (id, stamp, commit lock).
    fn var(&self) -> &dyn VarOps;
    /// The concrete [`Buffered<T>`], for reads of the transaction's
    /// own write.
    fn as_any(&self) -> &dyn Any;
    /// Installs the buffered value at `ts` ([`VarInner::install`]) and
    /// returns the number of versions reclaimed; a second call
    /// installs nothing.
    fn install(&mut self, ts: u64, watermark: u64) -> u64;
}

/// The concrete [`PendingWrite`] of a `TVar<T>`.
pub(crate) struct Buffered<T> {
    pub(crate) var: Arc<VarInner<T>>,
    /// `None` once installed.
    pub(crate) value: Option<T>,
}

impl<T: Clone + Send + Sync + 'static> PendingWrite for Buffered<T> {
    fn var(&self) -> &dyn VarOps {
        &*self.var
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn install(&mut self, ts: u64, watermark: u64) -> u64 {
        match self.value.take() {
            Some(value) => self.var.install(ts, value, watermark),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Installs a version through the full lock protocol, the way the
    /// commit path does, at an explicit GC watermark.
    fn install_at<T: Clone + Send + Sync + 'static>(
        v: &TVar<T>,
        ts: u64,
        value: T,
        wm: u64,
    ) -> u64 {
        v.inner.lock_commit();
        let dropped = v.inner.install(ts, value, wm);
        v.inner.unlock_commit();
        dropped
    }

    /// Installs with the watermark pinned at zero (retain everything).
    fn install<T: Clone + Send + Sync + 'static>(v: &TVar<T>, ts: u64, value: T) {
        install_at(v, ts, value, 0);
    }

    #[test]
    fn ids_are_unique() {
        let a = TVar::new(0u32);
        let b = TVar::new(0u32);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn load_sees_newest() {
        let v = TVar::new(5u32);
        install(&v, 3, 9u32);
        assert_eq!(v.load(), 9);
    }

    #[test]
    fn read_at_respects_snapshot() {
        let v = TVar::new(1u32);
        install(&v, 10, 2u32);
        install(&v, 20, 3u32);
        assert_eq!(v.read_at(0), 1);
        assert_eq!(v.read_at(15), 2);
        assert_eq!(v.read_at(25), 3);
    }

    #[test]
    fn dynamic_retention_keeps_everything_below_the_watermark() {
        // Watermark 0 simulates a live snapshot at the beginning of
        // time: nothing may be reclaimed.
        let v = TVar::new(0u32);
        for ts in 1..=64 {
            install(&v, ts, ts as u32);
        }
        assert_eq!(v.version_count(), 65);
        assert_eq!(v.retired_total(), 0);
        for snap in 0..=64u64 {
            assert_eq!(v.read_at(snap), snap as u32);
        }
    }

    #[test]
    fn epoch_gc_reclaims_versions_behind_the_watermark() {
        let v = TVar::new(0u32);
        for ts in 1..=10 {
            install(&v, ts, ts as u32);
        }
        // Watermark 7: versions 0..=6 are unreachable except version 7
        // does not exist... the newest at-or-below 7 is 7 itself, so
        // 0..=6 go, 7..=11 stay.
        let dropped = install_at(&v, 11, 11u32, 7);
        assert_eq!(dropped, 7);
        assert_eq!(v.retired_total(), 7);
        // Chain is now {7, 8, 9, 10, 11}.
        assert_eq!(v.version_count(), 5);
        assert_eq!(v.read_at(7), 7);
        assert_eq!(v.read_at(9), 9);
        assert_eq!(v.read_at(100), 11);
    }

    #[test]
    #[should_panic(expected = "snapshot below the GC watermark")]
    fn read_below_the_watermark_panics() {
        let v = TVar::new(0u32);
        for ts in 1..=10 {
            install(&v, ts, ts as u32);
        }
        // Watermark 7 trims the chain to {7, ..., 11}. Snapshot 5 is
        // one the epoch invariant says cannot exist, so serving it is
        // a bug: the read must stop, not return a wrong version.
        install_at(&v, 11, 11u32, 7);
        v.read_at(5);
    }

    #[test]
    fn gc_with_watermark_at_newest_keeps_only_newest() {
        let v = TVar::new(0u32);
        install(&v, 5, 1u32);
        install(&v, 10, 2u32);
        let dropped = install_at(&v, 15, 3u32, 15);
        assert_eq!(dropped, 3, "0, 5 and 10 all reclaimed");
        assert_eq!(v.version_count(), 1);
        assert_eq!(v.load(), 3);
    }

    #[test]
    fn stamp_word_tracks_newest_install() {
        let v = TVar::new(0u32);
        assert_eq!(v.inner.newest_ts(), 0);
        install(&v, 7, 1u32);
        assert_eq!(v.inner.newest_ts(), 7);
        // The lock bit does not leak into the timestamp.
        v.inner.lock_commit();
        assert_eq!(v.inner.newest_ts(), 7);
        v.inner.unlock_commit();
        assert_eq!(v.inner.newest_ts(), 7);
    }

    /// A reader whose snapshot covers an in-flight commit waits it out
    /// and observes the installed version.
    fn reader_waits_out_an_in_flight_commit<T>(initial: T, installed: T)
    where
        T: Clone + Send + Sync + PartialEq + std::fmt::Debug + 'static,
    {
        let v = TVar::new(initial);
        v.inner.lock_commit();
        let reader = {
            let v = v.clone();
            std::thread::spawn(move || v.read_versioned_at(u64::MAX))
        };
        // The reader spins against the held lock; install the pending
        // version, then release — the reader must observe it.
        v.inner.install(5, installed.clone(), 0);
        std::thread::sleep(std::time::Duration::from_millis(10));
        v.inner.unlock_commit();
        assert_eq!(reader.join().unwrap(), (installed, 5));
    }

    #[test]
    fn readers_wait_out_an_in_flight_commit() {
        // The locked path, and the word read falling back to it on the
        // lock bit.
        reader_waits_out_an_in_flight_commit(0u32, 42);
        reader_waits_out_an_in_flight_commit(0u64, 42);
    }

    #[test]
    fn word_sized_var_inner_fits_its_allocation() {
        // The mirror replaced the chain's own newest timestamp; a larger
        // variable costs setup time and memory on every workload that
        // creates many of them.
        assert!(std::mem::size_of::<VarInner<i64>>() <= 104);
    }

    #[test]
    fn word_codec_round_trips_at_the_extremes() {
        assert!(is_word::<i64>() && is_word::<u64>());
        assert!(!is_word::<u32>() && !is_word::<Option<i64>>() && !is_word::<(u64,)>());
        for v in [i64::MIN, -1, 0, i64::MAX] {
            assert_eq!(from_word::<i64>(to_word(&v).unwrap()), Some(v));
        }
        for v in [0, 1, u64::MAX] {
            assert_eq!(from_word::<u64>(to_word(&v).unwrap()), Some(v));
        }
        assert_eq!(to_word(&Some(1i64)), None);
        assert_eq!(from_word::<Option<i64>>(1), None);
        // End to end through the mirror: install, then a lock-free read.
        let v = TVar::new(i64::MIN);
        assert_eq!(v.read_versioned_at(0), (i64::MIN, 0));
        install(&v, 3, -1i64);
        assert_eq!(v.read_versioned_at(3), (-1, 3));
        let u = TVar::new(0u64);
        install(&u, 4, u64::MAX);
        assert_eq!(u.read_versioned_at(9), (u64::MAX, 4));
    }

    #[test]
    fn word_mirror_and_locked_chain_serve_the_same_versions() {
        // `TVar<u64>` reads its newest version through the mirror,
        // `TVar<(u64,)>` always through the chain mutex. Driven through
        // the same installs, trims and compaction, both must serve the
        // same version at every snapshot that can still exist.
        let fast = TVar::new(0u64);
        let slow = TVar::new((0u64,));
        let agree = |from: u64, to: u64| {
            for snapshot in from..=to {
                let (value, ts) = slow.read_versioned_at(snapshot);
                assert_eq!(
                    fast.read_versioned_at(snapshot),
                    (value.0, ts),
                    "snapshot {snapshot}"
                );
            }
        };
        let mut floor = 0;
        for step in 1..=40u64 {
            let ts = 2 * step;
            // Every eighth install trims against a watermark just below it.
            if step % 8 == 0 {
                floor = ts - 3;
            }
            let value = step.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(
                install_at(&fast, ts, value, floor),
                install_at(&slow, ts, (value,), floor)
            );
            assert_eq!(fast.version_count(), slow.version_count());
            agree(floor, ts + 3);
        }
        fast.compact();
        slow.compact();
        // Each compact trimmed against some watermark at or below the
        // one now cached; snapshots from there up are readable on both.
        let newest = 80;
        agree(floor.max(crate::epoch::watermark().min(newest)), newest + 3);
    }

    #[test]
    fn labels_survive() {
        let v = TVar::new_labeled("checking", 7u64);
        assert_eq!(v.label().as_deref(), Some("checking"));
        assert_eq!(v.load(), 7);
    }

    #[test]
    #[should_panic(expected = "install out of order")]
    fn out_of_order_install_panics() {
        let v = TVar::new(0u32);
        install(&v, 5, 1u32);
        install(&v, 5, 2u32);
    }

    #[test]
    #[should_panic(expected = "requires the commit lock")]
    fn unlocked_install_panics() {
        let v = TVar::new(0u32);
        v.inner.install(5, 1u32, 0);
    }
}
