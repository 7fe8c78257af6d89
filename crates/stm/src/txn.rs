//! Transactions: snapshot reads, buffered writes, commit-time
//! validation.
//!
//! The commit protocol is the software rendition of SI-TM's `TM_COMMIT`
//! (section 4.2), with TL2-style *per-variable* versioned commit locks
//! instead of any process-global lock structure:
//!
//! 1. read-only transactions commit with no timestamp and no checks;
//! 2. writers acquire the commit locks of exactly their write +
//!    validation sets in ascending `var_id` order (a global order, so
//!    commits are deadlock-free), validate first-committer-wins that no
//!    locked variable has a version newer than the snapshot
//!    (write-write conflicts; plus read/promoted-set validation under
//!    the serializable level), obtain an end timestamp from the global
//!    clock, install the new versions, and unlock.
//!
//! Because validation and installation happen while holding the locks
//! of every variable involved, the commit point is atomic with respect
//! to conflicting commits, mirroring the paper's delta-reservation
//! argument without needing it — while transactions with disjoint
//! footprints proceed fully in parallel, sharing nothing but one read
//! fold of the clock shards and one CAS on the committing thread's own
//! shard (`epoch::commit_tick`). Snapshot reads never take a lock:
//! they only wait out a commit caught mid-install on the variable
//! being read (`VarInner::wait_unlocked`), which is the section 4.2
//! half-published-write-set race — a snapshot can only cover an
//! in-flight commit's end timestamp if it folded the clock after that
//! commit floored its tick over all shards, which happens while its
//! locks are held (the atomic-visibility argument of DESIGN.md §14).
//!
//! Every transaction also registers in the epoch registry for its
//! lifetime (the `epoch::SnapshotGuard` field of [`Tx`]): the
//! registry's watermark is what lets commits garbage-collect versions
//! no live snapshot can reach (DESIGN.md §14).

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use sitm_obs::{AbortDetail, ForensicCause, History, OpKind, TxnBuilder, TxnRecord};

use crate::epoch;
use crate::error::{Conflict, StmError};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::tvar::{lock_versions, TVar, VarOps};

/// Thread-safe collector of finished transaction records plus the
/// global operation sequence counter, shared by every [`Tx`] an
/// [`crate::Stm`] runtime starts when history recording is enabled
/// ([`crate::Stm::with_history`]).
#[derive(Debug)]
pub(crate) struct HistorySink {
    history: Mutex<History>,
    seq: AtomicU64,
}

impl HistorySink {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        HistorySink {
            history: Mutex::new(History::with_capacity(capacity)),
            seq: AtomicU64::new(0),
        }
    }

    /// Next global operation sequence number. `SeqCst` so sequence
    /// order agrees with the clock order commits establish.
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Appends a finished record and names the labelled variables it
    /// touched, under one acquisition of the log's lock.
    fn push(&self, record: TxnRecord, labels: &[(u64, Arc<str>)]) {
        let mut history = lock_versions(&self.history);
        history.push(record);
        for (var, label) in labels {
            history.set_label(*var, label);
        }
    }

    /// Runs `reader` over the log collected so far.
    pub(crate) fn read<R>(&self, reader: impl FnOnce(&History) -> R) -> R {
        reader(&lock_versions(&self.history))
    }
}

/// The recording half of a [`Tx`]: the one per-attempt record of the
/// runtime, present only when [`crate::Stm::with_history`] is on. Every
/// reader of the stream — the isolation oracle, the write-skew
/// analyser, the abort-forensics fold — works offline on the
/// [`History`] these records land in.
struct TxLog {
    sink: Arc<HistorySink>,
    /// The open record; `None` once the attempt's outcome is recorded.
    open: Option<TxnBuilder>,
    /// Cause label the record closes with if the attempt never reaches
    /// a commit verdict: `explicit` (a rollback, a panicking body, a
    /// torn-down connection) until a failing operation stamps its
    /// conflict.
    cause: &'static str,
    /// Labelled variables this attempt touched, for the log's
    /// `line → label` table.
    labels: Vec<(u64, Arc<str>)>,
}

impl TxLog {
    /// Appends `kind` to the open record; `label` is the touched
    /// variable's, if it has one.
    fn op(&mut self, kind: OpKind, label: Option<Arc<str>>) {
        let seq = self.sink.next_seq();
        if let Some(open) = &mut self.open {
            open.op(seq, kind);
        }
        if let Some(label) = label {
            self.labels.push((kind.line(), label));
        }
    }

    /// Stamps the conflict that dooms this attempt: its cause in the
    /// forensic taxonomy, the variable it lost on and the commit
    /// timestamp of the winning version.
    fn doom(&mut self, conflict: Conflict, var: u64, winner_ts: u64) {
        self.cause = conflict.label();
        let cause = match conflict {
            Conflict::WriteWrite => ForensicCause::WriteWriteFcw,
            Conflict::ReadValidation => ForensicCause::ReadValidation,
            // The snapshot's version fell off a bounded history.
            Conflict::SnapshotTooOld => ForensicCause::CapacityEviction,
        };
        if let Some(open) = &mut self.open {
            open.detail(AbortDetail {
                cause,
                line: var,
                winner_ts,
            });
        }
    }

    /// Closes the record — the one finish routine of every attempt —
    /// as committed at `Ok(commit_ts)` or aborted with `Err(cause)`.
    /// A second call is a no-op.
    fn finish(&mut self, outcome: Result<Option<u64>, &'static str>) {
        let Some(open) = self.open.take() else {
            return;
        };
        let seq = self.sink.next_seq();
        let record = match outcome {
            Ok(commit_ts) => open.commit(seq, commit_ts),
            Err(cause) => open.abort(seq, cause),
        };
        self.sink.push(record, &self.labels);
    }
}

impl Drop for TxLog {
    /// A `Tx` that never reached [`Tx::commit`] — rolled back, failed in
    /// its body, dropped by a panic or with its connection — still
    /// leaves its record, so the history accounts for every attempt.
    fn drop(&mut self) {
        self.finish(Err(self.cause));
    }
}

/// RAII holder of a commit's per-variable locks: acquired in ascending
/// `var_id` order, released (in any order — release order cannot
/// deadlock) when dropped, including on validation failure and on
/// panic, so a dying commit can never strand a variable locked.
struct CommitLocks {
    vars: Vec<Arc<dyn VarOps>>,
}

impl CommitLocks {
    /// Locks every variable yielded by `vars`, which must arrive in
    /// ascending id order (callers iterate a `BTreeMap` keyed by id).
    fn acquire<'a>(vars: impl Iterator<Item = &'a Arc<dyn VarOps>>) -> Self {
        let mut locked: Vec<Arc<dyn VarOps>> = Vec::with_capacity(vars.size_hint().0);
        for var in vars {
            debug_assert!(
                locked.last().is_none_or(|prev| prev.id() < var.id()),
                "commit locks must be acquired in ascending id order"
            );
            var.lock_commit();
            locked.push(Arc::clone(var));
        }
        CommitLocks { vars: locked }
    }
}

impl Drop for CommitLocks {
    fn drop(&mut self) {
        for var in &self.vars {
            var.unlock_commit();
        }
    }
}

/// How strictly transactions are isolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Snapshot isolation: consistent snapshot reads, aborts only on
    /// write-write conflicts. Subject to the write-skew anomaly
    /// (section 5); pair with the `sitm-skew` tooling or selective
    /// [`Tx::promote`] calls.
    #[default]
    Snapshot,
    /// Full serializability by enforcing read-write conflict detection
    /// for every read, per the paper's remark that "programmers can
    /// always enforce serializability by enforcing read-write conflict
    /// detection for all or a subset of transactions": the entire read
    /// set is validated at commit. Read-only transactions still commit
    /// without validation (their snapshot is a consistent serialization
    /// point).
    Serializable,
}

/// A pending buffered write.
struct PendingWrite {
    var: Arc<dyn VarOps>,
    value: Box<dyn Any + Send>,
}

impl std::fmt::Debug for PendingWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PendingWrite(var {})", self.var.id())
    }
}

/// An in-flight transaction. Obtained from [`crate::Stm::atomically`].
pub struct Tx {
    snapshot: u64,
    level: IsolationLevel,
    writes: BTreeMap<u64, PendingWrite>,
    /// The read log kept under `Serializable` for commit-time
    /// validation of update transactions.
    read_log: BTreeMap<u64, Arc<dyn VarOps>>,
    /// Explicitly promoted reads (validated even in read-only
    /// transactions; never create versions).
    promoted: BTreeMap<u64, Arc<dyn VarOps>>,
    /// The open record of this attempt, when the runtime records
    /// histories.
    log: Option<Box<TxLog>>,
    /// This transaction's registration in the live-snapshot registry.
    /// Held for the whole transaction (released on drop, on every exit
    /// path), so epoch GC can never reclaim a version this snapshot
    /// might still read.
    _epoch: epoch::SnapshotGuard,
}

impl std::fmt::Debug for Tx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tx")
            .field("snapshot", &self.snapshot)
            .field("level", &self.level)
            .field("writes", &self.writes.len())
            .finish_non_exhaustive()
    }
}

/// Whether the `MUTATE_SKIP_FCW_VALIDATION` mutation knob is on (model
/// builds only): re-breaks the PR 4 bug class by letting a commit that
/// conflicts with an already-committed winner escape first-committer-
/// wins detection. Exists so the models can prove they would catch it.
fn mutate_skip_fcw() -> bool {
    #[cfg(loom)]
    {
        crate::model_support::skip_fcw_validation()
    }
    #[cfg(not(loom))]
    {
        false
    }
}

/// Whether the `MUTATE_UNFLOORED_COMMIT_TICK` mutation knob is on
/// (model builds only): re-breaks the PR 7 torn-snapshot bug by
/// flooring the commit tick at the snapshot alone, without the
/// all-shard fold taken under the commit locks.
fn mutate_unfloored_tick() -> bool {
    #[cfg(loom)]
    {
        crate::model_support::unfloored_commit_tick()
    }
    #[cfg(not(loom))]
    {
        false
    }
}

impl Tx {
    pub(crate) fn begin(level: IsolationLevel, sink: Option<&Arc<HistorySink>>) -> Self {
        // Register in the epoch registry *and* draw the snapshot in
        // one step: the registration is published before the clock is
        // read, which is what keeps the GC watermark at or below this
        // snapshot for as long as the guard lives.
        let (snapshot, guard) = epoch::enter();
        let log = sink.map(|sink| {
            // The begin sequence number is unique within the sink, so
            // it doubles as the attempt id.
            let begin_seq = sink.next_seq();
            Box::new(TxLog {
                sink: Arc::clone(sink),
                open: Some(TxnBuilder::new(
                    begin_seq,
                    epoch::thread_index(),
                    0, // the 64-bit software clock never overflows
                    begin_seq,
                    Some(snapshot),
                )),
                cause: "explicit",
                labels: Vec::new(),
            })
        });
        Tx {
            snapshot,
            level,
            writes: BTreeMap::new(),
            read_log: BTreeMap::new(),
            promoted: BTreeMap::new(),
            log,
            _epoch: guard,
        }
    }

    /// This transaction's snapshot timestamp.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }

    /// Reads `var` from the transaction's snapshot (or its own buffered
    /// write). Every read in one transaction observes the same
    /// snapshot, no matter what commits in between.
    ///
    /// # Errors
    ///
    /// Returns [`Conflict::SnapshotTooOld`] (wrapped in [`StmError`])
    /// if the snapshot's version was evicted from a *capped* variable
    /// ([`TVar::with_history`]); the retry loop restarts on a fresh
    /// snapshot. Dynamically retained variables ([`TVar::new`]) keep
    /// every version a live snapshot can reach, so reading them cannot
    /// fail.
    ///
    /// # Examples
    ///
    /// ```
    /// use sitm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::snapshot();
    /// let a = TVar::new(2u64);
    /// let b = TVar::new(3u64);
    /// let product = stm.atomically(|tx| {
    ///     let a = tx.read(&a)?; // both reads: one consistent snapshot
    ///     let b = tx.read(&b)?;
    ///     Ok(a * b)
    /// });
    /// assert_eq!(product, 6);
    /// ```
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, var: &TVar<T>) -> Result<T, StmError> {
        // Serve self-reads straight from the write buffer: the value
        // never touched shared state, so it needs no read logging (the
        // write itself is validated at commit, which subsumes any
        // read-set check) and costs no validation work.
        if let Some(pending) = self.writes.get(&var.id()) {
            let value = pending
                .value
                .downcast_ref::<T>()
                .expect("buffered value type matches its TVar")
                .clone();
            if let Some(log) = &mut self.log {
                let observed = None; // served from the write buffer
                log.op(
                    OpKind::Read {
                        line: var.id(),
                        observed,
                    },
                    var.label(),
                );
            }
            return Ok(value);
        }
        if self.level == IsolationLevel::Serializable {
            self.read_log
                .entry(var.id())
                .or_insert_with(|| var.inner.clone() as Arc<dyn VarOps>);
        }
        let (value, ts) = match var.read_versioned_at(self.snapshot) {
            Ok(read) => read,
            Err(err) => {
                if let Some(log) = &mut self.log {
                    log.doom(err, var.id(), var.inner.newest_ts());
                }
                return Err(err.into());
            }
        };
        if let Some(log) = &mut self.log {
            let observed = Some(ts);
            log.op(
                OpKind::Read {
                    line: var.id(),
                    observed,
                },
                var.label(),
            );
        }
        Ok(value)
    }

    /// Buffers a write of `value` into `var`, visible to this
    /// transaction's subsequent reads and published atomically at
    /// commit.
    pub fn write<T: Clone + Send + Sync + 'static>(&mut self, var: &TVar<T>, value: T) {
        if let Some(log) = &mut self.log {
            log.op(OpKind::Write { line: var.id() }, var.label());
        }
        self.writes.insert(
            var.id(),
            PendingWrite {
                var: var.inner.clone() as Arc<dyn VarOps>,
                value: Box::new(value),
            },
        );
    }

    /// Promotes a read: the variable is validated at commit as if
    /// written, without creating a new version — the paper's write-skew
    /// remedy ("promoted reads are inserted into the write set to
    /// trigger an abort in the case of a write skew. However, a promoted
    /// read ... does not create new data versions").
    pub fn promote<T: Clone + Send + Sync + 'static>(&mut self, var: &TVar<T>) {
        if let Some(log) = &mut self.log {
            log.op(OpKind::Promote { line: var.id() }, var.label());
        }
        self.promoted
            .entry(var.id())
            .or_insert_with(|| var.inner.clone() as Arc<dyn VarOps>);
    }

    /// Whether the transaction has buffered writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Attempts to commit. Consumes the transaction.
    pub(crate) fn commit(mut self) -> Result<CommitReceipt, Conflict> {
        let result = self.commit_inner();
        if let Some(log) = &mut self.log {
            log.finish(match &result {
                Ok(receipt) => Ok(receipt.end),
                Err(conflict) => Err(conflict.label()),
            });
        }
        result
    }

    /// On success returns the commit receipt: the timestamp the writes
    /// were installed at (`None` for read-only / promotion-only
    /// commits, which publish nothing and take no clock tick) plus the
    /// epoch-GC accounting of the install pass.
    fn commit_inner(&mut self) -> Result<CommitReceipt, Conflict> {
        // Read-only transactions validate only explicit promotions: a
        // pure snapshot reader is consistent as-of its snapshot and
        // commits free of charge even under `Serializable` (it
        // serializes at its snapshot point).
        let read_only = self.writes.is_empty();
        let validate: Vec<(&u64, &Arc<dyn VarOps>)> = if read_only {
            self.promoted.iter().collect()
        } else {
            // Update transactions validate promotions plus (under
            // Serializable) the full read log.
            self.promoted.iter().chain(self.read_log.iter()).collect()
        };
        if read_only && validate.is_empty() {
            return Ok(CommitReceipt::UNPUBLISHED);
        }
        // Acquire the commit locks of exactly this transaction's write
        // + validation sets, in ascending var-id order (BTreeMap
        // iteration order), deduplicated. Disjoint transactions touch
        // disjoint locks; the guard releases everything on every exit
        // path, including panics.
        let mut lock_set: BTreeMap<u64, &Arc<dyn VarOps>> = BTreeMap::new();
        for (&id, w) in &self.writes {
            lock_set.insert(id, &w.var);
        }
        for &(&id, var) in &validate {
            lock_set.entry(id).or_insert(var);
        }
        let _locks = CommitLocks::acquire(lock_set.into_values());

        // Validation (first-committer-wins): written and
        // promoted/read-validated variables must not have versions
        // newer than the snapshot. Holding their locks pins their write
        // stamps, so a concurrent commit can neither slip a version in
        // under us nor observe ours until we release.
        for w in self.writes.values() {
            let newest = w.var.newest_ts();
            if newest > self.snapshot && !mutate_skip_fcw() {
                // First-committer-wins: the winner's install stamped
                // `newest`, which names it for forensics.
                if let Some(log) = &mut self.log {
                    log.doom(Conflict::WriteWrite, w.var.id(), newest);
                }
                return Err(Conflict::WriteWrite);
            }
        }
        for (id, var) in validate {
            if self.writes.contains_key(id) {
                continue; // already checked as a write
            }
            let newest = var.newest_ts();
            if newest > self.snapshot {
                if let Some(log) = &mut self.log {
                    log.doom(Conflict::ReadValidation, *id, newest);
                }
                return Err(Conflict::ReadValidation);
            }
        }
        if self.writes.is_empty() {
            // Promotion-only transaction: validation passed, nothing to
            // install.
            return Ok(CommitReceipt::UNPUBLISHED);
        }

        // Publish. The end timestamp comes from this thread's clock
        // shard, floored — while every commit lock is held — above
        // both the snapshot (so `end > begin` per transaction) and a
        // fold of all shards (`clock_now`). The fold is what makes the
        // installs atomically visible: no shard held a value >= `end`
        // before this thread's tick, so any snapshot that covers `end`
        // was folded after this point — i.e. after the locks were
        // acquired — and waits out the install on every written
        // variable (`wait_unlocked`). A snapshot therefore observes
        // this commit's whole write set or none of it, never a prefix
        // (DESIGN.md §14). Each install also trims versions the
        // live-snapshot watermark proves unreachable. (The watermark
        // cannot pass our own snapshot: this transaction is still
        // registered.)
        let floor = if mutate_unfloored_tick() {
            self.snapshot // the re-broken PR 7 variant: no all-shard fold
        } else {
            self.snapshot.max(epoch::clock_now())
        };
        let end = epoch::commit_tick(floor);
        let watermark = epoch::gc_watermark(end);
        let mut retired = 0;
        for (_, w) in std::mem::take(&mut self.writes) {
            retired += w.var.install(end, w.value, watermark);
        }
        Ok(CommitReceipt {
            end: Some(end),
            versions_retired: retired,
            watermark_lag: Some(end - watermark),
        })
    }
}

/// What a successful commit did, consumed by the runtime's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CommitReceipt {
    /// Commit timestamp of the installed writes, or `None` for
    /// read-only / promotion-only commits (which publish nothing and
    /// take no clock tick).
    pub(crate) end: Option<u64>,
    /// Versions reclaimed by epoch GC / capped eviction while
    /// installing this commit's writes.
    pub(crate) versions_retired: u64,
    /// Distance from the commit timestamp down to the GC watermark
    /// used for the install pass (`None` when nothing was installed) —
    /// the retention overhang a long-lived snapshot is currently
    /// imposing.
    pub(crate) watermark_lag: Option<u64>,
}

impl CommitReceipt {
    /// The receipt of a commit that published nothing.
    const UNPUBLISHED: CommitReceipt = CommitReceipt {
        end: None,
        versions_retired: 0,
        watermark_lag: None,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_own_write() {
        let var = TVar::new(1u32);
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        assert_eq!(tx.read(&var).unwrap(), 1);
        tx.write(&var, 2);
        assert_eq!(tx.read(&var).unwrap(), 2);
        tx.commit().unwrap();
        assert_eq!(var.load(), 2);
    }

    #[test]
    fn commit_end_covers_snapshots_issued_before_publish() {
        // Regression test for a torn-snapshot bug: begin a writer
        // early (while its own clock shard lags), advance a *different*
        // shard far ahead, then issue a snapshot. The writer's commit
        // must land above that snapshot — flooring the tick only at
        // the writer's own begin timestamp published an `end` below
        // the already-issued snapshot, so the installs became visible
        // inside a live reader's view mid-transaction.
        let var = TVar::new(0u32);
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        tx.write(&var, 1);

        let own_shard = epoch::thread_index() % epoch::SHARDS;
        let mut advanced = false;
        for _ in 0..64 {
            advanced = std::thread::spawn(move || {
                if epoch::thread_index() % epoch::SHARDS == own_shard {
                    return false; // same shard: ticking it would mask the bug
                }
                epoch::commit_tick(epoch::clock_now() + 1_000);
                true
            })
            .join()
            .expect("shard-advancing thread");
            if advanced {
                break;
            }
        }
        assert!(advanced, "no spawned thread landed on a foreign shard");

        let reader_snapshot = epoch::clock_now();
        tx.commit().unwrap();
        assert!(
            var.inner.newest_ts() > reader_snapshot,
            "a commit must never publish below an already-issued snapshot \
             (end {} <= snapshot {reader_snapshot})",
            var.inner.newest_ts()
        );
    }

    #[test]
    fn snapshot_ignores_later_commits() {
        let var = TVar::new(10u32);
        let mut reader = Tx::begin(IsolationLevel::Snapshot, None);
        assert_eq!(reader.read(&var).unwrap(), 10);
        // A writer commits in between.
        let mut writer = Tx::begin(IsolationLevel::Snapshot, None);
        writer.write(&var, 20);
        writer.commit().unwrap();
        // The reader still sees its snapshot.
        assert_eq!(reader.read(&var).unwrap(), 10);
        reader.commit().unwrap();
    }

    #[test]
    fn write_write_conflict_aborts_second() {
        let var = TVar::new(0u32);
        let mut a = Tx::begin(IsolationLevel::Snapshot, None);
        let mut b = Tx::begin(IsolationLevel::Snapshot, None);
        a.write(&var, 1);
        b.write(&var, 2);
        a.commit().unwrap();
        assert_eq!(b.commit(), Err(Conflict::WriteWrite));
        assert_eq!(var.load(), 1);
    }

    #[test]
    fn serializable_validates_reads() {
        let var = TVar::new(0u32);
        let other = TVar::new(0u32);
        let mut a = Tx::begin(IsolationLevel::Serializable, None);
        let _ = a.read(&var).unwrap();
        a.write(&other, 1);
        // Concurrent writer invalidates a's read.
        let mut w = Tx::begin(IsolationLevel::Snapshot, None);
        w.write(&var, 9);
        w.commit().unwrap();
        assert_eq!(a.commit(), Err(Conflict::ReadValidation));
    }

    #[test]
    fn snapshot_level_ignores_read_invalidations() {
        let var = TVar::new(0u32);
        let other = TVar::new(0u32);
        let mut a = Tx::begin(IsolationLevel::Snapshot, None);
        let _ = a.read(&var).unwrap();
        a.write(&other, 1);
        let mut w = Tx::begin(IsolationLevel::Snapshot, None);
        w.write(&var, 9);
        w.commit().unwrap();
        assert!(a.commit().is_ok());
    }

    #[test]
    fn promotion_turns_skew_into_conflict() {
        let var = TVar::new(0u32);
        let other = TVar::new(0u32);
        let mut a = Tx::begin(IsolationLevel::Snapshot, None);
        let _ = a.read(&var).unwrap();
        a.promote(&var);
        a.write(&other, 1);
        let mut w = Tx::begin(IsolationLevel::Snapshot, None);
        w.write(&var, 9);
        w.commit().unwrap();
        assert_eq!(a.commit(), Err(Conflict::ReadValidation));
        // The promoted read did not create a version.
        assert_eq!(var.load(), 9);
    }

    #[test]
    fn serializable_self_reads_skip_the_read_log() {
        let var = TVar::new(0u32);
        let mut tx = Tx::begin(IsolationLevel::Serializable, None);
        tx.write(&var, 5);
        // A read served from the write buffer must not inflate the
        // validation set.
        assert_eq!(tx.read(&var).unwrap(), 5);
        assert!(tx.read_log.is_empty(), "self-read logged nothing");
        tx.commit().unwrap();

        // A read that observed shared state *before* the write is
        // logged (and later subsumed by write validation).
        let other = TVar::new(0u32);
        let mut tx = Tx::begin(IsolationLevel::Serializable, None);
        let _ = tx.read(&other).unwrap();
        tx.write(&other, 1);
        assert_eq!(tx.read_log.len(), 1);
        tx.commit().unwrap();
    }

    #[test]
    fn commit_releases_every_lock_on_conflict() {
        let var = TVar::new(0u32);
        let other = TVar::new(0u32);
        let mut loser = Tx::begin(IsolationLevel::Snapshot, None);
        loser.write(&var, 1);
        loser.write(&other, 1);
        let mut winner = Tx::begin(IsolationLevel::Snapshot, None);
        winner.write(&var, 2);
        winner.commit().unwrap();
        assert_eq!(loser.commit(), Err(Conflict::WriteWrite));
        // Both variables must be unlocked again: a fresh disjoint
        // commit on each succeeds without blocking.
        for (v, val) in [(&var, 7u32), (&other, 8u32)] {
            let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
            tx.write(v, val);
            tx.commit().unwrap();
            assert_eq!(v.load(), val);
        }
    }

    #[test]
    fn read_only_commits_even_amid_conflicts() {
        let var = TVar::new(0u32);
        let mut reader = Tx::begin(IsolationLevel::Serializable, None);
        let _ = reader.read(&var).unwrap();
        let mut w = Tx::begin(IsolationLevel::Snapshot, None);
        w.write(&var, 1);
        w.commit().unwrap();
        // Read-only: commits without validation even under
        // Serializable (its snapshot is a consistent serialization
        // point).
        assert!(reader.is_read_only());
        let receipt = reader.commit().unwrap();
        assert_eq!(receipt.end, None, "read-only commits take no tick");
        assert_eq!(receipt.versions_retired, 0);
    }
}
