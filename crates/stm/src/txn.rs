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
//!    clock, install the new versions, and unlock. The write set is
//!    kept in lock order as it is built, so the lock pass walks it
//!    where it lies (merged with the validation set when there is
//!    one).
//!
//! Because validation and installation happen while holding the locks
//! of every variable involved, the commit point is atomic with respect
//! to conflicting commits, mirroring the paper's delta-reservation
//! argument without needing it — while transactions with disjoint
//! footprints proceed in parallel, sharing nothing but the commit
//! clock: one load at begin and one `fetch_add` under the commit locks
//! (`epoch::commit_tick`). Snapshot reads never take a commit lock (a
//! current read of an `i64`/`u64` variable takes no lock at all): they
//! only wait out a commit caught mid-install on the variable being read
//! (`VarInner::wait_unlocked`), which is the section 4.2
//! half-published-write-set race — a snapshot can only cover an
//! in-flight commit's end timestamp if it loaded the clock after that
//! commit's tick, which the commit takes while its locks are held (the
//! atomic-visibility argument of DESIGN.md §14).
//!
//! Every transaction also registers in the epoch registry for its
//! lifetime (the `epoch::SnapshotGuard` field of [`Tx`]): the
//! registry's watermark is what lets commits garbage-collect versions
//! no live snapshot can reach (DESIGN.md §14).

use std::collections::BTreeMap;
use std::sync::Arc;

use sitm_obs::{AbortDetail, ForensicCause, History, OpKind, TxnBuilder, TxnRecord};

use crate::epoch;
use crate::error::{Conflict, StmError};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::tvar::{lock_versions, TVar, Value, VarOps};

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
        let cause = match conflict {
            Conflict::WriteWrite => ForensicCause::WriteWriteFcw,
            Conflict::ReadValidation => ForensicCause::ReadValidation,
        };
        if let Some(open) = &mut self.open {
            open.detail(AbortDetail {
                cause,
                line: Some(var),
                winner_ts: Some(winner_ts),
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
    /// With no commit verdict, its cause is `explicit`.
    fn drop(&mut self) {
        self.finish(Err("explicit"));
    }
}

/// One entry of a transaction's write set: the written variable's id
/// (inline, so searching the set touches no other allocation), its
/// handle, and the buffered value — inline for an `i64`/`u64`, boxed
/// otherwise.
struct WriteEntry {
    id: u64,
    var: Arc<dyn VarOps>,
    value: Value,
}

/// A variable of a commit's lock set, with its id alongside.
type VarRef<'v> = (u64, &'v dyn VarOps);

/// Merges two id-ascending sequences into one. Where both hold an id,
/// `a`'s item is kept and `b`'s dropped.
fn merge_by_id<'v>(
    a: impl Iterator<Item = VarRef<'v>>,
    b: impl Iterator<Item = VarRef<'v>>,
) -> impl Iterator<Item = VarRef<'v>> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(&(x, _)), Some(&(y, _))) if y < x => b.next(),
        (Some(&(x, _)), Some(&(y, _))) if x == y => {
            b.next();
            a.next()
        }
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// The order a commit locks its variables in.
fn lock_order<'s>(
    writes: &'s [WriteEntry],
    validate: &'s [VarRef<'s>],
) -> impl Iterator<Item = VarRef<'s>> {
    merge_by_id(
        writes.iter().map(|w| (w.id, &*w.var)),
        validate.iter().copied(),
    )
}

/// RAII holder of a commit's per-variable locks. It borrows the
/// transaction's write set and validation set — both ascending by
/// `var_id` and disjoint, so their merge is the lock order — and
/// counts how many variables of that order it has locked; dropping it
/// releases exactly those (release order cannot deadlock), including
/// on validation failure and on panic, so a dying commit can never
/// strand a variable locked.
struct CommitLocks<'a> {
    writes: &'a mut [WriteEntry],
    validate: &'a [VarRef<'a>],
    locked: usize,
}

impl<'a> CommitLocks<'a> {
    /// Locks every written and validated variable in ascending id
    /// order (the global order that makes commits deadlock-free).
    fn acquire(writes: &'a mut [WriteEntry], validate: &'a [VarRef<'a>]) -> Self {
        let mut locks = CommitLocks {
            writes,
            validate,
            locked: 0,
        };
        let mut prev = None;
        for (id, var) in lock_order(locks.writes, locks.validate) {
            debug_assert!(
                prev.replace(id) < Some(id),
                "commit locks must be acquired in ascending id order"
            );
            var.lock_commit();
            locks.locked += 1;
        }
        locks
    }

    /// Installs every buffered write at `end`, trimming each chain
    /// against `watermark`; returns the number of versions reclaimed.
    fn install(&mut self, end: u64, watermark: u64) -> u64 {
        self.writes
            .iter_mut()
            .map(|w| w.var.install(end, &mut w.value, watermark))
            .sum()
    }
}

impl Drop for CommitLocks<'_> {
    fn drop(&mut self) {
        for (_, var) in lock_order(self.writes, self.validate).take(self.locked) {
            var.unlock_commit();
        }
    }
}

/// How strictly transactions are isolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Snapshot isolation: consistent snapshot reads, aborts only on
    /// write-write conflicts. Subject to the write-skew anomaly
    /// (section 5); pair with the `sitm_check::skew` tooling or selective
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

/// An in-flight transaction. Obtained from [`crate::Stm::atomically`]
/// or [`crate::Stm::begin`].
///
/// Reads go to the snapshot drawn at begin; writes are buffered in a
/// set kept sorted by variable id — an `i64` or `u64` inline, any other
/// value in one heap allocation — and published together at commit. A
/// `Snapshot`-level transaction that promotes nothing keeps no other
/// per-access state, and its commit locks exactly that set, in the
/// order it already lies in.
pub struct Tx {
    snapshot: u64,
    level: IsolationLevel,
    /// The write set: one entry per written variable, ascending by
    /// `var_id` — which makes it the commit's lock order as it stands.
    writes: Vec<WriteEntry>,
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

// A serve connection keeps its open `Tx` across requests, and the
// connection is handed from the accepting thread to a reactor thread:
// a write set that stopped being `Send` must fail to compile here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Tx>();
};

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

/// Whether the tick-before-locks mutation knob is on (model builds
/// only): the commit draws its end timestamp before it takes its commit
/// locks, so a snapshot can cover `end` while the write set is still
/// unlocked and read part of it before the installs.
fn mutate_tick_before_locks() -> bool {
    #[cfg(loom)]
    {
        crate::model_support::tick_before_locks()
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
                labels: Vec::new(),
            })
        });
        Tx {
            snapshot,
            level,
            writes: Vec::new(),
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
    /// None today: at both isolation levels a read returns `Ok`. Every
    /// `TVar` retains each version a live snapshot can reach (DESIGN.md
    /// §14), and serializable read-set validation runs at commit, not
    /// here. The `Result` stays so that bodies propagate reads with
    /// `?` unchanged, and so that a read may later abort early (for
    /// example a serializable reader that is already doomed) without
    /// changing this signature.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's version was reclaimed, which only a
    /// broken GC-watermark invariant can cause.
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
        if let Some(value) = self.buffered(var) {
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
        let (value, ts) = var.read_versioned_at(self.snapshot);
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
        let id = var.id();
        let value = Value::new(value);
        let entry = |value| WriteEntry {
            id,
            var: var.inner.clone(),
            value,
        };
        // Keep the set ascending by id: most bodies write in ascending
        // order anyway, so try the end first. A second write to one
        // variable replaces the first in place.
        if self.writes.last().is_none_or(|last| last.id < id) {
            self.writes.push(entry(value));
        } else {
            match self.writes.binary_search_by_key(&id, |w| w.id) {
                Ok(at) => self.writes[at].value = value,
                Err(at) => self.writes.insert(at, entry(value)),
            }
        }
    }

    /// A copy of this transaction's buffered value for `var`, if it
    /// wrote one.
    fn buffered<T: Clone + Send + Sync + 'static>(&self, var: &TVar<T>) -> Option<T> {
        let id = var.id();
        if self.writes.last().is_none_or(|last| last.id < id) {
            // Nothing written (every read of a read-only transaction),
            // or nothing this high.
            return None;
        }
        let at = self.writes.binary_search_by_key(&id, |w| w.id).ok()?;
        let value = self.writes[at].value.get();
        Some(value.expect("a variable id names one TVar<T>"))
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
        // serializes at its snapshot point). Update transactions
        // validate promotions plus (under `Serializable`) the full read
        // log. A written variable is validated as a write, so it is
        // left out here. Every `Snapshot`-level transaction that never
        // promoted gets the empty set, which allocates nothing.
        let read_only = self.writes.is_empty();
        let read_log = (!read_only).then_some(&self.read_log);
        let writes = &self.writes;
        let validate: Vec<VarRef<'_>> = merge_by_id(
            self.promoted.iter().map(|(&id, var)| (id, &**var)),
            read_log
                .into_iter()
                .flatten()
                .map(|(&id, var)| (id, &**var)),
        )
        .filter(|(id, _)| writes.binary_search_by_key(id, |w| w.id).is_err())
        .collect();
        if read_only && validate.is_empty() {
            return Ok(CommitReceipt::UNPUBLISHED);
        }
        // Only the tick-before-locks mutant ticks here (model builds).
        let early_tick = mutate_tick_before_locks().then(epoch::commit_tick);
        // Acquire the commit locks of exactly this transaction's write
        // + validation sets in ascending var-id order, in one pass over
        // the two sets where they lie. Disjoint transactions touch
        // disjoint locks; the guard releases everything on every exit
        // path, including panics.
        let mut locks = CommitLocks::acquire(&mut self.writes, &validate);

        // Validation (first-committer-wins): written and
        // promoted/read-validated variables must not have versions
        // newer than the snapshot. Holding their locks pins their write
        // stamps, so a concurrent commit can neither slip a version in
        // under us nor observe ours until we release.
        for w in locks.writes.iter() {
            let newest = w.var.newest_ts();
            if newest > self.snapshot && !mutate_skip_fcw() {
                // First-committer-wins: the winner's install stamped
                // `newest`, which names it for forensics.
                if let Some(log) = &mut self.log {
                    log.doom(Conflict::WriteWrite, w.id, newest);
                }
                return Err(Conflict::WriteWrite);
            }
        }
        for &(id, var) in &validate {
            let newest = var.newest_ts();
            if newest > self.snapshot {
                if let Some(log) = &mut self.log {
                    log.doom(Conflict::ReadValidation, id, newest);
                }
                return Err(Conflict::ReadValidation);
            }
        }
        if read_only {
            // Promotion-only transaction: validation passed, nothing to
            // install.
            return Ok(CommitReceipt::UNPUBLISHED);
        }

        // Publish. The end timestamp is ticked while every commit lock
        // is held, which is what makes the installs atomically visible:
        // the clock held no value >= `end` before this tick, so any
        // snapshot that covers `end` was loaded after the locks were
        // acquired and waits out the install on every written variable
        // (`wait_unlocked`). A snapshot therefore observes this
        // commit's whole write set or none of it, never a prefix
        // (DESIGN.md §14). Each install also trims versions the
        // live-snapshot watermark proves unreachable. (The watermark
        // cannot pass our own snapshot: this transaction is still
        // registered.)
        let end = early_tick.unwrap_or_else(epoch::commit_tick);
        let watermark = epoch::gc_watermark(end);
        let retired = locks.install(end, watermark);
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
    /// Versions reclaimed by epoch GC while installing this commit's
    /// writes.
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
        // A writer begins, then a foreign thread commits and a reader
        // takes a snapshot that covers that commit. The writer's end
        // must land above the reader's snapshot: an end derived from
        // the writer's own begin, or drawn before the foreign commit,
        // would publish below an already-issued snapshot, and the
        // installs would appear inside a live reader's view
        // mid-transaction.
        let var = TVar::new(0u32);
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        tx.write(&var, 1);

        let foreign = std::thread::spawn(|| {
            let other = TVar::new(0u32);
            let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
            tx.write(&other, 1);
            tx.commit().unwrap().end.expect("a writer takes a tick")
        })
        .join()
        .expect("foreign committer");

        let reader = Tx::begin(IsolationLevel::Snapshot, None);
        assert!(
            reader.snapshot() >= foreign,
            "the reader covers the foreign commit"
        );
        let end = tx.commit().unwrap().end.expect("a writer takes a tick");
        assert!(
            end > reader.snapshot(),
            "a commit must never publish below an already-issued snapshot \
             (end {end} <= snapshot {})",
            reader.snapshot()
        );
        assert_eq!(var.inner.newest_ts(), end);
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

    /// The ids of `tx`'s write set, in the order it holds them.
    fn write_ids(tx: &Tx) -> Vec<u64> {
        tx.writes.iter().map(|w| w.id).collect()
    }

    /// Every variable's commit lock is free: a fresh write to each
    /// commits without blocking.
    fn assert_unlocked(vars: &[TVar<u32>]) {
        for var in vars {
            let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
            tx.write(var, 77);
            tx.commit().unwrap();
        }
    }

    #[test]
    fn writes_in_any_order_lock_ascending_and_commit() {
        let vars: Vec<TVar<u32>> = (0..8).map(|_| TVar::new(0)).collect();
        let ascending: Vec<u64> = vars.iter().map(TVar::id).collect();
        // Descending, then a fixed shuffle; `CommitLocks::acquire`
        // asserts the order it locks in.
        for order in [[7, 6, 5, 4, 3, 2, 1, 0], [3, 7, 0, 5, 1, 6, 2, 4]] {
            let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
            for (n, &i) in order.iter().enumerate() {
                tx.write(&vars[i], n as u32 + 1);
            }
            assert_eq!(write_ids(&tx), ascending);
            tx.commit().unwrap();
            for (n, &i) in order.iter().enumerate() {
                assert_eq!(vars[i].load(), n as u32 + 1);
            }
        }
        assert_unlocked(&vars);
    }

    /// Writes `var` twice between writes to a lower and a higher
    /// variable: the set keeps one entry for it, a self-read sees the
    /// second value, and the commit installs one version.
    fn second_write_replaces_the_first<T>(first: T, second: T)
    where
        T: Clone + Send + Sync + PartialEq + std::fmt::Debug + 'static,
    {
        let low = TVar::new(first.clone());
        let var = TVar::new(first.clone());
        let high = TVar::new(first.clone());
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        tx.write(&high, first.clone());
        tx.write(&var, first.clone());
        tx.write(&low, first);
        tx.write(&var, second.clone());
        assert_eq!(write_ids(&tx), [low.id(), var.id(), high.id()]);
        assert_eq!(tx.read(&var).unwrap(), second);
        let before = var.version_count() as u64 + var.retired_total();
        tx.commit().unwrap();
        assert_eq!(var.load(), second);
        assert_eq!(
            var.version_count() as u64 + var.retired_total(),
            before + 1,
            "one version per written variable, however often it was written"
        );
    }

    #[test]
    fn a_second_write_replaces_the_first_and_installs_one_version() {
        // `u32` is buffered boxed, `i64` inline.
        second_write_replaces_the_first(1u32, 2);
        second_write_replaces_the_first(1i64, -2);
    }

    #[test]
    fn inline_writes_round_trip_the_word_extremes() {
        let signed = TVar::new(0i64);
        let unsigned = TVar::new(0u64);
        for (s, u) in [(i64::MIN, u64::MAX), (-1, 1), (i64::MAX, u64::MAX - 1)] {
            let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
            tx.write(&signed, s);
            tx.write(&unsigned, u);
            assert_eq!(
                (tx.read(&signed).unwrap(), tx.read(&unsigned).unwrap()),
                (s, u)
            );
            tx.commit().unwrap();
            assert_eq!((signed.load(), unsigned.load()), (s, u));
        }
    }

    #[test]
    fn inline_and_boxed_writes_share_one_lock_pass_and_one_timestamp() {
        let a = TVar::new(0i64);
        let b = TVar::new(0u64);
        let c = TVar::new(None::<i64>);
        let d = TVar::new(String::new());
        let ascending = vec![a.id(), b.id(), c.id(), d.id()];
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        // Descending: every write after the first is an insert.
        tx.write(&d, String::from("d"));
        tx.write(&c, Some(-3));
        tx.write(&b, u64::MAX);
        tx.write(&a, i64::MIN);
        assert_eq!(write_ids(&tx), ascending);
        assert_eq!(tx.read(&a).unwrap(), i64::MIN);
        assert_eq!(tx.read(&b).unwrap(), u64::MAX);
        assert_eq!(tx.read(&c).unwrap(), Some(-3));
        assert_eq!(tx.read(&d).unwrap(), "d");
        let end = tx.commit().unwrap().end.expect("a writer takes a tick");
        assert_eq!(
            [
                a.inner.newest_ts(),
                b.inner.newest_ts(),
                c.inner.newest_ts(),
                d.inner.newest_ts()
            ],
            [end; 4]
        );
        assert_eq!(
            (a.load(), b.load(), c.load(), d.load()),
            (i64::MIN, u64::MAX, Some(-3), String::from("d"))
        );
    }

    #[test]
    fn a_tx_with_inline_writes_commits_on_another_thread() {
        let (a, b) = (TVar::new(10i64), TVar::new(10i64));
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        tx.write(&a, 9);
        tx.write(&b, 11);
        let end = std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(tx.read(&a).unwrap() + tx.read(&b).unwrap(), 20);
                tx.commit().unwrap().end
            })
            .join()
            .expect("committing thread")
        });
        assert!(end.is_some());
        assert_eq!((a.load(), b.load()), (9, 11));
    }

    #[test]
    fn a_64_variable_commit_installs_at_one_timestamp() {
        let vars: Vec<TVar<u32>> = (0..64).map(|_| TVar::new(0)).collect();
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        // Odd indices descending, then even ascending: neither end of
        // the set is always the insertion point.
        for i in (1..64).step_by(2).rev().chain((0..64).step_by(2)) {
            tx.write(&vars[i], i as u32 + 1);
        }
        let end = tx.commit().unwrap().end.expect("a writer takes a tick");
        for (i, var) in vars.iter().enumerate() {
            assert_eq!(var.load(), i as u32 + 1);
            assert_eq!(var.inner.newest_ts(), end);
        }
        assert_unlocked(&vars);
    }

    #[test]
    fn a_promotion_between_two_writes_is_locked_in_merged_order() {
        let vars: Vec<TVar<u32>> = (0..3).map(|_| TVar::new(0)).collect();
        let [low, mid, high] = [&vars[0], &vars[1], &vars[2]];
        // Unchallenged, the merged lock pass commits and releases all
        // three.
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        tx.write(high, 1);
        tx.promote(mid);
        tx.write(low, 1);
        tx.commit().unwrap();
        assert_eq!(mid.load(), 0, "a promotion installs nothing");
        assert_unlocked(&vars);

        // A competitor that commits the promoted variable first wins.
        let mut tx = Tx::begin(IsolationLevel::Snapshot, None);
        let _ = tx.read(mid).unwrap();
        tx.promote(mid);
        tx.write(high, 2);
        tx.write(low, 2);
        let mut competitor = Tx::begin(IsolationLevel::Snapshot, None);
        competitor.write(mid, 9);
        competitor.commit().unwrap();
        assert_eq!(tx.commit(), Err(Conflict::ReadValidation));
        assert_eq!((low.load(), mid.load(), high.load()), (77, 9, 77));
        assert_unlocked(&vars);
    }

    #[test]
    fn opposite_write_orders_never_deadlock() {
        let stm = crate::Stm::snapshot();
        let (x, y) = (TVar::new(0u64), TVar::new(0u64));
        const ROUNDS: u64 = 10_000;
        std::thread::scope(|s| {
            for flip in [false, true] {
                let (stm, x, y) = (&stm, &x, &y);
                s.spawn(move || {
                    let (first, second) = if flip { (y, x) } else { (x, y) };
                    for _ in 0..ROUNDS {
                        stm.atomically(|tx| {
                            let a = tx.read(first)?;
                            tx.write(first, a + 1);
                            let b = tx.read(second)?;
                            tx.write(second, b + 1);
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!((x.load(), y.load()), (2 * ROUNDS, 2 * ROUNDS));
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
