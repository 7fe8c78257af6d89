//! SSI-TM: serializable snapshot isolation (section 5.2 of the paper).
//!
//! SI permits the write-skew anomaly. The paper sketches a hardware
//! extension that makes SI-TM fully serializable by detecting *dangerous
//! situations*: a transaction that has both an **incoming** and an
//! **outgoing** read-write dependency is the potential pivot of a
//! dependency cycle and is aborted (safe, but may introduce false
//! positives). Crucially the dependencies are *type-based*, not temporal:
//! a transaction that only ever acts as the reader in its conflicts (like
//! the long scan of Figure 6) accumulates dependencies of a single kind
//! and commits, where conflict serializability would abort it.
//!
//! On top of the SI-TM machinery this model adds:
//!
//! * read-set tracking (SI proper needs none),
//! * a per-transaction *reader-conflict* flag (an outgoing
//!   rw-dependency), set when the transaction reads a line for which a
//!   newer committed version exists (it read old data that an
//!   overlapping transaction overwrote),
//! * a per-transaction *writer-conflict* flag (an incoming
//!   rw-dependency), set at commit when the write set intersects the
//!   read set of an active transaction, or of a transaction that
//!   committed during this transaction's lifetime,
//! * the abort rule: a transaction observed with both flags aborts
//!   ([`AbortCause::Order`]); the committer dooms conflicting active
//!   readers whose flags complete a dangerous structure.
//!
//! Because versioning is lazy, a transaction's rw-edges can keep
//! materialising *after* it commits: a later reader observes old data
//! the committed transaction overwrote (completing its incoming edge),
//! or a later committer overwrites data it read (completing its
//! outgoing edge). The committed-transaction window therefore retains
//! both flags alongside the read and write sets (the analogue of Cahill
//! et al.'s committed-pivot tracking), and the transaction whose action
//! completes a committed pivot's second flag aborts itself — it is too
//! late to abort the pivot.
//!
//! Write-write conflicts abort exactly as in SI-TM.

use sitm_mvm::{Addr, GlobalClock, LineAddr, MvmStore, ThreadId, Timestamp, Word};
use sitm_obs::{AbortDetail, ForensicCause};
use sitm_sim::{
    Abort, AbortCause, BeginOutcome, CommitOutcome, Cycles, MachineConfig, ReadOutcome, TmProtocol,
    Victim, Victims, WriteOutcome,
};

use crate::base::{LineSet, ProtocolBase, TouchedLines, WriteBuffer};

/// Per-transaction state.
#[derive(Debug, Default)]
struct SsiTx {
    start: Timestamp,
    writes: WriteBuffer,
    read_set: LineSet,
    touched: TouchedLines,
    /// This transaction read data an overlapping transaction overwrote
    /// (it is the reader of an rw-dependency).
    reader_conflict: bool,
    /// This transaction wrote data an overlapping transaction read (it
    /// is the writer of an rw-dependency).
    writer_conflict: bool,
}

/// Footprint and conflict flags of a recently committed transaction,
/// retained while active transactions overlap its lifetime: its rw-edges
/// can still be completed by later reads and commits (lazy versioning),
/// at which point a committed pivot can only be resolved by aborting the
/// transaction that completed the structure.
#[derive(Debug)]
struct CommittedTx {
    end: Timestamp,
    read_set: LineSet,
    write_set: LineSet,
    /// Incoming rw-dependency: someone read old data this transaction
    /// overwrote (its `writer_conflict` at commit, or marked later).
    in_conflict: bool,
    /// Outgoing rw-dependency: this transaction read old data someone
    /// overwrote (its `reader_conflict` at commit, or marked later).
    out_conflict: bool,
}

/// The serializable-SI protocol model. See the module docs above.
#[derive(Debug)]
pub struct SsiTm {
    base: ProtocolBase,
    clock: GlobalClock,
    txs: Vec<Option<SsiTx>>,
    /// Committed transactions still overlapping someone.
    committed_window: Vec<CommittedTx>,
}

impl SsiTm {
    /// Builds an SSI-TM model for machine `cfg`.
    pub fn new(machine: &MachineConfig) -> Self {
        SsiTm {
            base: ProtocolBase::new(MvmStore::new(), machine),
            clock: GlobalClock::new(machine.cores),
            txs: (0..machine.cores).map(|_| None).collect(),
            committed_window: Vec::new(),
        }
    }

    fn tx(&mut self, tid: ThreadId) -> &mut SsiTx {
        self.txs[tid.0]
            .as_mut()
            .expect("operation outside a transaction")
    }

    fn teardown(&mut self, tid: ThreadId) -> Option<SsiTx> {
        let tx = self.txs[tid.0].take()?;
        self.base.store.unregister_transaction(tid);
        self.base
            .mem
            .invalidate_own(tid.0, tx.touched.iter().copied());
        self.prune_committed_window();
        Some(tx)
    }

    /// Drops committed-transaction records that no active transaction
    /// overlaps any more.
    fn prune_committed_window(&mut self) {
        let oldest_active = self.base.store.active().oldest_start();
        match oldest_active {
            None => self.committed_window.clear(),
            Some(oldest) => self.committed_window.retain(|c| c.end > oldest),
        }
    }
}

impl TmProtocol for SsiTm {
    fn name(&self) -> &'static str {
        "SSI-TM"
    }

    fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
        debug_assert!(self.txs[tid.0].is_none(), "nested begin");
        let start = self
            .clock
            .begin()
            .expect("64-bit timestamp space exhausted");
        self.base.store.register_transaction(tid, start);
        self.txs[tid.0] = Some(SsiTx {
            start,
            ..SsiTx::default()
        });
        BeginOutcome::Started {
            cycles: self.base.begin_cost,
            victims: vec![],
            begin_ts: Some(start.0),
            epoch: self.clock.overflows(),
        }
    }

    fn read(&mut self, tid: ThreadId, addr: Addr) -> ReadOutcome {
        let line = addr.line();
        if let Some(value) = self.tx(tid).writes.get(addr) {
            let cycles = self.base.mem.l1_write(tid.0, line);
            return ReadOutcome::Ok {
                value,
                cycles,
                victims: vec![],
                observed: None,
            };
        }
        let start = self.tx(tid).start;
        // Word-granular snapshot read: the read-own-writes check above
        // returned `None` for this exact address, so no buffered write
        // can affect the word read and the full line image is never
        // needed.
        let (value, served_ts) = self
            .base
            .store
            .read_word_snapshot_ts(addr, start)
            .expect("default policy never discards reachable snapshots");
        // Reading old data that a later commit overwrote: this
        // transaction is the reader of an rw-dependency.
        let read_old = self.base.store.newer_than(line, start);
        let mut committed_pivot = false;
        if read_old {
            // The overlapping committed writers of the newer versions
            // gain an incoming rw-edge. One that committed already
            // carrying an outgoing edge becomes a complete pivot; the
            // only transaction left to abort is this reader.
            for c in &mut self.committed_window {
                if c.end > start && c.write_set.contains(&line) {
                    c.in_conflict = true;
                    if c.out_conflict {
                        committed_pivot = true;
                    }
                }
            }
        }
        let tx = self.tx(tid);
        tx.read_set.insert(line);
        tx.touched.insert(line);
        if read_old {
            tx.reader_conflict = true;
            if tx.writer_conflict || committed_pivot {
                // Dangerous structure: both flag kinds on one
                // transaction (this one, or a committed writer it read
                // around).
                let detail = Some(self.base.lost_to_newest(ForensicCause::SsiPivot, line));
                return ReadOutcome::Abort(Abort {
                    cause: AbortCause::Order,
                    cycles: self.rollback(tid),
                    victims: vec![],
                    detail,
                });
            }
        }
        let cycles = self.base.mem.mvm_access(tid.0, line);
        ReadOutcome::Ok {
            value,
            cycles,
            victims: vec![],
            observed: Some(served_ts.0),
        }
    }

    fn write(&mut self, tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome {
        let line = addr.line();
        let tx = self.tx(tid);
        tx.writes.insert(addr, value);
        tx.touched.insert(line);
        let cycles = self.base.mem.l1_write(tid.0, line);
        WriteOutcome::Ok {
            cycles,
            victims: vec![],
        }
    }

    fn promote(&mut self, tid: ThreadId, addr: Addr) -> WriteOutcome {
        // SSI already validates the read set through dangerous-structure
        // detection; a promotion is just a read-set membership.
        let line = addr.line();
        self.tx(tid).read_set.insert(line);
        WriteOutcome::Ok {
            cycles: 1,
            victims: vec![],
        }
    }

    fn commit(&mut self, tid: ThreadId, _now: Cycles) -> CommitOutcome {
        let read_only = self.txs[tid.0]
            .as_ref()
            .expect("commit outside transaction")
            .writes
            .is_empty();
        if read_only {
            // A read-only transaction cannot be a pivot under SI: it
            // installs nothing, so it never gains an incoming rw-edge.
            // Record its reads for writers that overlap it, then commit
            // free of charge.
            let end = self.clock.now();
            let tx = self.txs[tid.0].as_ref().unwrap();
            self.committed_window.push(CommittedTx {
                end,
                read_set: tx.read_set.clone(),
                write_set: LineSet::new(),
                in_conflict: false,
                out_conflict: tx.reader_conflict,
            });
            self.teardown(tid);
            return CommitOutcome::Committed {
                cycles: 0,
                victims: vec![],
                commit_ts: None,
            };
        }

        let end = self
            .clock
            .reserve_end()
            .expect("64-bit timestamp space exhausted");
        let start = self.txs[tid.0].as_ref().unwrap().start;
        let lines: Vec<LineAddr> = self.txs[tid.0].as_ref().unwrap().writes.lines().collect();
        let mut cycles: Cycles = 0;

        // Write-write validation, exactly as SI-TM.
        let mut ww_conflict: Option<LineAddr> = None;
        for &line in &lines {
            cycles += self.base.per_line_validate_cost;
            if self.base.store.newer_than(line, start) {
                ww_conflict = Some(line);
                break;
            }
        }
        if let Some(line) = ww_conflict {
            let detail = Some(self.base.lost_to_newest(ForensicCause::WriteWriteFcw, line));
            let rollback = self.rollback(tid);
            self.clock.finish_commit(end);
            return CommitOutcome::Abort(Abort {
                cause: AbortCause::WriteWrite,
                cycles: cycles + rollback,
                victims: vec![],
                detail,
            });
        }

        // Dangerous-structure detection. My write set against:
        // (a) active transactions' read sets,
        // (b) committed transactions that overlapped me.
        let mut writer_conflict = self.txs[tid.0].as_ref().unwrap().writer_conflict;
        // The line through which the dangerous structure materialised,
        // for abort forensics.
        let mut danger_line: Option<LineAddr> = None;
        let mut victims: Victims = vec![];
        for i in 0..self.txs.len() {
            if i == tid.0 {
                continue;
            }
            let Some(other) = self.txs[i].as_mut() else {
                continue;
            };
            if let Some(&overlap) = lines.iter().find(|l| other.read_set.contains(l)) {
                writer_conflict = true;
                danger_line.get_or_insert(overlap);
                // The active reader is now the reader of an
                // rw-dependency; if it is already a writer-conflict
                // party, it forms a dangerous structure and aborts.
                other.reader_conflict = true;
                if other.writer_conflict {
                    victims.push(Victim {
                        tid: ThreadId(i),
                        cause: AbortCause::Order,
                        detail: Some(AbortDetail {
                            cause: ForensicCause::SsiPivot,
                            line: Some(overlap.0),
                            winner_ts: Some(end.0),
                        }),
                    });
                }
            }
        }
        let mut committed_pivot = false;
        for c in &mut self.committed_window {
            // Overlap: the committed reader's lifetime intersected mine.
            if c.end > start {
                if let Some(&overlap) = lines.iter().find(|l| c.read_set.contains(l)) {
                    writer_conflict = true;
                    danger_line.get_or_insert(overlap);
                    // The committed reader gains an outgoing rw-edge. If it
                    // already carries an incoming one it is a complete
                    // pivot, and this commit is the only abortable party.
                    c.out_conflict = true;
                    if c.in_conflict {
                        committed_pivot = true;
                    }
                }
            }
        }
        let reader_conflict = self.txs[tid.0].as_ref().unwrap().reader_conflict;
        if (writer_conflict && reader_conflict) || committed_pivot {
            let rollback = self.rollback(tid);
            self.clock.finish_commit(end);
            return CommitOutcome::Abort(Abort {
                cause: AbortCause::Order,
                cycles: cycles + rollback,
                victims,
                detail: Some(AbortDetail {
                    cause: ForensicCause::SsiPivot,
                    line: danger_line.map(|l| l.0),
                    winner_ts: None,
                }),
            });
        }

        // Done reading: release the snapshot so the committer's own
        // start does not inhibit coalescing.
        self.base.store.unregister_transaction(tid);
        // Install, as SI-TM (default policy: unbounded aborts cannot
        // occur mid-install with the default cap unless snapshots pin
        // versions; handle the error by aborting).
        let mut installed = Vec::with_capacity(lines.len());
        for &line in &lines {
            let newest = self.base.store.read_line(line);
            let data = self.txs[tid.0]
                .as_ref()
                .unwrap()
                .writes
                .apply_to(line, newest);
            cycles += self.base.mem.writeback(tid.0, line);
            if self.base.store.install(line, end, data).is_err() {
                for &l in &installed {
                    self.base.store.remove_installed(l, end);
                }
                let detail = Some(
                    self.base
                        .lost_to_newest(ForensicCause::CapacityEviction, line),
                );
                let rollback = self.rollback(tid);
                self.clock.finish_commit(end);
                return CommitOutcome::Abort(Abort {
                    cause: AbortCause::VersionOverflow,
                    cycles: cycles + rollback,
                    victims,
                    detail,
                });
            }
            installed.push(line);
        }

        // Retain my footprint and flags while I overlap someone: later
        // reads and commits can still complete my rw-edges.
        let tx = self.txs[tid.0].as_ref().unwrap();
        self.committed_window.push(CommittedTx {
            end,
            read_set: tx.read_set.clone(),
            write_set: lines.iter().copied().collect(),
            in_conflict: writer_conflict,
            out_conflict: reader_conflict,
        });
        self.teardown(tid);
        self.clock.finish_commit(end);
        CommitOutcome::Committed {
            cycles,
            victims,
            commit_ts: Some(end.0),
        }
    }

    fn rollback(&mut self, tid: ThreadId) -> Cycles {
        match self.teardown(tid) {
            Some(tx) => self.base.rollback_cost + tx.writes.line_count() as Cycles,
            None => 0,
        }
    }

    fn store(&self) -> &MvmStore {
        &self.base.store
    }

    fn store_mut(&mut self) -> &mut MvmStore {
        &mut self.base.store
    }
}

impl sitm_obs::Observable for SsiTm {
    fn export_metrics(&self, reg: &mut sitm_obs::MetricsRegistry) {
        sitm_obs::Observable::export_metrics(&self.base.store, reg);
        reg.count("ssi_tm.clock.overflows", self.clock.overflows());
        reg.count(
            "ssi_tm.committed_window.retained",
            self.committed_window.len() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Begins, returning the snapshot timestamp.
    fn begin(p: &mut SsiTm, t: usize) -> Option<u64> {
        match p.begin(ThreadId(t)) {
            BeginOutcome::Started { begin_ts, .. } => begin_ts,
            other => panic!("begin failed: {other:?}"),
        }
    }

    fn read(p: &mut SsiTm, t: usize, a: Addr) -> Result<Word, AbortCause> {
        match p.read(ThreadId(t), a) {
            ReadOutcome::Ok { value, .. } => Ok(value),
            ReadOutcome::Abort(abort) => Err(abort.cause),
        }
    }

    fn write(p: &mut SsiTm, t: usize, a: Addr, v: Word) {
        match p.write(ThreadId(t), a, v) {
            WriteOutcome::Ok { .. } => {}
            other => panic!("write aborted: {other:?}"),
        }
    }

    fn commit(p: &mut SsiTm, t: usize) -> Result<Victims, AbortCause> {
        commit_full(p, t).map_err(|abort| abort.cause)
    }

    fn commit_full(p: &mut SsiTm, t: usize) -> Result<Victims, Abort> {
        match p.commit(ThreadId(t), 0) {
            CommitOutcome::Committed { victims, .. } => Ok(victims),
            CommitOutcome::Abort(abort) => Err(abort),
        }
    }

    /// The write-skew schedule of Listing 1: two withdrawals each read
    /// both balances and write disjoint ones. Plain SI commits both
    /// (violating the invariant); SSI-TM must abort one.
    #[test]
    fn write_skew_is_prevented() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let checking = p.store_mut().alloc_words(1); // own line
        let saving = p.store_mut().alloc_lines(1).word(0); // own line
        p.store_mut().write_word(checking, 60);
        p.store_mut().write_word(saving, 60);

        begin(&mut p, 0);
        begin(&mut p, 1);
        // Both check the invariant: checking + saving > 100.
        assert_eq!(read(&mut p, 0, checking).unwrap(), 60);
        assert_eq!(read(&mut p, 0, saving).unwrap(), 60);
        assert_eq!(read(&mut p, 1, checking).unwrap(), 60);
        assert_eq!(read(&mut p, 1, saving).unwrap(), 60);
        // Disjoint withdrawals of 100.
        write(&mut p, 0, checking, 0);
        write(&mut p, 1, saving, 0);

        let first = commit(&mut p, 0);
        let second = commit(&mut p, 1);
        let aborted = [first.clone(), second.clone()]
            .iter()
            .filter(|r| r.is_err())
            .count();
        assert!(
            aborted >= 1,
            "write skew must not commit on both sides: {first:?} {second:?}"
        );
        let total = p.store().read_word(checking) + p.store().read_word(saving);
        assert!(total >= 20, "invariant preserved, balance = {total}");
    }

    /// Figure 6: the long reader commits under SSI-TM (type-based
    /// dependencies), where CS aborts it.
    #[test]
    fn figure6_long_reader_commits() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let d = p.store_mut().alloc_lines(1).word(0);

        begin(&mut p, 0); // TX0: long reader
        begin(&mut p, 1); // TX1: writer
        assert_eq!(read(&mut p, 0, a).unwrap(), 0); // old A
        write(&mut p, 1, a, 1);
        write(&mut p, 1, d, 1);
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        // Reads D after TX1's commit — but from its snapshot (old D).
        // Both conflicts make TX0 a reader; never a writer. It commits.
        assert_eq!(read(&mut p, 0, d).unwrap(), 0, "snapshot-consistent D");
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
    }

    /// Plain read-write conflicts without a cycle commit on both sides.
    #[test]
    fn single_direction_conflicts_commit() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);

        begin(&mut p, 0);
        begin(&mut p, 1);
        assert_eq!(read(&mut p, 0, a).unwrap(), 0);
        write(&mut p, 1, a, 5);
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
    }

    /// Write-write conflicts still abort like SI.
    #[test]
    fn write_write_aborts() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        begin(&mut p, 1);
        write(&mut p, 0, a, 1);
        write(&mut p, 1, a, 2);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
        assert_eq!(commit(&mut p, 1), Err(AbortCause::WriteWrite));
    }

    /// A committed reader that overlapped the writer still triggers the
    /// writer-conflict flag (the committed-pivot case).
    #[test]
    fn committed_overlapping_reader_counts() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let b = p.store_mut().alloc_lines(1).word(0);
        p.store_mut().write_word(a, 1);
        p.store_mut().write_word(b, 1);

        // TX1 (the eventual pivot) starts first and reads b.
        begin(&mut p, 1);
        assert_eq!(read(&mut p, 1, b).unwrap(), 1);
        // TX0 reads a and b, then commits while TX1 is active.
        begin(&mut p, 0);
        assert_eq!(read(&mut p, 0, a).unwrap(), 1);
        assert_eq!(read(&mut p, 0, b).unwrap(), 1);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
        // A third transaction overwrites b and commits: TX1 becomes a
        // reader-conflict party.
        begin(&mut p, 0);
        write(&mut p, 0, b, 9);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
        let _ = read(&mut p, 1, b); // reads old b => reader flag
                                    // Now TX1 writes a — which committed TX0 (overlapping) read:
                                    // writer flag + reader flag = dangerous, abort.
        write(&mut p, 1, a, 5);
        assert_eq!(commit(&mut p, 1), Err(AbortCause::Order));
    }

    /// A pivot that committed with its incoming rw-edge set cannot be
    /// aborted any more when a later commit completes its outgoing
    /// edge; the completing committer must abort instead. (Found by
    /// `check_fuzz`: MVSG cycles escaped when the pivot's second edge
    /// materialised after its commit.)
    #[test]
    fn committed_pivot_dooms_later_committer() {
        let cfg = MachineConfig::with_cores(3);
        let mut p = SsiTm::new(&cfg);
        let x = p.store_mut().alloc_words(1);
        let y = p.store_mut().alloc_lines(1).word(0);

        begin(&mut p, 0); // TX0: active reader of x
        begin(&mut p, 1); // TX1: the pivot
        begin(&mut p, 2); // TX2: commits last, completes the pivot
        assert_eq!(read(&mut p, 0, x).unwrap(), 0);
        assert_eq!(read(&mut p, 1, y).unwrap(), 0);
        write(&mut p, 1, x, 7);
        // Pivot commits: TX0's read of x gives it the incoming edge;
        // with no outgoing edge yet it commits legitimately.
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        // TX2 overwrites y, which the committed pivot read: the pivot's
        // outgoing edge completes, so TX2 aborts.
        write(&mut p, 2, y, 9);
        assert_eq!(commit(&mut p, 2), Err(AbortCause::Order));
    }

    /// A pivot that committed with its outgoing rw-edge set is
    /// completed by a later snapshot read of data it overwrote; the
    /// reader must abort. (Found by `check_fuzz`, as above.)
    #[test]
    fn committed_pivot_dooms_later_reader() {
        let cfg = MachineConfig::with_cores(3);
        let mut p = SsiTm::new(&cfg);
        let x = p.store_mut().alloc_words(1);
        let y = p.store_mut().alloc_lines(1).word(0);

        begin(&mut p, 0); // TX0: the late reader of x
        begin(&mut p, 1); // TX1: the pivot
                          // TX2 overwrites y so the pivot's read of y is an outgoing
                          // rw-edge.
        begin(&mut p, 2);
        write(&mut p, 2, y, 3);
        assert_eq!(commit(&mut p, 2), Ok(vec![]));
        assert_eq!(read(&mut p, 1, y).unwrap(), 0, "snapshot-consistent y");
        write(&mut p, 1, x, 7);
        // Pivot commits with only the outgoing edge: legitimate.
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        // TX0's snapshot read of x observes data the committed pivot
        // overwrote: the pivot's incoming edge completes, the reader
        // aborts.
        assert_eq!(read(&mut p, 0, x), Err(AbortCause::Order));
    }

    /// Abort forensics: a write-write loser names the line and the
    /// winner's commit timestamp; a dangerous-structure abort is
    /// classified as an SSI pivot with the overlapping line.
    #[test]
    fn abort_details_classify_ww_and_pivot() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        let loser_start = begin(&mut p, 1).expect("a begin carries its snapshot timestamp");
        write(&mut p, 0, a, 1);
        write(&mut p, 1, a, 2);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
        let abort = commit_full(&mut p, 1).expect_err("second committer loses");
        assert_eq!(abort.cause, AbortCause::WriteWrite);
        let detail = abort.detail.expect("abort site hands over a detail");
        assert_eq!(detail.cause, ForensicCause::WriteWriteFcw);
        assert_eq!(detail.line, Some(a.line().0));
        assert!(detail.winner_ts.unwrap() > loser_start);

        // Write skew: the losing side's abort is an SSI pivot.
        let checking = p.store_mut().alloc_lines(1).word(0);
        let saving = p.store_mut().alloc_lines(1).word(0);
        begin(&mut p, 0);
        begin(&mut p, 1);
        let _ = read(&mut p, 0, checking);
        let _ = read(&mut p, 0, saving);
        let _ = read(&mut p, 1, checking);
        let _ = read(&mut p, 1, saving);
        write(&mut p, 0, checking, 1);
        write(&mut p, 1, saving, 1);
        let first = commit_full(&mut p, 0);
        let second = commit_full(&mut p, 1);
        let abort = first.err().or(second.err()).expect("one side loses");
        assert_eq!(abort.cause, AbortCause::Order);
        let detail = abort.detail.expect("abort site hands over a detail");
        assert_eq!(detail.cause, ForensicCause::SsiPivot);
        assert!(detail.line.is_some(), "pivot names the overlapping line");
    }

    /// Read-only transactions always commit, even amid conflicts.
    #[test]
    fn read_only_always_commits() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        assert_eq!(read(&mut p, 0, a).unwrap(), 0);
        begin(&mut p, 1);
        write(&mut p, 1, a, 1);
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        let _ = read(&mut p, 0, a);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
    }
}
