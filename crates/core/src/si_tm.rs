//! SI-TM: the snapshot-isolation transactional memory protocol
//! (section 4 of the paper).
//!
//! Four properties distinguish SI-TM from conventional HTM:
//!
//! 1. transactions commit *in the presence of read-write conflicts* —
//!    only write-write conflicts abort;
//! 2. read-only transactions are guaranteed to commit (and do so with
//!    zero overhead: no end timestamp, no checks);
//! 3. conflict detection is lazy and timestamp-based: a committing
//!    transaction compares its write set against the state of main
//!    memory (the version lists) instead of broadcasting to other cores;
//! 4. transactions are unbounded: uncommitted lines evicted from the
//!    private caches spill into the multiversioned memory as *transient*
//!    versions instead of aborting.
//!
//! The transactional actions map onto the paper's section 4.2:
//!
//! * `TM_BEGIN` — obtain a unique start timestamp (atomic increment);
//! * `TM_READ` — serve the most current version older than the start
//!   timestamp from the MVM; no read-set tracking, readers are invisible;
//! * `TM_WRITE` — insert the address into the write set and buffer the
//!   data in the L1; spill to a transient MVM version on overflow;
//! * `TM_COMMIT` — obtain an end timestamp (`current + delta` with the
//!   counter advancing by one, so commits are isolated from concurrent
//!   starters), then for each written line check that no newer version
//!   exists; install new versions on success, remove them and roll back
//!   on a write-write conflict.
//!
//! SSI-TM (section 5.2) is this protocol with a [`PivotTracker`]
//! attached; see [`crate::SsiTm`].

use sitm_mvm::{Addr, GlobalClock, LineAddr, MvmConfig, MvmStore, ThreadId, Timestamp, Word};
use sitm_obs::{AbortDetail, ForensicCause, MetricsRegistry};
use sitm_sim::{
    Abort, AbortCause, BeginOutcome, CommitOutcome, Cycles, MachineConfig, ReadOutcome, TmProtocol,
    Victim, Victims, WriteOutcome,
};

use crate::base::{LineSet, ProtocolBase, TouchedLines, WriteBuffer};
use crate::ssi_tm::PivotTracker;

/// Tuning knobs of the SI-TM model.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiTmConfig {
    /// Perform write-write conflict detection at word rather than line
    /// granularity, eliminating false-sharing and silent-store conflicts
    /// (the section 4.2 optimization). The paper's evaluation keeps this
    /// *off* so all three systems compare at line granularity.
    pub word_granularity: bool,
    /// Configuration of the multiversioned memory (version cap, overflow
    /// policy, coalescing).
    pub mvm: MvmConfig,
    /// Usable timestamp space (for overflow failure injection); `None`
    /// uses the full 64-bit space.
    pub timestamp_limit: Option<u64>,
}

/// A clock-overflow abort-all has no conflicting line and no winner.
const CLOCK_OVERFLOW: AbortDetail = AbortDetail {
    cause: ForensicCause::Explicit,
    line: None,
    winner_ts: None,
};

/// Per-transaction state.
#[derive(Debug, Default)]
struct SiTx {
    start: Timestamp,
    writes: WriteBuffer,
    /// Lines fetched transactionally into the private caches; flash
    /// invalidated at transaction end so later transactions refetch
    /// current state.
    touched: TouchedLines,
    /// Lines spilled to the MVM as transient versions.
    spilled: LineSet,
    /// Promoted reads: validated like writes at commit, but no version
    /// is created (the section 5.1 write-skew remedy).
    promoted: LineSet,
}

/// The SI-TM protocol model. See the module docs above for semantics.
#[derive(Debug)]
pub struct SiTm {
    base: ProtocolBase,
    clock: GlobalClock,
    cfg: SiTmConfig,
    txs: Vec<Option<SiTx>>,
    /// L1-sized threshold above which written lines spill as transients
    /// (cost modeling only; never an abort).
    spill_threshold: usize,
    /// SSI-TM's rw-edge tracker; `None` for plain SI-TM.
    pivots: Option<PivotTracker>,
}

impl SiTm {
    /// Builds an SI-TM model for machine `cfg` with default protocol
    /// configuration.
    pub fn new(machine: &MachineConfig) -> Self {
        Self::with_config(machine, SiTmConfig::default())
    }

    /// Builds an SI-TM model with explicit protocol configuration.
    pub fn with_config(machine: &MachineConfig, cfg: SiTmConfig) -> Self {
        let clock = match cfg.timestamp_limit {
            // Scale the reservation window down with tiny (failure
            // injection) timestamp spaces so commits remain possible.
            Some(limit) => GlobalClock::with_limit(
                machine.cores,
                limit,
                sitm_mvm::DEFAULT_DELTA.min((limit / 4).max(1)),
            ),
            None => GlobalClock::new(machine.cores),
        };
        SiTm {
            base: ProtocolBase::new(MvmStore::with_config(cfg.mvm), machine),
            clock,
            cfg,
            txs: (0..machine.cores).map(|_| None).collect(),
            spill_threshold: machine.version_buffer_lines(),
            pivots: None,
        }
    }

    /// Builds SI-TM with a pivot tracker attached: the SSI-TM protocol.
    pub(crate) fn with_pivot_tracker(machine: &MachineConfig, cfg: SiTmConfig) -> Self {
        SiTm {
            pivots: Some(PivotTracker::new(machine.cores)),
            ..Self::with_config(machine, cfg)
        }
    }

    /// The global clock (diagnostics: overflow count, current value).
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    fn tx(&mut self, tid: ThreadId) -> &mut SiTx {
        self.txs[tid.0]
            .as_mut()
            .expect("operation outside a transaction")
    }

    /// Ends `tid`'s transaction: unregister its snapshot, flash
    /// invalidate its transactionally marked lines, drop transients. A
    /// transaction that committed passes its serialization point as
    /// `commit_ts`, and the pivot tracker keeps its rw-edges.
    fn teardown(&mut self, tid: ThreadId, commit_ts: Option<Timestamp>) -> Option<SiTx> {
        let tx = self.txs[tid.0].take()?;
        self.base.store.unregister_transaction(tid);
        for &line in &tx.spilled {
            self.base.store.take_transient(tid, line);
        }
        self.base
            .mem
            .invalidate_own(tid.0, tx.touched.iter().copied());
        if let Some(pivots) = &mut self.pivots {
            let committed = commit_ts.map(|end| (end, tx.writes.lines().collect()));
            pivots.end(tid, committed, self.base.store.active().oldest_start());
        }
        Some(tx)
    }

    /// Self-abort over a conflict on `line`, `spent` cycles into the
    /// operation: rolls back and hands the engine the record, naming the
    /// newest committed version of the line as the winner. The
    /// line-conflict causes (write-write, version overflow) classify
    /// exactly as the generic mapping does; the one ordering abort is a
    /// read that completes a committed pivot.
    fn abort_on(
        &mut self,
        tid: ThreadId,
        cause: AbortCause,
        line: LineAddr,
        spent: Cycles,
    ) -> Abort {
        let forensic = match cause {
            AbortCause::Order => ForensicCause::SsiPivot,
            _ => cause.fallback_forensic(),
        };
        let detail = self.base.lost_to_newest(forensic, line);
        Abort {
            cause,
            cycles: spent + self.rollback(tid),
            victims: vec![],
            detail: Some(detail),
        }
    }

    /// Abort-all after a clock overflow: doom every other in-flight
    /// transaction and reset the clock.
    fn overflow_reset(&mut self, tid: ThreadId) -> Victims {
        let victims: Victims = self
            .txs
            .iter()
            .enumerate()
            .filter(|(i, tx)| *i != tid.0 && tx.is_some())
            .map(|(i, _)| Victim {
                tid: ThreadId(i),
                cause: AbortCause::ClockOverflow,
                detail: Some(CLOCK_OVERFLOW),
            })
            .collect();
        // The interrupt handler aborts every active transaction, clears
        // their registrations and transient versions, re-bases committed
        // state to the epoch, and resets the clock.
        for victim in victims.iter().map(|v| v.tid) {
            self.teardown(victim, None)
                .expect("victim has a transaction");
            // Re-arm the slot so the engine's rollback call (which dooms
            // the victim later) still finds state to discard idempotently.
            self.txs[victim.0] = Some(SiTx {
                start: Timestamp::ZERO,
                ..SiTx::default()
            });
        }
        if let Some(tx) = self.txs[tid.0].take() {
            self.base.store.unregister_transaction(tid);
            for &line in &tx.spilled {
                self.base.store.take_transient(tid, line);
            }
        }
        // Every transaction is doomed and timestamps restart, so the
        // tracker's pre-reset commit timestamps would compare as later
        // than every new snapshot: its rw-edges go with the epoch.
        if let Some(pivots) = &mut self.pivots {
            *pivots = PivotTracker::new(self.txs.len());
        }
        self.base.store.flatten_all();
        self.clock.reset_after_overflow();
        victims
    }

    /// Exports the store counters and this protocol's own under `ns`.
    pub(crate) fn export_metrics_as(&self, ns: &str, reg: &mut MetricsRegistry) {
        sitm_obs::Observable::export_metrics(&self.base.store, reg);
        reg.count(&format!("{ns}.clock.overflows"), self.clock.overflows());
        reg.count(&format!("{ns}.clock.now"), self.clock.now().0);
        reg.count(
            &format!("{ns}.clock.pending_commits"),
            self.clock.pending_commits() as u64,
        );
        if let Some(pivots) = &self.pivots {
            reg.count(
                &format!("{ns}.committed_window.retained"),
                pivots.retained() as u64,
            );
        }
    }
}

impl TmProtocol for SiTm {
    fn name(&self) -> &'static str {
        "SI-TM"
    }

    fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
        debug_assert!(self.txs[tid.0].is_none(), "nested begin");
        let (start, cycles, victims) = match self.clock.begin() {
            Ok(start) => (start, self.base.begin_cost, vec![]),
            Err(sitm_mvm::BeginError::Stall(_)) => {
                return BeginOutcome::Stall {
                    cycles: self.base.begin_cost * 4,
                }
            }
            Err(sitm_mvm::BeginError::Overflow(_)) => {
                // Interrupt: abort all active transactions, reset, retry.
                let victims = self.overflow_reset(tid);
                let start = self
                    .clock
                    .begin()
                    .expect("clock usable immediately after reset");
                (start, self.base.begin_cost * 10, victims)
            }
        };
        self.base.store.register_transaction(tid, start);
        self.txs[tid.0] = Some(SiTx {
            start,
            ..SiTx::default()
        });
        BeginOutcome::Started {
            cycles,
            victims,
            begin_ts: Some(start.0),
            epoch: self.clock.overflows(),
        }
    }

    fn read(&mut self, tid: ThreadId, addr: Addr) -> ReadOutcome {
        let line = addr.line();
        // Read-own-writes from the buffer first.
        if let Some(value) = self.tx(tid).writes.get(addr) {
            let cycles = self.base.mem.l1_write(tid.0, line); // L1 hit cost
            return ReadOutcome::Ok {
                value,
                cycles,
                victims: vec![],
                observed: None,
            };
        }
        let start = self.tx(tid).start;
        // Word-granular snapshot read: the read-own-writes check above
        // already returned `None` for this exact address, so no buffered
        // write can affect the word read and the full line image is
        // never needed.
        let Some((value, ts)) = self.base.store.read_word_snapshot_ts(addr, start) else {
            // The snapshot's version was discarded (discard-oldest
            // policy): the reader aborts.
            return ReadOutcome::Abort(self.abort_on(tid, AbortCause::VersionOverflow, line, 0));
        };
        self.tx(tid).touched.insert(line);
        if let Some(pivots) = &mut self.pivots {
            let overwritten = self.base.store.newer_than(line, start);
            if pivots.read(tid, line, start, overwritten) {
                return ReadOutcome::Abort(self.abort_on(tid, AbortCause::Order, line, 0));
            }
        }
        let cycles = self.base.mem.mvm_access(tid.0, line);
        ReadOutcome::Ok {
            value,
            cycles,
            victims: vec![],
            observed: Some(ts.0),
        }
    }

    fn write(&mut self, tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome {
        let line = addr.line();
        let spill_threshold = self.spill_threshold;
        let tx = self.tx(tid);
        tx.writes.insert(addr, value);
        tx.touched.insert(line);
        let mut cycles = self.base.mem.l1_write(tid.0, line);
        // Version-buffer overflow never aborts SI-TM: the line spills to
        // the MVM as a transient version owned by this thread.
        let needs_spill = self.txs[tid.0].as_ref().unwrap().writes.line_count() > spill_threshold
            && !self.txs[tid.0].as_ref().unwrap().spilled.contains(&line);
        if needs_spill {
            let tx = self.txs[tid.0].as_ref().unwrap();
            let start = tx.start;
            let base_data = self
                .base
                .store
                .read_snapshot(line, start)
                .map(|s| s.data)
                .unwrap_or(sitm_mvm::ZERO_LINE);
            let data = self.txs[tid.0]
                .as_ref()
                .unwrap()
                .writes
                .apply_to(line, base_data);
            self.base.store.put_transient(tid, line, data);
            self.txs[tid.0].as_mut().unwrap().spilled.insert(line);
            cycles += self.base.mem.writeback(tid.0, line);
        }
        WriteOutcome::Ok {
            cycles,
            victims: vec![],
        }
    }

    fn promote(&mut self, tid: ThreadId, addr: Addr) -> WriteOutcome {
        let line = addr.line();
        match &mut self.pivots {
            // SSI validates every read through pivot detection, so a
            // promotion is only a read-set membership: it bypasses the
            // `promoted` set and its commit-time validation.
            Some(pivots) => pivots.promote(tid, line),
            None => {
                self.tx(tid).promoted.insert(line);
            }
        }
        WriteOutcome::Ok {
            cycles: 1,
            victims: vec![],
        }
    }

    fn commit(&mut self, tid: ThreadId, _now: Cycles) -> CommitOutcome {
        // Read-only transactions (no writes, no promotions) commit with
        // zero overhead: no end timestamp, no checks.
        {
            let tx = self.txs[tid.0]
                .as_ref()
                .expect("commit outside transaction");
            if tx.writes.is_empty() && tx.promoted.is_empty() {
                self.teardown(tid, Some(self.clock.now()));
                return CommitOutcome::Committed {
                    cycles: 0,
                    victims: vec![],
                    commit_ts: None,
                };
            }
        }
        // Promotion-only transactions validate but install nothing.
        if self.txs[tid.0].as_ref().unwrap().writes.is_empty() {
            let tx = self.txs[tid.0].as_ref().unwrap();
            let start = tx.start;
            let promoted: Vec<LineAddr> = tx.promoted.iter().copied().collect();
            let mut cycles = 0;
            for &line in &promoted {
                cycles += self.base.per_line_validate_cost;
                if self.base.store.newer_than(line, start) {
                    return CommitOutcome::Abort(self.abort_on(
                        tid,
                        AbortCause::WriteWrite,
                        line,
                        cycles,
                    ));
                }
            }
            self.teardown(tid, Some(self.clock.now()));
            return CommitOutcome::Committed {
                cycles,
                victims: vec![],
                commit_ts: None,
            };
        }

        let end = match self.clock.reserve_end() {
            Ok(end) => end,
            Err(_) => {
                // Clock overflow during commit: abort everything.
                let victims = self.overflow_reset(tid);
                let cycles = self.rollback(tid);
                return CommitOutcome::Abort(Abort {
                    cause: AbortCause::ClockOverflow,
                    cycles,
                    victims,
                    detail: Some(CLOCK_OVERFLOW),
                });
            }
        };

        let tx = self.txs[tid.0].as_ref().unwrap();
        let start = tx.start;
        let lines: Vec<LineAddr> = tx.writes.lines().collect();
        // Promoted lines participate in validation (but not install).
        let mut validate_lines = lines.clone();
        validate_lines.extend(
            tx.promoted
                .iter()
                .copied()
                .filter(|l| !tx.writes.touches_line(*l)),
        );
        let mut cycles: Cycles = 0;

        // Timestamp-based write-write validation: a single comparison
        // against the version list per written (or promoted) line.
        let mut conflict: Option<LineAddr> = None;
        for &line in &validate_lines {
            cycles += self.base.per_line_validate_cost;
            if self.base.store.newer_than(line, start) {
                if self.cfg.word_granularity {
                    // Compare at word granularity to dismiss false
                    // sharing and silent stores: the conflict is real
                    // only if the newer committed version changed a word
                    // this transaction wrote to a different value.
                    let newest = self.base.store.read_line(line);
                    let snap = self
                        .base
                        .store
                        .read_snapshot(line, start)
                        .map(|s| s.data)
                        .unwrap_or(sitm_mvm::ZERO_LINE);
                    let tx = self.txs[tid.0].as_ref().unwrap();
                    let real = tx.writes.words_in(line).any(|(a, v)| {
                        newest[a.offset()] != snap[a.offset()] && newest[a.offset()] != v
                    });
                    if real {
                        conflict = Some(line);
                        break;
                    }
                } else {
                    conflict = Some(line);
                    break;
                }
            }
        }

        if let Some(line) = conflict {
            let abort = self.abort_on(tid, AbortCause::WriteWrite, line, cycles);
            self.clock.finish_commit(end);
            return CommitOutcome::Abort(abort);
        }
        // Under SSI, installing would complete a pivot: the committer is
        // the only party of the dangerous structure still abortable.
        let pivot = self
            .pivots
            .as_mut()
            .and_then(|p| p.validate(tid, start, &lines).err());
        if let Some(line) = pivot {
            let cycles = cycles + self.rollback(tid);
            self.clock.finish_commit(end);
            return CommitOutcome::Abort(Abort {
                cause: AbortCause::Order,
                cycles,
                victims: vec![],
                detail: Some(AbortDetail {
                    cause: ForensicCause::SsiPivot,
                    line: Some(line.0),
                    winner_ts: None,
                }),
            });
        }

        // The transaction is done reading: release its snapshot before
        // installing so its own start timestamp does not inhibit
        // coalescing (figure 4: TX1's start at TS 2 does not keep the
        // TS-1 version alive through its own commit at TS 3).
        self.base.store.unregister_transaction(tid);
        // Install new versions. A version overflow mid-install removes
        // the versions already created and aborts.
        let mut installed: Vec<LineAddr> = Vec::with_capacity(lines.len());
        let mut overflow: Option<LineAddr> = None;
        for &line in &lines {
            // Merge onto the newest committed image. Under line
            // granularity validation guarantees it equals the snapshot;
            // under word granularity a newer version touching disjoint
            // words may exist, and its words must be preserved.
            let newest = self.base.store.read_line(line);
            let data = self.txs[tid.0]
                .as_ref()
                .unwrap()
                .writes
                .apply_to(line, newest);
            cycles += self.base.mem.writeback(tid.0, line);
            match self.base.store.install(line, end, data) {
                Ok(()) => installed.push(line),
                Err(_) => {
                    overflow = Some(line);
                    break;
                }
            }
        }
        if let Some(line) = overflow {
            for line in installed {
                self.base.store.remove_installed(line, end);
            }
            let abort = self.abort_on(tid, AbortCause::VersionOverflow, line, cycles);
            self.clock.finish_commit(end);
            return CommitOutcome::Abort(abort);
        }

        self.teardown(tid, Some(end));
        self.clock.finish_commit(end);
        CommitOutcome::Committed {
            cycles,
            victims: vec![],
            commit_ts: Some(end.0),
        }
    }

    fn rollback(&mut self, tid: ThreadId) -> Cycles {
        match self.teardown(tid, None) {
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

impl sitm_obs::Observable for SiTm {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.export_metrics_as("si_tm", reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_mvm::OverflowPolicy;

    fn machine(cores: usize) -> MachineConfig {
        MachineConfig::with_cores(cores)
    }

    /// Begins, returning the snapshot timestamp.
    fn begin(p: &mut SiTm, t: usize) -> Option<u64> {
        match p.begin(ThreadId(t)) {
            BeginOutcome::Started { begin_ts, .. } => begin_ts,
            other => panic!("begin failed: {other:?}"),
        }
    }

    fn read(p: &mut SiTm, t: usize, a: Addr) -> Word {
        match p.read(ThreadId(t), a) {
            ReadOutcome::Ok { value, .. } => value,
            other => panic!("read aborted: {other:?}"),
        }
    }

    fn write(p: &mut SiTm, t: usize, a: Addr, v: Word) {
        match p.write(ThreadId(t), a, v) {
            WriteOutcome::Ok { .. } => {}
            other => panic!("write aborted: {other:?}"),
        }
    }

    /// Commits, returning the commit timestamp.
    fn commit_ok(p: &mut SiTm, t: usize) -> Option<u64> {
        match p.commit(ThreadId(t), 0) {
            CommitOutcome::Committed { commit_ts, .. } => commit_ts,
            other => panic!("commit failed: {other:?}"),
        }
    }

    fn commit_abort(p: &mut SiTm, t: usize) -> Abort {
        match p.commit(ThreadId(t), 0) {
            CommitOutcome::Abort(abort) => abort,
            other => panic!("commit unexpectedly succeeded: {other:?}"),
        }
    }

    fn commit_err(p: &mut SiTm, t: usize) -> AbortCause {
        commit_abort(p, t).cause
    }

    #[test]
    fn read_write_conflicts_do_not_abort() {
        let mut p = SiTm::new(&machine(2));
        let a = p.store_mut().alloc_words(1);
        p.store_mut().write_word(a, 1);

        begin(&mut p, 0); // reader
        begin(&mut p, 1); // writer
        assert_eq!(read(&mut p, 0, a), 1);
        write(&mut p, 1, a, 2);
        commit_ok(&mut p, 1); // writer commits despite the overlap
                              // The reader still sees its snapshot and commits read-only.
        assert_eq!(read(&mut p, 0, a), 1);
        commit_ok(&mut p, 0);
        assert_eq!(p.store().read_word(a), 2);
    }

    #[test]
    fn write_write_conflict_aborts_second_committer() {
        let mut p = SiTm::new(&machine(2));
        let a = p.store_mut().alloc_words(1);

        begin(&mut p, 0);
        begin(&mut p, 1);
        write(&mut p, 0, a, 10);
        write(&mut p, 1, a, 20);
        commit_ok(&mut p, 0);
        assert_eq!(commit_err(&mut p, 1), AbortCause::WriteWrite);
        assert_eq!(p.store().read_word(a), 10, "loser's write discarded");
    }

    #[test]
    fn non_overlapping_writers_both_commit() {
        let mut p = SiTm::new(&machine(2));
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        write(&mut p, 0, a, 1);
        commit_ok(&mut p, 0);
        // Second transaction starts after the first committed.
        begin(&mut p, 1);
        write(&mut p, 1, a, 2);
        commit_ok(&mut p, 1);
        assert_eq!(p.store().read_word(a), 2);
    }

    #[test]
    fn snapshot_reads_are_stable_across_concurrent_commits() {
        let mut p = SiTm::new(&machine(3));
        let a = p.store_mut().alloc_words(1);
        p.store_mut().write_word(a, 100);

        begin(&mut p, 0);
        assert_eq!(read(&mut p, 0, a), 100);
        // Two successive writers commit new values.
        for (t, v) in [(1, 200), (2, 300)] {
            begin(&mut p, t);
            write(&mut p, t, a, v);
            commit_ok(&mut p, t);
        }
        // The old snapshot still reads 100.
        assert_eq!(read(&mut p, 0, a), 100);
        commit_ok(&mut p, 0);
        assert_eq!(p.store().read_word(a), 300);
    }

    #[test]
    fn read_own_write() {
        let mut p = SiTm::new(&machine(1));
        let a = p.store_mut().alloc_words(2);
        p.store_mut().write_word(a, 5);
        begin(&mut p, 0);
        write(&mut p, 0, a, 6);
        assert_eq!(read(&mut p, 0, a), 6, "reads own buffered write");
        // Partial-line merge: other word of the line is the snapshot's.
        assert_eq!(read(&mut p, 0, a.add(1)), 0);
        commit_ok(&mut p, 0);
        assert_eq!(p.store().read_word(a), 6);
    }

    #[test]
    fn large_transactions_spill_and_still_commit() {
        let mut m = machine(1);
        m.version_buffer_bytes = 4 * 64; // 4-line buffer
        let mut p = SiTm::new(&m);
        let base = p.store_mut().alloc_lines(16).first_word();
        begin(&mut p, 0);
        for i in 0..16u64 {
            write(&mut p, 0, Addr(base.0 + i * 8), i);
        }
        commit_ok(&mut p, 0);
        for i in 0..16u64 {
            assert_eq!(p.store().read_word(Addr(base.0 + i * 8)), i);
        }
    }

    #[test]
    fn aborted_spills_leave_no_trace() {
        let mut m = machine(2);
        m.version_buffer_bytes = 64; // spill after the first line
        let mut p = SiTm::new(&m);
        let base = p.store_mut().alloc_lines(4).first_word();
        let contended = p.store_mut().alloc_words(1);

        begin(&mut p, 0);
        begin(&mut p, 1);
        for i in 0..4u64 {
            write(&mut p, 0, Addr(base.0 + i * 8), 7);
        }
        write(&mut p, 0, contended, 7);
        // Thread 1 wins the race on the contended line.
        write(&mut p, 1, contended, 9);
        commit_ok(&mut p, 1);
        assert_eq!(commit_err(&mut p, 0), AbortCause::WriteWrite);
        for i in 0..4u64 {
            assert_eq!(p.store().read_word(Addr(base.0 + i * 8)), 0);
        }
        assert_eq!(p.store().read_word(contended), 9);
    }

    #[test]
    fn version_cap_overflow_aborts_writer() {
        let mut cfg = SiTmConfig::default();
        cfg.mvm.version_cap = 2;
        cfg.mvm.overflow_policy = OverflowPolicy::AbortWriter;
        let mut p = SiTm::with_config(&machine(8), cfg);
        let a = p.store_mut().alloc_words(1);

        // An ancient reader pins the original version, and a fresh
        // reader begins after every commit so consecutive versions can
        // neither coalesce nor be garbage collected.
        begin(&mut p, 7);
        let _ = read(&mut p, 7, a);

        let mut aborted = false;
        for t in 0..4usize {
            begin(&mut p, t);
            write(&mut p, t, a, t as Word);
            match p.commit(ThreadId(t), 0) {
                CommitOutcome::Committed { .. } => {}
                CommitOutcome::Abort(abort) => {
                    assert_eq!(abort.cause, AbortCause::VersionOverflow);
                    let detail = abort.detail.expect("abort site hands over a detail");
                    assert_eq!(detail.cause, ForensicCause::CapacityEviction);
                    assert_eq!(detail.line, Some(a.line().0));
                    aborted = true;
                    break;
                }
            }
            // Pin the just-committed version with a long-lived reader.
            begin(&mut p, 4 + t % 3);
            let _ = read(&mut p, 4 + t % 3, a);
        }
        assert!(aborted, "cap of 2 with pinned snapshots must overflow");
    }

    #[test]
    fn word_granularity_dismisses_false_sharing() {
        let cfg = SiTmConfig {
            word_granularity: true,
            ..Default::default()
        };
        let mut p = SiTm::with_config(&machine(2), cfg);
        let a = p.store_mut().alloc_words(8); // one line, 8 words

        begin(&mut p, 0);
        begin(&mut p, 1);
        write(&mut p, 0, a, 1); // word 0
        write(&mut p, 1, a.add(1), 2); // word 1, same line
        commit_ok(&mut p, 0);
        // Line-granularity would abort; word granularity sees disjoint
        // words and commits.
        commit_ok(&mut p, 1);
        assert_eq!(p.store().read_word(a), 1);
        assert_eq!(p.store().read_word(a.add(1)), 2);
    }

    #[test]
    fn line_granularity_flags_false_sharing() {
        let mut p = SiTm::new(&machine(2));
        let a = p.store_mut().alloc_words(8);
        begin(&mut p, 0);
        begin(&mut p, 1);
        write(&mut p, 0, a, 1);
        write(&mut p, 1, a.add(1), 2);
        commit_ok(&mut p, 0);
        assert_eq!(commit_err(&mut p, 1), AbortCause::WriteWrite);
    }

    #[test]
    fn clock_overflow_aborts_all_and_recovers() {
        let cfg = SiTmConfig {
            timestamp_limit: Some(8),
            ..SiTmConfig::default()
        };
        let mut p = SiTm::with_config(&machine(3), cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 1);
        write(&mut p, 1, a, 1);
        // Burn through the tiny timestamp space.
        let mut overflow_victims = None;
        for _ in 0..16 {
            match p.begin(ThreadId(0)) {
                BeginOutcome::Started { victims, .. } => {
                    if !victims.is_empty() {
                        overflow_victims = Some(victims);
                        break;
                    }
                    commit_ok(&mut p, 0); // read-only commit frees the slot
                }
                BeginOutcome::Stall { .. } => {}
            }
        }
        let victims = overflow_victims.expect("overflow must occur");
        assert_eq!(
            victims,
            vec![Victim {
                tid: ThreadId(1),
                cause: AbortCause::ClockOverflow,
                detail: Some(CLOCK_OVERFLOW),
            }]
        );
        assert_eq!(p.clock().overflows(), 1);
        // Engine would roll thread 1 back.
        p.rollback(ThreadId(1));
        // The machine keeps working afterwards.
        commit_ok(&mut p, 0);
        begin(&mut p, 2);
        write(&mut p, 2, a, 3);
        commit_ok(&mut p, 2);
        assert_eq!(p.store().read_word(a), 3);
    }

    #[test]
    fn rollback_is_idempotent() {
        let mut p = SiTm::new(&machine(1));
        assert_eq!(p.rollback(ThreadId(0)), 0);
        begin(&mut p, 0);
        let a = Addr(0);
        write(&mut p, 0, a, 1);
        assert!(p.rollback(ThreadId(0)) > 0);
        assert_eq!(p.rollback(ThreadId(0)), 0);
    }

    #[test]
    fn abort_detail_names_the_conflicting_line_and_winner() {
        let mut p = SiTm::new(&machine(2));
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        let loser_start = begin(&mut p, 1).expect("a begin carries its snapshot timestamp");
        write(&mut p, 0, a, 10);
        write(&mut p, 1, a, 20);
        let winner_ts = commit_ok(&mut p, 0).expect("a writing commit carries its timestamp");
        let abort = commit_abort(&mut p, 1);
        assert_eq!(abort.cause, AbortCause::WriteWrite);
        let d = abort.detail.expect("abort site hands over a detail");
        assert_eq!(d.cause, ForensicCause::WriteWriteFcw);
        assert_eq!(d.line, Some(a.line().0));
        assert_eq!(d.winner_ts, Some(winner_ts));
        assert!(
            winner_ts > loser_start,
            "winner committed after the loser began"
        );
    }

    #[test]
    fn read_only_commit_is_free() {
        let mut p = SiTm::new(&machine(1));
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        let _ = read(&mut p, 0, a);
        match p.commit(ThreadId(0), 0) {
            CommitOutcome::Committed { cycles, .. } => assert_eq!(cycles, 0),
            other => panic!("{other:?}"),
        }
    }
}
