//! The 2-phase-locking HTM baseline (section 6.1 of the paper).
//!
//! A state-of-the-art eager-conflict-detection, lazy-version-management
//! HTM in the style of Bobba et al.'s *Performance Pathologies in
//! Hardware Transactional Memory*:
//!
//! * **Eager conflict detection, requester wins** — every transactional
//!   access broadcasts its address via the coherence protocol. On a
//!   *get-shared* (read), cores holding the line in their write set
//!   abort; on a *get-exclusive* (write), cores holding the line in
//!   their read **or** write set abort. The requester always proceeds.
//! * **Perfect signatures** — read and write sets are modeled as perfect
//!   bloom filters (no false positives), as in the paper's evaluation.
//! * **Lazy version management** — stores are buffered privately (the L1
//!   acts as the version buffer) and written back in place at commit
//!   while holding a global commit token.
//! * **Bounded transactions** — if the write set outgrows the version
//!   buffer, the transaction aborts with a capacity overflow (the class
//!   of abort SI-TM's unbounded design eliminates).
//!
//! Abort causes are classified for Figure 1: a victim holding the line in
//! its write set when a read arrives aborts *read-write*; a victim
//! holding it in its read set when a write arrives aborts *read-write*;
//! a victim holding it in its write set when a write arrives aborts
//! *write-write*.

use sitm_mvm::{Addr, LineAddr, MvmStore, ThreadId, Word};
use sitm_obs::{AbortDetail, ForensicCause};
use sitm_sim::{
    Abort, AbortCause, BeginOutcome, CommitOutcome, Cycles, MachineConfig, ReadOutcome, TmProtocol,
    Victim, Victims, WriteOutcome,
};

use crate::base::{LineSet, ProtocolBase, TouchedLines, WriteBuffer};

/// Per-transaction state: perfect-signature read/write sets plus the
/// buffered store values.
#[derive(Debug, Default)]
struct TwoPlTx {
    read_set: LineSet,
    writes: WriteBuffer,
    touched: TouchedLines,
}

/// The eager 2PL HTM baseline. See the module docs above.
#[derive(Debug)]
pub struct TwoPl {
    base: ProtocolBase,
    txs: Vec<Option<TwoPlTx>>,
    /// Write-set capacity in lines (the L1 version buffer bound).
    capacity_lines: usize,
    /// Virtual time until which the global commit token is held.
    token_busy_until: Cycles,
}

impl TwoPl {
    /// Builds the baseline for machine `cfg`.
    pub fn new(machine: &MachineConfig) -> Self {
        TwoPl {
            base: ProtocolBase::new(MvmStore::new(), machine),
            txs: (0..machine.cores).map(|_| None).collect(),
            capacity_lines: machine.version_buffer_lines(),
            token_busy_until: 0,
        }
    }

    fn tx(&mut self, tid: ThreadId) -> &mut TwoPlTx {
        self.txs[tid.0]
            .as_mut()
            .expect("operation outside a transaction")
    }

    /// Eager conflict resolution: the requester dooms the holder of
    /// `line`, which the forensics taxonomy classifies as a lock timeout
    /// (2PL has no clock, so no timestamps are attached).
    fn doomed(i: usize, cause: AbortCause, line: LineAddr) -> Victim {
        Victim {
            tid: ThreadId(i),
            cause,
            detail: Some(AbortDetail {
                cause: ForensicCause::LockTimeout,
                line: Some(line.0),
                winner_ts: None,
            }),
        }
    }

    /// Victims of a get-shared broadcast for `line`: every other
    /// transaction holding it in its write set.
    fn get_shared_victims(&self, tid: ThreadId, line: LineAddr) -> Victims {
        self.txs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != tid.0)
            .filter_map(|(i, tx)| {
                let tx = tx.as_ref()?;
                tx.writes
                    .touches_line(line)
                    .then(|| Self::doomed(i, AbortCause::ReadWrite, line))
            })
            .collect()
    }

    /// Victims of a get-exclusive broadcast for `line`: every other
    /// transaction holding it in its read set (read-write conflict) or
    /// write set (write-write conflict).
    fn get_exclusive_victims(&self, tid: ThreadId, line: LineAddr) -> Victims {
        self.txs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != tid.0)
            .filter_map(|(i, tx)| {
                let tx = tx.as_ref()?;
                if tx.writes.touches_line(line) {
                    Some(Self::doomed(i, AbortCause::WriteWrite, line))
                } else if tx.read_set.contains(&line) {
                    Some(Self::doomed(i, AbortCause::ReadWrite, line))
                } else {
                    None
                }
            })
            .collect()
    }

    fn teardown(&mut self, tid: ThreadId) -> Option<TwoPlTx> {
        let tx = self.txs[tid.0].take()?;
        self.base
            .mem
            .invalidate_own(tid.0, tx.touched.iter().copied());
        Some(tx)
    }
}

impl TmProtocol for TwoPl {
    fn name(&self) -> &'static str {
        "2PL"
    }

    fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
        debug_assert!(self.txs[tid.0].is_none(), "nested begin");
        self.txs[tid.0] = Some(TwoPlTx::default());
        BeginOutcome::Started {
            cycles: self.base.begin_cost,
            victims: vec![],
            begin_ts: None,
            epoch: 0,
        }
    }

    fn read(&mut self, tid: ThreadId, addr: Addr) -> ReadOutcome {
        let line = addr.line();
        // Read-own-write from the buffer.
        if let Some(value) = self.tx(tid).writes.get(addr) {
            let cycles = self.base.mem.l1_write(tid.0, line);
            return ReadOutcome::Ok {
                value,
                cycles,
                victims: vec![],
                observed: None,
            };
        }
        let victims = self.get_shared_victims(tid, line);
        let (mut cycles, served) = self.base.mem.access(tid.0, line);
        // A get-shared broadcast rides on the miss; L1 hits stay silent.
        if served != sitm_sim::ServedBy::L1 {
            cycles += self.base.mem.broadcast_cost();
        }
        let tx = self.tx(tid);
        tx.read_set.insert(line);
        tx.touched.insert(line);
        // Requester wins: the read observes committed memory (victims'
        // buffered writes were never published), and the read-own-writes
        // check above returned `None` for this exact address, so no
        // buffered write of our own can affect the word read.
        let base_data = self.base.store.read_line(line);
        ReadOutcome::Ok {
            value: base_data[addr.offset()],
            cycles,
            victims,
            observed: None,
        }
    }

    fn write(&mut self, tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome {
        let line = addr.line();
        let first_touch = !self.tx(tid).writes.touches_line(line);
        // Version-buffer capacity: the L1 cannot hold another
        // transactional line.
        if first_touch && self.tx(tid).writes.line_count() >= self.capacity_lines {
            return WriteOutcome::Abort(Abort {
                cause: AbortCause::Capacity,
                cycles: self.rollback(tid),
                victims: vec![],
                detail: Some(AbortDetail {
                    cause: ForensicCause::CapacityEviction,
                    line: Some(line.0),
                    winner_ts: None,
                }),
            });
        }
        let victims = if first_touch {
            // Get-exclusive broadcast on the first write to the line.
            self.base.mem.invalidate_others(tid.0, line);
            self.get_exclusive_victims(tid, line)
        } else {
            vec![]
        };
        let tx = self.tx(tid);
        tx.writes.insert(addr, value);
        tx.touched.insert(line);
        let mut cycles = self.base.mem.l1_write(tid.0, line);
        if first_touch {
            cycles += self.base.mem.broadcast_cost();
        }
        WriteOutcome::Ok { cycles, victims }
    }

    fn promote(&mut self, tid: ThreadId, addr: Addr) -> WriteOutcome {
        // Eager 2PL already protects reads; promotion is a read-set
        // membership (idempotent).
        let line = addr.line();
        let tx = self.tx(tid);
        tx.read_set.insert(line);
        WriteOutcome::Ok {
            cycles: 1,
            victims: vec![],
        }
    }

    fn commit(&mut self, tid: ThreadId, now: Cycles) -> CommitOutcome {
        let tx = self.txs[tid.0]
            .as_ref()
            .expect("commit outside transaction");
        if tx.writes.is_empty() {
            self.teardown(tid);
            return CommitOutcome::Committed {
                cycles: self.base.begin_cost,
                victims: vec![],
                commit_ts: None,
            };
        }
        // Serialize on the commit token for a short arbitration window
        // only: the token orders commits, while the write-back latency
        // is paid by the committer and overlaps with other cores'
        // commits (conflicting lines were already exclusively owned
        // thanks to eager detection).
        const TOKEN_HOLD: Cycles = 12;
        let wait = self.token_busy_until.saturating_sub(now);
        let mut writeback: Cycles = 0;
        let lines: Vec<LineAddr> = self.txs[tid.0].as_ref().unwrap().writes.lines().collect();
        for &line in &lines {
            let base_data = self.base.store.read_line(line);
            let data = self.txs[tid.0]
                .as_ref()
                .unwrap()
                .writes
                .apply_to(line, base_data);
            self.base.store.write_line(line, data);
            writeback += self.base.mem.writeback(tid.0, line);
        }
        self.token_busy_until = now + wait + TOKEN_HOLD;
        let cycles = wait + self.base.mem.broadcast_cost() + writeback;
        self.teardown(tid);
        CommitOutcome::Committed {
            cycles,
            victims: vec![],
            commit_ts: None,
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

impl sitm_obs::Observable for TwoPl {
    fn export_metrics(&self, reg: &mut sitm_obs::MetricsRegistry) {
        sitm_obs::Observable::export_metrics(&self.base.store, reg);
        reg.count("two_pl.capacity_lines", self.capacity_lines as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(p: &mut TwoPl, t: usize) {
        match p.begin(ThreadId(t)) {
            BeginOutcome::Started { .. } => {}
            other => panic!("begin failed: {other:?}"),
        }
    }

    fn read(p: &mut TwoPl, t: usize, a: Addr) -> (Word, Victims) {
        match p.read(ThreadId(t), a) {
            ReadOutcome::Ok { value, victims, .. } => (value, victims),
            other => panic!("read aborted: {other:?}"),
        }
    }

    fn write(p: &mut TwoPl, t: usize, a: Addr, v: Word) -> Victims {
        match p.write(ThreadId(t), a, v) {
            WriteOutcome::Ok { victims, .. } => victims,
            other => panic!("write aborted: {other:?}"),
        }
    }

    fn commit_ok(p: &mut TwoPl, t: usize) {
        match p.commit(ThreadId(t), 0) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("commit failed: {other:?}"),
        }
    }

    #[test]
    fn read_dooms_uncommitted_writer() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = TwoPl::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        p.store_mut().write_word(a, 5);

        begin(&mut p, 0);
        begin(&mut p, 1);
        assert!(write(&mut p, 0, a, 9).is_empty());
        let (value, victims) = read(&mut p, 1, a);
        assert_eq!(
            victims,
            vec![TwoPl::doomed(0, AbortCause::ReadWrite, a.line())],
            "get-shared hits the writer's write set"
        );
        assert_eq!(value, 5, "requester reads committed state");
        // Engine dooms the victim.
        p.rollback(ThreadId(0));
        commit_ok(&mut p, 1);
        assert_eq!(p.store().read_word(a), 5, "victim's write never lands");
    }

    #[test]
    fn write_dooms_readers_and_writers_with_classification() {
        let cfg = MachineConfig::with_cores(3);
        let mut p = TwoPl::new(&cfg);
        let a = p.store_mut().alloc_words(1);

        begin(&mut p, 0); // will read a
        begin(&mut p, 1); // will write a
        begin(&mut p, 2); // requester
        let _ = read(&mut p, 0, a);
        let v = write(&mut p, 1, a, 1);
        assert_eq!(v, vec![TwoPl::doomed(0, AbortCause::ReadWrite, a.line())]);
        p.rollback(ThreadId(0));
        let v = write(&mut p, 2, a, 2);
        assert_eq!(v, vec![TwoPl::doomed(1, AbortCause::WriteWrite, a.line())]);
        p.rollback(ThreadId(1));
        commit_ok(&mut p, 2);
        assert_eq!(p.store().read_word(a), 2);
    }

    #[test]
    fn abort_detail_classifies_doomed_holders_as_lock_timeouts() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = TwoPl::new(&cfg);
        let a = p.store_mut().alloc_words(1);

        begin(&mut p, 0);
        begin(&mut p, 1);
        assert!(write(&mut p, 0, a, 9).is_empty());
        let (_, victims) = read(&mut p, 1, a);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].tid, ThreadId(0));
        let detail = victims[0].detail.expect("the doomer hands over a detail");
        assert_eq!(detail.cause, ForensicCause::LockTimeout);
        assert_eq!(detail.line, Some(a.line().0));
        assert_eq!(detail.winner_ts, None, "2PL has no commit clock");
    }

    #[test]
    fn repeated_write_to_same_line_broadcasts_once() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = TwoPl::new(&cfg);
        let a = p.store_mut().alloc_words(2);
        begin(&mut p, 0);
        begin(&mut p, 1);
        assert!(write(&mut p, 0, a, 1).is_empty());
        // Thread 1 reads a *different* line; no conflict.
        let b = p.store_mut().alloc_words(1);
        let (_, v) = read(&mut p, 1, b);
        assert!(v.is_empty());
        // Second write to the same line by 0: no new broadcast, no
        // victims even though 1 is active.
        assert!(write(&mut p, 0, a.add(1), 2).is_empty());
        commit_ok(&mut p, 0);
        commit_ok(&mut p, 1);
    }

    #[test]
    fn capacity_overflow_aborts() {
        let mut cfg = MachineConfig::with_cores(1);
        cfg.version_buffer_bytes = 2 * 64; // two lines
        let mut p = TwoPl::new(&cfg);
        let base = p.store_mut().alloc_lines(3).first_word();
        begin(&mut p, 0);
        assert!(write(&mut p, 0, Addr(base.0), 1).is_empty());
        assert!(write(&mut p, 0, Addr(base.0 + 8), 2).is_empty());
        match p.write(ThreadId(0), Addr(base.0 + 16), 3) {
            WriteOutcome::Abort(abort) => {
                assert_eq!(abort.cause, AbortCause::Capacity);
                let detail = abort.detail.expect("abort site hands over a detail");
                assert_eq!(detail.cause, ForensicCause::CapacityEviction);
                assert_eq!(detail.line, Some(Addr(base.0 + 16).line().0));
            }
            other => panic!("expected capacity abort, got {other:?}"),
        }
        // Nothing landed in memory.
        assert_eq!(p.store().read_word(Addr(base.0)), 0);
    }

    #[test]
    fn commit_token_serializes_commits() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = TwoPl::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let b = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        begin(&mut p, 1);
        write(&mut p, 0, a, 1);
        write(&mut p, 1, b, 2);
        let c0 = match p.commit(ThreadId(0), 100) {
            CommitOutcome::Committed { cycles, .. } => cycles,
            other => panic!("{other:?}"),
        };
        // Committing at the same instant must wait for the token.
        let c1 = match p.commit(ThreadId(1), 100) {
            CommitOutcome::Committed { cycles, .. } => cycles,
            other => panic!("{other:?}"),
        };
        assert!(c1 > c0, "second committer waits: {c1} <= {c0}");
    }

    #[test]
    fn reads_after_commit_see_new_values() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = TwoPl::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        write(&mut p, 0, a, 7);
        commit_ok(&mut p, 0);
        begin(&mut p, 1);
        let (v, _) = read(&mut p, 1, a);
        assert_eq!(v, 7);
        commit_ok(&mut p, 1);
    }

    #[test]
    fn read_own_write_and_partial_line_merge() {
        let cfg = MachineConfig::with_cores(1);
        let mut p = TwoPl::new(&cfg);
        let a = p.store_mut().alloc_words(2);
        p.store_mut().write_word(a.add(1), 44);
        begin(&mut p, 0);
        write(&mut p, 0, a, 11);
        assert_eq!(read(&mut p, 0, a).0, 11);
        assert_eq!(read(&mut p, 0, a.add(1)).0, 44);
        commit_ok(&mut p, 0);
        assert_eq!(p.store().read_word(a), 11);
        assert_eq!(p.store().read_word(a.add(1)), 44);
    }

    #[test]
    fn rollback_is_idempotent_and_clears_sets() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = TwoPl::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        write(&mut p, 0, a, 1);
        assert!(p.rollback(ThreadId(0)) > 0);
        assert_eq!(p.rollback(ThreadId(0)), 0);
        // After rollback, a new writer sees no conflict.
        begin(&mut p, 1);
        assert!(write(&mut p, 1, a, 2).is_empty());
        commit_ok(&mut p, 1);
    }
}
