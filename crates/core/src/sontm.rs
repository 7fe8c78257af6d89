//! The SONTM conflict-serializability baseline (section 6.1 of the
//! paper), after Aydonat & Abdelrahman's *Hardware Support for Relaxed
//! Concurrency Control in Transactional Memory* (MICRO 2010).
//!
//! SONTM relaxes 2PL: instead of aborting on every conflict, it tracks a
//! **serializability-order-number (SON) range** `[lo, hi]` per
//! transaction and only aborts when the range becomes empty — i.e. when
//! no position in a global serial order is consistent with all observed
//! conflicts. The constraints:
//!
//! * **Flow dependency** (I read a value committed by W): I must
//!   serialize after W, so `lo = max(lo, son(W) + 1)`. Realized through
//!   the *global write-numbers table* mapping each line to the SON of
//!   its last committed writer.
//! * **Committed-reader anti-dependency** (a committed R read a line I
//!   overwrite): I must serialize after R, so `lo = max(lo, son(R) + 1)`.
//!   Realized through a per-line *read-numbers* table holding the
//!   maximum SON of any committed reader (the bounded equivalent of the
//!   paper's per-core read-history tables, which it models as infinite).
//! * **In-flight-reader anti-dependency** (an active A read a line I
//!   commit): A read the old value, so A must serialize before me:
//!   `A.hi = min(A.hi, my_son - 1)`.
//! * **In-flight-writer ordering** (an active A has also written a line I
//!   commit): A's eventual in-place commit overwrites mine, so A must
//!   serialize after me: `A.lo = max(A.lo, my_son + 1)`.
//!
//! A transaction whose range empties discovers it at commit and aborts
//! with [`AbortCause::Order`] (the paper evaluates the conflict flags at
//! commit). A successful committer picks `son = lo`, broadcasts its write
//! set (charged per core), tags its writes in the write-numbers table and
//! its reads in the read-numbers table, and writes back in place under
//! the commit token.
//!
//! This reproduces the paper's motivating schedules: in Figure 2, TX0 and
//! TX1 commit while TX2 and TX3 abort; in Figure 6, the long
//! reader aborts under CS but commits under SSI-TM.

use std::collections::HashMap;

use sitm_mvm::{Addr, LineAddr, MvmStore, ThreadId, Word};
use sitm_obs::{AbortDetail, ForensicCause};
use sitm_sim::{
    Abort, AbortCause, BeginOutcome, CommitOutcome, Cycles, MachineConfig, ReadOutcome, TmProtocol,
    WriteOutcome,
};

use crate::base::{LineSet, ProtocolBase, TouchedLines, WriteBuffer};

/// SON values; `NO_BOUND` marks an unconstrained upper limit.
type Son = u64;
const NO_BOUND: Son = u64::MAX;

/// Per-transaction state.
#[derive(Debug)]
struct SontmTx {
    lo: Son,
    hi: Son,
    read_set: LineSet,
    writes: WriteBuffer,
    touched: TouchedLines,
    /// The last constraint that tightened `[lo, hi]`: the line it came
    /// through and the SON of the committed transaction that imposed it.
    /// When the range empties at commit, this names the culprit for
    /// abort forensics.
    pinch: Option<(LineAddr, Son)>,
}

impl Default for SontmTx {
    fn default() -> Self {
        SontmTx {
            lo: 0,
            hi: NO_BOUND,
            read_set: LineSet::new(),
            writes: WriteBuffer::new(),
            touched: TouchedLines::new(),
            pinch: None,
        }
    }
}

/// The SONTM conflict-serializable baseline. See the module docs above.
#[derive(Debug)]
pub struct Sontm {
    base: ProtocolBase,
    txs: Vec<Option<SontmTx>>,
    /// SON of the last committed writer, per line ("global write numbers
    /// hashtable in main memory").
    write_numbers: HashMap<LineAddr, Son>,
    /// Maximum SON of any committed reader, per line (bounded read
    /// history).
    read_numbers: HashMap<LineAddr, Son>,
    /// Per-line hashing cost for the write-numbers table.
    hash_cost: Cycles,
    token_busy_until: Cycles,
    cores: usize,
}

impl Sontm {
    /// Builds the baseline for machine `cfg`.
    pub fn new(machine: &MachineConfig) -> Self {
        Sontm {
            base: ProtocolBase::new(MvmStore::new(), machine),
            txs: (0..machine.cores).map(|_| None).collect(),
            write_numbers: HashMap::new(),
            read_numbers: HashMap::new(),
            hash_cost: machine.sontm_hash_cost,
            token_busy_until: 0,
            cores: machine.cores,
        }
    }

    fn tx(&mut self, tid: ThreadId) -> &mut SontmTx {
        self.txs[tid.0]
            .as_mut()
            .expect("operation outside a transaction")
    }

    fn teardown(&mut self, tid: ThreadId) -> Option<SontmTx> {
        let tx = self.txs[tid.0].take()?;
        self.base
            .mem
            .invalidate_own(tid.0, tx.touched.iter().copied());
        Some(tx)
    }
}

impl TmProtocol for Sontm {
    fn name(&self) -> &'static str {
        "SONTM"
    }

    fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
        debug_assert!(self.txs[tid.0].is_none(), "nested begin");
        self.txs[tid.0] = Some(SontmTx::default());
        BeginOutcome::Started {
            cycles: self.base.begin_cost,
            victims: vec![],
            begin_ts: None,
            epoch: 0,
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
        // Flow dependency: serialize after the last committed writer of
        // this line.
        let wn = self.write_numbers.get(&line).copied();
        let tx = self.tx(tid);
        if let Some(wn) = wn {
            if wn.saturating_add(1) > tx.lo {
                tx.lo = wn.saturating_add(1);
                tx.pinch = Some((line, wn));
            }
        }
        tx.read_set.insert(line);
        tx.touched.insert(line);
        let (cycles, _) = self.base.mem.access(tid.0, line);
        // The read-own-writes check above returned `None` for this exact
        // address, so no buffered write can affect the word read.
        let base_data = self.base.store.read_line(line);
        ReadOutcome::Ok {
            value: base_data[addr.offset()],
            cycles: cycles + self.hash_cost,
            victims: vec![],
            observed: None,
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
        // Conflict serializability already orders readers and writers;
        // promotion is a read-set membership (idempotent).
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
        let write_lines: Vec<LineAddr> = tx.writes.lines().collect();
        let read_lines: Vec<LineAddr> = tx.read_set.iter().copied().collect();
        let mut lo = tx.lo;
        let hi = tx.hi;
        let mut pinch = tx.pinch;
        let mut cycles: Cycles = 0;

        // Final lower-bound constraints from the committed state: writers
        // serialize after the previous writer and after every committed
        // reader of each written line.
        for &line in &write_lines {
            cycles += self.hash_cost;
            if let Some(&wn) = self.write_numbers.get(&line) {
                if wn.saturating_add(1) > lo {
                    lo = wn.saturating_add(1);
                    pinch = Some((line, wn));
                }
            }
            if let Some(&rn) = self.read_numbers.get(&line) {
                if rn.saturating_add(1) > lo {
                    lo = rn.saturating_add(1);
                    pinch = Some((line, rn));
                }
            }
        }

        if lo > hi {
            // An empty SON range is a validation failure of the read/write
            // order; the pinch names the line and committed SON at fault.
            return CommitOutcome::Abort(Abort {
                cause: AbortCause::Order,
                cycles: cycles + self.rollback(tid),
                victims: vec![],
                detail: Some(AbortDetail {
                    cause: ForensicCause::ReadValidation,
                    line: pinch.map(|(l, _)| l.0),
                    winner_ts: pinch.map(|(_, son)| son),
                }),
            });
        }
        let son = lo;

        // Broadcast the write set: every other core compares it against
        // its read history ("each entry in the read-history table...").
        if !write_lines.is_empty() {
            cycles += self.base.mem.broadcast_cost()
                + (self.cores as Cycles - 1) * write_lines.len() as Cycles;
        }

        // Clamp the SON ranges of in-flight transactions that conflict
        // with this commit. Their emptiness is discovered at their own
        // commit, matching SONTM's commit-time conflict-flag evaluation.
        for i in 0..self.txs.len() {
            if i == tid.0 {
                continue;
            }
            if let Some(other) = self.txs[i].as_mut() {
                for &line in &write_lines {
                    // Anti-dependency: the active reader saw the old
                    // value, so it serializes before this commit.
                    if other.read_set.contains(&line) && son.saturating_sub(1) < other.hi {
                        other.hi = son.saturating_sub(1);
                        other.pinch = Some((line, son));
                    }
                    // Write ordering: the active writer will overwrite
                    // this commit's value in place, so it serializes
                    // after.
                    if other.writes.touches_line(line) && son.saturating_add(1) > other.lo {
                        other.lo = son.saturating_add(1);
                        other.pinch = Some((line, son));
                    }
                }
            }
        }

        // Publish: tag writes in the write-numbers table, reads in the
        // read-numbers table.
        for &line in &write_lines {
            let e = self.write_numbers.entry(line).or_insert(0);
            *e = (*e).max(son);
        }
        for &line in &read_lines {
            cycles += self.hash_cost;
            let e = self.read_numbers.entry(line).or_insert(0);
            *e = (*e).max(son);
        }

        // Write back in place. The commit token is held for a short
        // arbitration window only (the SON mechanism already ordered
        // the writers); write-back latency is paid by the committer and
        // overlaps between cores.
        const TOKEN_HOLD: Cycles = 12;
        if !write_lines.is_empty() {
            let wait = self.token_busy_until.saturating_sub(now);
            cycles += wait;
            for &line in &write_lines {
                let base_data = self.base.store.read_line(line);
                let data = self.txs[tid.0]
                    .as_ref()
                    .unwrap()
                    .writes
                    .apply_to(line, base_data);
                self.base.store.write_line(line, data);
                cycles += self.base.mem.writeback(tid.0, line);
                self.base.mem.invalidate_others(tid.0, line);
            }
            self.token_busy_until = now + wait + TOKEN_HOLD;
        }

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

impl sitm_obs::Observable for Sontm {
    fn export_metrics(&self, reg: &mut sitm_obs::MetricsRegistry) {
        sitm_obs::Observable::export_metrics(&self.base.store, reg);
        reg.count("sontm.write_numbers.lines", self.write_numbers.len() as u64);
        reg.count("sontm.read_numbers.lines", self.read_numbers.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(p: &mut Sontm, t: usize) {
        match p.begin(ThreadId(t)) {
            BeginOutcome::Started { .. } => {}
            other => panic!("begin failed: {other:?}"),
        }
    }

    fn read(p: &mut Sontm, t: usize, a: Addr) -> Word {
        match p.read(ThreadId(t), a) {
            ReadOutcome::Ok { value, .. } => value,
            other => panic!("read aborted: {other:?}"),
        }
    }

    fn write(p: &mut Sontm, t: usize, a: Addr, v: Word) {
        match p.write(ThreadId(t), a, v) {
            WriteOutcome::Ok { .. } => {}
            other => panic!("write aborted: {other:?}"),
        }
    }

    fn commit(p: &mut Sontm, t: usize) -> Result<(), AbortCause> {
        commit_full(p, t).map_err(|abort| abort.cause)
    }

    fn commit_full(p: &mut Sontm, t: usize) -> Result<(), Abort> {
        match p.commit(ThreadId(t), 0) {
            CommitOutcome::Committed { .. } => Ok(()),
            CommitOutcome::Abort(abort) => Err(abort),
        }
    }

    /// A read-write conflict alone does not abort: the reader serializes
    /// before the writer.
    #[test]
    fn single_antidependency_commits() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = Sontm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        p.store_mut().write_word(a, 1);

        begin(&mut p, 0);
        begin(&mut p, 1);
        assert_eq!(read(&mut p, 0, a), 1);
        write(&mut p, 1, a, 2);
        assert_eq!(commit(&mut p, 1), Ok(()), "writer commits");
        // Reader read the old value: serializes before the writer.
        assert_eq!(commit(&mut p, 0), Ok(()));
    }

    /// The Figure 6 schedule: a long reader observes A before an
    /// overlapping writer commits and D after — a temporal cycle that
    /// conflict serializability cannot order.
    #[test]
    fn figure6_temporal_cycle_aborts_reader() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = Sontm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let d = p.store_mut().alloc_words(1);

        begin(&mut p, 0); // TX0: long reader
        begin(&mut p, 1); // TX1: writer of A and D
        assert_eq!(read(&mut p, 0, a), 0); // reads old A
        write(&mut p, 1, a, 1);
        write(&mut p, 1, d, 1);
        assert_eq!(commit(&mut p, 1), Ok(()));
        // TX0 now reads D *after* TX1's commit: flow dependency forces
        // TX0 after TX1, but the anti-dependency on A forced it before.
        assert_eq!(read(&mut p, 0, d), 1);
        assert_eq!(commit(&mut p, 0), Err(AbortCause::Order));
    }

    /// An Order abort carries a forensic detail naming the line whose
    /// constraint emptied the SON range and the committed SON at fault.
    #[test]
    fn abort_detail_names_the_pinching_line() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = Sontm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let d = p.store_mut().alloc_words(1);

        begin(&mut p, 0);
        begin(&mut p, 1);
        assert_eq!(read(&mut p, 0, a), 0);
        write(&mut p, 1, a, 1);
        write(&mut p, 1, d, 1);
        assert_eq!(commit(&mut p, 1), Ok(()));
        assert_eq!(read(&mut p, 0, d), 1); // flow dep raises lo past hi
        let abort = commit_full(&mut p, 0).expect_err("empty SON range");
        assert_eq!(abort.cause, AbortCause::Order);
        let detail = abort.detail.expect("abort site hands over a detail");
        assert_eq!(detail.cause, ForensicCause::ReadValidation);
        assert_eq!(
            detail.line,
            Some(d.line().0),
            "last pinch was the flow dep on d"
        );
        assert_eq!(detail.winner_ts, Some(p.write_numbers[&d.line()]));
    }

    /// Committed-reader anti-dependency: a writer starting *after* a
    /// reader committed must still serialize after it.
    #[test]
    fn committed_reader_constrains_later_writer() {
        let cfg = MachineConfig::with_cores(3);
        let mut p = Sontm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let b = p.store_mut().alloc_words(1);

        // TX0 writes b (son becomes, say, s0).
        begin(&mut p, 0);
        write(&mut p, 0, b, 1);
        assert_eq!(commit(&mut p, 0), Ok(()));
        // TX1 reads a (old) and b (new, flow dep from TX0): son > s0.
        begin(&mut p, 1);
        let _ = read(&mut p, 1, a);
        let _ = read(&mut p, 1, b);
        assert_eq!(commit(&mut p, 1), Ok(()));
        // TX2 writes a. It must serialize after TX1 (which read old a).
        begin(&mut p, 2);
        write(&mut p, 2, a, 9);
        assert_eq!(commit(&mut p, 2), Ok(()));
        // The read-numbers table must have constrained TX2's SON above
        // TX1's.
        let a_line = a.line();
        let b_line = b.line();
        let son_tx2 = p.write_numbers[&a_line];
        let son_tx0 = p.write_numbers[&b_line];
        assert!(son_tx2 > son_tx0, "TX2 after TX1 after TX0");
    }

    /// Read-modify-write on the same cell by two overlapping
    /// transactions cannot both commit (the kmeans pattern: CS does not
    /// help).
    #[test]
    fn overlapping_rmw_aborts_second() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = Sontm::new(&cfg);
        let a = p.store_mut().alloc_words(1);

        begin(&mut p, 0);
        begin(&mut p, 1);
        let v0 = read(&mut p, 0, a);
        let v1 = read(&mut p, 1, a);
        write(&mut p, 0, a, v0 + 1);
        write(&mut p, 1, a, v1 + 1);
        assert_eq!(commit(&mut p, 0), Ok(()));
        assert_eq!(commit(&mut p, 1), Err(AbortCause::Order));
        assert_eq!(p.store().read_word(a), 1, "no lost update");
    }

    /// Disjoint transactions proceed without constraints.
    #[test]
    fn disjoint_transactions_all_commit() {
        let cfg = MachineConfig::with_cores(4);
        let mut p = Sontm::new(&cfg);
        let base = p.store_mut().alloc_lines(4).first_word();
        for t in 0..4 {
            begin(&mut p, t);
        }
        for t in 0..4u64 {
            let a = Addr(base.0 + t * 8);
            let v = read(&mut p, t as usize, a);
            write(&mut p, t as usize, a, v + 10);
        }
        for t in 0..4 {
            assert_eq!(commit(&mut p, t), Ok(()));
        }
    }

    /// The Figure 2 schedule under CS: TX0 and TX1 commit, TX2 aborts.
    #[test]
    fn figure2_schedule() {
        let cfg = MachineConfig::with_cores(4);
        let mut p = Sontm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let b = p.store_mut().alloc_words(1);
        let c = p.store_mut().alloc_words(1);

        begin(&mut p, 0); // TX0: read A, write A, write B
        begin(&mut p, 1); // TX1: read A
        begin(&mut p, 2); // TX2: read B, write C, read A (after TX0 commit)

        let _ = read(&mut p, 0, a);
        let _ = read(&mut p, 1, a);
        let _ = read(&mut p, 2, b); // old B
        write(&mut p, 0, a, 1);
        write(&mut p, 0, b, 1);
        write(&mut p, 2, c, 1);
        assert_eq!(commit(&mut p, 0), Ok(()), "TX0 commits");
        assert_eq!(commit(&mut p, 1), Ok(()), "TX1 serializes before TX0");
        let _ = read(&mut p, 2, a); // new A: flow dep from TX0
        assert_eq!(
            commit(&mut p, 2),
            Err(AbortCause::Order),
            "TX2 is cyclically dependent on TX0"
        );
    }

    #[test]
    fn rollback_is_idempotent() {
        let cfg = MachineConfig::with_cores(1);
        let mut p = Sontm::new(&cfg);
        assert_eq!(p.rollback(ThreadId(0)), 0);
        begin(&mut p, 0);
        write(&mut p, 0, Addr(0), 1);
        assert!(p.rollback(ThreadId(0)) > 0);
        assert_eq!(p.rollback(ThreadId(0)), 0);
    }
}
