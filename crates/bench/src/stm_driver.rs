//! The software STM under the simulator's engine: one adapter that runs
//! a simulator [`TxProgram`]'s ops through a software-STM [`Tx`].
//!
//! A registry workload lays its data out in an [`MvmStore`] and hands
//! out resumable programs of word reads and writes. [`StmMemory`] turns
//! that store into one `TVar<Word>` per allocated word and maps each op
//! onto a transaction:
//!
//! | op | on the STM |
//! |---|---|
//! | `Read(a)` | `tx.read`, whose value resumes the program |
//! | `Write(a, v)` | `tx.write` |
//! | `Promote(a)` | `tx.promote` |
//! | `Compute(_)` | nothing: the host does the work it models |
//! | `Commit` | return; the caller commits |
//! | `Restart` | never, since a snapshot cannot diverge: [`StmMemory::drive`] panics, and under the engine it is an `inconsistent` abort |
//!
//! [`StmProtocol`] puts that mapping behind the engine's [`TmProtocol`],
//! so the engine's deterministic schedules drive the STM: one open `Tx`
//! per simulated thread, every one of them on the host thread that runs
//! the engine.
//!
//! The STM detects conflicts per `TVar`, that is per word, where the
//! simulator detects them per cache line. So a run's history is the
//! STM's own record, which names words ([`StmProtocol::stm`]): the
//! engine's record names lines, and first-committer-wins per line
//! rejects two legal commits that wrote different words of one line.
//! `Word` is `u64`, so every read takes the STM's lock-free
//! newest-value path when no writer is installing.

use sitm_mvm::{Addr, MvmStore, ThreadId, Word, WORDS_PER_LINE};
use sitm_sim::{
    Abort, AbortCause, BeginOutcome, CommitOutcome, Cycles, MachineConfig, MemorySystem,
    ReadOutcome, TmProtocol, TxOp, TxProgram, WriteOutcome,
};
use sitm_stm::{Conflict, Stm, StmError, TVar, Tx};

use crate::Protocol;

/// A workload's memory on the STM: one `TVar` per word its setup
/// allocated, indexed by word address.
#[derive(Debug)]
pub struct StmMemory {
    vars: Vec<TVar<Word>>,
}

impl StmMemory {
    /// One `TVar` per word of every line `store` allocated, each seeded
    /// with the word's newest value there.
    pub fn from_store(store: &MvmStore) -> Self {
        let words = store.allocated_lines() * WORDS_PER_LINE as u64;
        StmMemory {
            vars: (0..words)
                .map(|a| TVar::new(store.read_word(Addr(a))))
                .collect(),
        }
    }

    /// The newest committed image, written back into a fresh store with
    /// the same allocation, so checks written against the simulator's
    /// memory read it unchanged.
    pub fn to_store(&self) -> MvmStore {
        let mut store = MvmStore::new();
        let lines = self.vars.len() as u64 / WORDS_PER_LINE as u64;
        if lines > 0 {
            store.alloc_lines(lines);
        }
        for (a, var) in self.vars.iter().enumerate() {
            let value = var.load();
            if value != 0 {
                store.write_word(Addr(a as u64), value);
            }
        }
        store
    }

    fn var(&self, a: Addr) -> &TVar<Word> {
        self.vars.get(a.0 as usize).unwrap_or_else(|| {
            panic!(
                "{a} lies outside the {} words setup allocated",
                self.vars.len()
            )
        })
    }

    fn read(&self, tx: &mut Tx, a: Addr) -> Result<Word, StmError> {
        tx.read(self.var(a))
    }

    fn write(&self, tx: &mut Tx, a: Addr, v: Word) {
        tx.write(self.var(a), v);
    }

    fn promote(&self, tx: &mut Tx, a: Addr) {
        tx.promote(self.var(a));
    }

    /// Runs `program` from its start to its `Commit` inside `tx`. The
    /// caller commits (or drops) `tx`, and resets `program` before it
    /// drives it again.
    ///
    /// # Errors
    ///
    /// A read's [`StmError`], passed on unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the program asks to restart, which it does only on an
    /// inconsistent view, or touches a word its workload never
    /// allocated.
    pub fn drive(&self, tx: &mut Tx, program: &mut dyn TxProgram) -> Result<(), StmError> {
        let mut input = None;
        loop {
            match program.resume(input.take()) {
                TxOp::Read(a) => input = Some(self.read(tx, a)?),
                TxOp::Write(a, v) => self.write(tx, a, v),
                TxOp::Promote(a) => self.promote(tx, a),
                TxOp::Compute(_) => {}
                TxOp::Commit => return Ok(()),
                TxOp::Restart => panic!("a snapshot read cannot diverge, yet a program restarted"),
            }
        }
    }
}

/// Where a run's words live: in the store the workload's setup wrote,
/// until the first transaction begins; in `TVar`s from then on.
#[derive(Debug)]
enum Words {
    Setup(MvmStore),
    Live(StmMemory),
}

/// The software STM as an engine protocol: an [`Stm`], one open [`Tx`]
/// per simulated thread, and the engine's own memory-system model for
/// the cycle costs. A read costs [`MemorySystem::mvm_access`], a write
/// [`MemorySystem::l1_write`], a commit one L3 latency; begin and
/// promotion are free. The STM aborts only at commit, and never dooms
/// another transaction.
#[derive(Debug)]
pub struct StmProtocol {
    stm: Stm,
    words: Words,
    txs: Vec<Option<Tx>>,
    mem: MemorySystem,
    commit_cost: Cycles,
}

impl StmProtocol {
    /// `stm` driven on `cfg`'s cores. Turn its recorder on
    /// ([`Stm::with_history`]) for the run's history.
    pub fn new(cfg: &MachineConfig, stm: Stm) -> Self {
        StmProtocol {
            stm,
            words: Words::Setup(MvmStore::new()),
            txs: (0..cfg.cores).map(|_| None).collect(),
            mem: MemorySystem::new(cfg),
            commit_cost: cfg.l3.latency,
        }
    }

    /// The runtime, for its recorded history and its counters.
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// The newest committed image as a store (see
    /// [`StmMemory::to_store`]).
    pub fn to_store(&self) -> MvmStore {
        match &self.words {
            Words::Setup(store) => store.clone(),
            Words::Live(memory) => memory.to_store(),
        }
    }

    /// The memory and `tid`'s open transaction.
    fn open(&mut self, tid: ThreadId) -> (&StmMemory, &mut Tx) {
        let Words::Live(memory) = &self.words else {
            unreachable!("an access follows a begin")
        };
        let tx = self.txs[tid.0]
            .as_mut()
            .expect("an access inside a transaction");
        (memory, tx)
    }
}

/// The engine's cause for an STM conflict; the engine stamps no detail,
/// since the STM's own record carries it.
fn abort(conflict: Conflict, cycles: Cycles) -> Abort {
    Abort {
        cause: match conflict {
            Conflict::WriteWrite => AbortCause::WriteWrite,
            Conflict::ReadValidation => AbortCause::ReadWrite,
        },
        cycles,
        victims: vec![],
        detail: None,
    }
}

impl TmProtocol for StmProtocol {
    fn name(&self) -> &'static str {
        Protocol::Stm(self.stm.level()).name()
    }

    fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
        if let Words::Setup(store) = &self.words {
            self.words = Words::Live(StmMemory::from_store(store));
        }
        let tx = self.stm.begin();
        let begin_ts = Some(tx.snapshot());
        let nested = self.txs[tid.0].replace(tx);
        debug_assert!(nested.is_none(), "nested begin");
        BeginOutcome::Started {
            cycles: 0,
            victims: vec![],
            begin_ts,
            // The 64-bit software clock never overflows.
            epoch: 0,
        }
    }

    fn read(&mut self, tid: ThreadId, addr: Addr) -> ReadOutcome {
        let (memory, tx) = self.open(tid);
        match memory.read(tx, addr) {
            Ok(value) => ReadOutcome::Ok {
                value,
                cycles: self.mem.mvm_access(tid.0, addr.line()),
                victims: vec![],
                // The STM's record holds the version served.
                observed: None,
            },
            Err(StmError::Conflict(conflict)) => {
                self.txs[tid.0] = None;
                ReadOutcome::Abort(abort(conflict, 0))
            }
        }
    }

    fn write(&mut self, tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome {
        let (memory, tx) = self.open(tid);
        memory.write(tx, addr, value);
        WriteOutcome::Ok {
            cycles: self.mem.l1_write(tid.0, addr.line()),
            victims: vec![],
        }
    }

    fn promote(&mut self, tid: ThreadId, addr: Addr) -> WriteOutcome {
        let (memory, tx) = self.open(tid);
        memory.promote(tx, addr);
        WriteOutcome::Ok {
            cycles: 0,
            victims: vec![],
        }
    }

    fn commit(&mut self, tid: ThreadId, _now: Cycles) -> CommitOutcome {
        let tx = self.txs[tid.0].take().expect("a commit ends a transaction");
        match self.stm.commit(tx) {
            Ok(commit_ts) => CommitOutcome::Committed {
                cycles: self.commit_cost,
                victims: vec![],
                commit_ts,
            },
            Err(conflict) => CommitOutcome::Abort(abort(conflict, self.commit_cost)),
        }
    }

    /// Drops `tid`'s transaction, which the STM records as an
    /// `explicit` abort.
    fn rollback(&mut self, tid: ThreadId) -> Cycles {
        self.txs[tid.0] = None;
        0
    }

    /// # Panics
    ///
    /// Panics once a transaction has begun: the words then live in
    /// `TVar`s ([`StmProtocol::to_store`]).
    fn store(&self) -> &MvmStore {
        match &self.words {
            Words::Setup(store) => store,
            Words::Live(_) => panic!("the STM's words live in TVars; read them with to_store"),
        }
    }

    /// # Panics
    ///
    /// As [`StmProtocol::store`].
    fn store_mut(&mut self) -> &mut MvmStore {
        match &mut self.words {
            Words::Setup(store) => store,
            Words::Live(_) => panic!("the STM's words live in TVars; setup is over"),
        }
    }
}
