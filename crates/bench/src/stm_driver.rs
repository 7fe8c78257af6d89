//! The paper's workloads on real threads: one adapter that runs a
//! simulator [`TxProgram`] through a software-STM [`Tx`].
//!
//! A registry workload lays its data out in an [`MvmStore`] and hands
//! out resumable programs of word reads and writes. [`StmMemory`] turns
//! that store into one `TVar<Word>` per allocated word, and
//! [`StmMemory::drive`] maps each op onto the transaction:
//!
//! | op | on the STM |
//! |---|---|
//! | `Read(a)` | `tx.read`, whose value resumes the program |
//! | `Write(a, v)` | `tx.write` |
//! | `Promote(a)` | `tx.promote` |
//! | `Compute(_)` | nothing: the host does the work it models |
//! | `Commit` | return; the caller commits |
//! | `Restart` | panic: both isolation levels read one snapshot, which cannot diverge |
//!
//! [`run_on_stm`] runs a whole workload this way on real threads, with
//! recording on, so each run's [`History`] can be certified and folded.
//! `Word` is `u64`, so every read takes the STM's lock-free newest-value
//! path when no writer is installing. The STM detects conflicts per
//! `TVar`, that is per word, where the simulator detects them per
//! cache line.

use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use sitm_mvm::{Addr, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::history::DEFAULT_HISTORY_CAPACITY;
use sitm_obs::History;
use sitm_sim::{TxOp, TxProgram, Workload};
use sitm_stm::{IsolationLevel, Stm, StmError, TVar, Tx};

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
                TxOp::Read(a) => input = Some(tx.read(self.var(a))?),
                TxOp::Write(a, v) => tx.write(self.var(a), v),
                TxOp::Promote(a) => tx.promote(self.var(a)),
                TxOp::Compute(_) => {}
                TxOp::Commit => return Ok(()),
                TxOp::Restart => panic!("a snapshot read cannot diverge, yet a program restarted"),
            }
        }
    }
}

/// One run of a workload on the STM.
#[derive(Debug)]
pub struct StmRun {
    /// Every attempt, committed or aborted, in the `sitm.txn.v1` record.
    pub history: History,
    /// The memory after the last commit.
    pub memory: StmMemory,
    /// Host wall-clock milliseconds from the start barrier to the last
    /// thread's exit.
    pub wall_ms: f64,
}

/// Runs `workload` on `threads` real threads over one
/// `Stm::with_level(level)` runtime with recording on. Setup and the
/// per-thread streams are the simulator's own: `setup(store, threads)`,
/// and thread `tid` seeded as the engine seeds it. The threads start
/// together behind a barrier, and each retries its transaction until it
/// commits ([`Stm::atomically`]).
///
/// # Panics
///
/// Panics, on the thread that saw it, if a program restarts or touches
/// memory its workload never allocated.
pub fn run_on_stm(
    workload: &mut dyn Workload,
    level: IsolationLevel,
    threads: usize,
    seed: u64,
) -> StmRun {
    let mut store = MvmStore::new();
    workload.setup(&mut store, threads);
    let memory = StmMemory::from_store(&store);
    let streams: Vec<_> = (0..threads)
        .map(|tid| {
            workload.thread_workload(tid, seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
        .collect();
    let stm = Stm::with_level(level).with_history(DEFAULT_HISTORY_CAPACITY);
    // The caller waits too, so the clock starts when the workers do.
    let start = Barrier::new(threads + 1);
    // The scope returns once every worker has finished.
    let begun = thread::scope(|s| {
        for mut stream in streams {
            let (stm, memory, start) = (&stm, &memory, &start);
            s.spawn(move || {
                start.wait();
                while let Some(mut program) = stream.next_transaction() {
                    stm.atomically(|tx| {
                        program.reset();
                        memory.drive(tx, program.as_mut())
                    });
                }
            });
        }
        start.wait();
        Instant::now()
    });
    StmRun {
        history: stm.history().expect("recording is on"),
        memory,
        wall_ms: begun.elapsed().as_secs_f64() * 1e3,
    }
}
