//! The discrete-event simulation engine.
//!
//! Logical threads carry virtual cycle clocks; the engine repeatedly
//! picks the thread with the smallest clock and executes its next
//! operation, translating [`TxOp`]s into [`TmProtocol`] calls and
//! charging the returned cycle costs. Transactions interleave at
//! memory-access granularity, which is the granularity at which real TM
//! conflicts arise.
//!
//! The engine owns retry policy: an aborted transaction is rolled back,
//! charged exponential backoff (if enabled), reset, and re-executed. It
//! also records all statistics ([`RunStats`]) used by the figure
//! harnesses.

use sitm_mvm::ThreadId;
use sitm_obs::{AbortDetail, History, OpKind, Phase as ProfPhase, SmallRng, TxnBuilder};

use crate::config::{BackoffConfig, Cycles, MachineConfig};
use crate::program::{ThreadWorkload, TxOp, TxProgram, Workload};
use crate::protocol::{
    Abort, AbortCause, BeginOutcome, CommitOutcome, ReadOutcome, TmProtocol, Victim, Victims,
    WriteOutcome,
};
use crate::stats::{RunStats, ThreadStats};

/// Consecutive aborts of one transaction at which the engine stops the
/// run with a panic. A transaction that aborts this often is not
/// contending but stuck: a protocol or program that can never commit
/// it, which would otherwise retry until the cycle ceiling, or forever
/// when the configuration has none. The longest run of consecutive aborts in the pinned
/// sweeps and `check_fuzz --seeds 8` is 443 994 (intruder under 2PL
/// with backoff off, a livelock `ablate_backoff` cuts at its cycle
/// budget); everywhere else it is at most 56.
const MAX_CONSECUTIVE_ABORTS: u32 = 1 << 22;

/// Execution phase of a logical thread.
#[derive(Debug)]
enum Phase {
    /// Needs the next transaction from its workload.
    NeedTx,
    /// Has a program but has not successfully begun (may be stalling).
    NeedBegin,
    /// Transaction in flight.
    Running,
    /// Workload exhausted.
    Finished,
}

struct ThreadState {
    clock: Cycles,
    phase: Phase,
    workload: Box<dyn ThreadWorkload>,
    program: Option<Box<dyn TxProgram>>,
    input: Option<u64>,
    /// Set when another thread's conflict doomed this transaction: the
    /// abort its next step performs, carrying what the doomer knew and
    /// the cycles of the rollback the protocol already did.
    doomed: Option<Abort>,
    consecutive_aborts: u32,
    stats: ThreadStats,
    rng: SmallRng,
    /// In-flight history record of the current transaction attempt
    /// (`None` unless history recording is enabled and a begin
    /// succeeded). Builders still open when a run is truncated are
    /// dropped: the oracle only reasons about finished attempts.
    builder: Option<TxnBuilder>,
}

impl ThreadState {
    /// Advances the clock by `cycles`, attributing them to `phase`.
    fn charge(&mut self, phase: ProfPhase, cycles: Cycles) {
        self.clock += cycles;
        self.stats.phase_cycles.charge(phase, cycles);
    }
}

impl std::fmt::Debug for ThreadState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadState")
            .field("clock", &self.clock)
            .field("phase", &self.phase)
            .field("doomed", &self.doomed)
            .finish_non_exhaustive()
    }
}

/// The discrete-event engine binding a protocol to a workload.
#[derive(Debug)]
pub struct Engine<P: TmProtocol> {
    protocol: P,
    threads: Vec<ThreadState>,
    backoff: BackoffConfig,
    max_cycles: Cycles,
    truncated: bool,
    workload_name: String,
    /// The run's one record stream (oracle, abort forensics, Chrome
    /// timeline); `None` (the default) records nothing and adds no
    /// per-operation work.
    history: Option<History>,
    /// Global operation sequence counter (total order over recorded
    /// operations; engine scheduling is already serial).
    next_seq: u64,
    /// Next transaction-attempt id.
    next_txn: u64,
}

impl<P: TmProtocol> Engine<P> {
    /// Builds an engine running `workload` on `cfg.cores` logical threads
    /// under `protocol`. The workload's [`Workload::setup`] runs
    /// immediately against the protocol's store; thread streams are
    /// seeded from `seed`.
    pub fn new(
        mut protocol: P,
        workload: &mut dyn Workload,
        cfg: &MachineConfig,
        seed: u64,
    ) -> Self {
        workload.setup(protocol.store_mut(), cfg.cores);
        let threads = (0..cfg.cores)
            .map(|tid| ThreadState {
                clock: 0,
                phase: Phase::NeedTx,
                workload: workload
                    .thread_workload(tid, seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                program: None,
                input: None,
                doomed: None,
                consecutive_aborts: 0,
                stats: ThreadStats::default(),
                rng: SmallRng::seed_from_u64(seed.wrapping_add(tid as u64)),
                builder: None,
            })
            .collect();
        Engine {
            protocol,
            threads,
            backoff: cfg.backoff,
            max_cycles: cfg.max_cycles,
            truncated: false,
            workload_name: workload.name().to_string(),
            history: None,
            next_seq: 0,
            next_txn: 0,
        }
    }

    /// Enables history recording: every transaction attempt is logged as
    /// a [`sitm_obs::TxnRecord`] (at most `capacity` of them), aborts
    /// stamped with the [`Abort::detail`] their site returned, and returned in
    /// [`RunStats::history`] for the isolation oracle, the forensics
    /// fold ([`sitm_obs::ForensicsSnapshot::from_history`]) and
    /// [`sitm_obs::chrome_trace`]. Recording never changes what the
    /// simulator computes or reports.
    pub fn record_history(mut self, capacity: usize) -> Self {
        self.history = Some(History::with_capacity(capacity));
        self
    }

    /// Next global operation sequence number.
    fn seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Appends `kind` to `tid`'s open history record, if recording.
    fn record_op(&mut self, tid: usize, kind: OpKind) {
        if self.history.is_none() {
            return;
        }
        let seq = self.seq();
        if let Some(b) = self.threads[tid].builder.as_mut() {
            b.op(seq, kind);
        }
    }

    /// Runs the simulation to completion and returns the statistics.
    pub fn run(mut self) -> (RunStats, P) {
        while let Some(tid) = self.next_runnable() {
            if self.max_cycles > 0 && self.threads[tid].clock > self.max_cycles {
                self.truncated = true;
                break;
            }
            self.step(tid);
        }
        let total_cycles = self.threads.iter().map(|t| t.clock).max().unwrap_or(0);
        let per_thread: Vec<ThreadStats> = self
            .threads
            .drain(..)
            .map(|mut t| {
                t.stats.finish_cycles = t.clock;
                t.stats
            })
            .collect();
        (
            RunStats {
                protocol: self.protocol.name().to_string(),
                workload: self.workload_name,
                threads: per_thread.len(),
                per_thread,
                total_cycles,
                truncated: self.truncated,
                history: self.history,
            },
            self.protocol,
        )
    }

    /// The unfinished thread with the smallest virtual clock.
    fn next_runnable(&self) -> Option<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.phase, Phase::Finished))
            .min_by_key(|(i, t)| (t.clock, *i))
            .map(|(i, _)| i)
    }

    fn step(&mut self, tid: usize) {
        // A doomed transaction aborts before doing anything else.
        if let Some(abort) = self.threads[tid].doomed.take() {
            self.abort(tid, abort);
            return;
        }
        match self.threads[tid].phase {
            Phase::Finished => {}
            Phase::NeedTx => match self.threads[tid].workload.next_transaction() {
                None => self.threads[tid].phase = Phase::Finished,
                Some(p) => {
                    self.threads[tid].program = Some(p);
                    self.threads[tid].phase = Phase::NeedBegin;
                }
            },
            Phase::NeedBegin => match self.protocol.begin(ThreadId(tid)) {
                BeginOutcome::Started {
                    cycles,
                    victims,
                    begin_ts,
                    epoch,
                } => {
                    if self.history.is_some() {
                        let txn = self.next_txn;
                        self.next_txn += 1;
                        let seq = self.seq();
                        self.threads[tid].builder =
                            Some(TxnBuilder::new(txn, tid, epoch, seq, begin_ts));
                    }
                    let t = &mut self.threads[tid];
                    t.charge(ProfPhase::Begin, cycles);
                    t.input = None;
                    t.phase = Phase::Running;
                    self.doom_victims(tid, victims);
                }
                BeginOutcome::Stall { cycles } => {
                    let t = &mut self.threads[tid];
                    t.charge(ProfPhase::Stall, cycles);
                    t.stats.stall_cycles += cycles;
                }
            },
            Phase::Running => self.run_op(tid),
        }
    }

    fn run_op(&mut self, tid: usize) {
        let input = self.threads[tid].input.take();
        let op = self.threads[tid]
            .program
            .as_mut()
            .expect("running thread must have a program")
            .resume(input);
        match op {
            TxOp::Compute(c) => {
                self.threads[tid].charge(ProfPhase::Compute, c);
            }
            TxOp::Read(addr) => {
                self.threads[tid].stats.reads += 1;
                match self.protocol.read(ThreadId(tid), addr) {
                    ReadOutcome::Ok {
                        value,
                        cycles,
                        victims,
                        observed,
                    } => {
                        self.record_op(
                            tid,
                            OpKind::Read {
                                line: addr.line().0,
                                observed,
                            },
                        );
                        let t = &mut self.threads[tid];
                        t.charge(ProfPhase::Read, cycles);
                        t.input = Some(value);
                        self.doom_victims(tid, victims);
                    }
                    ReadOutcome::Abort(abort) => self.abort(tid, abort),
                }
            }
            TxOp::Write(addr, value) => {
                self.threads[tid].stats.writes += 1;
                let line = addr.line().0;
                let outcome = self.protocol.write(ThreadId(tid), addr, value);
                self.written(tid, outcome, OpKind::Write { line });
            }
            TxOp::Promote(addr) => {
                self.threads[tid].stats.promotions += 1;
                let line = addr.line().0;
                let outcome = self.protocol.promote(ThreadId(tid), addr);
                self.written(tid, outcome, OpKind::Promote { line });
            }
            TxOp::Restart => {
                // Self-sandboxed zombie: discard protocol state and
                // re-execute. No protocol abort site ran, so there is no
                // detail to carry.
                let cycles = self.protocol.rollback(ThreadId(tid));
                self.abort(
                    tid,
                    Abort {
                        cause: AbortCause::Inconsistent,
                        cycles,
                        victims: vec![],
                        detail: None,
                    },
                );
            }
            TxOp::Commit => {
                let now = self.threads[tid].clock;
                match self.protocol.commit(ThreadId(tid), now) {
                    CommitOutcome::Committed {
                        cycles,
                        victims,
                        commit_ts,
                    } => {
                        if self.history.is_some() {
                            let seq = self.seq();
                            if let Some(b) = self.threads[tid].builder.take() {
                                if let Some(h) = self.history.as_mut() {
                                    h.push(b.commit(seq, commit_ts));
                                }
                            }
                        }
                        let t = &mut self.threads[tid];
                        t.charge(ProfPhase::Commit, cycles);
                        t.stats.commits += 1;
                        t.consecutive_aborts = 0;
                        t.program = None;
                        t.phase = Phase::NeedTx;
                        self.doom_victims(tid, victims);
                    }
                    CommitOutcome::Abort(abort) => self.abort(tid, abort),
                }
            }
        }
    }

    /// Applies the outcome of a write or promotion, recorded as `kind`.
    fn written(&mut self, tid: usize, outcome: WriteOutcome, kind: OpKind) {
        match outcome {
            WriteOutcome::Ok { cycles, victims } => {
                self.record_op(tid, kind);
                self.threads[tid].charge(ProfPhase::Write, cycles);
                self.doom_victims(tid, victims);
            }
            WriteOutcome::Abort(abort) => self.abort(tid, abort),
        }
    }

    /// Aborts `tid`'s current transaction (protocol state already rolled
    /// back): charges the abort's cycles, records it with the detail its
    /// site returned, applies backoff, schedules re-execution, and dooms
    /// the victims named alongside.
    fn abort(&mut self, tid: usize, abort: Abort) {
        let cause = abort.cause;
        self.threads[tid].charge(ProfPhase::Validate, abort.cycles);
        if self.history.is_some() {
            let seq = self.seq();
            if let Some(mut b) = self.threads[tid].builder.take() {
                b.detail(abort.detail.unwrap_or(AbortDetail {
                    cause: cause.fallback_forensic(),
                    line: None,
                    winner_ts: None,
                }));
                if let Some(h) = self.history.as_mut() {
                    h.push(b.abort(seq, cause.label()));
                }
            }
        }
        let t = &mut self.threads[tid];
        t.stats.aborts[cause.index()] += 1;
        t.consecutive_aborts += 1;
        assert!(
            t.consecutive_aborts < MAX_CONSECUTIVE_ABORTS,
            "thread {tid} aborted {} consecutive attempts of one transaction; the last abort: {}",
            t.consecutive_aborts,
            cause.label()
        );
        if self.backoff.enabled {
            let exp = (t.consecutive_aborts.saturating_sub(1)).min(self.backoff.max_exponent);
            let window = self.backoff.base << exp;
            // Randomized slot within the window avoids lock-step retries.
            let delay = t.rng.gen_range(window / 2..=window);
            t.charge(ProfPhase::Backoff, delay);
            t.stats.backoff_cycles += delay;
        }
        if let Some(p) = t.program.as_mut() {
            p.reset();
        }
        t.input = None;
        t.phase = Phase::NeedBegin;
        self.doom_victims(tid, abort.victims);
    }

    /// Dooms the victims of an eager conflict: rolls their protocol state
    /// back immediately (so their sets stop conflicting) and leaves the
    /// abort, rollback cycles included, for their next scheduled step.
    fn doom_victims(&mut self, requester: usize, victims: Victims) {
        for Victim { tid, cause, detail } in victims {
            assert_ne!(tid.0, requester, "requester cannot be its own victim");
            let v = &self.threads[tid.0];
            if matches!(v.phase, Phase::Running) && v.doomed.is_none() {
                let cycles = self.protocol.rollback(tid);
                self.threads[tid.0].doomed = Some(Abort {
                    cause,
                    cycles,
                    victims: vec![],
                    detail,
                });
            }
        }
    }
}

/// Convenience: run `workload` under `protocol` with `cfg`, returning
/// only the statistics.
pub fn run_simulation<P: TmProtocol>(
    protocol: P,
    workload: &mut dyn Workload,
    cfg: &MachineConfig,
    seed: u64,
) -> RunStats {
    Engine::new(protocol, workload, cfg, seed).run().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{QueueWorkload, ScriptedTx};
    use sitm_mvm::{Addr, MvmStore, Word};

    /// A trivially permissive protocol: every access succeeds at unit
    /// cost against the backing store, and commits succeed once each
    /// thread's first `refusals` of them have been aborted (as
    /// write-write, 3 cycles, handing over `detail`).
    #[derive(Debug, Default)]
    struct NullProtocol {
        store: MvmStore,
        begun: u64,
        refusals: u32,
        refused: Vec<u32>,
        detail: Option<AbortDetail>,
    }

    /// A [`NullProtocol`] that aborts each thread's first two commits.
    fn flaky() -> NullProtocol {
        NullProtocol {
            refusals: 2,
            ..NullProtocol::default()
        }
    }

    impl TmProtocol for NullProtocol {
        fn name(&self) -> &'static str {
            "null"
        }
        fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
            self.begun += 1;
            if self.refused.len() <= tid.0 {
                self.refused.resize(tid.0 + 1, 0);
            }
            BeginOutcome::Started {
                cycles: 1,
                victims: vec![],
                begin_ts: None,
                epoch: 0,
            }
        }
        fn read(&mut self, _tid: ThreadId, addr: Addr) -> ReadOutcome {
            ReadOutcome::Ok {
                value: self.store.read_word(addr),
                cycles: 1,
                victims: vec![],
                observed: None,
            }
        }
        fn write(&mut self, _tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome {
            self.store.write_word(addr, value);
            WriteOutcome::Ok {
                cycles: 1,
                victims: vec![],
            }
        }
        fn commit(&mut self, tid: ThreadId, _now: Cycles) -> CommitOutcome {
            if self.refused[tid.0] < self.refusals {
                self.refused[tid.0] += 1;
                return CommitOutcome::Abort(Abort {
                    cause: AbortCause::WriteWrite,
                    cycles: 3,
                    victims: vec![],
                    detail: self.detail,
                });
            }
            CommitOutcome::Committed {
                cycles: 1,
                victims: vec![],
                commit_ts: None,
            }
        }
        fn rollback(&mut self, _tid: ThreadId) -> Cycles {
            0
        }
        fn store(&self) -> &MvmStore {
            &self.store
        }
        fn store_mut(&mut self) -> &mut MvmStore {
            &mut self.store
        }
    }

    /// Workload: every thread increments its own counter word `n` times.
    struct CounterWorkload {
        txs_per_thread: usize,
        base: Option<Addr>,
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &str {
            "counter"
        }
        fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
            // One line per thread to keep them disjoint.
            let base = mem.alloc_lines(n_threads as u64).first_word();
            self.base = Some(base);
        }
        fn thread_workload(&self, tid: usize, _seed: u64) -> Box<dyn ThreadWorkload> {
            let addr = Addr(self.base.unwrap().0 + (tid as u64) * 8);
            let txs = (0..self.txs_per_thread)
                .map(|i| {
                    Box::new(ScriptedTx::new(vec![
                        TxOp::Read(addr),
                        TxOp::Write(addr, i as Word + 1),
                        TxOp::Compute(5),
                    ])) as Box<dyn TxProgram>
                })
                .collect();
            Box::new(QueueWorkload::new(txs))
        }
    }

    #[test]
    fn engine_runs_all_transactions() {
        let cfg = MachineConfig::with_cores(4);
        let mut w = CounterWorkload {
            txs_per_thread: 10,
            base: None,
        };
        let (stats, proto) = Engine::new(NullProtocol::default(), &mut w, &cfg, 42).run();
        assert_eq!(stats.commits(), 40);
        assert_eq!(stats.aborts(), 0);
        assert_eq!(stats.threads, 4);
        assert!(stats.total_cycles > 0);
        assert_eq!(proto.begun, 40);
        // Each thread's counter ends at 10.
        let base = w.base.unwrap();
        for t in 0..4 {
            assert_eq!(proto.store.read_word(Addr(base.0 + t * 8)), 10);
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let cfg = MachineConfig::with_cores(3);
        let run = || {
            let mut w = CounterWorkload {
                txs_per_thread: 5,
                base: None,
            };
            run_simulation(NullProtocol::default(), &mut w, &cfg, 7)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn aborted_transactions_retry_and_record_backoff() {
        let cfg = MachineConfig::with_cores(1);
        let mut w = CounterWorkload {
            txs_per_thread: 3,
            base: None,
        };
        let stats = run_simulation(flaky(), &mut w, &cfg, 1);
        // Two forced failures for the thread, then everything commits.
        assert_eq!(stats.commits(), 3);
        assert_eq!(stats.aborts_by(AbortCause::WriteWrite), 2);
        assert!(stats.per_thread[0].backoff_cycles > 0);
        // Abort rate: 2 / (2 + 3).
        assert!((stats.abort_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(
        expected = "thread 0 aborted 4194304 consecutive attempts of one transaction; the last abort: write-write"
    )]
    fn a_transaction_that_never_commits_stops_the_run() {
        let mut cfg = MachineConfig::with_cores(1);
        cfg.backoff.enabled = false;
        let mut w = CounterWorkload {
            txs_per_thread: 1,
            base: None,
        };
        let refuse_all = NullProtocol {
            refusals: u32::MAX,
            ..NullProtocol::default()
        };
        run_simulation(refuse_all, &mut w, &cfg, 1);
    }

    #[test]
    fn backoff_can_be_disabled() {
        let mut cfg = MachineConfig::with_cores(1);
        cfg.backoff.enabled = false;
        let mut w = CounterWorkload {
            txs_per_thread: 1,
            base: None,
        };
        let stats = run_simulation(flaky(), &mut w, &cfg, 1);
        assert_eq!(stats.per_thread[0].backoff_cycles, 0);
        assert_eq!(stats.aborts(), 2);
    }

    #[test]
    fn promote_ops_flow_through_the_default_protocol_hook() {
        let cfg = MachineConfig::with_cores(1);
        struct PromotingWorkload;
        impl Workload for PromotingWorkload {
            fn name(&self) -> &str {
                "promoting"
            }
            fn setup(&mut self, mem: &mut MvmStore, _n: usize) {
                let a = mem.alloc_words(1);
                mem.write_word(a, 5);
            }
            fn thread_workload(&self, _tid: usize, _seed: u64) -> Box<dyn ThreadWorkload> {
                Box::new(QueueWorkload::new(vec![Box::new(ScriptedTx::new(vec![
                    TxOp::Read(Addr(0)),
                    TxOp::Promote(Addr(0)),
                    TxOp::Write(Addr(8), 1),
                ]))]))
            }
        }
        let mut w = PromotingWorkload;
        let stats = run_simulation(NullProtocol::default(), &mut w, &cfg, 3);
        assert_eq!(stats.commits(), 1);
        assert_eq!(stats.per_thread[0].promotions, 1);
    }

    #[test]
    fn restart_ops_abort_as_inconsistent_and_retry() {
        let cfg = MachineConfig::with_cores(1);
        /// Emits Restart once, then commits on the re-execution.
        #[derive(Debug)]
        struct RestartOnce {
            tried: bool,
        }
        impl TxProgram for RestartOnce {
            fn resume(&mut self, _input: Option<Word>) -> TxOp {
                if self.tried {
                    TxOp::Commit
                } else {
                    self.tried = true;
                    TxOp::Restart
                }
            }
            fn reset(&mut self) {
                // Keep `tried` so the retry commits.
            }
        }
        struct RestartWorkload;
        impl Workload for RestartWorkload {
            fn name(&self) -> &str {
                "restart"
            }
            fn setup(&mut self, _mem: &mut MvmStore, _n: usize) {}
            fn thread_workload(&self, _tid: usize, _seed: u64) -> Box<dyn ThreadWorkload> {
                Box::new(QueueWorkload::new(vec![
                    Box::new(RestartOnce { tried: false }) as Box<dyn TxProgram>,
                ]))
            }
        }
        let mut w = RestartWorkload;
        let stats = run_simulation(NullProtocol::default(), &mut w, &cfg, 3);
        assert_eq!(stats.commits(), 1);
        assert_eq!(stats.aborts_by(AbortCause::Inconsistent), 1);
    }

    #[test]
    fn every_cycle_is_attributed_to_a_phase() {
        let cfg = MachineConfig::with_cores(2);
        let mut w = CounterWorkload {
            txs_per_thread: 4,
            base: None,
        };
        let stats = run_simulation(NullProtocol::default(), &mut w, &cfg, 5);
        for t in &stats.per_thread {
            // The phase profile accounts for the thread's whole clock.
            assert_eq!(t.phase_cycles.total(), t.finish_cycles);
            assert!(t.phase_cycles[ProfPhase::Commit] > 0);
            assert!(t.phase_cycles[ProfPhase::Compute] > 0);
        }
        let pc = stats.phase_cycles();
        assert_eq!(
            pc.total(),
            stats
                .per_thread
                .iter()
                .map(|t| t.finish_cycles)
                .sum::<u64>()
        );
    }

    #[test]
    fn aborts_charge_validate_and_backoff_phases() {
        let cfg = MachineConfig::with_cores(1);
        let mut w = CounterWorkload {
            txs_per_thread: 3,
            base: None,
        };
        let stats = run_simulation(flaky(), &mut w, &cfg, 1);
        let t = &stats.per_thread[0];
        assert_eq!(t.phase_cycles.total(), t.finish_cycles);
        // The two forced commit failures cost 3 cycles each.
        assert_eq!(t.phase_cycles[ProfPhase::Validate], 6);
        assert_eq!(t.phase_cycles[ProfPhase::Backoff], t.backoff_cycles);
    }

    #[test]
    fn history_is_off_by_default() {
        let cfg = MachineConfig::with_cores(1);
        let mut w = CounterWorkload {
            txs_per_thread: 2,
            base: None,
        };
        let stats = run_simulation(NullProtocol::default(), &mut w, &cfg, 9);
        assert!(stats.history.is_none());
    }

    #[test]
    fn history_records_every_finished_attempt() {
        use sitm_obs::TxnOutcome;
        let cfg = MachineConfig::with_cores(2);
        let mut w = CounterWorkload {
            txs_per_thread: 3,
            base: None,
        };
        let (stats, _) = Engine::new(flaky(), &mut w, &cfg, 11)
            .record_history(1024)
            .run();
        let h = stats.history.as_ref().expect("history was enabled");
        assert_eq!(h.dropped(), 0);
        assert_eq!(h.len() as u64, stats.commits() + stats.aborts());
        assert_eq!(h.committed().count() as u64, stats.commits());
        for r in h.records() {
            // The global sequence numbers bracket and order the ops.
            let mut prev = r.begin_seq;
            for op in &r.ops {
                assert!(op.seq > prev, "ops must be globally ordered");
                prev = op.seq;
            }
            assert!(r.end_seq > prev);
            // CounterWorkload: one read + one write of the same line.
            assert_eq!(r.ops.len(), 2);
            assert_eq!(r.ops[0].kind.line(), r.ops[1].kind.line());
            match r.outcome {
                TxnOutcome::Committed => assert_eq!(r.commit_ts, None),
                TxnOutcome::Aborted(cause) => assert_eq!(cause, "write-write"),
            }
        }
        // The test protocol returns no timestamps.
        assert!(h.records().iter().all(|r| r.begin_ts.is_none()));
        // Every read succeeded, so each issued read is one recorded op.
        let read_ops = h
            .records()
            .iter()
            .flat_map(|r| &r.ops)
            .filter(|op| matches!(op.kind, OpKind::Read { .. }))
            .count() as u64;
        assert_eq!(read_ops, stats.reads());
    }

    #[test]
    fn history_recording_is_deterministic() {
        let cfg = MachineConfig::with_cores(3);
        let run = || {
            let mut w = CounterWorkload {
                txs_per_thread: 4,
                base: None,
            };
            Engine::new(flaky(), &mut w, &cfg, 21)
                .record_history(1 << 12)
                .run()
                .0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forensics_snapshot_counts_every_abort() {
        use sitm_obs::{ForensicCause, ForensicsSnapshot};
        let cfg = MachineConfig::with_cores(2);
        let mut w = CounterWorkload {
            txs_per_thread: 3,
            base: None,
        };
        let (stats, _) = Engine::new(flaky(), &mut w, &cfg, 11)
            .record_history(1024)
            .run();
        let f = ForensicsSnapshot::from_history(stats.history.as_ref().expect("enabled"));
        assert_eq!(f.total, stats.aborts());
        // Its aborts carry no detail here, so every WriteWrite
        // abort classifies via the generic fallback, unlined.
        assert_eq!(f.count(ForensicCause::WriteWriteFcw), stats.aborts());
        assert_eq!(f.attributed, 0);
    }

    /// The record of an engine-originated abort (`TxOp::Restart`: no
    /// protocol abort site runs) must not inherit what the thread's
    /// previous abort site knew.
    #[test]
    fn restart_after_a_detailed_abort_records_no_stale_detail() {
        use sitm_obs::{ForensicCause, TxnOutcome};
        /// Attempt 0 and 2 run to a commit the protocol refuses;
        /// attempt 1 restarts itself; attempt 3 commits.
        #[derive(Debug)]
        struct RestartSecond {
            attempt: u32,
        }
        impl TxProgram for RestartSecond {
            fn resume(&mut self, _input: Option<Word>) -> TxOp {
                if self.attempt == 1 {
                    TxOp::Restart
                } else {
                    TxOp::Commit
                }
            }
            fn reset(&mut self) {
                self.attempt += 1;
            }
        }
        struct RestartWorkload;
        impl Workload for RestartWorkload {
            fn name(&self) -> &str {
                "restart-second"
            }
            fn setup(&mut self, _mem: &mut MvmStore, _n: usize) {}
            fn thread_workload(&self, _tid: usize, _seed: u64) -> Box<dyn ThreadWorkload> {
                Box::new(QueueWorkload::new(vec![
                    Box::new(RestartSecond { attempt: 0 }) as Box<dyn TxProgram>,
                ]))
            }
        }
        let at_line_7 = AbortDetail {
            cause: ForensicCause::WriteWriteFcw,
            line: Some(7),
            winner_ts: Some(3),
        };
        let protocol = NullProtocol {
            detail: Some(at_line_7),
            ..flaky()
        };
        let cfg = MachineConfig::with_cores(1);
        let (stats, _) = Engine::new(protocol, &mut RestartWorkload, &cfg, 5)
            .record_history(16)
            .run();
        let explicit = AbortDetail {
            cause: ForensicCause::Explicit,
            line: None,
            winner_ts: None,
        };
        let recorded: Vec<_> = stats
            .history
            .as_ref()
            .expect("history was enabled")
            .records()
            .iter()
            .map(|r| (r.outcome, r.abort))
            .collect();
        assert_eq!(
            recorded,
            vec![
                (TxnOutcome::Aborted("write-write"), Some(at_line_7)),
                (TxnOutcome::Aborted("inconsistent"), Some(explicit)),
                (TxnOutcome::Aborted("write-write"), Some(at_line_7)),
                (TxnOutcome::Committed, None),
            ]
        );
    }

    #[test]
    fn max_cycles_truncates_run() {
        let mut cfg = MachineConfig::with_cores(1);
        cfg.max_cycles = 10;
        let mut w = CounterWorkload {
            txs_per_thread: 1_000_000,
            base: None,
        };
        let stats = run_simulation(NullProtocol::default(), &mut w, &cfg, 1);
        assert!(stats.truncated);
        assert!(stats.commits() < 1_000_000);
    }
}
