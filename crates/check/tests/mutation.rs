//! Mutation self-tests: the oracle is only trustworthy if it *rejects*
//! broken protocols. A minimal multiversion protocol shim is driven
//! through the real discrete-event engine with one isolation ingredient
//! deliberately removed at a time — first-committer-wins validation,
//! snapshot-consistent reads, or write-write conflict detection — and
//! each mutation must be rejected with a pinpointed transaction pair.
//! The unmutated shim passing both disciplines (the control) proves the
//! rejections come from the mutations, not from oracle false positives.

use std::collections::HashMap;

use sitm_check::{check, Discipline, Report};
use sitm_mvm::{Addr, MvmStore, ThreadId, Word};
use sitm_obs::History;
use sitm_sim::{
    Abort, AbortCause, BeginOutcome, CommitOutcome, Cycles, Engine, MachineConfig, QueueWorkload,
    ReadOutcome, ScriptedTx, ThreadWorkload, TmProtocol, TxOp, TxProgram, Workload, WriteOutcome,
};

/// Which isolation ingredient the shim drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Faithful snapshot isolation (the control).
    None,
    /// Commit-time first-committer-wins validation skipped: overlapping
    /// writers of the same line both commit.
    BrokenFcw,
    /// Reads served one version older than the snapshot allows.
    StaleRead,
    /// No write-write conflict detection *and* no timestamps reported:
    /// the lost updates must surface as a cycle in the operation-order
    /// conflict graph.
    DroppedWw,
}

/// One in-flight shim transaction.
struct ShimTx {
    start: u64,
    writes: HashMap<u64, Word>,
}

/// Committed versions of one line: ascending timestamps, cumulative
/// word images.
type VersionChain = Vec<(u64, HashMap<u64, Word>)>;

/// A deliberately simple multiversion protocol: a global logical clock,
/// full version retention per line (cumulative word images), buffered
/// writes, and first-committer-wins validation at commit — each piece
/// removable via [`Mutation`]. Values never round-trip through the
/// MvmStore versions, so the store only carries the workload's initial
/// image (which doubles as version 0 for every line).
struct ShimProtocol {
    mode: Mutation,
    clock: u64,
    store: MvmStore,
    /// line -> committed versions.
    versions: HashMap<u64, VersionChain>,
    txs: Vec<Option<ShimTx>>,
}

impl ShimProtocol {
    fn new(mode: Mutation, cores: usize) -> Self {
        ShimProtocol {
            mode,
            clock: 0,
            store: MvmStore::new(),
            versions: HashMap::new(),
            txs: (0..cores).map(|_| None).collect(),
        }
    }

    /// Whether outcomes carry their begin/commit/read-version timestamps
    /// (not in [`Mutation::DroppedWw`], forcing the oracle onto the
    /// operation-order conflict graph).
    fn timestamps(&self) -> bool {
        self.mode != Mutation::DroppedWw
    }
}

impl TmProtocol for ShimProtocol {
    fn name(&self) -> &'static str {
        "SHIM"
    }

    fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
        self.txs[tid.0] = Some(ShimTx {
            start: self.clock,
            writes: HashMap::new(),
        });
        BeginOutcome::Started {
            cycles: 1,
            victims: vec![],
            begin_ts: self.timestamps().then_some(self.clock),
            epoch: 0,
        }
    }

    fn read(&mut self, tid: ThreadId, addr: Addr) -> ReadOutcome {
        let tx = self.txs[tid.0].as_ref().expect("read outside transaction");
        if let Some(&value) = tx.writes.get(&addr.0) {
            return ReadOutcome::Ok {
                value,
                cycles: 1,
                victims: vec![],
                observed: None,
            };
        }
        let start = tx.start;
        let line = addr.line().0;
        let visible = self
            .versions
            .get(&line)
            .map_or(&[][..], |v| v.as_slice())
            .iter()
            .filter(|&&(ts, _)| ts <= start)
            .count();
        // The faithful protocol serves the newest visible version; the
        // StaleRead mutation serves the one before it (falling back to
        // the pre-run image when only one version is visible).
        let serve = match self.mode {
            Mutation::StaleRead => visible.checked_sub(2),
            _ => visible.checked_sub(1),
        };
        let (observed, value) = match serve {
            Some(i) => {
                let (ts, image) = &self.versions[&line][i];
                (
                    *ts,
                    image
                        .get(&addr.0)
                        .copied()
                        .unwrap_or_else(|| self.store.read_word(addr)),
                )
            }
            None => (0, self.store.read_word(addr)),
        };
        ReadOutcome::Ok {
            value,
            cycles: 1,
            victims: vec![],
            observed: self.timestamps().then_some(observed),
        }
    }

    fn write(&mut self, tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome {
        let tx = self.txs[tid.0].as_mut().expect("write outside transaction");
        tx.writes.insert(addr.0, value);
        WriteOutcome::Ok {
            cycles: 1,
            victims: vec![],
        }
    }

    fn commit(&mut self, tid: ThreadId, _now: Cycles) -> CommitOutcome {
        let tx = self.txs[tid.0].take().expect("commit outside transaction");
        if tx.writes.is_empty() {
            return CommitOutcome::Committed {
                cycles: 1,
                victims: vec![],
                commit_ts: None,
            };
        }
        let mut lines: Vec<u64> = tx.writes.keys().map(|&a| Addr(a).line().0).collect();
        lines.sort_unstable();
        lines.dedup();
        let validate = !matches!(self.mode, Mutation::BrokenFcw | Mutation::DroppedWw);
        if validate {
            for &line in &lines {
                let newest = self.versions.get(&line).and_then(|v| v.last()).map(|v| v.0);
                if newest.is_some_and(|ts| ts > tx.start) {
                    return CommitOutcome::Abort(Abort {
                        cause: AbortCause::WriteWrite,
                        cycles: 1,
                        victims: vec![],
                        detail: None,
                    });
                }
            }
        }
        self.clock += 1;
        let end = self.clock;
        for &line in &lines {
            let chain = self.versions.entry(line).or_default();
            let mut image = chain.last().map(|(_, img)| img.clone()).unwrap_or_default();
            for (&a, &v) in &tx.writes {
                if Addr(a).line().0 == line {
                    image.insert(a, v);
                }
            }
            chain.push((end, image));
        }
        CommitOutcome::Committed {
            cycles: 1,
            victims: vec![],
            commit_ts: self.timestamps().then_some(end),
        }
    }

    fn rollback(&mut self, tid: ThreadId) -> Cycles {
        self.txs[tid.0] = None;
        1
    }

    fn store(&self) -> &MvmStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut MvmStore {
        &mut self.store
    }
}

// ---------------------------------------------------------------------------
// Workloads with the contention shapes each mutation needs.
// ---------------------------------------------------------------------------

/// Every thread hammers read-modify-writes on one shared word.
struct RmwStorm {
    addr: Addr,
    txs_per_thread: usize,
}

impl Workload for RmwStorm {
    fn name(&self) -> &str {
        "rmw-storm"
    }

    fn setup(&mut self, mem: &mut MvmStore, _n_threads: usize) {
        self.addr = mem.alloc_words(1);
    }

    fn thread_workload(&self, tid: usize, _seed: u64) -> Box<dyn ThreadWorkload> {
        let txs = (0..self.txs_per_thread)
            .map(|i| {
                Box::new(ScriptedTx::new(vec![
                    TxOp::Read(self.addr),
                    TxOp::Compute(5 + 3 * tid as Cycles),
                    TxOp::Write(self.addr, (tid * 1000 + i) as Word),
                ])) as Box<dyn TxProgram>
            })
            .collect();
        Box::new(QueueWorkload::new(txs))
    }
}

/// Thread 0 commits a stream of writes to one word; the other threads
/// read it repeatedly, so their snapshots keep trailing a growing
/// version chain.
struct ReaderWriterSplit {
    addr: Addr,
    txs_per_thread: usize,
}

impl Workload for ReaderWriterSplit {
    fn name(&self) -> &str {
        "reader-writer-split"
    }

    fn setup(&mut self, mem: &mut MvmStore, _n_threads: usize) {
        self.addr = mem.alloc_words(1);
    }

    fn thread_workload(&self, tid: usize, _seed: u64) -> Box<dyn ThreadWorkload> {
        let txs = (0..self.txs_per_thread)
            .map(|i| {
                let ops = if tid == 0 {
                    vec![
                        TxOp::Read(self.addr),
                        TxOp::Compute(7),
                        TxOp::Write(self.addr, i as Word),
                    ]
                } else {
                    vec![TxOp::Compute(11), TxOp::Read(self.addr)]
                };
                Box::new(ScriptedTx::new(ops)) as Box<dyn TxProgram>
            })
            .collect();
        Box::new(QueueWorkload::new(txs))
    }
}

// ---------------------------------------------------------------------------
// Driving the shim through the engine.
// ---------------------------------------------------------------------------

const CORES: usize = 4;
const TXS: usize = 16;

fn run_shim(mode: Mutation, workload: &mut dyn Workload, seed: u64) -> History {
    let cfg = MachineConfig::with_cores(CORES);
    let shim = ShimProtocol::new(mode, CORES);
    let (stats, _) = Engine::new(shim, workload, &cfg, seed)
        .record_history(1 << 16)
        .run();
    assert!(!stats.truncated);
    let history = stats.history.expect("history recording was enabled");
    assert!(history.committed().count() > 0, "nothing committed");
    history
}

fn assert_pinpointed_pair(report: &Report, history: &History, rule: &str) {
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == rule)
        .unwrap_or_else(|| panic!("expected a {rule} violation, got: {report}"));
    assert!(v.txns.len() >= 2, "no transaction pair pinpointed: {v}");
    assert_ne!(v.txns[0], v.txns[1]);
    for &txn in &v.txns {
        assert!(
            history.committed().any(|r| r.txn == txn),
            "pinpointed txn {txn} is not a committed record"
        );
    }
}

#[test]
fn control_shim_satisfies_snapshot_isolation() {
    for seed in [1, 2] {
        let mut storm = RmwStorm {
            addr: Addr(0),
            txs_per_thread: TXS,
        };
        let h = run_shim(Mutation::None, &mut storm, seed);
        let report = check(Discipline::SnapshotIsolation, &h);
        assert!(report.is_ok(), "control run must pass: {report}");
        assert!(report.reads_checked > 0);

        let mut split = ReaderWriterSplit {
            addr: Addr(0),
            txs_per_thread: TXS,
        };
        let h = run_shim(Mutation::None, &mut split, seed);
        let report = check(Discipline::SnapshotIsolation, &h);
        assert!(report.is_ok(), "control run must pass: {report}");
    }
}

#[test]
fn broken_first_committer_wins_is_rejected() {
    let mut storm = RmwStorm {
        addr: Addr(0),
        txs_per_thread: TXS,
    };
    let h = run_shim(Mutation::BrokenFcw, &mut storm, 1);
    let report = check(Discipline::SnapshotIsolation, &h);
    assert!(!report.is_ok(), "broken FCW must be rejected");
    assert_pinpointed_pair(&report, &h, "first-committer-wins");
    // The reads themselves stay snapshot-consistent in this mutation.
    assert!(
        report
            .violations
            .iter()
            .all(|v| v.rule == "first-committer-wins"),
        "only the removed axiom should fire: {report}"
    );
}

#[test]
fn stale_snapshot_reads_are_rejected() {
    let mut split = ReaderWriterSplit {
        addr: Addr(0),
        txs_per_thread: TXS,
    };
    let h = run_shim(Mutation::StaleRead, &mut split, 1);
    let report = check(Discipline::SnapshotIsolation, &h);
    assert!(!report.is_ok(), "stale reads must be rejected");
    assert_pinpointed_pair(&report, &h, "snapshot-read");
    // First-committer-wins validation is intact in this mutation.
    assert!(
        report.violations.iter().all(|v| v.rule == "snapshot-read"),
        "only the removed axiom should fire: {report}"
    );
}

#[test]
fn dropped_write_write_detection_is_rejected() {
    let mut storm = RmwStorm {
        addr: Addr(0),
        txs_per_thread: TXS,
    };
    let h = run_shim(Mutation::DroppedWw, &mut storm, 1);
    // No timestamps were reported, so the oracle must find the lost
    // updates in the operation-order conflict graph.
    let report = check(Discipline::ConflictSerializable, &h);
    assert!(!report.is_ok(), "lost updates must be rejected");
    assert_pinpointed_pair(&report, &h, "conflict-cycle");
}

#[test]
fn control_shim_without_timestamps_is_conflict_serializable() {
    // Same protocol as DroppedWw minus the mutation: with validation
    // intact, single-line RMW traffic under SI is serializable, so the
    // conflict-graph checker must accept it — the rejection above is
    // the mutation's doing, not checker noise. The wrapper strips the
    // timestamps from the outcomes the faithful shim returns.
    struct ValidatingNoTs(ShimProtocol);
    impl TmProtocol for ValidatingNoTs {
        fn name(&self) -> &'static str {
            "SHIM-NOTS"
        }
        fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
            let mut out = self.0.begin(tid);
            if let BeginOutcome::Started { begin_ts, .. } = &mut out {
                *begin_ts = None;
            }
            out
        }
        fn read(&mut self, tid: ThreadId, addr: Addr) -> ReadOutcome {
            let mut out = self.0.read(tid, addr);
            if let ReadOutcome::Ok { observed, .. } = &mut out {
                *observed = None;
            }
            out
        }
        fn write(&mut self, tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome {
            self.0.write(tid, addr, value)
        }
        fn commit(&mut self, tid: ThreadId, now: Cycles) -> CommitOutcome {
            let mut out = self.0.commit(tid, now);
            if let CommitOutcome::Committed { commit_ts, .. } = &mut out {
                *commit_ts = None;
            }
            out
        }
        fn rollback(&mut self, tid: ThreadId) -> Cycles {
            self.0.rollback(tid)
        }
        fn store(&self) -> &MvmStore {
            self.0.store()
        }
        fn store_mut(&mut self) -> &mut MvmStore {
            self.0.store_mut()
        }
    }

    let cfg = MachineConfig::with_cores(CORES);
    let mut storm = RmwStorm {
        addr: Addr(0),
        txs_per_thread: TXS,
    };
    let shim = ValidatingNoTs(ShimProtocol::new(Mutation::None, CORES));
    let (stats, _) = Engine::new(shim, &mut storm, &cfg, 1)
        .record_history(1 << 16)
        .run();
    let h = stats.history.unwrap();
    assert!(h.committed().count() > 0);
    let report = check(Discipline::ConflictSerializable, &h);
    assert!(report.is_ok(), "{report}");
}
