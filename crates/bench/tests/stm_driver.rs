//! The paper's Listing 2 on the real STM, made deterministic: two
//! removals of adjacent list elements, the registry list's own
//! `ListOp` programs, interleaved on one thread through the STM driver.
//! Both snapshots are drawn before either transaction commits, which is
//! exactly the schedule in which snapshot isolation lets the unfixed
//! removals skew. A second test churns adjacent inserts and removals on
//! real threads and checks, after every round, that what a thread
//! removed is no longer linked. A third runs the STM under the engine
//! beside SI-TM, on a schedule where the two detect conflicts at
//! different granularities, and a fourth checks that the engine-driven
//! STM reclaims versions although every simulated thread's `Tx` lives
//! on the one host thread.

use sitm_bench::stm_driver::{StmMemory, StmProtocol};
use sitm_bench::{machine, seed_for};
use sitm_check::{check, Discipline};
use sitm_core::SiTm;
use sitm_mvm::{Addr, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::History;
use sitm_sim::{
    AbortCause, Engine, MachineConfig, QueueWorkload, ScriptedTx, ThreadWorkload, TxOp, TxProgram,
    Workload,
};
use sitm_stm::{Conflict, Stm};
use sitm_workloads::list::NULL;
use sitm_workloads::{all_workloads, ListOp, ListOpKind, ListWorkload, LogicTx, Scale};

/// Word `field` of node `line` in the list workload's layout.
fn word(line: u64, field: u64) -> Addr {
    Addr(line * WORDS_PER_LINE as u64 + field)
}

/// A sorted list of `keys` in the list workload's node layout (one node
/// per line: word 0 the value, word 1 the successor's line), returning
/// the sentinel head's line.
fn build_list(store: &mut MvmStore, keys: &[u64]) -> u64 {
    let head = store.alloc_lines(1).0;
    let mut prev = head;
    for &key in keys {
        let node = store.alloc_lines(1).0;
        store.write_word(word(node, 0), key);
        store.write_word(word(prev, 1), node);
        prev = node;
    }
    store.write_word(word(prev, 1), NULL);
    head
}

/// What `Stm::commit` returns.
type Commit = Result<Option<u64>, Conflict>;

/// Removes 20 and 30 from `10 → 20 → 30 → 40` in two transactions whose
/// snapshots both precede either commit. Returns both commit outcomes,
/// the list left behind, and the recorded history.
fn adjacent_removals(fix_skew: bool) -> (Commit, Commit, Vec<u64>, History) {
    let mut store = MvmStore::new();
    let head_line = build_list(&mut store, &[10, 20, 30, 40]);
    let memory = StmMemory::from_store(&store);
    let stm = Stm::snapshot().with_history(16);
    let remove = |target| {
        LogicTx::new(ListOp {
            head_line,
            target,
            kind: ListOpKind::Remove { fix_skew },
        })
    };

    let (mut first, mut second) = (stm.begin(), stm.begin());
    memory
        .drive(&mut first, &mut remove(20))
        .expect("reads succeed");
    memory
        .drive(&mut second, &mut remove(30))
        .expect("reads succeed");
    let first = stm.commit(first);
    let second = stm.commit(second);

    let list = ListWorkload::snapshot_values(&memory.to_store(), head_line);
    (first, second, list, stm.history().expect("recording is on"))
}

#[test]
fn listing_2_fix_turns_adjacent_removals_into_a_write_write_conflict() {
    let (first, second, list, history) = adjacent_removals(true);
    assert!(first.is_ok(), "the first removal commits: {first:?}");
    assert_eq!(
        second,
        Err(Conflict::WriteWrite),
        "the fix makes both removals write 20's next pointer"
    );
    assert_eq!(list, [10, 30, 40], "only the committed removal took effect");
    let report = check(Discipline::SerializableSnapshot, &history);
    assert!(report.is_ok(), "{report}");
}

#[test]
fn unfixed_adjacent_removals_both_commit_and_skew() {
    let (first, second, list, history) = adjacent_removals(false);
    assert!(first.is_ok() && second.is_ok(), "{first:?} {second:?}");
    assert_eq!(
        list,
        [10, 30, 40],
        "30's removal committed, yet 30 is still linked in"
    );
    // Snapshot isolation admits the schedule; serializability does not:
    // each removal read the next pointer the other one wrote.
    let si = check(Discipline::SnapshotIsolation, &history);
    assert!(si.is_ok(), "{si}");
    let serializable = check(Discipline::SerializableSnapshot, &history);
    assert!(!serializable.is_ok(), "the write skew is a cycle");
}

/// A read-only traversal of the list from one snapshot: after it
/// commits, `keys` holds the values linked in, in list order.
struct Scan {
    head_line: u64,
    /// The word the last `Read` asked for: a node's successor or value.
    step: Option<Step>,
    keys: Vec<u64>,
}

#[derive(Clone, Copy)]
enum Step {
    Next(u64),
    Value(u64),
}

impl TxProgram for Scan {
    fn resume(&mut self, input: Option<Word>) -> TxOp {
        let step = match (self.step, input) {
            (None, _) => Step::Next(self.head_line),
            (Some(Step::Next(_)), Some(NULL)) => return TxOp::Commit,
            (Some(Step::Next(_)), Some(node)) => Step::Value(node),
            (Some(Step::Value(node)), Some(key)) => {
                self.keys.push(key);
                Step::Next(node)
            }
            (Some(_), None) => unreachable!("a read resumes with its value"),
        };
        self.step = Some(step);
        TxOp::Read(match step {
            Step::Next(line) => word(line, 1),
            Step::Value(line) => word(line, 0),
        })
    }

    fn reset(&mut self) {
        self.step = None;
        self.keys.clear();
    }
}

#[test]
fn adjacent_structural_churn_on_real_threads_leaves_the_list_empty() {
    const THREADS: u64 = 4;
    const SPAN: u64 = 64;
    const ROUNDS: usize = 32;

    // An empty list, then one preallocated node per key 1..=SPAN.
    let mut store = MvmStore::new();
    let head_line = build_list(&mut store, &[]);
    let first_node = store.alloc_lines(SPAN).0;
    let memory = StmMemory::from_store(&store);
    let stm = Stm::snapshot().with_history(1 << 15);
    // Each attempt drives a fresh program.
    let run = |kind: ListOpKind, target| {
        stm.atomically(|tx| {
            let op = ListOp {
                head_line,
                target,
                kind,
            };
            memory.drive(tx, &mut LogicTx::new(op))
        });
    };
    let scan = || {
        let mut scan = Scan {
            head_line,
            step: None,
            keys: Vec::new(),
        };
        stm.atomically(|tx| {
            scan.reset();
            memory.drive(tx, &mut scan)
        });
        scan.keys
    };

    // Thread t owns the keys congruent to t mod THREADS, so every
    // structural neighbour of a key belongs to another thread and
    // adjacent insert/remove pairs constantly interleave: the shape of
    // the paper's Listing 2 anomaly, with its fix applied. After each
    // round's removals, none of the thread's keys may still be linked.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (run, scan) = (&run, &scan);
            s.spawn(move || {
                let own = || (1..=SPAN).filter(move |key| key % THREADS == t);
                for _ in 0..ROUNDS {
                    for key in own() {
                        let new_node = first_node + key - 1;
                        run(ListOpKind::Insert { new_node }, key);
                    }
                    for key in own() {
                        run(ListOpKind::Remove { fix_skew: true }, key);
                    }
                    let keys = scan();
                    let sorted = keys.windows(2).all(|pair| pair[0] < pair[1]);
                    assert!(sorted, "the list stays strictly sorted: {keys:?}");
                    let linked: Vec<_> = keys.iter().filter(|key| *key % THREADS == t).collect();
                    assert!(linked.is_empty(), "removed, yet still linked: {linked:?}");
                }
            });
        }
    });

    let list = ListWorkload::snapshot_values(&memory.to_store(), head_line);
    assert!(list.is_empty(), "every inserted key was removed: {list:?}");
    let history = stm.history().expect("recording is on");
    let report = check(Discipline::SnapshotIsolation, &history);
    assert!(report.is_ok(), "{report}");
}

/// Two threads, one transaction each: thread `t` reads and writes word
/// `t` of line 0. Both begin before either commits.
struct NeighbouringWords;

impl Workload for NeighbouringWords {
    fn name(&self) -> &str {
        "neighbouring-words"
    }

    fn setup(&mut self, mem: &mut MvmStore, _n_threads: usize) {
        mem.alloc_lines(1);
    }

    fn thread_workload(&self, tid: usize, _seed: u64) -> Box<dyn ThreadWorkload> {
        let a = word(0, tid as u64);
        let ops = vec![TxOp::Read(a), TxOp::Write(a, 1), TxOp::Commit];
        Box::new(QueueWorkload::new(vec![Box::new(ScriptedTx::new(ops))]))
    }
}

/// Why an STM cell certifies through the STM's own recorder: the STM
/// detects conflicts per word and the engine records lines, so two
/// legal commits to different words of one line look, in the engine's
/// record, like a first-committer-wins violation.
#[test]
fn the_stm_conflicts_per_word_where_si_tm_conflicts_per_line() {
    let cfg = MachineConfig::with_cores(2);

    let (si_tm, _) = Engine::new(SiTm::new(&cfg), &mut NeighbouringWords, &cfg, 1).run();
    assert_eq!(si_tm.commits(), 2);
    assert_eq!(
        si_tm.aborts_by(AbortCause::WriteWrite),
        1,
        "one line, one committer"
    );

    let stm = Stm::snapshot().with_history(16);
    let engine = Engine::new(StmProtocol::new(&cfg, stm), &mut NeighbouringWords, &cfg, 1);
    let (stats, protocol) = engine.record_history(16).run();
    assert_eq!((stats.commits(), stats.aborts()), (2, 0), "two words");
    let history = protocol.stm().history().expect("recording is on");
    let [first, second] = history.records() else {
        panic!("two attempts: {:?}", history.records())
    };
    assert!(
        first.begin_ts.max(second.begin_ts) < first.commit_ts.min(second.commit_ts),
        "the two transactions overlap: {first:?} {second:?}"
    );
    let per_word = check(Discipline::SnapshotIsolation, &history);
    assert!(per_word.is_ok(), "{per_word}");
    let per_line = check(
        Discipline::SnapshotIsolation,
        stats.history.as_ref().expect("the engine recorded lines"),
    );
    let rules: Vec<_> = per_line.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, ["first-committer-wins"], "{per_line}");
}

/// The engine keeps one open `Tx` per simulated thread, all on the host
/// thread that runs it, so their lifetimes overlap in a chain that
/// never breaks. Each registers its own snapshot, so the watermark
/// follows the oldest open one and installs reclaim what no snapshot
/// can reach. (Labyrinth is not here: a route claims free grid cells
/// only, so no cell is written twice and install-time GC has nothing
/// to retire at any watermark.)
#[test]
fn the_engine_driven_stm_reclaims_versions() {
    let cfg = machine(8);
    for mut workload in all_workloads(Scale::Default) {
        let name = workload.name().to_string();
        if !["vacation", "bayes"].contains(&name.as_str()) {
            continue;
        }
        let protocol = StmProtocol::new(&cfg, Stm::snapshot());
        let (stats, protocol) = Engine::new(protocol, workload.as_mut(), &cfg, seed_for(0)).run();
        assert!(stats.commits() > 0, "{name}: nothing committed");
        let retired = protocol.stm().stats().versions_retired();
        assert!(retired > 0, "{name}: no version was reclaimed");
    }
}
