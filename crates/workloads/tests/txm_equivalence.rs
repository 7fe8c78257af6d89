//! Differential test of the transaction machine: every registry
//! workload's programs, driven once through `LogicTx`'s coroutine and
//! once under the replay-on-miss semantics it replaced, issue identical
//! op streams — including where a torn view makes them restart.

use std::collections::HashMap;

use sitm_mvm::{Addr, MvmStore, Word};
use sitm_sim::{TxOp, TxProgram};
use sitm_workloads::{all_workloads, Scale};

/// Serves reads from the store; if `torn`, every other fetch returns a
/// value the store never held (a zombie's inconsistent view).
struct Feeder {
    torn: bool,
    fetches: u64,
}

impl Feeder {
    fn fetch(&mut self, store: &MvmStore, a: Addr) -> Word {
        self.fetches += 1;
        let v = store.read_word(a);
        if self.torn && self.fetches.is_multiple_of(2) {
            v.wrapping_add(1)
        } else {
            v
        }
    }
}

/// One attempt as the engine drives it: every `Read` is fetched.
fn coroutine(p: &mut dyn TxProgram, mut fetch: impl FnMut(Addr) -> Word) -> Vec<TxOp> {
    let mut ops = Vec::new();
    let mut input = None;
    loop {
        let op = p.resume(input.take());
        ops.push(op);
        match op {
            TxOp::Read(a) => input = Some(fetch(a)),
            TxOp::Commit | TxOp::Restart => return ops,
            _ => {}
        }
    }
}

/// One attempt under replay-on-miss: every miss re-creates the body from
/// scratch (`reset`) and re-runs it from the top, serving the addresses
/// fetched so far from a cache. A re-run repeats the previous run's ops
/// up to its miss, so only the ops past that point are new.
fn replay(p: &mut dyn TxProgram, mut fetch: impl FnMut(Addr) -> Word) -> Vec<TxOp> {
    let mut fetched: HashMap<Addr, Word> = HashMap::new();
    let mut ops = Vec::new();
    let mut replayed = 0;
    loop {
        p.reset();
        let mut input = None;
        for i in 0.. {
            let op = p.resume(input.take());
            if i >= replayed {
                ops.push(op);
            }
            match op {
                TxOp::Read(a) => match fetched.get(&a) {
                    Some(&v) => input = Some(v),
                    None => {
                        fetched.insert(a, fetch(a));
                        replayed = i + 1;
                        break;
                    }
                },
                TxOp::Commit | TxOp::Restart => return ops,
                _ => {}
            }
        }
    }
}

/// Runs every Quick-scale workload's programs through both drivers,
/// each against its own store, committing writes of streams that commit;
/// returns how many attempts restarted.
fn compare_drivers(torn: bool) -> usize {
    let mut restarts = 0;
    for mut w in all_workloads(Scale::Quick) {
        let mut store = MvmStore::new();
        w.setup(&mut store, 2);
        let mut stores = [store.clone(), store];
        let mut fa = Feeder { torn, fetches: 0 };
        let mut fb = Feeder { torn, fetches: 0 };
        for tid in 0..2 {
            let mut new = w.thread_workload(tid, 42 + tid as u64);
            let mut old = w.thread_workload(tid, 42 + tid as u64);
            let mut n = 0;
            while let Some(mut a) = new.next_transaction() {
                let mut b = old.next_transaction().expect("same stream");
                let [sa, sb] = &stores;
                let got = coroutine(&mut *a, |x| fa.fetch(sa, x));
                let want = replay(&mut *b, |x| fb.fetch(sb, x));
                assert_eq!(got, want, "{} thread {tid} tx {n}", w.name());
                match got.last() {
                    Some(TxOp::Commit) => {
                        for s in &mut stores {
                            for op in &got {
                                if let TxOp::Write(x, v) = *op {
                                    s.write_word(x, v);
                                }
                            }
                        }
                    }
                    _ => restarts += 1,
                }
                n += 1;
            }
            assert!(old.next_transaction().is_none(), "same stream length");
        }
    }
    restarts
}

#[test]
fn coroutine_matches_replay_on_consistent_views() {
    assert_eq!(
        compare_drivers(false),
        0,
        "a consistent view never restarts"
    );
}

#[test]
fn coroutine_matches_replay_on_torn_views() {
    let restarts = compare_drivers(true);
    assert!(restarts > 0, "torn views must exercise the zombie budget");
}
