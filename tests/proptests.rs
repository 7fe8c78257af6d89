//! Randomized model-checking tests over the core data structures and
//! invariants.
//!
//! These were originally property-based tests; the hermetic build has no
//! external generator crate, so each property now runs against a few
//! hundred deterministic seeded cases through
//! [`sitm_obs::run_seeded_cases`], which prints the failing seed on any
//! panic and scales the case count via `SITM_PROPTEST_CASES`. The
//! proptest shrink database this replaced is gone; its one surviving
//! counterexample (five repeated writes to one line) is pinned as the
//! deterministic prologue of `store_snapshot_reads_are_committed_prefixes`.

use sitm_mvm::{
    ActiveTransactions, MvmStore, OverflowPolicy, ThreadId, Timestamp, VersionList, ZERO_LINE,
};
use sitm_obs::{run_seeded_cases, SmallRng};

const CASES: u64 = 200;

/// Reference model of a version list: every version ever installed,
/// without caps, coalescing or GC. Snapshot reads against the real list
/// must agree with the model whenever the real list still retains a
/// version old enough.
#[derive(Default)]
struct ModelList {
    versions: Vec<(u64, u64)>, // (ts, fill value), ascending
}

impl ModelList {
    fn install(&mut self, ts: u64, fill: u64) {
        self.versions.push((ts, fill));
    }

    fn read(&self, snapshot: u64) -> Option<u64> {
        self.versions
            .iter()
            .rev()
            .find(|&&(ts, _)| ts <= snapshot)
            .map(|&(_, fill)| fill)
    }
}

fn vec_of(
    rng: &mut SmallRng,
    len: std::ops::Range<usize>,
    mut gen: impl FnMut(&mut SmallRng) -> u64,
) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| gen(rng)).collect()
}

/// With an unbounded policy and a pinned ancient snapshot, the real
/// version list agrees with the naive model for every snapshot point.
#[test]
fn version_list_matches_model_unbounded() {
    run_seeded_cases(CASES, 0x5157_0000, |_, rng| {
        let installs = vec_of(rng, 1..40, |r| r.gen_range(1u64..500));
        let snapshots = vec_of(rng, 1..20, |r| r.gen_range(0u64..600));

        let mut vl = VersionList::new();
        let mut model = ModelList::default();
        let mut active = ActiveTransactions::new();
        // Pin everything so GC cannot reclaim and nothing coalesces
        // invisibly... coalescing still merges versions with no
        // snapshot between them, so pin a dense set of snapshots.
        active.register(ThreadId(0), Timestamp(0));
        let mut ts = 0u64;
        for (i, gap) in installs.iter().enumerate() {
            ts += gap;
            // A snapshot right before each install keeps every version
            // distinct under the coalescing rule.
            active.register(ThreadId(i + 1), Timestamp(ts - 1));
            vl.install(
                Timestamp(ts),
                [ts; 8],
                &active,
                usize::MAX,
                OverflowPolicy::Unbounded,
            )
            .unwrap();
            model.install(ts, ts);
        }
        for snap in snapshots {
            let real = vl.read_snapshot(Timestamp(snap)).map(|r| r.data[0]);
            // A never-truncated line with no old-enough version reads
            // as the zero line.
            let expected = Some(model.read(snap).unwrap_or(ZERO_LINE[0]));
            assert_eq!(real, expected, "snapshot {snap}");
        }
    });
}

/// Drives one write schedule against a pin-per-install store and checks
/// that a maximal snapshot sees exactly the newest committed values.
fn check_committed_prefix(writes: &[(u64, u64)]) {
    // Unbounded policy: the schedule pins a snapshot per install, which
    // legitimately overflows the default 4-version cap.
    let mut mem = MvmStore::with_config(sitm_mvm::MvmConfig {
        version_cap: usize::MAX,
        overflow_policy: OverflowPolicy::Unbounded,
        coalescing: true,
    });
    let base = mem.alloc_lines(4);
    let mut newest = [0u64; 4];
    let mut ts = 0u64;
    // An ancient pinned reader plus per-install snapshots.
    mem.register_transaction(ThreadId(100), Timestamp(0));
    for (i, (lineno, value)) in writes.iter().enumerate() {
        ts += 2;
        mem.register_transaction(ThreadId(i), Timestamp(ts - 1));
        let line = sitm_mvm::LineAddr(base.0 + lineno);
        let mut data = mem.read_line(line);
        data[0] = *value;
        mem.install(line, Timestamp(ts), data).unwrap();
        newest[*lineno as usize] = *value;
    }
    // A maximal snapshot sees exactly the newest committed values.
    for lineno in 0..4u64 {
        let line = sitm_mvm::LineAddr(base.0 + lineno);
        let got = mem
            .read_snapshot(line, Timestamp(u64::MAX - 10))
            .unwrap()
            .data[0];
        assert_eq!(got, newest[lineno as usize], "line {lineno}");
    }
}

/// Snapshot reads through the store never observe a torn line: a line
/// only ever holds values installed for it, and the newest committed
/// write wins for fresh snapshots.
#[test]
fn store_snapshot_reads_are_committed_prefixes() {
    // The counterexample from the retired proptest shrink database:
    // repeated same-value writes to one line exercised a coalescing
    // bug.
    check_committed_prefix(&[(0, 1); 5]);

    run_seeded_cases(CASES, 0x5157_1000, |_, rng| {
        let n = rng.gen_range(1..30usize);
        let writes: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..4), rng.gen_range(1u64..1000)))
            .collect();
        check_committed_prefix(&writes);
    });
}

/// The coalescing rule preserves exactly the versions some live snapshot
/// can observe: after arbitrary installs with a set of live snapshots,
/// every live snapshot reads the same value it would have read from the
/// unbounded model.
#[test]
fn coalescing_preserves_live_snapshot_reads() {
    run_seeded_cases(CASES, 0x5157_2000, |_, rng| {
        let gaps = vec_of(rng, 1..25, |r| r.gen_range(1u64..20));
        let snap_points = vec_of(rng, 1..8, |r| r.gen_range(0u64..300));

        let mut active = ActiveTransactions::new();
        for (i, s) in snap_points.iter().enumerate() {
            active.register(ThreadId(i), Timestamp(*s));
        }
        let mut vl = VersionList::new();
        let mut model = ModelList::default();
        let mut ts = 0;
        for gap in gaps {
            ts += gap;
            vl.install(
                Timestamp(ts),
                [ts; 8],
                &active,
                usize::MAX,
                OverflowPolicy::Unbounded,
            )
            .unwrap();
            model.install(ts, ts);
        }
        for s in &snap_points {
            let real = vl.read_snapshot(Timestamp(*s)).map(|r| r.data[0]);
            let expected = Some(model.read(*s).unwrap_or(0));
            assert_eq!(real, expected, "snapshot {s}");
        }
        // And the newest version is always readable.
        assert_eq!(
            vl.read_snapshot(Timestamp(u64::MAX - 1)).unwrap().data[0],
            ts
        );
    });
}

mod stm_props {
    use sitm_obs::run_seeded_cases;
    use sitm_stm::{Stm, TVar};

    /// Sequential transactional execution of arbitrary transfer
    /// sequences conserves the total balance.
    #[test]
    fn transfers_conserve_total() {
        run_seeded_cases(super::CASES, 0x5157_3000, |_, rng| {
            let n = rng.gen_range(1..60usize);
            let transfers: Vec<(usize, usize, i64)> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0usize..8),
                        rng.gen_range(0usize..8),
                        rng.gen_range(0i64..50),
                    )
                })
                .collect();

            let stm = Stm::snapshot();
            let accounts: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(100)).collect();
            for (from, to, amount) in transfers {
                stm.atomically(|tx| {
                    let f = tx.read(&accounts[from])?;
                    let t = tx.read(&accounts[to])?;
                    tx.write(&accounts[from], f - amount);
                    // Read-own-write must hold even when from == to.
                    let t = if from == to {
                        tx.read(&accounts[to])?
                    } else {
                        t
                    };
                    tx.write(&accounts[to], t + amount);
                    Ok(())
                });
            }
            let total: i64 = accounts.iter().map(TVar::load).sum();
            assert_eq!(total, 800);
        });
    }

    /// try_atomically with a conflicting concurrent commit reports the
    /// conflict and leaves no partial state.
    #[test]
    fn aborted_attempts_leave_no_trace() {
        run_seeded_cases(super::CASES, 0x5157_4000, |_, rng| {
            let value = rng.gen_range(1u64..1000);

            let stm = Stm::snapshot();
            let var = TVar::new(0u64);
            let conflict = stm.try_atomically(&mut |tx| {
                let v = tx.read(&var)?;
                // A foreign commit lands mid-transaction.
                let other = Stm::snapshot();
                other.atomically(|tx2| {
                    tx2.write(&var, value);
                    Ok(())
                });
                tx.write(&var, v + 1);
                Ok(())
            });
            assert!(conflict.is_err(), "stale snapshot must fail validation");
            assert_eq!(var.load(), value, "the failed attempt published nothing");
        });
    }
}

mod rbtree_props {
    use sitm_mvm::{MvmStore, Word};
    use sitm_obs::run_seeded_cases;
    use std::collections::BTreeSet;

    /// Arbitrary interleavings of insert/remove through the
    /// transactional red-black tree match a reference BTreeSet and
    /// preserve all tree invariants.
    #[test]
    fn rbtree_matches_reference() {
        use sitm_workloads::{check_tree, run_on_store, LogicTx, RbOp, RbOpKind, RbTree};

        // The tree check walks the whole structure after every op, so
        // use fewer (larger) cases than the cheap properties.
        run_seeded_cases(64, 0x5157_5000, |_, rng| {
            let n = rng.gen_range(1..120usize);
            let ops: Vec<(bool, u64)> = (0..n)
                .map(|_| (rng.gen_bool(0.5), rng.gen_range(1u64..64)))
                .collect();

            let mut mem = MvmStore::new();
            let root_ptr = mem.alloc_lines(1).first_word();
            mem.write_word(root_ptr, u64::MAX); // NIL
            let tree = RbTree { root_ptr };
            let mut reference: BTreeSet<Word> = BTreeSet::new();

            for (insert, key) in ops {
                let kind = if insert {
                    RbOpKind::Insert {
                        new_node: mem.alloc_lines(1).0,
                    }
                } else {
                    RbOpKind::Remove
                };
                run_on_store(&mut mem, &mut LogicTx::new(RbOp { tree, key, kind }));
                if insert {
                    reference.insert(key);
                } else {
                    reference.remove(&key);
                }
                let keys = check_tree(&mem, root_ptr)
                    .unwrap_or_else(|e| panic!("invariant violated: {e}"));
                let expect: Vec<Word> = reference.iter().copied().collect();
                assert_eq!(keys, expect);
            }
        });
    }
}
