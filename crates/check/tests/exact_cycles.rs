//! The write-skew tool reads the oracle's exact rw-edges: each runs from
//! the version a read observed to the writer of the next version, never
//! from two lifetimes merely overlapping. So the tool flags a history
//! exactly when `Discipline::SerializableSnapshot` rejects it.

use std::sync::{Arc, Barrier};
use std::thread;

use sitm_check::skew::analyze;
use sitm_check::{check, Discipline};
use sitm_core::SiTm;
use sitm_obs::{History, OpKind, TxnBuilder};
use sitm_sim::{Engine, MachineConfig};
use sitm_stm::{Stm, TVar};
use sitm_workloads::{all_workloads, Scale};

fn read(line: u64, ts: u64) -> OpKind {
    OpKind::Read {
        line,
        observed: Some(ts),
    }
}

fn write(line: u64) -> OpKind {
    OpKind::Write { line }
}

/// Two overlapping lifetimes with every dependency pointing one way.
/// T2 reads y@0, writes x and commits at ts 1; T1 begins at ts 1 while
/// T2 is still finishing, reads T2's x and writes y. T2 precedes T1 on
/// both lines: serializable, so not a skew.
#[test]
fn overlapping_but_serializable_pair_is_clean() {
    let (x, y) = (1, 2);
    let mut t2 = TxnBuilder::new(2, 0, 0, 0, Some(0));
    t2.op(1, read(y, 0));
    let mut t1 = TxnBuilder::new(1, 1, 0, 2, Some(1));
    t2.op(3, write(x));
    t1.op(5, read(x, 1));
    t1.op(6, write(y));
    let mut h = History::default();
    h.push(t2.commit(4, Some(1)));
    h.push(t1.commit(7, Some(2)));

    assert!(check(Discipline::SerializableSnapshot, &h).is_ok());
    let report = analyze(&h);
    assert!(report.is_clean(), "{report}");
}

/// Fekete, O'Neil & O'Neil's read-only anomaly: two updaters that are
/// serializable alone, and a read-only transaction that sees one but not
/// the other. No two transactions form a cycle; all three do:
/// A -rw(x)-> B -wr(x)-> C -rw(y)-> A.
#[test]
fn read_only_anomaly_is_one_three_cycle() {
    let (x, y) = (10, 11);
    let (a, b, c) = (1, 2, 3);
    let mut ta = TxnBuilder::new(a, 0, 0, 0, Some(0));
    ta.op(1, read(x, 0));
    let mut tb = TxnBuilder::new(b, 1, 0, 2, Some(0));
    tb.op(3, write(x));
    let mut h = History::default();
    h.push(tb.commit(4, Some(1)));
    let mut tc = TxnBuilder::new(c, 2, 0, 5, Some(1));
    tc.op(6, read(x, 1));
    tc.op(7, read(y, 0));
    h.push(tc.commit(8, None));
    ta.op(9, write(y));
    h.push(ta.commit(10, Some(2)));
    h.set_label(x, "x");
    h.set_label(y, "y");

    assert!(check(Discipline::SnapshotIsolation, &h).is_ok());
    let ssi = check(Discipline::SerializableSnapshot, &h);
    assert_eq!(ssi.violations.len(), 1, "{ssi}");
    assert_eq!(ssi.violations[0].rule, "mvsg-cycle");

    let report = analyze(&h);
    assert_eq!(report.findings.len(), 1, "{report}");
    assert_eq!(report.findings[0].transactions, vec![a, b, c]);
    let proposed: Vec<(u64, &str)> = report
        .promotions
        .iter()
        .map(|p| (p.tx, p.name.as_str()))
        .collect();
    assert_eq!(proposed, [(a, "x"), (c, "y")]);
}

/// Every registry workload under SI-TM: the tool finds a cycle exactly
/// when the serializability oracle rejects the history.
#[test]
fn simulator_histories_agree_with_the_serializability_oracle() {
    let cfg = MachineConfig::with_cores(8);
    let mut unclean = Vec::new();
    for mut workload in all_workloads(Scale::Quick) {
        let (stats, _) = Engine::new(SiTm::new(&cfg), &mut *workload, &cfg, 0)
            .record_history(1 << 20)
            .run();
        let h = stats.history.expect("recording is on");
        let name = workload.name().to_string();
        let si = check(Discipline::SnapshotIsolation, &h);
        assert!(si.is_ok(), "{name}: {si}");
        let serializable = check(Discipline::SerializableSnapshot, &h).is_ok();
        let report = analyze(&h);
        assert_eq!(report.is_clean(), serializable, "{name}: {report}");
        if !serializable {
            unclean.push(name);
        }
    }
    assert!(!unclean.is_empty(), "some SI-TM run should skew");
}

/// The history + analyzer pipeline on a history recorded from real
/// threads: a skew-prone workload is flagged, with both variables
/// named.
#[test]
fn skew_pipeline_on_real_traces() {
    // Run the two withdrawals behind a barrier that maximizes overlap
    // and retry until the recorded history contains an actual overlap.
    for _ in 0..500 {
        let stm = Arc::new(Stm::snapshot().with_history(64));
        let checking = TVar::new_labeled("checking", 60i64);
        let saving = TVar::new_labeled("saving", 60i64);
        let barrier = Arc::new(Barrier::new(2));
        thread::scope(|s| {
            for from_checking in [true, false] {
                let stm = Arc::clone(&stm);
                let (c, v) = (checking.clone(), saving.clone());
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    stm.atomically(|tx| {
                        let cv = tx.read(&c)?;
                        // Encourage overlap even on a single-CPU host.
                        std::thread::yield_now();
                        let sv = tx.read(&v)?;
                        if cv + sv > 100 {
                            if from_checking {
                                tx.write(&c, cv - 100);
                            } else {
                                tx.write(&v, sv - 100);
                            }
                        }
                        Ok(())
                    });
                });
            }
        });
        let report = analyze(&stm.history().expect("recording is on"));
        if !report.is_clean() {
            // Found an overlapping schedule: the analyzer must name both
            // variables and propose promotions.
            let names = report.involved_names();
            assert!(names.contains("checking") && names.contains("saving"));
            assert!(!report.promotions.is_empty());
            return;
        }
    }
    panic!("500 rounds never produced an overlapping schedule");
}
