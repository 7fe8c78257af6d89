//! Deterministic simulation tests (DST) of the real STM under a
//! seeded random scheduler with fault injection. Compiled only under
//! `--cfg loom` (the scheduler shims must be routed in):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p sitm-stm --release \
//!     --features loom-model --test dst
//! ```
//!
//! The contract under test is **replayability**: a run is a pure
//! function of its seed — same seed, same schedule, same injected
//! stalls, same history, same final state — so any failure CI prints
//! reproduces locally from the one number in the message. Every run's
//! recorded history is also fed to the `sitm-check` oracle, giving each
//! random schedule a machine-checked snapshot-isolation certificate.
//! And each run checks that GC is live as well as safe: with no commit
//! in flight, a rescan puts the watermark at the oldest live begin, or
//! at the clock when no transaction is live.

#![cfg(loom)]

use std::sync::Arc;

use sitm_check::{check, Discipline};
use sitm_loom::{dst, thread, FaultPlan};
use sitm_obs::{run_seeded_cases, History, SmallRng};
use sitm_stm::{model_support, refresh_watermark, Stm, TVar};

/// Accounts in the bank workload.
const ACCOUNTS: usize = 4;
/// Initial balance per account.
const BALANCE: i64 = 100;
/// Concurrent transfer threads per run.
const THREADS: usize = 3;
/// Transfers per thread per run.
const TRANSFERS: usize = 3;

/// One seeded DST run of the bank workload: random transfers between
/// accounts from [`THREADS`] threads, every attempt recorded. Returns
/// the final balances and the recorded history.
fn bank_run(seed: u64) -> (Vec<i64>, History) {
    model_support::reset();
    model_support::break_fcw_validation(false);
    model_support::break_tick_under_locks(false);
    let stm = Arc::new(Stm::snapshot().with_history(4096));
    let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(BALANCE)).collect();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stm = Arc::clone(&stm);
            let accounts = accounts.clone();
            thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (0x9E37_79B9 * (t as u64 + 1)));
                for _ in 0..TRANSFERS {
                    let from = rng.gen_range(0..ACCOUNTS);
                    let to = rng.gen_range(0..ACCOUNTS);
                    let amount = rng.gen_range(1..=25i64);
                    stm.atomically(|tx| {
                        let f = tx.read(&accounts[from])?;
                        let t = tx.read(&accounts[to])?;
                        if from != to {
                            tx.write(&accounts[from], f - amount);
                            tx.write(&accounts[to], t + amount);
                        }
                        Ok(())
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let finals: Vec<i64> = accounts.iter().map(TVar::load).collect();
    let history = stm.history().expect("recording enabled");
    // Every thread is joined, so no transaction is live: the clock is
    // the newest commit timestamp, and a rescan must reach it.
    let clock = history
        .records()
        .iter()
        .filter_map(|r| r.commit_ts)
        .max()
        .unwrap_or(0);
    let wm = refresh_watermark();
    assert_eq!(
        wm, clock,
        "seed {seed:#x}: idle watermark {wm} lags the clock {clock}"
    );
    (finals, history)
}

#[test]
fn dst_bank_conserves_money_and_certifies_si() {
    run_seeded_cases(4, 0xD57_0001, |index, _| {
        let seed = 0xD57_0001 + index;
        let ((finals, history), report) =
            dst::run_seeded(seed, FaultPlan::default(), move || bank_run(seed));
        assert_eq!(
            finals.iter().sum::<i64>(),
            ACCOUNTS as i64 * BALANCE,
            "seed {seed:#x} lost or minted money: {finals:?}"
        );
        let oracle = check(Discipline::SnapshotIsolation, &history);
        assert!(
            oracle.is_ok(),
            "seed {seed:#x} produced an uncertifiable history:\n{oracle}"
        );
        assert!(report.decisions > 0, "the scheduler made no decisions");
    });
}

#[test]
fn dst_same_seed_replays_byte_identical() {
    for seed in [0x51u64, 0xA5C0, 0xFEED_F00D] {
        let run = |seed: u64| dst::run_seeded(seed, FaultPlan::default(), move || bank_run(seed));
        let ((finals_a, history_a), report_a) = run(seed);
        let ((finals_b, history_b), report_b) = run(seed);
        assert_eq!(
            finals_a, finals_b,
            "seed {seed:#x}: final balances diverged"
        );
        assert_eq!(
            format!("{history_a:?}"),
            format!("{history_b:?}"),
            "seed {seed:#x}: recorded histories diverged"
        );
        assert_eq!(report_a, report_b, "seed {seed:#x}: run reports diverged");
        assert_eq!(report_a.seed, seed);
    }
}

/// One seeded interleaving of [`THREADS`] hand-driven transfer
/// transactions (`Stm::begin` .. `Stm::commit`, stepped one operation
/// at a time in an order drawn from `seed`), with history recording on
/// or off. Returns the final balances and the runtime's commit and
/// per-kind abort counts. Every lane's transaction lives on the one
/// stepping thread, so their lifetimes overlap; after each step a
/// rescan must put the watermark at the oldest open snapshot.
fn stepped_run(seed: u64, record: bool) -> (Vec<i64>, [u64; 3]) {
    model_support::reset();
    model_support::break_fcw_validation(false);
    model_support::break_tick_under_locks(false);
    let stm = if record {
        Stm::snapshot().with_history(4096)
    } else {
        Stm::snapshot()
    };
    let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(BALANCE)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Per lane: the open transaction, how many operations it has
    // issued, and the transfer it performs.
    let mut lanes: Vec<Option<(sitm_stm::Tx, usize, usize, usize)>> =
        (0..THREADS).map(|_| None).collect();
    // The clock: `reset` zeroes it and each writing commit ticks it.
    let mut clock = 0;
    for _ in 0..THREADS * TRANSFERS * 8 {
        let lane = rng.gen_range(0..THREADS);
        lanes[lane] = match lanes[lane].take() {
            None => {
                let from = rng.gen_range(0..ACCOUNTS);
                let to = (from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
                Some((stm.begin(), 0, from, to))
            }
            Some((mut tx, step, from, to)) => match step {
                0 | 1 => {
                    let (account, delta) = if step == 0 { (from, -7) } else { (to, 7) };
                    let balance = tx.read(&accounts[account]).expect("dynamic retention");
                    tx.write(&accounts[account], balance + delta);
                    Some((tx, step + 1, from, to))
                }
                _ => {
                    // A conflict is counted, not retried.
                    if let Ok(Some(end)) = stm.commit(tx) {
                        clock = end;
                    }
                    None
                }
            },
        };
        let oldest = lanes.iter().flatten().map(|(tx, ..)| tx.snapshot()).min();
        let wm = refresh_watermark();
        assert_eq!(
            wm,
            oldest.unwrap_or(clock),
            "seed {seed:#x}: watermark {wm} is not the oldest open snapshot {oldest:?} (clock {clock})"
        );
    }
    drop(lanes); // open transactions roll back
    let stats = stm.stats();
    (
        accounts.iter().map(TVar::load).collect(),
        [
            stats.commits(),
            stats.write_write_aborts(),
            stats.read_validation_aborts(),
        ],
    )
}

#[test]
fn dst_recording_does_not_change_what_is_observed() {
    // Turning the history on must not alter the execution it records:
    // the same seeded schedule ends in the same balances and the same
    // commit and abort counts either way.
    let mut aborts = 0;
    for seed in [0x0B5E_0001u64, 0x0B5E_0002, 0x0B5E_0003] {
        let run = |record: bool| {
            dst::run_seeded(seed, FaultPlan::default(), move || {
                stepped_run(seed, record)
            })
            .0
        };
        let (plain, recorded) = (run(false), run(true));
        assert_eq!(plain, recorded, "seed {seed:#x}: recording changed the run");
        assert_eq!(plain.0.iter().sum::<i64>(), ACCOUNTS as i64 * BALANCE);
        assert!(plain.1[0] > 0, "seed {seed:#x} committed nothing");
        aborts += plain.1[1];
    }
    assert!(aborts > 0, "no schedule made two transfers collide");
}

#[test]
fn dst_fault_plan_injects_stalls() {
    // Across a small seed sweep the default plan (8% stall chance per
    // decision) must actually fire — a DST harness whose faults never
    // trigger tests nothing.
    let mut stalls = 0u64;
    for seed in 0..8u64 {
        let (_, report) = dst::run_seeded(seed, FaultPlan::default(), move || bank_run(seed));
        assert_eq!(report.seed, seed);
        stalls += report.stalls_injected;
    }
    assert!(stalls > 0, "no stalls injected across 8 seeded runs");
}

#[test]
fn dst_skip_fcw_mutation_is_caught_by_the_oracle() {
    // Re-break first-committer-wins (the PR 4 bug class) and let the
    // random scheduler hunt: increments race, updates get lost, and —
    // the point of the exercise — the sitm-check oracle must reject
    // the recorded history, not just the final count.
    const PER_THREAD: u64 = 4;
    let mut lost_updates = 0u64;
    let mut oracle_rejections = 0u64;
    for seed in 0..24u64 {
        let ((total, history), _report) = dst::run_seeded(seed, FaultPlan::default(), move || {
            model_support::reset();
            model_support::break_fcw_validation(true);
            model_support::break_tick_under_locks(false);
            let stm = Arc::new(Stm::snapshot().with_history(4096));
            let counter = TVar::new(0u64);
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let stm = Arc::clone(&stm);
                    let counter = counter.clone();
                    thread::spawn(move || {
                        for _ in 0..PER_THREAD {
                            stm.atomically(|tx| {
                                let v = tx.read(&counter)?;
                                tx.write(&counter, v + 1);
                                Ok(())
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            let total = counter.load();
            let history = stm.history().expect("recording enabled");
            // The knob is process-global: switch it back off before
            // the run ends so no later run inherits it.
            model_support::break_fcw_validation(false);
            (total, history)
        });
        if total != 2 * PER_THREAD {
            lost_updates += 1;
            let oracle = check(Discipline::SnapshotIsolation, &history);
            assert!(
                !oracle.is_ok(),
                "seed {seed:#x} lost updates ({total}/{}) yet the oracle certified it",
                2 * PER_THREAD
            );
            assert!(
                oracle
                    .violations
                    .iter()
                    .any(|v| v.rule == "first-committer-wins"),
                "seed {seed:#x}: lost update misattributed:\n{oracle}"
            );
            oracle_rejections += 1;
        }
    }
    assert!(
        lost_updates > 0,
        "24 seeded runs with FCW disabled never lost an update"
    );
    assert_eq!(lost_updates, oracle_rejections);
}
