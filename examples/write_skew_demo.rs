//! Write-skew detection and repair, end to end (paper section 5).
//!
//! Reproduces the Listing 1 banking anomaly with the software STM:
//!
//! 1. run concurrent withdrawals under plain snapshot isolation with
//!    history recording on — the combined balance can go negative;
//! 2. feed the recorded history to the `sitm::skew` analyzer — it finds
//!    the dangerous cycle over `checking`/`saving` and proposes read
//!    promotions;
//! 3. re-run with the proposed promotions applied — the invariant holds.
//!
//! Run with: `cargo run --release --example write_skew_demo`. Given a
//! path argument, the demo also writes the recorded history there as
//! `sitm.txn.v1` JSONL, the input of the offline `skew_analyze` binary.

use std::sync::Arc;
use std::thread;

use sitm::skew;
use sitm::stm::{Stm, TVar};

const ROUNDS: usize = 1000;

/// Runs the two-sided withdrawal workload on `stm`; `promote` applies
/// the skew fix. Returns the minimum combined balance ever committed.
fn run_bank(promote: bool, stm: &Arc<Stm>) -> i64 {
    let mut min_total = i64::MAX;
    for _ in 0..ROUNDS {
        let checking = TVar::new_labeled("checking", 60i64);
        let saving = TVar::new_labeled("saving", 60i64);
        thread::scope(|s| {
            for from_checking in [true, false] {
                let stm = Arc::clone(stm);
                let checking = checking.clone();
                let saving = saving.clone();
                s.spawn(move || {
                    stm.atomically(|tx| {
                        let c = tx.read(&checking)?;
                        // Widen the overlap window so the demo shows the
                        // anomaly even on a single-CPU host.
                        std::thread::yield_now();
                        let v = tx.read(&saving)?;
                        if c + v > 100 {
                            if from_checking {
                                if promote {
                                    tx.promote(&saving);
                                }
                                tx.write(&checking, c - 100);
                            } else {
                                if promote {
                                    tx.promote(&checking);
                                }
                                tx.write(&saving, v - 100);
                            }
                        }
                        Ok(())
                    });
                });
            }
        });
        min_total = min_total.min(checking.load() + saving.load());
    }
    min_total
}

fn main() {
    // Step 1: plain SI, recorded. Each withdrawal may retry a few
    // times, so leave the history generous headroom.
    let stm = Arc::new(Stm::snapshot().with_history(16 * ROUNDS));
    let min_total = run_bank(false, &stm);
    println!("plain snapshot isolation: minimum combined balance = {min_total}");
    if min_total < 0 {
        println!("  -> the Listing 1 write skew fired: both withdrawals committed\n");
    } else {
        println!("  -> this run's interleavings did not trigger the skew; the");
        println!("     analyzer still finds the dangerous structure in the trace\n");
    }

    // Step 2: analyze the recorded history.
    let history = stm.history().expect("recording is on");
    println!("analyzing {} recorded attempts...", history.len());
    let report = skew::analyze(&history);
    println!("{report}");
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, history.to_jsonl()).expect("write the history");
        println!("history written to {path}");
    }

    // Step 3: apply the proposed promotions and re-run.
    let wants_promotion = |name: &str| report.promotions.iter().any(|p| p.name == name);
    assert!(
        report.is_clean() || (wants_promotion("checking") && wants_promotion("saving")),
        "the analyzer must pinpoint the invariant's variables"
    );
    let fixed_min = run_bank(true, &Arc::new(Stm::snapshot()));
    println!("with read promotion applied: minimum combined balance = {fixed_min}");
    assert!(fixed_min >= 0, "promotion removes the anomaly");
    println!("  -> invariant preserved; the skew is gone");
}
