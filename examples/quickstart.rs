//! Quickstart: concurrent banking under software snapshot isolation.
//!
//! Demonstrates the core SI-TM promises with the real-thread STM:
//! atomic multi-account transfers, consistent read-only audits that
//! never abort, and the abort statistics showing that only write-write
//! conflicts cost anything.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use std::thread;

use sitm::stm::{Stm, TVar};

const ACCOUNTS: usize = 16;
const THREADS: usize = 8;
const TRANSFERS_PER_THREAD: usize = 2_000;
const INITIAL_BALANCE: i64 = 1_000;

fn main() {
    let stm = Arc::new(Stm::snapshot());
    let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(INITIAL_BALANCE)).collect();

    thread::scope(|s| {
        // Transfer threads move money between random accounts.
        for t in 0..THREADS {
            let stm = Arc::clone(&stm);
            let accounts = accounts.clone();
            s.spawn(move || {
                let mut x = t as u64 + 1;
                let mut rand = move || {
                    // xorshift is plenty for load generation
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for _ in 0..TRANSFERS_PER_THREAD {
                    let from = (rand() % ACCOUNTS as u64) as usize;
                    let mut to = (rand() % ACCOUNTS as u64) as usize;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    let amount = (rand() % 50) as i64;
                    stm.atomically(|tx| {
                        let f = tx.read(&accounts[from])?;
                        let g = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], f - amount);
                        tx.write(&accounts[to], g + amount);
                        Ok(())
                    });
                }
            });
        }

        // An auditor repeatedly sums all balances from its snapshot.
        // Under snapshot isolation this read-only transaction commits
        // every single time — it can never conflict.
        let stm_audit = Arc::clone(&stm);
        let accounts_audit = accounts.clone();
        s.spawn(move || {
            for round in 0..200 {
                let total: i64 = stm_audit.atomically(|tx| {
                    let mut sum = 0;
                    for acct in &accounts_audit {
                        sum += tx.read(acct)?;
                    }
                    Ok(sum)
                });
                assert_eq!(
                    total,
                    ACCOUNTS as i64 * INITIAL_BALANCE,
                    "audit {round}: money is conserved in every snapshot"
                );
            }
            println!("auditor: 200 consistent snapshots, zero aborts by construction");
        });
    });

    let total: i64 = accounts.iter().map(TVar::load).sum();
    let stats = stm.stats();
    println!(
        "final total:            {total} (expected {})",
        ACCOUNTS as i64 * INITIAL_BALANCE
    );
    println!("committed transactions: {}", stats.commits());
    println!("write-write aborts:     {}", stats.write_write_aborts());
    assert_eq!(total, ACCOUNTS as i64 * INITIAL_BALANCE);
}
