//! Long-running analytics over live data: the paper's flagship use case.
//!
//! The array microbenchmark's motivation (section 6.2/6.3) in library
//! form: short update transactions mutate a table at full speed while a
//! long-running read-only transaction scans all of it. Under 2PL-style
//! TM the scan would be aborted by every committing update — the paper
//! calls this livelock. Under snapshot isolation the scan is guaranteed
//! to commit, and every value it sees comes from one consistent point
//! in time.
//!
//! The demo maintains the invariant "all cells sum to zero" (updates
//! move value between two cells atomically), so any torn read would be
//! visible immediately.
//!
//! Run with: `cargo run --release --example snapshot_analytics`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use sitm::stm::{Stm, TVar};

const CELLS: usize = 256;
const SCANS: usize = 100;

fn main() {
    let stm = Arc::new(Stm::snapshot());
    // Every version stays alive while the analyst's snapshot can still
    // read it and is epoch-GC'd afterwards, so the scan can take as
    // long as it likes no matter how fast the updates churn. (The
    // paper's hardware caps versions per line; `ablate_version_cap`
    // measures what that cap costs in the simulator.)
    let cells: Vec<TVar<i64>> = (0..CELLS).map(|_| TVar::new(0)).collect();
    let stop = Arc::new(AtomicBool::new(false));

    thread::scope(|s| {
        // Update threads: move a random amount between two cells.
        for t in 0..6u64 {
            let stm = Arc::clone(&stm);
            let cells = cells.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut x = t + 1;
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let mut updates = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let i = (rand() % CELLS as u64) as usize;
                    let mut j = (rand() % CELLS as u64) as usize;
                    if i == j {
                        j = (j + 1) % CELLS;
                    }
                    let delta = (rand() % 100) as i64;
                    stm.atomically(|tx| {
                        let a = tx.read(&cells[i])?;
                        let b = tx.read(&cells[j])?;
                        tx.write(&cells[i], a - delta);
                        tx.write(&cells[j], b + delta);
                        Ok(())
                    });
                    updates += 1;
                }
                updates
            });
        }

        // The analyst: full-table scans, read-only, never aborted.
        let stm_scan = Arc::clone(&stm);
        let cells_scan = cells.clone();
        let stop_scan = Arc::clone(&stop);
        s.spawn(move || {
            for round in 0..SCANS {
                let sum: i64 = stm_scan.atomically(|tx| {
                    let mut sum = 0;
                    for c in &cells_scan {
                        sum += tx.read(c)?;
                    }
                    Ok(sum)
                });
                assert_eq!(sum, 0, "scan {round}: snapshot must be consistent");
            }
            stop_scan.store(true, Ordering::Relaxed);
            println!("analyst: {SCANS} consistent full-table scans completed");
        });
    });

    let stats = stm.stats();
    println!("update commits:     {}", stats.commits() - SCANS as u64);
    println!("write-write aborts: {}", stats.write_write_aborts());
    println!("versions retired:   {}", stats.versions_retired());
    println!();
    println!("every scan committed and saw a zero-sum snapshot, while updates");
    println!("committed concurrently — the behaviour 2PL-style TM cannot offer.");
}
