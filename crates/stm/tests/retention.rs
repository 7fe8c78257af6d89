//! Real-thread tests of dynamic version retention and epoch GC
//! (DESIGN.md §14): live snapshots force retention, the watermark
//! releases it, and spill storage stays bounded without live readers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use sitm_obs::{run_seeded_cases, SmallRng};
use sitm_stm::{live_snapshots, refresh_watermark, IsolationLevel, Stm, TVar};

/// The tests below assert global-watermark progress and version-count
/// bounds, which a *concurrently running* parked-reader test would
/// invalidate (its live snapshot legitimately pins retention for the
/// whole process). Serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A parked long reader pins the watermark: every version committed
/// while it lives must stay reachable, and the reader must still
/// observe its begin-time snapshot after thousands of writer commits.
/// Once the reader finishes, epoch GC reclaims the pile.
#[test]
fn parked_long_reader_forces_retention_then_gc_reclaims() {
    let _guard = serial();
    const WRITER_COMMITS: u64 = 5_000;

    let stm = Arc::new(Stm::snapshot());
    let cell = TVar::new(0u64);
    let (started_tx, started_rx) = mpsc::channel::<(u64, u64)>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();

    let reader = {
        let stm = Arc::clone(&stm);
        let cell = cell.clone();
        thread::spawn(move || {
            stm.atomically(|tx| {
                let first = tx.read(&cell)?;
                started_tx
                    .send((first, tx.snapshot()))
                    .expect("main thread alive");
                // Park mid-transaction until the writers are done.
                resume_rx.recv().expect("main thread alive");
                let second = tx.read(&cell)?;
                Ok((first, second))
            })
        })
    };

    let (first, reader_begin) = started_rx.recv().expect("reader started");
    assert_eq!(first, 0, "reader's snapshot predates every writer");
    assert!(live_snapshots() >= 1, "the parked reader is registered");

    for i in 1..=WRITER_COMMITS {
        stm.atomically(|tx| {
            tx.write(&cell, i);
            Ok(())
        });
    }

    // The reader's snapshot pins the watermark below its begin
    // timestamp, so nothing committed since may be reclaimed: the
    // chain holds the initial version plus every writer commit.
    assert!(
        refresh_watermark() <= reader_begin,
        "watermark must not pass the live reader's begin timestamp"
    );
    assert_eq!(cell.version_count() as u64, WRITER_COMMITS + 1);
    assert_eq!(cell.retired_total(), 0, "no version reclaimed while pinned");

    resume_tx.send(()).expect("reader parked");
    let (first, second) = reader.join().expect("reader thread");
    assert_eq!(
        (first, second),
        (0, 0),
        "a snapshot read is stable across {WRITER_COMMITS} concurrent commits"
    );

    // Reader gone: the next scan frees the watermark, and the next
    // installs trim the spill down to what current snapshots need.
    refresh_watermark();
    for i in 0..8 {
        stm.atomically(|tx| {
            tx.write(&cell, WRITER_COMMITS + 1 + i);
            Ok(())
        });
    }
    assert!(
        cell.version_count() < 64,
        "epoch GC reclaimed the retained pile (still {} versions)",
        cell.version_count()
    );
    assert!(cell.retired_total() >= WRITER_COMMITS - 64);
    assert_eq!(
        stm.stats().versions_retired(),
        cell.retired_total(),
        "runtime stats aggregate what the chain reclaimed"
    );
    assert!(
        stm.stats().watermark_lag_max() > 0,
        "the parked reader showed up as watermark lag"
    );
}

/// Epoch GC piggybacks on installs, so a variable that stops being
/// written keeps the spill a since-finished long reader forced it to
/// retain. `TVar::compact` is the explicit trim hook for such cold
/// variables: a no-op while the reader pins the pile, a full
/// reclamation afterwards — with no further writes to the variable.
#[test]
fn compact_reclaims_cold_variable_spill_without_writes() {
    let _guard = serial();
    const WRITER_COMMITS: u64 = 2_000;

    let stm = Arc::new(Stm::snapshot());
    let cell = TVar::new(0u64);
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();

    let reader = {
        let stm = Arc::clone(&stm);
        let cell = cell.clone();
        thread::spawn(move || {
            stm.atomically(|tx| {
                let first = tx.read(&cell)?;
                started_tx.send(()).expect("main thread alive");
                resume_rx.recv().expect("main thread alive");
                let second = tx.read(&cell)?;
                Ok((first, second))
            })
        })
    };
    started_rx.recv().expect("reader started");

    for i in 1..=WRITER_COMMITS {
        stm.atomically(|tx| {
            tx.write(&cell, i);
            Ok(())
        });
    }
    assert_eq!(cell.version_count() as u64, WRITER_COMMITS + 1);

    // While the reader lives, compact must not touch its versions.
    assert_eq!(
        cell.compact(),
        0,
        "a live snapshot pins every version against compact"
    );

    resume_tx.send(()).expect("reader parked");
    let (first, second) = reader.join().expect("reader thread");
    assert_eq!((first, second), (0, 0));

    // The variable is now cold — nothing writes it again, so
    // install-driven GC never runs on it. compact alone releases the
    // pile, and its reclamations land in the per-variable counter
    // (there is no commit, so no runtime aggregate moves).
    let reclaimed = cell.compact();
    assert!(
        reclaimed >= WRITER_COMMITS - 64,
        "compact reclaimed only {reclaimed} of {WRITER_COMMITS} versions"
    );
    assert!(
        cell.version_count() < 64,
        "cold spill released (still {} versions)",
        cell.version_count()
    );
    assert_eq!(cell.retired_total(), reclaimed);
    assert_eq!(
        stm.stats().versions_retired(),
        0,
        "compact is not a commit: runtime stats are untouched"
    );
}

/// Write-heavy load with no long readers: spill storage must stay
/// bounded (the watermark advances with the clock, so epoch GC trims
/// on install) instead of growing with commit count.
#[test]
fn gc_bounds_spill_growth_under_write_heavy_load() {
    let _guard = serial();
    const COMMITS: u64 = 20_000;

    let stm = Stm::snapshot();
    let cell = TVar::new(0u64);
    for i in 1..=COMMITS {
        stm.atomically(|tx| {
            tx.write(&cell, i);
            Ok(())
        });
    }
    // The watermark rescans once per 64 commits; between scans a
    // chain can accumulate at most that overhang (plus scan slack).
    // The essential claim: retention is O(rescan interval), not
    // O(commits).
    let count = cell.version_count();
    assert!(
        count < 512,
        "version count {count} must stay bounded after {COMMITS} commits"
    );
    assert!(
        cell.retired_total() > COMMITS - 512,
        "nearly every superseded version was reclaimed (retired {})",
        cell.retired_total()
    );
    assert_eq!(stm.stats().versions_retired(), cell.retired_total());
}

/// The paper's headline property, end to end: long scanning readers
/// under concurrent write churn never abort on dynamically retained
/// variables, at either isolation level — a read-only transaction
/// commits at its snapshot without validation under Snapshot and
/// Serializable alike. The writers churn until the last scan ends, and
/// each scan gets one attempt, so an abort fails the test instead of
/// being retried away.
#[test]
fn long_scan_readers_never_abort_under_churn() {
    let _guard = serial();
    const CELLS: usize = 128;
    const SCANS: usize = 100;
    /// Bounds each writer should the reader die early.
    const MAX_WRITES_PER_WRITER: u64 = 200_000;

    // Seeded cases (scaled by SITM_PROPTEST_CASES, failing seed
    // printed on panic): each case runs the churn with cell pairs
    // drawn from RNG streams derived from the case seed.
    run_seeded_cases(2, 0xC4E8_0001, |_, rng| {
        let salt = rng.next_u64();
        for level in [IsolationLevel::Snapshot, IsolationLevel::Serializable] {
            let stm = Stm::with_level(level);
            let cells: Vec<TVar<i64>> = (0..CELLS).map(|_| TVar::new(0)).collect();
            let start = Barrier::new(3);
            let done = AtomicBool::new(false);

            thread::scope(|s| {
                for w in 0..2u64 {
                    let (stm, cells, start, done) = (&stm, &cells, &start, &done);
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(
                            salt ^ (w + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        start.wait();
                        for _ in 0..MAX_WRITES_PER_WRITER {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            // Move value between two cells: every
                            // commit keeps the total at zero.
                            let a = rng.gen_range(0..CELLS);
                            let b = rng.gen_range(0..CELLS);
                            if a == b {
                                continue;
                            }
                            stm.atomically(|tx| {
                                let va = tx.read(&cells[a])?;
                                let vb = tx.read(&cells[b])?;
                                tx.write(&cells[a], va - 1);
                                tx.write(&cells[b], vb + 1);
                                Ok(())
                            });
                        }
                    });
                }
                start.wait();
                for _ in 0..SCANS {
                    let sum = stm.try_atomically(&mut |tx| {
                        let mut sum = 0i64;
                        for (i, c) in cells.iter().enumerate() {
                            sum += tx.read(c)?;
                            if i % 32 == 31 {
                                thread::yield_now(); // stretch the scan
                            }
                        }
                        Ok(sum)
                    });
                    assert_eq!(sum, Ok(0), "{level:?}: a scan aborted or saw a torn total");
                }
                done.store(true, Ordering::Release);
            });
        }
    });
}
