//! Figure 6 of the paper: temporal vs type-based cyclic dependencies.
//!
//! A long-running reader TX0 scans A..E while a short updater TX1
//! writes A and E and commits mid-scan. TX0 reads A *before* TX1's
//! commit and later values *after* it:
//!
//! * under conflict serializability the two conflicts have opposite
//!   temporal directions — a cycle — so TX0 aborts (SONTM);
//! * under SSI-TM dependencies are type-based: TX0 is only ever the
//!   *reader*, so no dangerous structure forms and TX0 commits, reading
//!   a consistent snapshot throughout.
//!
//! This is the paper's canonical "long reader + short updates" pattern
//! (iterating a vector or linked list while short update transactions
//! run).

use sitm_core::{SiTm, Sontm, SsiTm};
use sitm_mvm::{Addr, ThreadId};
use sitm_sim::{BeginOutcome, CommitOutcome, MachineConfig, ReadOutcome, TmProtocol, WriteOutcome};

const READER: ThreadId = ThreadId(0);
const UPDATER: ThreadId = ThreadId(1);

fn setup(p: &mut dyn TmProtocol) -> Vec<Addr> {
    (0..5)
        .map(|i| {
            let a = p.store_mut().alloc_lines(1).word(0);
            p.store_mut().write_word(a, 10 + i);
            a
        })
        .collect()
}

fn begin(p: &mut dyn TmProtocol, t: ThreadId) {
    assert!(matches!(p.begin(t), BeginOutcome::Started { .. }));
}

fn read(p: &mut dyn TmProtocol, t: ThreadId, a: Addr) -> u64 {
    match p.read(t, a) {
        ReadOutcome::Ok { value, .. } => value,
        ReadOutcome::Abort(abort) => panic!("read by {t} aborted: {}", abort.cause),
    }
}

fn write(p: &mut dyn TmProtocol, t: ThreadId, a: Addr, v: u64) {
    assert!(matches!(p.write(t, a, v), WriteOutcome::Ok { .. }));
}

fn commit(p: &mut dyn TmProtocol, t: ThreadId) -> bool {
    matches!(p.commit(t, 0), CommitOutcome::Committed { .. })
}

fn run_schedule(p: &mut dyn TmProtocol) -> (bool, Vec<u64>) {
    let vars = setup(p);
    begin(p, READER);
    begin(p, UPDATER);
    // Reader scans A and B.
    let mut seen = vec![read(p, READER, vars[0]), read(p, READER, vars[1])];
    // Updater writes A and E and commits mid-scan.
    write(p, UPDATER, vars[0], 100);
    write(p, UPDATER, vars[4], 104);
    assert!(commit(p, UPDATER), "the short updater always commits");
    // Reader finishes the scan.
    seen.push(read(p, READER, vars[2]));
    seen.push(read(p, READER, vars[3]));
    seen.push(read(p, READER, vars[4]));
    (commit(p, READER), seen)
}

#[test]
fn sontm_aborts_the_long_reader() {
    let cfg = MachineConfig::with_cores(2);
    let mut p = Sontm::new(&cfg);
    let (committed, seen) = run_schedule(&mut p);
    assert!(
        !committed,
        "CS: temporal cycle (A read old, E read new) forces an abort"
    );
    // SONTM is single-version: the reader saw the *new* E.
    assert_eq!(seen, vec![10, 11, 12, 13, 104]);
}

#[test]
fn ssi_tm_commits_the_long_reader_with_consistent_snapshot() {
    let cfg = MachineConfig::with_cores(2);
    let mut p = SsiTm::new(&cfg);
    let (committed, seen) = run_schedule(&mut p);
    assert!(
        committed,
        "SSI: type-based dependencies — the reader is never a writer"
    );
    assert_eq!(
        seen,
        vec![10, 11, 12, 13, 14],
        "every read served from the begin-time snapshot"
    );
}

#[test]
fn si_tm_commits_the_long_reader_too() {
    let cfg = MachineConfig::with_cores(2);
    let mut p = SiTm::new(&cfg);
    let (committed, seen) = run_schedule(&mut p);
    assert!(committed);
    assert_eq!(seen, vec![10, 11, 12, 13, 14]);
}

/// The reverse situation — the reader also writes something another
/// overlapping transaction reads — *is* dangerous, and SSI-TM must
/// abort one participant (this distinguishes it from plain SI).
#[test]
fn ssi_tm_still_aborts_genuine_write_skew() {
    let cfg = MachineConfig::with_cores(2);
    let mut p = SsiTm::new(&cfg);
    let x = p.store_mut().alloc_lines(1).word(0);
    let y = p.store_mut().alloc_lines(1).word(0);
    begin(&mut p, READER);
    begin(&mut p, UPDATER);
    read(&mut p, READER, x);
    read(&mut p, READER, y);
    read(&mut p, UPDATER, x);
    read(&mut p, UPDATER, y);
    write(&mut p, READER, x, 1);
    write(&mut p, UPDATER, y, 1);
    let first = commit(&mut p, READER);
    let second = commit(&mut p, UPDATER);
    assert!(
        !(first && second),
        "at least one side of the skew must abort under SSI"
    );
}
