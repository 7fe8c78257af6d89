//! Figure 2 of the paper: the motivating transaction schedule.
//!
//! ```text
//! TX0: Start  Read(A)           Write(A) Write(B) Commit
//! TX1: Start                    Read(A)                   Commit
//! TX2: Start           Read(B)  Write(C)          Read(A) Commit
//! TX3: Start  Read(A)           Write(A)                  Commit
//! ```
//!
//! The paper's claims, reproduced here against the real protocol
//! models:
//!
//! * under **2PL**, TX0's activity forces TX1, TX2 and TX3 to abort;
//! * under **conflict serializability** (SONTM), TX0 and TX1 commit but
//!   TX2 (cyclic dependency through A and B) and TX3 abort;
//! * under **SI**, TX1 and TX2 also commit — only TX3 aborts, because
//!   of its write-write conflict on A with TX0.

use sitm_core::{SiTm, Sontm, SsiTm, TwoPl};
use sitm_mvm::{Addr, ThreadId};
use sitm_sim::{BeginOutcome, CommitOutcome, MachineConfig, ReadOutcome, TmProtocol, WriteOutcome};

const TX0: ThreadId = ThreadId(0);
const TX1: ThreadId = ThreadId(1);
const TX2: ThreadId = ThreadId(2);
const TX3: ThreadId = ThreadId(3);

struct Vars {
    a: Addr,
    b: Addr,
    c: Addr,
}

fn setup(p: &mut dyn TmProtocol) -> Vars {
    let a = p.store_mut().alloc_lines(1).word(0);
    let b = p.store_mut().alloc_lines(1).word(0);
    let c = p.store_mut().alloc_lines(1).word(0);
    p.store_mut().write_word(a, 100);
    p.store_mut().write_word(b, 200);
    p.store_mut().write_word(c, 300);
    Vars { a, b, c }
}

fn begin(p: &mut dyn TmProtocol, t: ThreadId) {
    match p.begin(t) {
        BeginOutcome::Started { .. } => {}
        other => panic!("begin({t}) failed: {other:?}"),
    }
}

/// Reads and returns the victims killed by the access (eager systems).
fn read(p: &mut dyn TmProtocol, t: ThreadId, a: Addr) -> Vec<ThreadId> {
    match p.read(t, a) {
        ReadOutcome::Ok { victims, .. } => victims.into_iter().map(|v| v.tid).collect(),
        ReadOutcome::Abort(_) => panic!("read by {t} self-aborted"),
    }
}

fn write(p: &mut dyn TmProtocol, t: ThreadId, a: Addr) -> Vec<ThreadId> {
    match p.write(t, a, 1) {
        WriteOutcome::Ok { victims, .. } => victims.into_iter().map(|v| v.tid).collect(),
        WriteOutcome::Abort(_) => panic!("write by {t} self-aborted"),
    }
}

fn commit(p: &mut dyn TmProtocol, t: ThreadId) -> bool {
    match p.commit(t, 0) {
        CommitOutcome::Committed { .. } => true,
        CommitOutcome::Abort(_) => false,
    }
}

#[test]
fn two_pl_aborts_all_three_conflicting_transactions() {
    let cfg = MachineConfig::with_cores(4);
    let mut p = TwoPl::new(&cfg);
    let v = setup(&mut p);

    for t in [TX0, TX1, TX2, TX3] {
        begin(&mut p, t);
    }
    // Reads before TX0's writes: no write sets exist yet, no victims.
    assert!(read(&mut p, TX0, v.a).is_empty());
    assert!(read(&mut p, TX3, v.a).is_empty());
    assert!(read(&mut p, TX2, v.b).is_empty());
    assert!(read(&mut p, TX1, v.a).is_empty());
    assert!(write(&mut p, TX2, v.c).is_empty());

    // TX0 writes A: get-exclusive dooms every reader of A (TX1, TX3).
    let mut victims = write(&mut p, TX0, v.a);
    victims.sort();
    assert_eq!(victims, vec![TX1, TX3], "TX0's Write(A) dooms TX1 and TX3");
    p.rollback(TX1);
    p.rollback(TX3);
    // TX0 writes B: dooms TX2 (read B).
    assert_eq!(write(&mut p, TX0, v.b), vec![TX2], "Write(B) dooms TX2");
    p.rollback(TX2);
    assert!(commit(&mut p, TX0), "TX0 commits under 2PL");
}

#[test]
fn sontm_commits_tx0_and_tx1_only() {
    let cfg = MachineConfig::with_cores(4);
    let mut p = Sontm::new(&cfg);
    let v = setup(&mut p);

    for t in [TX0, TX1, TX2, TX3] {
        begin(&mut p, t);
    }
    read(&mut p, TX0, v.a);
    read(&mut p, TX3, v.a);
    read(&mut p, TX2, v.b); // old B
    read(&mut p, TX1, v.a); // old A
    write(&mut p, TX0, v.a);
    write(&mut p, TX0, v.b);
    write(&mut p, TX2, v.c);
    write(&mut p, TX3, v.a);

    assert!(commit(&mut p, TX0), "TX0 commits");
    assert!(
        commit(&mut p, TX1),
        "TX1 serializes before TX0 under conflict serializability"
    );
    // TX2 read B before TX0's commit (anti-dep: TX2 before TX0) and now
    // reads the new A (flow dep: TX2 after TX0): cyclic.
    read(&mut p, TX2, v.a);
    assert!(!commit(&mut p, TX2), "TX2 aborts: cyclic dependency");
    // TX3 wrote A which TX0 also wrote and committed; TX3 also read the
    // old A: anti-dep forces TX3 before TX0, write ordering after.
    assert!(!commit(&mut p, TX3), "TX3 aborts");
}

#[test]
fn si_tm_aborts_only_tx3() {
    let cfg = MachineConfig::with_cores(4);
    let mut p = SiTm::new(&cfg);
    let v = setup(&mut p);

    for t in [TX0, TX1, TX2, TX3] {
        begin(&mut p, t);
    }
    read(&mut p, TX0, v.a);
    read(&mut p, TX3, v.a);
    read(&mut p, TX2, v.b);
    write(&mut p, TX0, v.a);
    write(&mut p, TX0, v.b);
    write(&mut p, TX2, v.c);
    write(&mut p, TX3, v.a);
    read(&mut p, TX1, v.a);

    assert!(commit(&mut p, TX0), "TX0 commits");
    assert!(
        commit(&mut p, TX1),
        "TX1 (read-only) always commits under SI"
    );
    assert!(
        commit(&mut p, TX2),
        "TX2 commits: read-write conflicts are tolerated"
    );
    assert!(
        !commit(&mut p, TX3),
        "TX3 aborts: write-write conflict on A with TX0"
    );
}

/// SSI-TM on the same schedule: like SI it tolerates the read-write
/// conflicts, and the schedule contains no dangerous structure — TX0 is
/// the only read-then-write pivot candidate and it commits first — so
/// the outcome matches SI exactly (only TX3's write-write conflict
/// aborts).
#[test]
fn ssi_tm_matches_si_on_this_schedule() {
    let cfg = MachineConfig::with_cores(4);
    let mut p = SsiTm::new(&cfg);
    let v = setup(&mut p);

    for t in [TX0, TX1, TX2, TX3] {
        begin(&mut p, t);
    }
    read(&mut p, TX0, v.a);
    read(&mut p, TX3, v.a);
    read(&mut p, TX2, v.b);
    write(&mut p, TX0, v.a);
    write(&mut p, TX0, v.b);
    write(&mut p, TX2, v.c);
    write(&mut p, TX3, v.a);
    read(&mut p, TX1, v.a);

    assert!(commit(&mut p, TX0), "TX0 commits (first committer)");
    assert!(commit(&mut p, TX1), "TX1 read-only commits");
    assert!(commit(&mut p, TX2), "TX2 has no dangerous structure");
    assert!(!commit(&mut p, TX3), "TX3 aborts write-write");
}

/// The same schedule, summarized: the abort counts must be strictly
/// ordered 2PL (3) > CS (2) > SI (1).
#[test]
fn abort_counts_are_strictly_ordered() {
    // Derived from the three tests above; this test documents the
    // figure's headline relationship explicitly.
    let aborts_2pl = 3;
    let aborts_cs = 2;
    let aborts_si = 1;
    assert!(aborts_2pl > aborts_cs && aborts_cs > aborts_si);
}
