//! SSI-TM: serializable snapshot isolation (section 5.2 of the paper),
//! built as SI-TM plus a [`PivotTracker`].
//!
//! Write a committed history's dependencies as Kumar & Peri's
//! multiversion conflict graph: an edge `T → U` whenever `U` must follow
//! `T` in every equivalent serial order. Under SI-TM the ww- and
//! wr-edges follow commit order: first-committer-wins orders the writers
//! of a line, and a snapshot sees only earlier commits. The third kind,
//! the rw-edge `T → U` (`T` read a version of a line that `U`
//! overwrote), can point against commit order, and only between
//! transactions whose lifetimes overlap: had `U` committed before `T`
//! began, `T` would have read `U`'s version.
//!
//! Raad, Lahav & Vafeiadis define SI declaratively over the same edges:
//! a history is SI when `(wr ∪ ww) ; rw?` is acyclic. Every cycle an SI
//! history can still contain therefore passes through two consecutive
//! rw-edges `T → P → U`, and the middle transaction `P` — a *pivot*, with
//! an incoming and an outgoing rw-edge — lies on it. First-committer-wins
//! plus "no committed pivot" leaves no cycle: the history is
//! serializable.
//!
//! So SSI-TM adds to SI-TM what the paper adds to its hardware: read-set
//! tracking, one flag per rw-edge direction, and one abort rule — the
//! transaction whose read or commit would make a pivot aborts. The flags
//! record edge *types*, not times: the long scan of Figure 6 is only
//! ever the reader side of its rw-edges, so it commits where conflict
//! serializability aborts it. A pivot whose cycle never closes aborts
//! all the same (the paper's safe false positives). Snapshot reads,
//! write buffering and spill, first-committer-wins validation, install,
//! and version-cap and clock-overflow handling are SI-TM's own.

use sitm_mvm::{Addr, GlobalClock, LineAddr, MvmStore, ThreadId, Timestamp, Word};
use sitm_sim::{
    BeginOutcome, CommitOutcome, Cycles, MachineConfig, ReadOutcome, TmProtocol, WriteOutcome,
};

use crate::base::LineSet;
use crate::{SiTm, SiTmConfig};

/// One transaction's side of its rw-edges.
#[derive(Debug, Default)]
struct Edges {
    /// Lines read from the snapshot, and promoted lines.
    read_set: LineSet,
    /// Outgoing rw-edge: this transaction read a version that an
    /// overlapping transaction overwrote.
    reader_conflict: bool,
    /// Incoming rw-edge: an overlapping transaction read a version that
    /// this transaction overwrote.
    writer_conflict: bool,
}

/// A committed transaction that some active transaction still overlaps.
#[derive(Debug)]
struct CommittedTx {
    /// Its serialization point: a writer's end timestamp, or the clock
    /// at a read-only commit.
    end: Timestamp,
    write_set: LineSet,
    edges: Edges,
}

/// The rw-edges of SSI-TM's dangerous-structure detection.
///
/// Under lazy versioning an rw-edge `T → U` materialises in one of two
/// ways. Either `T`'s snapshot read finds a version newer than its
/// snapshot (`U` committed first), or `U`'s commit writes a line in an
/// overlapping `T`'s read set (`T` read first). The tracker sees both,
/// and keeps one flag per direction on each endpoint.
///
/// An in-flight transaction has no incoming edge: nobody can read around
/// a version that is not installed yet. So when an edge completes a
/// pivot, the reader or committer that drew it can always abort itself,
/// and the tracker never dooms another thread.
///
/// Edges keep arriving after a commit. A committed `P` gains an incoming
/// edge when a later snapshot read finds a version newer than the
/// reader's snapshot that `P` installed, and an outgoing one when a
/// later commit overwrites a line `P` read. Committed transactions
/// therefore stay in a window, with their read and write sets and both
/// flags, until no active transaction overlaps them; after that no edge
/// can reach them. When an edge completes a committed pivot, the pivot
/// is past aborting, so the transaction that drew the edge aborts.
#[derive(Debug)]
pub(crate) struct PivotTracker {
    /// Per thread: the in-flight transaction's edges (empty when idle).
    active: Vec<Edges>,
    committed_window: Vec<CommittedTx>,
}

impl PivotTracker {
    /// A tracker for `threads` hardware threads, with no edges.
    pub(crate) fn new(threads: usize) -> Self {
        PivotTracker {
            active: (0..threads).map(|_| Edges::default()).collect(),
            committed_window: Vec::new(),
        }
    }

    /// Records `tid`'s snapshot read of `line` at snapshot `start`.
    /// `overwritten` says a version newer than the snapshot exists: the
    /// read is then an rw-edge to every overlapping committed writer of
    /// the line. Returns whether such an edge completes a committed
    /// pivot.
    pub(crate) fn read(
        &mut self,
        tid: ThreadId,
        line: LineAddr,
        start: Timestamp,
        overwritten: bool,
    ) -> bool {
        let mut pivot = false;
        if overwritten {
            for c in &mut self.committed_window {
                if c.end > start && c.write_set.contains(&line) {
                    c.edges.writer_conflict = true;
                    pivot |= c.edges.reader_conflict;
                }
            }
        }
        let reader = &mut self.active[tid.0];
        reader.read_set.insert(line);
        reader.reader_conflict |= overwritten;
        pivot
    }

    /// Adds `line` to `tid`'s read set.
    pub(crate) fn promote(&mut self, tid: ThreadId, line: LineAddr) {
        self.active[tid.0].read_set.insert(line);
    }

    /// Draws the rw-edges into `tid`'s commit of `writes` (snapshot
    /// `start`): every overlapping transaction that read one of the lines
    /// gains an outgoing edge, and the committer an incoming one. Fails
    /// with the first line an edge runs through when the committer would
    /// commit as a pivot, or would complete a committed one.
    pub(crate) fn validate(
        &mut self,
        tid: ThreadId,
        start: Timestamp,
        writes: &[LineAddr],
    ) -> Result<(), LineAddr> {
        let overlap = |read_set: &LineSet| writes.iter().copied().find(|l| read_set.contains(l));
        let mut first_edge = None;
        for (i, reader) in self.active.iter_mut().enumerate() {
            if i == tid.0 {
                continue;
            }
            if let Some(line) = overlap(&reader.read_set) {
                first_edge.get_or_insert(line);
                reader.reader_conflict = true;
            }
        }
        let mut committed_pivot = false;
        for c in self.committed_window.iter_mut().filter(|c| c.end > start) {
            if let Some(line) = overlap(&c.edges.read_set) {
                first_edge.get_or_insert(line);
                c.edges.reader_conflict = true;
                committed_pivot |= c.edges.writer_conflict;
            }
        }
        let committer = &mut self.active[tid.0];
        match first_edge {
            Some(line) if committer.reader_conflict || committed_pivot => Err(line),
            _ => {
                committer.writer_conflict = first_edge.is_some();
                Ok(())
            }
        }
    }

    /// Ends `tid`'s transaction. One that committed, at `end` with
    /// `write_set`, joins the window with its edges. Then drops every
    /// committed transaction that `oldest_active` (the oldest live
    /// snapshot) no longer overlaps.
    pub(crate) fn end(
        &mut self,
        tid: ThreadId,
        committed: Option<(Timestamp, LineSet)>,
        oldest_active: Option<Timestamp>,
    ) {
        let edges = std::mem::take(&mut self.active[tid.0]);
        if let Some((end, write_set)) = committed {
            self.committed_window.push(CommittedTx {
                end,
                write_set,
                edges,
            });
        }
        self.prune_committed_window(oldest_active);
    }

    fn prune_committed_window(&mut self, oldest_active: Option<Timestamp>) {
        match oldest_active {
            None => self.committed_window.clear(),
            Some(oldest) => self.committed_window.retain(|c| c.end > oldest),
        }
    }

    /// Committed transactions currently in the window.
    pub(crate) fn retained(&self) -> usize {
        self.committed_window.len()
    }
}

/// The serializable-SI protocol model: [`SiTm`] with a `PivotTracker`
/// attached. Every operation is SI-TM's; only the name and the `ssi_tm.*`
/// metric namespace are this type's own.
#[derive(Debug)]
pub struct SsiTm(SiTm);

impl SsiTm {
    /// Builds an SSI-TM model for machine `machine` with default protocol
    /// configuration.
    pub fn new(machine: &MachineConfig) -> Self {
        Self::with_config(machine, SiTmConfig::default())
    }

    /// Builds an SSI-TM model with explicit SI-TM configuration.
    pub fn with_config(machine: &MachineConfig, cfg: SiTmConfig) -> Self {
        SsiTm(SiTm::with_pivot_tracker(machine, cfg))
    }

    /// The global clock (diagnostics: overflow count, current value).
    pub fn clock(&self) -> &GlobalClock {
        self.0.clock()
    }
}

impl TmProtocol for SsiTm {
    fn name(&self) -> &'static str {
        "SSI-TM"
    }

    fn begin(&mut self, tid: ThreadId) -> BeginOutcome {
        self.0.begin(tid)
    }

    fn read(&mut self, tid: ThreadId, addr: Addr) -> ReadOutcome {
        self.0.read(tid, addr)
    }

    fn write(&mut self, tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome {
        self.0.write(tid, addr, value)
    }

    fn promote(&mut self, tid: ThreadId, addr: Addr) -> WriteOutcome {
        self.0.promote(tid, addr)
    }

    fn commit(&mut self, tid: ThreadId, now: Cycles) -> CommitOutcome {
        self.0.commit(tid, now)
    }

    fn rollback(&mut self, tid: ThreadId) -> Cycles {
        self.0.rollback(tid)
    }

    fn store(&self) -> &MvmStore {
        self.0.store()
    }

    fn store_mut(&mut self) -> &mut MvmStore {
        self.0.store_mut()
    }
}

impl sitm_obs::Observable for SsiTm {
    fn export_metrics(&self, reg: &mut sitm_obs::MetricsRegistry) {
        self.0.export_metrics_as("ssi_tm", reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_obs::{ForensicCause, MetricsRegistry, Observable};
    use sitm_sim::{Abort, AbortCause, Victims};

    /// Begins, returning the snapshot timestamp.
    fn begin(p: &mut SsiTm, t: usize) -> Option<u64> {
        match p.begin(ThreadId(t)) {
            BeginOutcome::Started { begin_ts, .. } => begin_ts,
            other => panic!("begin failed: {other:?}"),
        }
    }

    fn read(p: &mut SsiTm, t: usize, a: Addr) -> Result<Word, AbortCause> {
        match p.read(ThreadId(t), a) {
            ReadOutcome::Ok { value, .. } => Ok(value),
            ReadOutcome::Abort(abort) => Err(abort.cause),
        }
    }

    fn write(p: &mut SsiTm, t: usize, a: Addr, v: Word) {
        match p.write(ThreadId(t), a, v) {
            WriteOutcome::Ok { .. } => {}
            other => panic!("write aborted: {other:?}"),
        }
    }

    fn commit(p: &mut SsiTm, t: usize) -> Result<Victims, AbortCause> {
        commit_full(p, t).map_err(|abort| abort.cause)
    }

    fn commit_full(p: &mut SsiTm, t: usize) -> Result<Victims, Abort> {
        match p.commit(ThreadId(t), 0) {
            CommitOutcome::Committed { victims, .. } => Ok(victims),
            CommitOutcome::Abort(abort) => Err(abort),
        }
    }

    /// The write-skew schedule of Listing 1: two withdrawals each read
    /// both balances and write disjoint ones. Plain SI commits both
    /// (violating the invariant); SSI-TM must abort one.
    #[test]
    fn write_skew_is_prevented() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let checking = p.store_mut().alloc_words(1); // own line
        let saving = p.store_mut().alloc_lines(1).word(0); // own line
        p.store_mut().write_word(checking, 60);
        p.store_mut().write_word(saving, 60);

        begin(&mut p, 0);
        begin(&mut p, 1);
        // Both check the invariant: checking + saving > 100.
        assert_eq!(read(&mut p, 0, checking).unwrap(), 60);
        assert_eq!(read(&mut p, 0, saving).unwrap(), 60);
        assert_eq!(read(&mut p, 1, checking).unwrap(), 60);
        assert_eq!(read(&mut p, 1, saving).unwrap(), 60);
        // Disjoint withdrawals of 100.
        write(&mut p, 0, checking, 0);
        write(&mut p, 1, saving, 0);

        let first = commit(&mut p, 0);
        let second = commit(&mut p, 1);
        let aborted = [first.clone(), second.clone()]
            .iter()
            .filter(|r| r.is_err())
            .count();
        assert!(
            aborted >= 1,
            "write skew must not commit on both sides: {first:?} {second:?}"
        );
        let total = p.store().read_word(checking) + p.store().read_word(saving);
        assert!(total >= 20, "invariant preserved, balance = {total}");
    }

    /// Figure 6: the long reader commits under SSI-TM (type-based
    /// dependencies), where CS aborts it.
    #[test]
    fn figure6_long_reader_commits() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let d = p.store_mut().alloc_lines(1).word(0);

        begin(&mut p, 0); // TX0: long reader
        begin(&mut p, 1); // TX1: writer
        assert_eq!(read(&mut p, 0, a).unwrap(), 0); // old A
        write(&mut p, 1, a, 1);
        write(&mut p, 1, d, 1);
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        // Reads D after TX1's commit — but from its snapshot (old D).
        // Both conflicts make TX0 a reader; never a writer. It commits.
        assert_eq!(read(&mut p, 0, d).unwrap(), 0, "snapshot-consistent D");
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
    }

    /// Plain read-write conflicts without a cycle commit on both sides.
    #[test]
    fn single_direction_conflicts_commit() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);

        begin(&mut p, 0);
        begin(&mut p, 1);
        assert_eq!(read(&mut p, 0, a).unwrap(), 0);
        write(&mut p, 1, a, 5);
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
    }

    /// Write-write conflicts still abort like SI.
    #[test]
    fn write_write_aborts() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        begin(&mut p, 1);
        write(&mut p, 0, a, 1);
        write(&mut p, 1, a, 2);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
        assert_eq!(commit(&mut p, 1), Err(AbortCause::WriteWrite));
    }

    /// A committed reader that overlapped the writer still triggers the
    /// writer-conflict flag (the committed-pivot case).
    #[test]
    fn committed_overlapping_reader_counts() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        let b = p.store_mut().alloc_lines(1).word(0);
        p.store_mut().write_word(a, 1);
        p.store_mut().write_word(b, 1);

        // TX1 (the eventual pivot) starts first and reads b.
        begin(&mut p, 1);
        assert_eq!(read(&mut p, 1, b).unwrap(), 1);
        // TX0 reads a and b, then commits while TX1 is active.
        begin(&mut p, 0);
        assert_eq!(read(&mut p, 0, a).unwrap(), 1);
        assert_eq!(read(&mut p, 0, b).unwrap(), 1);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
        // A third transaction overwrites b and commits: TX1 becomes a
        // reader-conflict party.
        begin(&mut p, 0);
        write(&mut p, 0, b, 9);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
        let _ = read(&mut p, 1, b); // reads old b => reader flag
                                    // Now TX1 writes a — which committed TX0 (overlapping) read:
                                    // writer flag + reader flag = dangerous, abort.
        write(&mut p, 1, a, 5);
        assert_eq!(commit(&mut p, 1), Err(AbortCause::Order));
    }

    /// A pivot that committed with its incoming rw-edge set cannot be
    /// aborted any more when a later commit completes its outgoing
    /// edge; the completing committer must abort instead. (Found by
    /// `check_fuzz`: MVSG cycles escaped when the pivot's second edge
    /// materialised after its commit.)
    #[test]
    fn committed_pivot_dooms_later_committer() {
        let cfg = MachineConfig::with_cores(3);
        let mut p = SsiTm::new(&cfg);
        let x = p.store_mut().alloc_words(1);
        let y = p.store_mut().alloc_lines(1).word(0);

        begin(&mut p, 0); // TX0: active reader of x
        begin(&mut p, 1); // TX1: the pivot
        begin(&mut p, 2); // TX2: commits last, completes the pivot
        assert_eq!(read(&mut p, 0, x).unwrap(), 0);
        assert_eq!(read(&mut p, 1, y).unwrap(), 0);
        write(&mut p, 1, x, 7);
        // Pivot commits: TX0's read of x gives it the incoming edge;
        // with no outgoing edge yet it commits legitimately.
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        // TX2 overwrites y, which the committed pivot read: the pivot's
        // outgoing edge completes, so TX2 aborts.
        write(&mut p, 2, y, 9);
        assert_eq!(commit(&mut p, 2), Err(AbortCause::Order));
    }

    /// A pivot that committed with its outgoing rw-edge set is
    /// completed by a later snapshot read of data it overwrote; the
    /// reader must abort. (Found by `check_fuzz`, as above.)
    #[test]
    fn committed_pivot_dooms_later_reader() {
        let cfg = MachineConfig::with_cores(3);
        let mut p = SsiTm::new(&cfg);
        let x = p.store_mut().alloc_words(1);
        let y = p.store_mut().alloc_lines(1).word(0);

        begin(&mut p, 0); // TX0: the late reader of x
        begin(&mut p, 1); // TX1: the pivot
                          // TX2 overwrites y so the pivot's read of y is an outgoing
                          // rw-edge.
        begin(&mut p, 2);
        write(&mut p, 2, y, 3);
        assert_eq!(commit(&mut p, 2), Ok(vec![]));
        assert_eq!(read(&mut p, 1, y).unwrap(), 0, "snapshot-consistent y");
        write(&mut p, 1, x, 7);
        // Pivot commits with only the outgoing edge: legitimate.
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        // TX0's snapshot read of x observes data the committed pivot
        // overwrote: the pivot's incoming edge completes, the reader
        // aborts.
        assert_eq!(read(&mut p, 0, x), Err(AbortCause::Order));
    }

    /// Abort forensics: a write-write loser names the line and the
    /// winner's commit timestamp; a dangerous-structure abort is
    /// classified as an SSI pivot with the overlapping line.
    #[test]
    fn abort_details_classify_ww_and_pivot() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        let loser_start = begin(&mut p, 1).expect("a begin carries its snapshot timestamp");
        write(&mut p, 0, a, 1);
        write(&mut p, 1, a, 2);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
        let abort = commit_full(&mut p, 1).expect_err("second committer loses");
        assert_eq!(abort.cause, AbortCause::WriteWrite);
        let detail = abort.detail.expect("abort site hands over a detail");
        assert_eq!(detail.cause, ForensicCause::WriteWriteFcw);
        assert_eq!(detail.line, Some(a.line().0));
        assert!(detail.winner_ts.unwrap() > loser_start);

        // Write skew: the losing side's abort is an SSI pivot.
        let checking = p.store_mut().alloc_lines(1).word(0);
        let saving = p.store_mut().alloc_lines(1).word(0);
        begin(&mut p, 0);
        begin(&mut p, 1);
        let _ = read(&mut p, 0, checking);
        let _ = read(&mut p, 0, saving);
        let _ = read(&mut p, 1, checking);
        let _ = read(&mut p, 1, saving);
        write(&mut p, 0, checking, 1);
        write(&mut p, 1, saving, 1);
        let first = commit_full(&mut p, 0);
        let second = commit_full(&mut p, 1);
        let abort = first.err().or(second.err()).expect("one side loses");
        assert_eq!(abort.cause, AbortCause::Order);
        let detail = abort.detail.expect("abort site hands over a detail");
        assert_eq!(detail.cause, ForensicCause::SsiPivot);
        assert!(detail.line.is_some(), "pivot names the overlapping line");
    }

    /// A clock overflow dooms every transaction and restarts the clock,
    /// so the committed window goes with it. A stale entry's pre-reset
    /// `end` would compare as later than every new snapshot, and its
    /// flags would complete pivots that no longer exist.
    #[test]
    fn overflow_reset_forgets_the_committed_window() {
        let si_cfg = SiTmConfig {
            timestamp_limit: Some(64),
            ..SiTmConfig::default()
        };
        let mut p = SsiTm::with_config(&MachineConfig::with_cores(3), si_cfg);
        let a = p.store_mut().alloc_words(1);
        let b = p.store_mut().alloc_lines(1).word(0);
        let c = p.store_mut().alloc_lines(1).word(0);
        let retained = |p: &SsiTm| {
            let mut reg = MetricsRegistry::new();
            p.export_metrics(&mut reg);
            reg.counter("ssi_tm.committed_window.retained")
        };

        begin(&mut p, 0); // TX0: reads a, outlives TX1
        assert_eq!(read(&mut p, 0, a).unwrap(), 0);
        begin(&mut p, 1); // TX1: reads b, overwrites a
        assert_eq!(read(&mut p, 1, b).unwrap(), 0);
        write(&mut p, 1, a, 1);
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        // TX1 stays in the window with its incoming rw-edge from TX0.
        // A 64-timestamp space reserves 64 / 4 = 16 per commit, so once
        // the clock reaches 48 TX0's commit overflows it.
        while p.clock().now().0 < 48 {
            begin(&mut p, 2);
            assert_eq!(commit(&mut p, 2), Ok(vec![]));
        }
        write(&mut p, 0, c, 1);
        let abort = commit_full(&mut p, 0).expect_err("the clock overflows");
        assert_eq!(abort.cause, AbortCause::ClockOverflow);
        assert_eq!(p.clock().overflows(), 1);
        assert_eq!(retained(&p), 0, "the window goes with the epoch");

        // Overwriting TX1's read set would complete TX1 as a committed
        // pivot had its entry survived the reset.
        begin(&mut p, 1);
        write(&mut p, 1, b, 2);
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
    }

    /// Read-only transactions always commit, even amid conflicts.
    #[test]
    fn read_only_always_commits() {
        let cfg = MachineConfig::with_cores(2);
        let mut p = SsiTm::new(&cfg);
        let a = p.store_mut().alloc_words(1);
        begin(&mut p, 0);
        assert_eq!(read(&mut p, 0, a).unwrap(), 0);
        begin(&mut p, 1);
        write(&mut p, 1, a, 1);
        assert_eq!(commit(&mut p, 1), Ok(vec![]));
        let _ = read(&mut p, 0, a);
        assert_eq!(commit(&mut p, 0), Ok(vec![]));
    }
}
