//! The interface between the discrete-event engine and a TM protocol
//! model (SI-TM, SSI-TM, 2PL, SONTM).
//!
//! The engine translates each [`crate::TxOp`] into a protocol call and
//! charges the returned cycle cost to the issuing thread. Protocols can
//! abort the *caller* (lazy validation failures, capacity overflows) or
//! *other* in-flight transactions (eager requester-wins conflicts, SSI
//! dangerous structures); victims are reported alongside the outcome and
//! the engine dooms them.

use sitm_mvm::{Addr, MvmStore, ThreadId, Word};
use sitm_obs::{AbortDetail, ForensicCause};

use crate::config::Cycles;

/// Why a transaction aborted. The classification feeds Figure 1 (which
/// splits 2PL aborts into read-write and write-write) and the engine's
/// abort accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// A read-write conflict (one transaction read what another wrote).
    /// SI-TM never aborts for this reason.
    ReadWrite,
    /// A write-write conflict (two overlapping transactions wrote the
    /// same line).
    WriteWrite,
    /// The bounded version buffer (L1) of a conventional HTM overflowed.
    Capacity,
    /// The MVM could not create another version (cap reached), or a
    /// snapshot could no longer be served under the discard-oldest
    /// policy.
    VersionOverflow,
    /// A conflict-serializable order could not be found (SONTM's SON
    /// range became empty).
    Order,
    /// The global timestamp counter overflowed; all active transactions
    /// abort.
    ClockOverflow,
    /// The transaction observed an inconsistent view and sandboxed
    /// itself (zombie execution under single-version lazy conflict
    /// detection; impossible under snapshot reads).
    Inconsistent,
}

impl AbortCause {
    /// All causes, for iteration in reports.
    pub const ALL: [AbortCause; 7] = [
        AbortCause::ReadWrite,
        AbortCause::WriteWrite,
        AbortCause::Capacity,
        AbortCause::VersionOverflow,
        AbortCause::Order,
        AbortCause::ClockOverflow,
        AbortCause::Inconsistent,
    ];

    /// Dense index for table-building.
    pub fn index(self) -> usize {
        match self {
            AbortCause::ReadWrite => 0,
            AbortCause::WriteWrite => 1,
            AbortCause::Capacity => 2,
            AbortCause::VersionOverflow => 3,
            AbortCause::Order => 4,
            AbortCause::ClockOverflow => 5,
            AbortCause::Inconsistent => 6,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::ReadWrite => "read-write",
            AbortCause::WriteWrite => "write-write",
            AbortCause::Capacity => "capacity",
            AbortCause::VersionOverflow => "version-overflow",
            AbortCause::Order => "order",
            AbortCause::ClockOverflow => "clock-overflow",
            AbortCause::Inconsistent => "inconsistent",
        }
    }

    /// The generic [`ForensicCause`] this simulator cause maps to when
    /// an abort carries no site-specific [`AbortDetail`] (the engine's
    /// own `TxOp::Restart`, a protocol whose [`Abort::detail`] is
    /// `None`). The in-tree protocols say what the site knew instead:
    /// SSI-TM's `Order` aborts are [`ForensicCause::SsiPivot`], while
    /// SONTM's are range collapses rooted in read-write conflicts.
    pub fn fallback_forensic(self) -> ForensicCause {
        match self {
            AbortCause::ReadWrite => ForensicCause::ReadValidation,
            AbortCause::WriteWrite => ForensicCause::WriteWriteFcw,
            AbortCause::Capacity | AbortCause::VersionOverflow => ForensicCause::CapacityEviction,
            AbortCause::Order => ForensicCause::ReadValidation,
            AbortCause::ClockOverflow | AbortCause::Inconsistent => ForensicCause::Explicit,
        }
    }
}

impl std::fmt::Display for AbortCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Another in-flight transaction killed as a side effect of an
/// operation (eager conflict detection's "requester wins", SSI
/// dangerous-structure resolution, clock-overflow abort-all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Victim {
    /// The doomed thread.
    pub tid: ThreadId,
    /// Why it aborts.
    pub cause: AbortCause,
    /// What the doomer knew about the conflict; the engine keeps it
    /// until the victim's next step and stamps it on the victim's
    /// history record.
    pub detail: Option<AbortDetail>,
}

/// The victims of one operation.
pub type Victims = Vec<Victim>;

/// The *calling* transaction must abort; the protocol has already rolled
/// its state back. Shared by [`ReadOutcome`], [`WriteOutcome`] and
/// [`CommitOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Abort {
    /// Why the caller aborts.
    pub cause: AbortCause,
    /// Cycles spent discovering the abort (including rollback).
    pub cycles: Cycles,
    /// Other transactions doomed alongside (clock-overflow abort-all,
    /// SSI-TM readers doomed by a commit that then failed itself).
    pub victims: Victims,
    /// What the abort site knew: the forensic classification and, where
    /// known, the conflicting line and the winning committer's
    /// timestamp. `None` makes the engine classify by
    /// [`AbortCause::fallback_forensic`] with no line.
    pub detail: Option<AbortDetail>,
}

/// Outcome of starting a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeginOutcome {
    /// The transaction started.
    Started {
        /// Cycles spent obtaining the timestamp.
        cycles: Cycles,
        /// Transactions killed by a clock-overflow reset.
        victims: Victims,
        /// The begin (snapshot) timestamp; `None` for protocols without
        /// a global version clock (2PL, SONTM), for which the oracle
        /// falls back to operation-order serializability checking.
        begin_ts: Option<u64>,
        /// The timestamp epoch the transaction runs in: bumped each time
        /// the protocol recovers from a clock overflow by resetting its
        /// clock. Timestamps compare only within one epoch.
        epoch: u64,
    },
    /// The start must stall (commit reservation window exhausted); retry
    /// after `cycles`.
    Stall {
        /// Cycles to wait before retrying the begin.
        cycles: Cycles,
    },
}

/// Outcome of a transactional read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The read succeeded.
    Ok {
        /// The value observed.
        value: Word,
        /// Cycle cost of the access.
        cycles: Cycles,
        /// Transactions aborted by eager conflict detection.
        victims: Victims,
        /// Timestamp of the committed version served (`None` when the
        /// read came from the transaction's own write buffer, or the
        /// protocol is not timestamp-based).
        observed: Option<u64>,
    },
    /// The caller aborts (e.g. its snapshot version was discarded).
    Abort(Abort),
}

/// Outcome of a transactional write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write was buffered/performed.
    Ok {
        /// Cycle cost of the access.
        cycles: Cycles,
        /// Transactions aborted by eager conflict detection.
        victims: Victims,
    },
    /// The caller aborts (e.g. version-buffer capacity).
    Abort(Abort),
}

/// Outcome of a commit attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The transaction committed.
    Committed {
        /// Cycle cost of validation and write-back.
        cycles: Cycles,
        /// Transactions aborted during commit (SSI, SONTM adjustments).
        victims: Victims,
        /// The end timestamp the commit installed its versions at
        /// (`None` if it installed nothing — read-only or
        /// promotion-only — or the protocol has no commit timestamps).
        commit_ts: Option<u64>,
    },
    /// Validation failed.
    Abort(Abort),
}

/// A transactional-memory protocol model driven by the engine.
///
/// Implementations own the multiversioned store and the memory-system
/// cost model; the engine owns scheduling, retry and statistics.
/// Everything the engine records about an operation — timestamps,
/// victims, what an abort site knew — travels in the outcome that
/// operation returns; the trait has no getters to poll afterwards.
///
/// Protocols are `Send` (they own all their state — store, clocks,
/// per-thread sets) so an entire [`crate::Engine`] can run on a sweep
/// worker thread and hand the protocol back for post-run inspection.
pub trait TmProtocol: Send {
    /// Human-readable protocol name (`"SI-TM"`, `"2PL"`, ...).
    fn name(&self) -> &'static str;

    /// Starts a transaction for `tid`.
    fn begin(&mut self, tid: ThreadId) -> BeginOutcome;

    /// Transactional read of `addr` by `tid`.
    fn read(&mut self, tid: ThreadId, addr: Addr) -> ReadOutcome;

    /// Transactional write of `addr = value` by `tid`.
    fn write(&mut self, tid: ThreadId, addr: Addr, value: Word) -> WriteOutcome;

    /// Promotes `tid`'s earlier read of `addr`: the line participates in
    /// commit-time conflict detection as if written, but no version is
    /// created (section 5.1). Protocols that already detect read-write
    /// conflicts (2PL, SONTM, SSI-TM) may treat this as a plain read-set
    /// insertion. The default charges nothing and does nothing.
    fn promote(&mut self, tid: ThreadId, addr: Addr) -> WriteOutcome {
        let _ = (tid, addr);
        WriteOutcome::Ok {
            cycles: 0,
            victims: vec![],
        }
    }

    /// Attempts to commit `tid`'s transaction at the caller's virtual
    /// time `now` (the globally serialized commit token of 2PL and SONTM
    /// is the one resource a protocol schedules in time).
    fn commit(&mut self, tid: ThreadId, now: Cycles) -> CommitOutcome;

    /// Rolls back `tid`'s in-flight transaction (doomed by another
    /// thread's conflict). Returns the cycle cost of the rollback, which
    /// the engine charges to the victim. Must be idempotent for threads
    /// with no in-flight transaction.
    fn rollback(&mut self, tid: ThreadId) -> Cycles;

    /// Shared access to the backing store, for workload initialization
    /// and post-run inspection.
    fn store(&self) -> &MvmStore;

    /// Mutable access to the backing store (initialization only; calling
    /// this mid-run would bypass the protocol).
    fn store_mut(&mut self) -> &mut MvmStore;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_cause_indices_are_dense_and_unique() {
        let mut seen = [false; AbortCause::ALL.len()];
        for cause in AbortCause::ALL {
            let i = cause.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
            assert!(
                sitm_obs::ABORT_LABELS.contains(&cause.label()),
                "{cause}: a recorded history with this cause would not read back"
            );
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(AbortCause::ReadWrite.to_string(), "read-write");
    }
}
