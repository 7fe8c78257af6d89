//! # sitm-check — the history-based isolation oracle and write-skew tool
//!
//! Every protocol in this repository claims an isolation level: SI-TM
//! and the software STM promise snapshot isolation, 2PL and SONTM
//! promise conflict serializability, SSI-TM promises serializable
//! snapshot isolation. Unit tests exercise chosen schedules; this crate
//! checks the claims on *arbitrary* executions by replaying recorded
//! transaction histories (`sitm_obs::History`, produced by
//! `Engine::record_history` and `Stm::with_history`) against the
//! axioms of each level:
//!
//! * **Snapshot isolation** ([`Discipline::SnapshotIsolation`]) — the
//!   two SI axioms over begin/commit timestamps: every read observes
//!   exactly the newest version committed at or before the reader's
//!   begin timestamp (*snapshot read*), and no two committed writers of
//!   the same line have overlapping `[begin, commit]` windows (*first
//!   committer wins*). Timestamp sanity (commit after begin, unique
//!   commit timestamps per epoch) rides along.
//! * **Conflict serializability** ([`Discipline::ConflictSerializable`])
//!   — for protocols without version timestamps, the serialization
//!   graph over committed transactions, with versions in the global
//!   operation order, must be acyclic.
//! * **Serializable SI** ([`Discipline::SerializableSnapshot`]) — the
//!   SI axioms plus acyclicity of the same graph with versions in
//!   commit-timestamp order. Note this checks the *outcome*
//!   (serializability), not SSI's mechanism: Cahill-style
//!   dangerous-structure detection is conservative, so re-running it
//!   here would falsely reject legal SSI histories.
//!
//! Both graph checks and the [`skew`] module, the paper's §5.1
//! write-skew tool, read one graph: Adya's direct serialization graph,
//! with ww, wr and rw edges drawn from the version each read observed.
//!
//! The oracle is itself machine-checked: `tests/mutation.rs` runs
//! deliberately broken protocol shims (first-committer-wins disabled,
//! stale snapshot reads, dropped write-write conflict detection)
//! through the real simulator engine and asserts each mutation is
//! rejected with a pinpointed transaction pair, so a silently
//! weakened axiom check fails the suite.
//!
//! # Examples
//!
//! ```
//! use sitm_check::{check, Discipline};
//! use sitm_obs::{History, OpKind, TxnBuilder};
//!
//! let mut h = History::default();
//! let mut t = TxnBuilder::new(0, 0, 0, 0, Some(0));
//! t.op(1, OpKind::Read { line: 7, observed: Some(0) });
//! t.op(2, OpKind::Write { line: 7 });
//! h.push(t.commit(3, Some(1)));
//!
//! let report = check(Discipline::SnapshotIsolation, &h);
//! assert!(report.is_ok(), "{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod oracle;
mod si;
pub mod skew;

pub use oracle::{check, Discipline, Report, Violation};
