//! The oracle's public surface: disciplines, violations, reports, and
//! the [`check`] entry point dispatching to the axiom checkers.

use std::fmt;

use sitm_obs::History;

use crate::graph::{Dsg, VersionOrder};
use crate::si;

/// Which isolation contract a history is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Snapshot isolation: snapshot reads + first committer wins, over
    /// begin/commit timestamps (SI-TM, the software STM).
    SnapshotIsolation,
    /// Conflict serializability: acyclic precedence graph over the
    /// global operation order, for protocols without version
    /// timestamps (2PL, SONTM).
    ConflictSerializable,
    /// SI axioms plus multiversion-serialization-graph acyclicity
    /// (SSI-TM).
    SerializableSnapshot,
}

impl Discipline {
    /// The discipline a protocol's display name claims (`"SI-TM"`,
    /// `"SSI-TM"`, `"2PL"`, `"SONTM"`, `"STM"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown protocol name: silently defaulting would
    /// let the fuzzer check the wrong axioms.
    pub fn for_protocol(name: &str) -> Discipline {
        match name {
            "SI-TM" | "STM" => Discipline::SnapshotIsolation,
            "SSI-TM" => Discipline::SerializableSnapshot,
            "2PL" | "SONTM" => Discipline::ConflictSerializable,
            other => panic!("no isolation discipline registered for protocol {other:?}"),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Discipline::SnapshotIsolation => "snapshot-isolation",
            Discipline::ConflictSerializable => "conflict-serializable",
            Discipline::SerializableSnapshot => "serializable-snapshot",
        }
    }
}

/// One violated axiom, pinpointing the offending transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which axiom failed: `"snapshot-read"`, `"first-committer-wins"`,
    /// `"conflict-cycle"`, `"mvsg-cycle"`, `"timestamp"`, or
    /// `"dropped-records"`.
    pub rule: &'static str,
    /// The transactions involved — the offending pair for pairwise
    /// axioms, the full cycle for graph axioms (attempt ids from the
    /// history).
    pub txns: Vec<u64>,
    /// The contended line, when the violation is about one.
    pub line: Option<u64>,
    /// Human-readable specifics (observed vs expected timestamps, edge
    /// kinds along a cycle, ...).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] txns {:?}", self.rule, self.txns)?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The outcome of checking one history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Discipline the history was checked against.
    pub discipline: Discipline,
    /// Committed transaction attempts examined.
    pub committed: usize,
    /// Aborted attempts in the history (recorded but not constrained —
    /// aborted work installs nothing).
    pub aborted: usize,
    /// Individual read observations verified against the snapshot-read
    /// axiom (0 for [`Discipline::ConflictSerializable`]).
    pub reads_checked: usize,
    /// Every violated axiom found, in detection order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Whether the history satisfies its discipline.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} committed, {} aborted, {} reads checked — ",
            self.discipline.name(),
            self.committed,
            self.aborted,
            self.reads_checked
        )?;
        if self.is_ok() {
            return write!(f, "ok");
        }
        write!(f, "{} violation(s)", self.violations.len())?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Checks `history` against the axioms of `discipline`.
///
/// A history with dropped records (the recorder's capacity bound was
/// hit) is refused outright with a `"dropped-records"` violation: every
/// axiom here quantifies over *all* committed transactions, so a
/// truncated log can neither be certified nor trusted to expose
/// violations.
pub fn check(discipline: Discipline, history: &History) -> Report {
    let committed = history.committed().count();
    let aborted = history.len() - committed;
    let mut violations = Vec::new();
    let mut reads_checked = 0usize;

    if history.dropped() > 0 {
        violations.push(Violation {
            rule: "dropped-records",
            txns: vec![],
            line: None,
            detail: format!(
                "{} record(s) dropped over the capacity bound; refusing to certify a \
                 truncated history",
                history.dropped()
            ),
        });
    } else {
        match discipline {
            Discipline::SnapshotIsolation => {
                si::check_si(history, &mut violations, &mut reads_checked);
            }
            Discipline::ConflictSerializable => {
                violations.extend(cycles(history, VersionOrder::EndSeq, "conflict-cycle"));
            }
            Discipline::SerializableSnapshot => {
                si::check_si(history, &mut violations, &mut reads_checked);
                violations.extend(cycles(history, VersionOrder::CommitTs, "mvsg-cycle"));
            }
        }
    }

    Report {
        discipline,
        committed,
        aborted,
        reads_checked,
        violations,
    }
}

/// Serializability: each epoch's serialization graph must be acyclic. A
/// cyclic one yields a `rule` violation naming its witness cycle, with
/// the first edge drawn between each pair along it.
///
/// For SSI-TM this deliberately does *not* re-run Cahill's dangerous-
/// structure rule. That rule is SSI's conservative runtime mechanism, not
/// its contract: a legal history may hold a dangerous structure whose
/// cycle never closes, and re-running the rule here would reject it.
fn cycles(history: &History, order: VersionOrder, rule: &'static str) -> Vec<Violation> {
    let mut out = Vec::new();
    for dsg in Dsg::per_epoch(history, order) {
        let Some(cycle) = dsg.cycles().1 else {
            continue;
        };
        let txn = |i: usize| dsg.txns[i].txn;
        let hops = cycle.iter().zip(cycle.iter().cycle().skip(1));
        let detail: Vec<String> = hops
            .map(|(&from, &to)| {
                let edge = dsg.succ[from][&to][0];
                let (kind, line) = (edge.kind, edge.line);
                format!("txn {} -{kind}(line {line})-> txn {}", txn(from), txn(to))
            })
            .collect();
        out.push(Violation {
            rule,
            txns: cycle.iter().map(|&i| txn(i)).collect(),
            line: None,
            detail: detail.join(", "),
        });
    }
    out
}
