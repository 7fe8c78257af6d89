//! Write-skew detection and read promotion: the paper's §5.1 tool.
//!
//! Snapshot isolation is not serializable: it admits the **write skew**,
//! where overlapping transactions read an invariant's variables and write
//! disjoint subsets of them (section 5 of the SI-TM paper; the classic
//! example is Listing 1's bank withdraw). The tool works the way the
//! paper's does:
//!
//! 1. record a globally ordered trace of transactional operations (the
//!    paper instruments binaries with PIN; here a runtime records every
//!    attempt into a [`sitm_obs::History`], the same `sitm.txn.v1` stream
//!    the isolation oracle certifies),
//! 2. build the serialization graph of the committed transactions, with
//!    each rw-antidependency drawn from the version a read observed to
//!    the writer of the next one (the oracle's own graph),
//! 3. report every cycle, one finding per strongly connected component,
//!    and propose **read promotions** that turn the anomaly into an
//!    ordinary validation conflict ([`analyze`], [`WriteSkewReport`]).
//!
//! A history has a finding exactly when it is not serializable, so the
//! report agrees with [`Discipline::SerializableSnapshot`] on every SI
//! history. Like the paper's tool it covers only the schedules traced,
//! and its value grows with test coverage. Because the input is a plain
//! `History`, it can be captured in one process and analysed offline:
//! the `skew_analyze` binary reads `History::to_jsonl` output.
//!
//! [`Discipline::SerializableSnapshot`]: crate::Discipline::SerializableSnapshot
//!
//! # Examples
//!
//! ```
//! use sitm_stm::{Stm, TVar};
//!
//! let stm = Stm::snapshot().with_history(1024);
//! let x = TVar::new_labeled("x", 1u64);
//! stm.atomically(|tx| {
//!     let v = tx.read(&x)?;
//!     tx.write(&x, v + 1);
//!     Ok(())
//! });
//! let report = sitm_check::skew::analyze(&stm.history().expect("recording is on"));
//! assert!(report.is_clean());
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use sitm_obs::{History, OpKind, TxnRecord};

use crate::graph::{Dsg, EdgeKind, VersionOrder};

/// One detected dangerous structure: a strongly connected component of
/// the serialization graph, which holds at least one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewFinding {
    /// Attempt ids of the transactions in the component, ascending.
    pub transactions: Vec<u64>,
    /// Variables carrying the component's unprotected rw-antidependencies,
    /// with display names.
    pub variables: Vec<(u64, String)>,
}

/// A read that should be promoted to remove a detected skew:
/// `(transaction attempt id, variable id, variable name)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Promotion {
    /// The transaction whose read should be promoted.
    pub tx: u64,
    /// The variable to promote.
    pub var: u64,
    /// Display name of the variable.
    pub name: String,
}

/// The tool's output: findings plus the promotion set that fixes them.
#[derive(Debug, Clone, Default)]
pub struct WriteSkewReport {
    /// Every cycle of the traced history, one finding per component.
    pub findings: Vec<SkewFinding>,
    /// Proposed read promotions (deduplicated, sorted).
    pub promotions: Vec<Promotion>,
    /// Committed transactions analyzed.
    pub transactions_analyzed: usize,
}

/// Findings grouped by the variable set they involve: the "pattern"
/// view of a report (`998 cycles over {checking, saving}` is one
/// pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewPattern {
    /// Display names of the variables carrying the cycles.
    pub variables: Vec<String>,
    /// How many dangerous cycles matched this pattern.
    pub occurrences: usize,
}

impl WriteSkewReport {
    /// Whether the history was free of dangerous structures.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings aggregated by variable set, most frequent first.
    pub fn patterns(&self) -> Vec<SkewPattern> {
        let mut counts: BTreeMap<Vec<String>, usize> = BTreeMap::new();
        for f in &self.findings {
            let key: Vec<String> = f.variables.iter().map(|(_, n)| n.clone()).collect();
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut patterns: Vec<SkewPattern> = counts
            .into_iter()
            .map(|(variables, occurrences)| SkewPattern {
                variables,
                occurrences,
            })
            .collect();
        patterns.sort_by_key(|p| std::cmp::Reverse(p.occurrences));
        patterns
    }

    /// Promotions deduplicated to `(variable name)` granularity — the
    /// actionable list for a programmer (which *reads* to promote,
    /// independent of which transaction instance exhibited the cycle).
    pub fn promotions_by_variable(&self) -> Vec<String> {
        let mut names: Vec<String> = self.promotions.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The variable names involved in any finding (convenience for
    /// assertions and UIs).
    pub fn involved_names(&self) -> BTreeSet<String> {
        self.findings
            .iter()
            .flat_map(|f| f.variables.iter().map(|(_, n)| n.clone()))
            .collect()
    }
}

impl fmt::Display for WriteSkewReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "no write-skew dangerous structures in {} committed transactions",
                self.transactions_analyzed
            );
        }
        writeln!(
            f,
            "{} write-skew dangerous structure(s) in {} committed transactions:",
            self.findings.len(),
            self.transactions_analyzed
        )?;
        for (i, pattern) in self.patterns().iter().enumerate() {
            writeln!(
                f,
                "  [{}] {} cycle(s) over variables {{{}}}",
                i + 1,
                pattern.occurrences,
                pattern.variables.join(", ")
            )?;
        }
        const SHOWN: usize = 5;
        for finding in self.findings.iter().take(SHOWN) {
            let vars: Vec<&str> = finding.variables.iter().map(|(_, n)| n.as_str()).collect();
            writeln!(
                f,
                "    e.g. transactions {:?} over {{{}}}",
                finding.transactions,
                vars.join(", ")
            )?;
        }
        if self.findings.len() > SHOWN {
            writeln!(f, "    ... and {} more", self.findings.len() - SHOWN)?;
        }
        writeln!(f, "proposed read promotions (by variable):")?;
        for name in self.promotions_by_variable() {
            writeln!(f, "  promote reads of {name}")?;
        }
        Ok(())
    }
}

/// The display name of a variable: its label in the history, or
/// `var<N>`.
fn name_of(history: &History, var: u64) -> String {
    match history.label(var) {
        Some(label) => label.to_string(),
        None => format!("var{var}"),
    }
}

/// Whether `reader` already protects its read of `line`: a promotion or
/// a write of the line is validated at commit like a write.
fn protects(reader: &TxnRecord, line: u64) -> bool {
    reader.ops.iter().any(|op| match op.kind {
        OpKind::Write { line: l } | OpKind::Promote { line: l } => l == line,
        OpKind::Read { .. } => false,
    })
}

/// Runs the full analysis over a recorded history. Only committed
/// attempts take part: an aborted attempt publishes nothing, so it
/// cannot participate in a skew.
pub fn analyze(history: &History) -> WriteSkewReport {
    let mut report = WriteSkewReport {
        transactions_analyzed: history.committed().count(),
        ..WriteSkewReport::default()
    };
    for dsg in Dsg::per_epoch(history, VersionOrder::CommitTs) {
        for component in dsg.cycles().0 {
            let mut variables = BTreeSet::new();
            for &i in &component {
                let reader = dsg.txns[i];
                let inside = dsg.succ[i]
                    .iter()
                    .filter(|(j, _)| component.binary_search(j).is_ok());
                for edge in inside.flat_map(|(_, edges)| edges) {
                    if edge.kind == EdgeKind::Rw && !protects(reader, edge.line) {
                        variables.insert(edge.line);
                        report.promotions.push(Promotion {
                            tx: reader.txn,
                            var: edge.line,
                            name: name_of(history, edge.line),
                        });
                    }
                }
            }
            report.findings.push(SkewFinding {
                transactions: component.iter().map(|&i| dsg.txns[i].txn).collect(),
                variables: variables
                    .into_iter()
                    .map(|v| (v, name_of(history, v)))
                    .collect(),
            });
        }
    }
    report.promotions.sort();
    report.promotions.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_obs::TxnBuilder;

    /// Replays `(txn, op, var)` steps in global order into a history
    /// (`b`egin, `r`ead, `p`romote, `w`rite, `c`ommit, `a`bort),
    /// labelling vars. Every attempt reads at the pre-run snapshot, and
    /// a commit's timestamp is its sequence number.
    fn history_of(steps: &[(u64, char, u64)], labels: &[(u64, &str)]) -> History {
        let mut h = History::default();
        let mut open = BTreeMap::new();
        for (seq, &(txn, step, line)) in steps.iter().enumerate() {
            let seq = seq as u64;
            let kind = match step {
                'b' => {
                    open.insert(txn, TxnBuilder::new(txn, 0, 0, seq, Some(0)));
                    continue;
                }
                'c' => {
                    h.push(open.remove(&txn).expect("begun").commit(seq, Some(seq)));
                    continue;
                }
                'a' => {
                    h.push(open.remove(&txn).expect("begun").abort(seq, "explicit"));
                    continue;
                }
                'r' => OpKind::Read {
                    line,
                    observed: Some(0),
                },
                'p' => OpKind::Promote { line },
                _ => OpKind::Write { line },
            };
            open.get_mut(&txn).expect("begun").op(seq, kind);
        }
        for &(line, label) in labels {
            h.set_label(line, label);
        }
        h
    }

    /// The Listing 1 banking history end to end.
    #[test]
    fn detects_withdraw_skew_with_names() {
        let h = history_of(
            &[
                (1, 'b', 0),
                (2, 'b', 0),
                (1, 'r', 10),
                (1, 'r', 11),
                (2, 'r', 10),
                (2, 'r', 11),
                (1, 'w', 10),
                (2, 'w', 11),
                (1, 'c', 0),
                (2, 'c', 0),
            ],
            &[(10, "checking"), (11, "saving")],
        );
        let report = analyze(&h);
        assert!(!report.is_clean());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(
            report.involved_names(),
            BTreeSet::from(["checking".to_string(), "saving".to_string()])
        );
        // Promotions: tx1 must promote saving, tx2 must promote
        // checking.
        assert!(report
            .promotions
            .iter()
            .any(|p| p.tx == 1 && p.name == "saving"));
        assert!(report
            .promotions
            .iter()
            .any(|p| p.tx == 2 && p.name == "checking"));
        let rendered = report.to_string();
        assert!(rendered.contains("checking"));
        assert!(rendered.contains("promote read"));
        assert_eq!(report.patterns().len(), 1);
        assert_eq!(
            report.promotions_by_variable(),
            vec!["checking".to_string(), "saving".to_string()]
        );
    }

    #[test]
    fn clean_history_reports_clean() {
        let h = history_of(
            &[
                (1, 'b', 0),
                (1, 'r', 5),
                (1, 'w', 5),
                (1, 'c', 0),
                (2, 'b', 0),
                (2, 'r', 5),
                (2, 'c', 0),
            ],
            &[(5, "x")],
        );
        let report = analyze(&h);
        assert!(report.is_clean());
        assert!(report.to_string().contains("no write-skew"));
    }

    /// A promoted read is already protected: the cycle is still
    /// reported, but only the other transaction's read is proposed.
    #[test]
    fn promoted_reads_are_not_proposed() {
        let h = history_of(
            &[
                (1, 'b', 0),
                (2, 'b', 0),
                (1, 'r', 1),
                (1, 'r', 2),
                (1, 'p', 2),
                (2, 'r', 1),
                (2, 'r', 2),
                (1, 'w', 1),
                (2, 'w', 2),
                (1, 'c', 0),
                (2, 'c', 0),
            ],
            &[],
        );
        let report = analyze(&h);
        assert_eq!(report.findings[0].transactions, vec![1, 2]);
        assert_eq!(report.promotions_by_variable(), vec!["var1".to_string()]);
        assert_eq!(report.promotions[0].tx, 2);
    }

    /// Aborted attempts are dropped from the analysis, and unlabelled
    /// variables fall back to `var<N>`.
    #[test]
    fn aborted_attempts_are_dropped_and_unlabelled_vars_are_numbered() {
        let h = history_of(
            &[
                (1, 'b', 0),
                (2, 'b', 0),
                (3, 'b', 0),
                (1, 'r', 7),
                (1, 'r', 8),
                (2, 'r', 7),
                (2, 'r', 8),
                (3, 'w', 7),
                (1, 'w', 7),
                (2, 'w', 8),
                (3, 'a', 0),
                (1, 'c', 0),
                (2, 'c', 0),
            ],
            &[(7, "checking")],
        );
        let report = analyze(&h);
        assert_eq!(report.transactions_analyzed, 2, "the abort is no vertex");
        assert_eq!(report.findings[0].transactions, vec![1, 2]);
        assert_eq!(
            report.involved_names(),
            BTreeSet::from(["checking".to_string(), "var8".to_string()])
        );
    }
}
