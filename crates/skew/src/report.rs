//! Findings and read-promotion proposals.
//!
//! The analysis end of the tool: [`analyze`] runs the full pipeline
//! (recorded history → dependency graph → cycles) and produces a
//! [`WriteSkewReport`] listing each dangerous cycle, the variables
//! involved, and the **read promotions** that remove the anomaly — "the
//! tool applies read promotion for every transactional read that is part
//! of a write skew" (section 5.1).

use std::collections::BTreeSet;
use std::fmt;

use sitm_obs::{History, TxnRecord};

use crate::graph::DependencyGraph;

/// One detected dangerous cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewFinding {
    /// Attempt ids of the transactions forming the cycle.
    pub transactions: Vec<u64>,
    /// Variables carrying the cycle's read-write anti-dependencies,
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
    /// Detected dangerous cycles (possibly false positives, never
    /// missed ones within the traced schedules).
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
        let mut counts: std::collections::BTreeMap<Vec<String>, usize> =
            std::collections::BTreeMap::new();
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

/// Runs the full analysis over a recorded history. Only committed
/// attempts take part: an aborted attempt publishes nothing, so it
/// cannot participate in a skew.
pub fn analyze(history: &History) -> WriteSkewReport {
    let committed: Vec<&TxnRecord> = history.committed().collect();
    let graph = DependencyGraph::build(history);
    let mut report = WriteSkewReport {
        transactions_analyzed: committed.len(),
        ..WriteSkewReport::default()
    };
    for component in graph.cycles() {
        let mut variables = BTreeSet::new();
        let mut promotions = BTreeSet::new();
        for edge in graph.edges_within(&component) {
            for &var in &edge.vars {
                variables.insert(var);
                promotions.insert(Promotion {
                    tx: committed[edge.reader].txn,
                    var,
                    name: name_of(history, var),
                });
            }
        }
        report.findings.push(SkewFinding {
            transactions: component.iter().map(|&i| committed[i].txn).collect(),
            variables: variables
                .into_iter()
                .map(|v| (v, name_of(history, v)))
                .collect(),
        });
        report.promotions.extend(promotions);
    }
    report.promotions.sort();
    report.promotions.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_obs::{OpKind, TxnBuilder};

    /// Replays `(txn, op, var)` steps in global order into a history
    /// (`b`egin, `r`ead, `w`rite, `c`ommit, `a`bort), labelling vars.
    fn history_of(steps: &[(u64, char, u64)], labels: &[(u64, &str)]) -> History {
        let mut h = History::default();
        let mut open = std::collections::BTreeMap::new();
        for (seq, &(txn, step, line)) in steps.iter().enumerate() {
            let seq = seq as u64;
            match step {
                'b' => {
                    open.insert(txn, TxnBuilder::new(txn, 0, 0, seq, Some(0)));
                }
                'r' | 'w' => {
                    let kind = if step == 'r' {
                        OpKind::Read {
                            line,
                            observed: Some(0),
                        }
                    } else {
                        OpKind::Write { line }
                    };
                    open.get_mut(&txn).expect("begun").op(seq, kind);
                }
                'c' => h.push(open.remove(&txn).expect("begun").commit(seq, Some(seq))),
                _ => h.push(open.remove(&txn).expect("begun").abort(seq, "explicit")),
            }
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
