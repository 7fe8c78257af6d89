//! Per-transaction execution histories for the isolation oracle
//! (`sitm-check`).
//!
//! A [`History`] is a bounded in-memory log of [`TxnRecord`]s, one per
//! transaction *attempt*: its begin/commit timestamps as reported by the
//! protocol under test, its reads (with the timestamp of the version
//! each read observed), its writes and promotions, and its outcome.
//! Recorders (the simulator engine, the software STM commit path) build
//! records through [`TxnBuilder`] and push them here; the oracle in
//! `sitm-check` replays the log and machine-checks the isolation-level
//! axioms against it.
//!
//! The same log feeds three more offline readers: the write-skew
//! analyser (`sitm_check::skew`, which reads the oracle's serialization
//! graph, plus the optional `line → label` table for naming
//! variables), the abort-forensics fold
//! ([`crate::ForensicsSnapshot::from_history`], which needs the
//! [`AbortDetail`] an abort site stamped on the record) and the
//! [`crate::chrome_trace`] timeline.
//!
//! The schema deliberately uses only plain integers and static strings
//! so this module sits at the bottom of the workspace graph, and every
//! record exports as one `sitm.txn.v1` JSONL line via [`crate::Json`];
//! [`History::from_jsonl`] reads the export back.

use std::collections::BTreeMap;
use std::fmt;

use crate::forensics::ForensicCause;
use crate::json::Json;

/// Default bound on retained records (~1M attempts; far above any Quick
/// fuzzing run, small enough to never threaten memory).
pub const DEFAULT_HISTORY_CAPACITY: usize = 1 << 20;

/// One recorded transactional operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryOp {
    /// Global operation sequence number (total order over every
    /// recorded operation of the run; gaps are fine).
    pub seq: u64,
    /// What the operation did.
    pub kind: OpKind,
}

/// The kinds of recorded operations. `line` is the conflict-detection
/// unit of the system under test: a cache-line address in the simulator,
/// a `TVar` id in the software STM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A transactional read.
    Read {
        /// Line read.
        line: u64,
        /// Timestamp of the version the read observed (`None` when the
        /// read was served from the transaction's own write buffer, or
        /// when the protocol has no version timestamps).
        observed: Option<u64>,
    },
    /// A transactional write.
    Write {
        /// Line written.
        line: u64,
    },
    /// A read promotion (validated like a write, installs nothing).
    Promote {
        /// Line promoted.
        line: u64,
    },
}

impl OpKind {
    /// The line this operation touched.
    pub fn line(&self) -> u64 {
        match *self {
            OpKind::Read { line, .. } | OpKind::Write { line } | OpKind::Promote { line } => line,
        }
    }

    /// The operation as its export name, line and observed version.
    pub(crate) fn parts(&self) -> (&'static str, u64, Option<u64>) {
        match *self {
            OpKind::Read { line, observed } => ("read", line, observed),
            OpKind::Write { line } => ("write", line, None),
            OpKind::Promote { line } => ("promote", line, None),
        }
    }
}

/// Every abort-cause label a recorder in this workspace closes a record
/// with (the simulator's `AbortCause::label`, the STM's
/// `Conflict::label`, and `explicit` for rollbacks). The vocabulary is
/// closed because [`TxnOutcome::Aborted`] holds a `&'static str`:
/// [`History::from_jsonl`] resolves `aborted:<cause>` against this table
/// and rejects anything else.
pub const ABORT_LABELS: [&str; 9] = [
    "read-write",
    "write-write",
    "capacity",
    "version-overflow",
    "order",
    "clock-overflow",
    "inconsistent",
    "read-validation",
    "explicit",
];

/// How a transaction attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The attempt committed.
    Committed,
    /// The attempt aborted; the payload is the protocol's cause label
    /// (one of [`ABORT_LABELS`]).
    Aborted(&'static str),
}

impl fmt::Display for TxnOutcome {
    /// The `outcome` string of the `sitm.txn.v1` export.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnOutcome::Committed => f.write_str("committed"),
            TxnOutcome::Aborted(cause) => write!(f, "aborted:{cause}"),
        }
    }
}

/// What the abort site knew about the conflict that killed an attempt:
/// the input of [`crate::ForensicsSnapshot::from_history`]. The loser's
/// snapshot timestamp is the record's `begin_ts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortDetail {
    /// The conflict family in the forensic taxonomy.
    pub cause: ForensicCause,
    /// The line the attempt lost on, when the site knows one (a
    /// clock-overflow abort-all has none).
    pub line: Option<u64>,
    /// Commit timestamp of the conflicting (winning) version, when the
    /// site knows one (a 2PL lock conflict has a line but no winner).
    pub winner_ts: Option<u64>,
}

impl AbortDetail {
    /// The detail's export keys: `abort_cause`, then `abort_line` and
    /// `abort_winner_ts` for each one the site knew.
    pub(crate) fn json_pairs(&self) -> Vec<(&'static str, Json)> {
        let mut pairs = vec![("abort_cause", Json::Str(self.cause.label().to_string()))];
        pairs.extend(self.line.map(|line| ("abort_line", Json::Num(line as f64))));
        pairs.extend(
            self.winner_ts
                .map(|ts| ("abort_winner_ts", Json::Num(ts as f64))),
        );
        pairs
    }
}

/// One transaction attempt, fully recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// Unique attempt id within the run.
    pub txn: u64,
    /// Executing thread.
    pub thread: usize,
    /// Timestamp epoch: protocols that recover from clock overflow by
    /// resetting the clock bump this; timestamp comparisons are only
    /// meaningful within one epoch.
    pub epoch: u64,
    /// Global sequence number of the begin.
    pub begin_seq: u64,
    /// Global sequence number of the commit/abort.
    pub end_seq: u64,
    /// Begin (snapshot) timestamp, if the protocol is timestamp-based.
    pub begin_ts: Option<u64>,
    /// Commit (end) timestamp. `None` for aborts and for read-only /
    /// promotion-only commits, which reserve no end timestamp.
    pub commit_ts: Option<u64>,
    /// How the attempt ended.
    pub outcome: TxnOutcome,
    /// Conflict attribution of an aborted attempt, when the abort site
    /// stamped one ([`TxnBuilder::detail`]). Always `None` on commits.
    pub abort: Option<AbortDetail>,
    /// Every recorded operation, in issue order.
    pub ops: Vec<HistoryOp>,
}

impl TxnRecord {
    /// Whether the attempt committed.
    pub fn committed(&self) -> bool {
        self.outcome == TxnOutcome::Committed
    }

    /// Lines this transaction wrote.
    pub fn write_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops.iter().filter_map(|op| match op.kind {
            OpKind::Write { line } => Some(line),
            _ => None,
        })
    }

    /// The record as one `sitm.txn.v1` JSON object. An aborted record
    /// that carries an [`AbortDetail`] gains the `abort_cause` key and,
    /// for each one the site knew, `abort_line` and `abort_winner_ts`;
    /// every other record's bytes are independent of the detail field.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| match v {
            Some(n) => Json::Num(n as f64),
            None => Json::Null,
        };
        let ops = self
            .ops
            .iter()
            .map(|op| {
                let (kind, line, observed) = op.kind.parts();
                let mut pairs = vec![
                    ("seq", Json::Num(op.seq as f64)),
                    ("op", Json::Str(kind.to_string())),
                    ("line", Json::Num(line as f64)),
                ];
                if let Some(ts) = observed {
                    pairs.push(("observed", Json::Num(ts as f64)));
                }
                Json::obj(pairs)
            })
            .collect();
        let mut pairs = vec![
            ("schema", Json::Str(TXN_SCHEMA.to_string())),
            ("txn", Json::Num(self.txn as f64)),
            ("thread", Json::Num(self.thread as f64)),
            ("epoch", Json::Num(self.epoch as f64)),
            ("begin_seq", Json::Num(self.begin_seq as f64)),
            ("end_seq", Json::Num(self.end_seq as f64)),
            ("begin_ts", opt(self.begin_ts)),
            ("commit_ts", opt(self.commit_ts)),
            ("outcome", Json::Str(self.outcome.to_string())),
            ("ops", Json::Arr(ops)),
        ];
        if let Some(detail) = self.abort {
            pairs.extend(detail.json_pairs());
        }
        Json::obj(pairs)
    }

    /// Parses a [`TxnRecord::to_json`] object back.
    fn from_json(v: &Json) -> Result<TxnRecord, String> {
        let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
        let opt = |v: &Json, key: &str| match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(n) => n.as_u64().map(Some).ok_or_else(|| bad(key)),
        };
        let outcome = match v.get("outcome").and_then(Json::as_str) {
            Some("committed") => TxnOutcome::Committed,
            Some(other) => {
                let cause = other
                    .strip_prefix("aborted:")
                    .ok_or_else(|| bad("outcome"))?;
                let known = ABORT_LABELS.iter().find(|&&label| label == cause);
                TxnOutcome::Aborted(known.ok_or_else(|| format!("unknown abort cause {cause:?}"))?)
            }
            None => return Err(bad("outcome")),
        };
        let abort = match v.get("abort_cause") {
            None => None,
            Some(_) if outcome == TxnOutcome::Committed => {
                return Err("abort detail on a committed record".to_string())
            }
            Some(cause) => Some(AbortDetail {
                cause: cause
                    .as_str()
                    .and_then(ForensicCause::from_label)
                    .ok_or_else(|| bad("abort_cause"))?,
                line: opt(v, "abort_line")?,
                winner_ts: opt(v, "abort_winner_ts")?,
            }),
        };
        let ops = v
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("ops"))?;
        let ops = ops
            .iter()
            .map(|op| {
                let line = num(op, "line")?;
                let kind = match op.get("op").and_then(Json::as_str) {
                    Some("read") => OpKind::Read {
                        line,
                        observed: opt(op, "observed")?,
                    },
                    Some("write") => OpKind::Write { line },
                    Some("promote") => OpKind::Promote { line },
                    _ => return Err(bad("op")),
                };
                Ok(HistoryOp {
                    seq: num(op, "seq")?,
                    kind,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TxnRecord {
            txn: num(v, "txn")?,
            thread: usize::try_from(num(v, "thread")?).map_err(|_| bad("thread"))?,
            epoch: num(v, "epoch")?,
            begin_seq: num(v, "begin_seq")?,
            end_seq: num(v, "end_seq")?,
            begin_ts: opt(v, "begin_ts")?,
            commit_ts: opt(v, "commit_ts")?,
            outcome,
            abort,
            ops,
        })
    }
}

/// The parse error for a field that is absent or has the wrong type.
fn bad(key: &str) -> String {
    format!("missing or mistyped field {key:?}")
}

/// Accumulates one in-flight transaction attempt until its outcome is
/// known.
#[derive(Debug, Clone)]
pub struct TxnBuilder {
    record: TxnRecord,
}

impl TxnBuilder {
    /// Starts a record at the begin of an attempt.
    pub fn new(txn: u64, thread: usize, epoch: u64, begin_seq: u64, begin_ts: Option<u64>) -> Self {
        TxnBuilder {
            record: TxnRecord {
                txn,
                thread,
                epoch,
                begin_seq,
                end_seq: begin_seq,
                begin_ts,
                commit_ts: None,
                outcome: TxnOutcome::Committed,
                abort: None,
                ops: Vec::new(),
            },
        }
    }

    /// Appends an operation.
    pub fn op(&mut self, seq: u64, kind: OpKind) {
        self.record.ops.push(HistoryOp { seq, kind });
    }

    /// Stamps the conflict that is about to abort this attempt; kept
    /// by [`TxnBuilder::abort`], discarded by [`TxnBuilder::commit`].
    pub fn detail(&mut self, detail: AbortDetail) {
        self.record.abort = Some(detail);
    }

    /// Finishes the record as committed. `commit_ts` is `None` for
    /// commits that reserved no end timestamp (read-only, promotion-only).
    pub fn commit(mut self, end_seq: u64, commit_ts: Option<u64>) -> TxnRecord {
        self.record.end_seq = end_seq;
        self.record.commit_ts = commit_ts;
        self.record.outcome = TxnOutcome::Committed;
        self.record.abort = None;
        self.record
    }

    /// Finishes the record as aborted with the protocol's cause label.
    pub fn abort(mut self, end_seq: u64, cause: &'static str) -> TxnRecord {
        self.record.end_seq = end_seq;
        self.record.commit_ts = None;
        self.record.outcome = TxnOutcome::Aborted(cause);
        self.record
    }
}

/// Schema tag of one [`TxnRecord`] line.
const TXN_SCHEMA: &str = "sitm.txn.v1";
/// Schema tag of the log-level line [`History::to_jsonl`] leads with
/// when there is anything to say beyond the records: the label table
/// and the drop count.
const LOG_SCHEMA: &str = "sitm.history.v1";

/// The bounded in-memory transaction log of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    records: Vec<TxnRecord>,
    /// Records discarded because the capacity bound was hit. The oracle
    /// refuses to certify a history with drops (its completeness
    /// assumptions no longer hold).
    dropped: u64,
    capacity: usize,
    /// Display names of lines, for reports that name variables.
    labels: BTreeMap<u64, String>,
}

impl Default for History {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_HISTORY_CAPACITY)
    }
}

impl History {
    /// An empty history retaining at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        History {
            records: Vec::new(),
            dropped: 0,
            capacity,
            labels: BTreeMap::new(),
        }
    }

    /// Appends a finished record, or counts it as dropped when the
    /// capacity bound is reached.
    pub fn push(&mut self, record: TxnRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// Names `line` for reports (a labelled `TVar`'s label). A line's
    /// first name sticks.
    pub fn set_label(&mut self, line: u64, label: &str) {
        self.labels.entry(line).or_insert_with(|| label.to_string());
    }

    /// The display name of `line`, if one was recorded.
    pub fn label(&self, line: u64) -> Option<&str> {
        self.labels.get(&line).map(String::as_str)
    }

    /// The retained records, in finish order.
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Retained committed records.
    pub fn committed(&self) -> impl Iterator<Item = &TxnRecord> {
        self.records.iter().filter(|r| r.committed())
    }

    /// Records discarded over the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Exports the log as JSONL, one `sitm.txn.v1` record per line. A
    /// log with labels or drops leads with one `sitm.history.v1` line
    /// carrying them, so a truncated export still reads back as
    /// truncated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 || !self.labels.is_empty() {
            let labels = self
                .labels
                .iter()
                .map(|(line, label)| (line.to_string(), Json::Str(label.clone())))
                .collect();
            let log = Json::obj([
                ("schema", Json::Str(LOG_SCHEMA.to_string())),
                ("dropped", Json::Num(self.dropped as f64)),
                ("labels", Json::Obj(labels)),
            ]);
            out.push_str(&log.to_line());
            out.push('\n');
        }
        for r in &self.records {
            out.push_str(&r.to_json().to_line());
            out.push('\n');
        }
        out
    }

    /// Reads a [`History::to_jsonl`] export back (blank lines are
    /// skipped). The result has the default capacity.
    ///
    /// # Errors
    ///
    /// Returns the first line that is not valid JSON, carries neither
    /// schema tag, or lacks a field.
    pub fn from_jsonl(text: &str) -> Result<History, HistoryParseError> {
        let mut history = History::default();
        for (i, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            history
                .absorb_line(raw)
                .map_err(|message| HistoryParseError {
                    line: i + 1,
                    message,
                })?;
        }
        Ok(history)
    }

    /// Folds one non-blank JSONL line into the log.
    fn absorb_line(&mut self, raw: &str) -> Result<(), String> {
        let v = Json::parse(raw).map_err(|e| e.to_string())?;
        match v.get("schema").and_then(Json::as_str) {
            Some(TXN_SCHEMA) => self.push(TxnRecord::from_json(&v)?),
            Some(LOG_SCHEMA) => {
                self.dropped += v
                    .get("dropped")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("dropped"))?;
                let Some(Json::Obj(labels)) = v.get("labels") else {
                    return Err(bad("labels"));
                };
                for (line, label) in labels {
                    let line = line.parse().map_err(|_| bad("labels"))?;
                    self.set_label(line, label.as_str().ok_or_else(|| bad("labels"))?);
                }
            }
            other => return Err(format!("unknown schema {other:?}")),
        }
        Ok(())
    }
}

/// Error produced when a history JSONL line cannot be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for HistoryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "history line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for HistoryParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(txn: u64) -> TxnRecord {
        let mut b = TxnBuilder::new(txn, 0, 0, 1, Some(5));
        b.op(
            2,
            OpKind::Read {
                line: 64,
                observed: Some(3),
            },
        );
        b.op(3, OpKind::Write { line: 64 });
        b.commit(4, Some(9))
    }

    #[test]
    fn builder_round_trip() {
        let r = sample_record(7);
        assert!(r.committed());
        assert_eq!(r.begin_ts, Some(5));
        assert_eq!(r.commit_ts, Some(9));
        assert_eq!(r.ops.len(), 2);
        assert_eq!(r.write_lines().collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    fn abort_clears_commit_ts() {
        let b = TxnBuilder::new(1, 2, 0, 10, Some(11));
        let r = b.abort(12, "write-write");
        assert!(!r.committed());
        assert_eq!(r.commit_ts, None);
        assert_eq!(r.outcome, TxnOutcome::Aborted("write-write"));
    }

    #[test]
    fn capacity_bound_counts_drops() {
        let mut h = History::with_capacity(2);
        for txn in 0..5 {
            h.push(sample_record(txn));
        }
        assert_eq!(h.len(), 2);
        assert_eq!(h.dropped(), 3);
        assert_eq!(h.committed().count(), 2);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_schema() {
        let mut h = History::default();
        h.push(sample_record(1));
        h.push(TxnBuilder::new(2, 1, 0, 5, None).abort(6, "order"));
        let text = h.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Json::parse(line).expect("history lines parse back");
            assert_eq!(v.get("schema").and_then(Json::as_str), Some("sitm.txn.v1"));
        }
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("outcome").and_then(Json::as_str),
            Some("aborted:order")
        );
        assert_eq!(second.get("begin_ts"), Some(&Json::Null));
    }
}
