//! Abort forensics: structured conflict attribution behind the abort
//! counters.
//!
//! The rest of the stack counts *that* transactions abort; this module
//! records *why and where*. Every abort is classified into the
//! [`ForensicCause`] taxonomy and, when the abort site knows them,
//! carries the conflicting line (cache-line address in the simulator, a
//! `TVar` id in the software STM), the winning transaction's commit
//! timestamp, and the loser's snapshot timestamp.
//!
//! No runtime keeps a forensic recorder of its own: abort sites (the
//! simulator's protocol models via the engine, the software STM's
//! commit path) stamp a [`crate::AbortDetail`] on the attempt's
//! [`crate::TxnRecord`], and [`ForensicsSnapshot::from_history`] folds a
//! recorded [`History`] offline.
//!
//! The fold yields a [`ForensicsSnapshot`] (plain data): per-cause
//! counts, the top-K hot-line sketch, and a log2 histogram of *conflict
//! age* (winner commit timestamp minus loser snapshot timestamp — how
//! stale the loser's snapshot was when it lost). Snapshots serialize as
//! `sitm.abort_forensics.v1` JSONL via [`ForensicsReport`].

use crate::history::History;
use crate::json::Json;
use crate::metrics::Histogram;

/// The forensic abort-cause taxonomy, unified across all four simulator
/// protocol models and the software STM. Coarser than the simulator's
/// own `AbortCause` (which feeds the paper's figures) and aligned with
/// the snapshot-isolation literature: first-committer-wins, read
/// validation, and SSI dangerous-structure (pivot) aborts are the three
/// data-conflict families; lock conflicts, capacity evictions and
/// explicit/system aborts cover the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForensicCause {
    /// First-committer-wins write-write validation failed: a newer
    /// committed version of a written (or promoted) line exists.
    WriteWriteFcw,
    /// A read (or read-set validation) conflicted with a concurrent
    /// writer: eager read-write dooms, serializable read-set validation,
    /// SONTM order-range collapse.
    ReadValidation,
    /// An SSI dangerous structure completed and this transaction was the
    /// pivot (or the only abortable party of one).
    SsiPivot,
    /// A lock conflict resolved against this transaction (the eager 2PL
    /// model's requester-wins dooms stand in for lock timeouts).
    LockTimeout,
    /// Bounded state ran out: version-buffer capacity, version-cap
    /// overflow, or a snapshot evicted by the discard-oldest policy.
    CapacityEviction,
    /// The transaction was aborted by explicit or system action
    /// (self-restart sandboxing, clock-overflow abort-all).
    Explicit,
}

impl ForensicCause {
    /// All causes, for iteration in tables.
    pub const ALL: [ForensicCause; 6] = [
        ForensicCause::WriteWriteFcw,
        ForensicCause::ReadValidation,
        ForensicCause::SsiPivot,
        ForensicCause::LockTimeout,
        ForensicCause::CapacityEviction,
        ForensicCause::Explicit,
    ];

    /// Dense index for table-building.
    pub fn index(self) -> usize {
        match self {
            ForensicCause::WriteWriteFcw => 0,
            ForensicCause::ReadValidation => 1,
            ForensicCause::SsiPivot => 2,
            ForensicCause::LockTimeout => 3,
            ForensicCause::CapacityEviction => 4,
            ForensicCause::Explicit => 5,
        }
    }

    /// Short stable label (used by the JSONL schema and tables).
    pub fn label(self) -> &'static str {
        match self {
            ForensicCause::WriteWriteFcw => "write-write-fcw",
            ForensicCause::ReadValidation => "read-validation",
            ForensicCause::SsiPivot => "ssi-pivot",
            ForensicCause::LockTimeout => "lock-timeout",
            ForensicCause::CapacityEviction => "capacity-eviction",
            ForensicCause::Explicit => "explicit",
        }
    }

    /// Parses a [`ForensicCause::label`] back.
    pub fn from_label(label: &str) -> Option<ForensicCause> {
        ForensicCause::ALL.into_iter().find(|c| c.label() == label)
    }
}

impl std::fmt::Display for ForensicCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Number of hot-line slots retained by the top-K sketch.
pub const HOT_LINE_SLOTS: usize = 32;

/// A deterministic space-saving top-K sketch over line addresses.
///
/// While fewer than [`HOT_LINE_SLOTS`] distinct lines have been seen the
/// counts are exact. Past that, the minimum-count slot is evicted and
/// the newcomer inherits `min + 1` — the classic space-saving
/// overestimate, which preserves the guarantee that any line with true
/// count above `total / K` is present. Ties evict the first minimal
/// slot, so the sketch is deterministic for a deterministic input
/// stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopK {
    slots: Vec<(u64, u64)>,
}

impl TopK {
    /// Counts one occurrence of `line`.
    pub fn record(&mut self, line: u64) {
        if let Some(slot) = self.slots.iter_mut().find(|(l, _)| *l == line) {
            slot.1 += 1;
            return;
        }
        if self.slots.len() < HOT_LINE_SLOTS {
            self.slots.push((line, 1));
            return;
        }
        let min = self
            .slots
            .iter_mut()
            .min_by_key(|(_, c)| *c)
            .expect("sketch is non-empty at capacity");
        *min = (line, min.1 + 1);
    }

    /// Merges another sketch: counts add by line, then the result is
    /// re-truncated to the K heaviest lines.
    pub fn merge(&mut self, other: &TopK) {
        for &(line, count) in &other.slots {
            if let Some(slot) = self.slots.iter_mut().find(|(l, _)| *l == line) {
                slot.1 += count;
            } else {
                self.slots.push((line, count));
            }
        }
        self.slots
            .sort_by_key(|&(line, count)| (u64::MAX - count, line));
        self.slots.truncate(HOT_LINE_SLOTS);
    }

    /// The retained `(line, approximate count)` pairs, heaviest first
    /// (ties by ascending line address).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut out = self.slots.clone();
        out.sort_by_key(|&(line, count)| (u64::MAX - count, line));
        out
    }
}

/// The folded result of forensic recording: per-cause
/// abort counts, attribution coverage, the hot-line sketch, and the
/// conflict-age histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForensicsSnapshot {
    /// Aborts per cause, indexed by [`ForensicCause::index`].
    pub by_cause: [u64; ForensicCause::ALL.len()],
    /// Total aborts recorded.
    pub total: u64,
    /// Aborts that carried a concrete conflicting line.
    pub attributed: u64,
    /// The heaviest aborting lines, heaviest first.
    pub hot_lines: Vec<(u64, u64)>,
    /// Log2 histogram of `winner_ts - snapshot_ts` for aborts where both
    /// timestamps were known: how stale the loser's snapshot was.
    pub conflict_age: Histogram,
}

impl ForensicsSnapshot {
    /// Folds every aborted attempt of a recorded history. An abort
    /// whose site stamped an [`crate::AbortDetail`] is attributed to
    /// that cause and whatever line and winner it names; one without (a
    /// deliberate rollback, an attempt dropped unfinished, a recorder
    /// that keeps no detail) counts as [`ForensicCause::Explicit`] with
    /// no line.
    pub fn from_history(history: &History) -> ForensicsSnapshot {
        let mut snap = ForensicsSnapshot::default();
        let mut hot_lines = TopK::default();
        for record in history.records().iter().filter(|r| !r.committed()) {
            let detail = record.abort;
            let cause = detail.map_or(ForensicCause::Explicit, |d| d.cause);
            snap.by_cause[cause.index()] += 1;
            snap.total += 1;
            if let Some(line) = detail.and_then(|d| d.line) {
                snap.attributed += 1;
                hot_lines.record(line);
            }
            if let (Some(winner), Some(snapshot)) =
                (detail.and_then(|d| d.winner_ts), record.begin_ts)
            {
                snap.conflict_age.record(winner.saturating_sub(snapshot));
            }
        }
        snap.hot_lines = hot_lines.entries();
        snap
    }

    /// Fraction of recorded aborts that carried a concrete line
    /// (`1.0` when nothing was recorded — there is nothing unattributed).
    pub fn attribution_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.attributed as f64 / self.total as f64
        }
    }

    /// Aborts recorded for `cause`.
    pub fn count(&self, cause: ForensicCause) -> u64 {
        self.by_cause[cause.index()]
    }

    /// Merges another snapshot (per-cause counts add, sketches merge,
    /// histograms merge).
    pub fn merge(&mut self, other: &ForensicsSnapshot) {
        for (into, from) in self.by_cause.iter_mut().zip(other.by_cause.iter()) {
            *into += from;
        }
        self.total += other.total;
        self.attributed += other.attributed;
        let mut sketch = TopK {
            slots: self.hot_lines.clone(),
        };
        sketch.merge(&TopK {
            slots: other.hot_lines.clone(),
        });
        self.hot_lines = sketch.entries();
        self.conflict_age.merge(&other.conflict_age);
    }

    /// The snapshot as a JSON object fragment (no schema envelope; see
    /// [`ForensicsReport`] for full `sitm.abort_forensics.v1` lines).
    pub fn to_json(&self) -> Json {
        let by_cause = ForensicCause::ALL
            .into_iter()
            .filter(|c| self.count(*c) > 0)
            .map(|c| (c.label(), Json::Num(self.count(c) as f64)))
            .collect::<Vec<_>>();
        let hot = self
            .hot_lines
            .iter()
            .map(|&(line, count)| Json::Arr(vec![Json::Num(line as f64), Json::Num(count as f64)]))
            .collect();
        Json::obj([
            ("total", Json::Num(self.total as f64)),
            ("attributed", Json::Num(self.attributed as f64)),
            ("by_cause", Json::obj(by_cause)),
            ("hot_lines", Json::Arr(hot)),
            ("conflict_age", self.conflict_age.to_json()),
        ])
    }

    /// Parses a [`ForensicsSnapshot::to_json`] object back.
    pub fn from_json(v: &Json) -> Option<ForensicsSnapshot> {
        let mut snap = ForensicsSnapshot {
            total: v.get("total")?.as_u64()?,
            attributed: v.get("attributed")?.as_u64()?,
            ..ForensicsSnapshot::default()
        };
        if let Some(Json::Obj(by_cause)) = v.get("by_cause") {
            for (label, count) in by_cause {
                let cause = ForensicCause::from_label(label)?;
                snap.by_cause[cause.index()] = count.as_u64()?;
            }
        }
        if let Some(Json::Arr(hot)) = v.get("hot_lines") {
            for pair in hot {
                let Json::Arr(lc) = pair else { return None };
                snap.hot_lines
                    .push((lc.first()?.as_u64()?, lc.get(1)?.as_u64()?));
            }
        }
        snap.conflict_age = Histogram::from_json(v.get("conflict_age")?)?;
        Some(snap)
    }
}

/// The `sitm.abort_forensics.v1` JSONL schema: one line per sweep cell,
/// pairing the run context with its [`ForensicsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForensicsReport {
    /// Bench binary that produced the line.
    pub bench: String,
    /// Protocol under test.
    pub protocol: String,
    /// Workload name.
    pub workload: String,
    /// Simulated core count.
    pub threads: usize,
    /// Seeds aggregated into the snapshot.
    pub seeds: usize,
    /// The aggregated forensics.
    pub snapshot: ForensicsSnapshot,
}

impl ForensicsReport {
    /// The JSONL schema identifier.
    pub const SCHEMA: &'static str = "sitm.abort_forensics.v1";

    /// The report as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut map = std::collections::BTreeMap::new();
        map.insert("schema".to_string(), Json::Str(Self::SCHEMA.to_string()));
        map.insert("bench".to_string(), Json::Str(self.bench.clone()));
        map.insert("protocol".to_string(), Json::Str(self.protocol.clone()));
        map.insert("workload".to_string(), Json::Str(self.workload.clone()));
        map.insert("threads".to_string(), Json::Num(self.threads as f64));
        map.insert("seeds".to_string(), Json::Num(self.seeds as f64));
        if let Json::Obj(snapshot) = self.snapshot.to_json() {
            map.extend(snapshot);
        }
        Json::Obj(map).to_line()
    }

    /// Parses one JSONL line back (returns `None` on schema mismatch or
    /// malformed fields).
    pub fn from_json_line(line: &str) -> Option<ForensicsReport> {
        let v = Json::parse(line).ok()?;
        if v.get("schema").and_then(Json::as_str) != Some(Self::SCHEMA) {
            return None;
        }
        Some(ForensicsReport {
            bench: v.get("bench")?.as_str()?.to_string(),
            protocol: v.get("protocol")?.as_str()?.to_string(),
            workload: v.get("workload")?.as_str()?.to_string(),
            threads: v.get("threads")?.as_u64()? as usize,
            seeds: v.get("seeds")?.as_u64()? as usize,
            snapshot: ForensicsSnapshot::from_json(&v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_indices_are_dense_and_labels_round_trip() {
        let mut seen = [false; ForensicCause::ALL.len()];
        for cause in ForensicCause::ALL {
            let i = cause.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
            assert_eq!(ForensicCause::from_label(cause.label()), Some(cause));
            assert_eq!(cause.to_string(), cause.label());
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(ForensicCause::from_label("no-such-cause"), None);
    }

    #[test]
    fn topk_is_exact_below_capacity() {
        let mut k = TopK::default();
        for _ in 0..3 {
            k.record(64);
        }
        k.record(128);
        assert_eq!(k.entries(), vec![(64, 3), (128, 1)]);
    }

    #[test]
    fn topk_evicts_the_minimum_and_overestimates() {
        let mut k = TopK::default();
        // Fill every slot with distinct lines.
        for line in 0..HOT_LINE_SLOTS as u64 {
            k.record(line * 64);
        }
        // A heavy hitter arrives after the sketch is full: it must be
        // retained (space-saving guarantee) with count >= its true count.
        for _ in 0..10 {
            k.record(999_936);
        }
        let entries = k.entries();
        assert_eq!(entries.len(), HOT_LINE_SLOTS);
        let (line, count) = entries[0];
        assert_eq!(line, 999_936);
        assert!(count >= 10);
    }

    #[test]
    fn topk_merge_re_truncates_to_capacity() {
        let mut a = TopK::default();
        let mut b = TopK::default();
        for line in 0..HOT_LINE_SLOTS as u64 {
            a.record(line);
            a.record(line);
            b.record(line + HOT_LINE_SLOTS as u64);
        }
        a.merge(&b);
        let entries = a.entries();
        assert_eq!(entries.len(), HOT_LINE_SLOTS);
        // The doubly-counted lines win over the singly-counted ones.
        assert!(entries.iter().all(|&(_, c)| c == 2));
    }

    #[test]
    fn snapshot_merge_adds_counts_and_rates() {
        let mut a = ForensicsSnapshot::default();
        a.by_cause[ForensicCause::WriteWriteFcw.index()] = 3;
        a.total = 4;
        a.attributed = 3;
        a.hot_lines = vec![(64, 3)];
        let mut b = ForensicsSnapshot::default();
        b.by_cause[ForensicCause::WriteWriteFcw.index()] = 1;
        b.total = 1;
        b.attributed = 1;
        b.hot_lines = vec![(64, 1)];
        a.merge(&b);
        assert_eq!(a.count(ForensicCause::WriteWriteFcw), 4);
        assert_eq!(a.total, 5);
        assert_eq!(a.hot_lines, vec![(64, 4)]);
        assert!((a.attribution_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_fully_attributed() {
        assert_eq!(ForensicsSnapshot::default().attribution_rate(), 1.0);
    }

    #[test]
    fn report_json_line_round_trips() {
        let mut snapshot = ForensicsSnapshot::default();
        snapshot.by_cause[ForensicCause::WriteWriteFcw.index()] = 7;
        snapshot.by_cause[ForensicCause::CapacityEviction.index()] = 2;
        snapshot.total = 10;
        snapshot.attributed = 9;
        snapshot.hot_lines = vec![(192, 6), (64, 3)];
        snapshot.conflict_age.record(3);
        snapshot.conflict_age.record(40);
        let report = ForensicsReport {
            bench: "abort_forensics".into(),
            protocol: "SI-TM".into(),
            workload: "array".into(),
            threads: 16,
            seeds: 3,
            snapshot,
        };
        let line = report.to_json_line();
        assert!(line.contains("sitm.abort_forensics.v1"));
        let back = ForensicsReport::from_json_line(&line).expect("round-trip parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json_line(), line, "serialization is a fixed point");
        assert_eq!(
            ForensicsReport::from_json_line("{\"schema\":\"other\"}"),
            None
        );
    }

    #[test]
    fn history_fold_attributes_stamped_aborts_and_counts_the_rest() {
        use crate::history::{AbortDetail, TxnBuilder};
        let mut h = History::default();
        h.push(TxnBuilder::new(1, 0, 0, 1, Some(5)).commit(2, Some(6)));
        let mut loser = TxnBuilder::new(2, 1, 0, 3, Some(5));
        loser.detail(AbortDetail {
            cause: ForensicCause::WriteWriteFcw,
            line: Some(64),
            winner_ts: Some(9),
        });
        h.push(loser.abort(4, "write-write"));
        h.push(TxnBuilder::new(3, 1, 0, 5, Some(9)).abort(6, "explicit"));
        let snap = ForensicsSnapshot::from_history(&h);
        assert_eq!(snap.total, 2, "commits are not aborts");
        assert_eq!(snap.attributed, 1);
        assert_eq!(snap.count(ForensicCause::WriteWriteFcw), 1);
        assert_eq!(snap.count(ForensicCause::Explicit), 1);
        assert_eq!(snap.hot_lines, vec![(64, 1)]);
        assert_eq!(snap.conflict_age.total(), 1);
        assert_eq!(snap.conflict_age.max(), 4, "winner 9 - snapshot 5");
    }
}
