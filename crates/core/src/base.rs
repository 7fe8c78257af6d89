//! Shared building blocks for the protocol models: the per-transaction
//! write buffer and the protocol base (store + memory-system cost model).

use sitm_mvm::{Addr, LineAddr, LineData, MvmStore, Word};
use sitm_obs::{AbortDetail, ForensicCause};
use sitm_sim::{Cycles, MachineConfig, MemorySystem};

/// A sorted set of line addresses backed by a flat vector.
///
/// Transaction read/write sets are small (a handful to a few dozen
/// lines), so a sorted `Vec` with binary-search insertion beats a
/// `BTreeSet`: no per-node allocation, contiguous probes, and `clear`
/// keeps the capacity for the next transaction. Iteration is in
/// ascending address order — exactly the order `BTreeSet` produced —
/// which the discrete-event simulation relies on for determinism.
#[derive(Debug, Clone, Default)]
pub struct LineSet {
    items: Vec<LineAddr>,
}

impl LineSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `line`. Returns `true` if it was not already present.
    pub fn insert(&mut self, line: LineAddr) -> bool {
        match self.items.binary_search(&line) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, line);
                true
            }
        }
    }

    /// Whether `line` is in the set.
    pub fn contains(&self, line: &LineAddr) -> bool {
        self.items.binary_search(line).is_ok()
    }

    /// The lines in ascending address order.
    pub fn iter(&self) -> std::slice::Iter<'_, LineAddr> {
        self.items.iter()
    }

    /// Number of lines in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes every line, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<'a> IntoIterator for &'a LineSet {
    type Item = &'a LineAddr;
    type IntoIter = std::slice::Iter<'a, LineAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl FromIterator<LineAddr> for LineSet {
    fn from_iter<I: IntoIterator<Item = LineAddr>>(iter: I) -> Self {
        let mut items: Vec<LineAddr> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        LineSet { items }
    }
}

/// The lines a transaction has touched, in first-touch order, possibly
/// with (non-consecutive) duplicates.
///
/// Membership is never queried: the only consumer is the flash
/// invalidation of transactionally marked cache lines at transaction
/// end, and invalidating a line twice is a no-op. Recording a touch is
/// therefore a plain push — deduplicated against the immediately
/// preceding touch, which covers the common read-modify-write pattern —
/// instead of a sorted insert.
#[derive(Debug, Clone, Default)]
pub struct TouchedLines(Vec<LineAddr>);

impl TouchedLines {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a touch of `line`.
    pub fn insert(&mut self, line: LineAddr) {
        if self.0.last() != Some(&line) {
            self.0.push(line);
        }
    }

    /// The touched lines in first-touch order (duplicates possible).
    pub fn iter(&self) -> std::slice::Iter<'_, LineAddr> {
        self.0.iter()
    }
}

/// A transaction's buffered (uncommitted) writes, at word granularity,
/// with the set of touched lines maintained alongside.
///
/// Lazy version management buffers stores privately until commit; this
/// structure is that buffer. Both the word map and the line set are
/// sorted flat vectors (see `LineSet`): write sets are small, and the
/// `BTreeMap` this replaced spent more time allocating nodes than
/// ordering keys. Iteration stays in ascending address order, which the
/// discrete-event simulation relies on for determinism.
#[derive(Debug, Clone, Default)]
pub struct WriteBuffer {
    words: Vec<(Addr, Word)>,
    lines: LineSet,
}

impl WriteBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers `addr = value`. Returns `true` if this touched a line not
    /// previously written by the transaction.
    pub fn insert(&mut self, addr: Addr, value: Word) -> bool {
        match self.words.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(pos) => self.words[pos].1 = value,
            Err(pos) => self.words.insert(pos, (addr, value)),
        }
        self.lines.insert(addr.line())
    }

    /// The buffered value of `addr`, if the transaction wrote it.
    pub fn get(&self, addr: Addr) -> Option<Word> {
        self.words
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|pos| self.words[pos].1)
    }

    /// Whether the transaction wrote anything in `line`.
    pub fn touches_line(&self, line: LineAddr) -> bool {
        self.lines.contains(&line)
    }

    /// The set of written lines, in address order.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines.iter().copied()
    }

    /// Number of distinct lines written.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing was written (the transaction is read-only).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The contiguous run of buffered words belonging to `line`.
    fn line_range(&self, line: LineAddr) -> &[(Addr, Word)] {
        let lo = line.word(0);
        let hi = Addr(lo.0 + sitm_mvm::WORDS_PER_LINE as u64);
        let start = self.words.partition_point(|&(a, _)| a < lo);
        let end = self.words.partition_point(|&(a, _)| a < hi);
        &self.words[start..end]
    }

    /// Applies the buffered words belonging to `line` onto `base`,
    /// producing the line image the transaction observes / will commit.
    pub fn apply_to(&self, line: LineAddr, mut base: LineData) -> LineData {
        for &(addr, value) in self.line_range(line) {
            base[addr.offset()] = value;
        }
        base
    }

    /// The word addresses written within `line`.
    pub fn words_in(&self, line: LineAddr) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.line_range(line).iter().copied()
    }

    /// Discards everything, keeping the allocations.
    pub fn clear(&mut self) {
        self.words.clear();
        self.lines.clear();
    }
}

/// State shared by every protocol model: the multiversioned store and the
/// cache-hierarchy cost model, plus fixed operation costs.
#[derive(Debug)]
pub struct ProtocolBase {
    /// The backing (multiversioned) memory.
    pub store: MvmStore,
    /// The timing model.
    pub mem: MemorySystem,
    /// Cycles to obtain a timestamp / initialize transaction state.
    pub begin_cost: Cycles,
    /// Cycles to discard transaction state on rollback (fixed part; the
    /// paper performs rollback in software).
    pub rollback_cost: Cycles,
    /// Cycles per write-set line for validation bookkeeping.
    pub per_line_validate_cost: Cycles,
}

impl ProtocolBase {
    /// Builds the base for machine `cfg` with an empty store.
    pub fn new(store: MvmStore, cfg: &MachineConfig) -> Self {
        ProtocolBase {
            store,
            mem: MemorySystem::new(cfg),
            begin_cost: 10,
            rollback_cost: 40,
            per_line_validate_cost: cfg.l3.latency,
        }
    }

    /// What a timestamp-based abort site on `line` knows: the newest
    /// committed version of the line is the conflict's winner.
    pub fn lost_to_newest(&self, cause: ForensicCause, line: LineAddr) -> AbortDetail {
        AbortDetail {
            cause,
            line: Some(line.0),
            winner_ts: self.store.newest_ts(line).map(|ts| ts.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_mvm::ZERO_LINE;

    #[test]
    fn write_buffer_tracks_words_and_lines() {
        let mut wb = WriteBuffer::new();
        assert!(wb.is_empty());
        assert!(wb.insert(Addr(3), 30));
        assert!(!wb.insert(Addr(5), 50), "same line");
        assert!(wb.insert(Addr(9), 90), "new line");
        assert_eq!(wb.get(Addr(3)), Some(30));
        assert_eq!(wb.get(Addr(4)), None);
        assert_eq!(wb.line_count(), 2);
        assert!(wb.touches_line(LineAddr(0)));
        assert!(!wb.touches_line(LineAddr(7)));
    }

    #[test]
    fn apply_to_merges_only_own_line() {
        let mut wb = WriteBuffer::new();
        wb.insert(Addr(1), 11);
        wb.insert(Addr(9), 99); // next line; must not leak in
        let merged = wb.apply_to(LineAddr(0), ZERO_LINE);
        assert_eq!(merged[1], 11);
        assert!(merged.iter().enumerate().all(|(i, &w)| i == 1 || w == 0));
    }

    #[test]
    fn words_in_is_line_scoped() {
        let mut wb = WriteBuffer::new();
        wb.insert(Addr(8), 1);
        wb.insert(Addr(15), 2);
        wb.insert(Addr(16), 3);
        let in_line1: Vec<_> = wb.words_in(LineAddr(1)).collect();
        assert_eq!(in_line1, vec![(Addr(8), 1), (Addr(15), 2)]);
    }

    #[test]
    fn insert_overwrites_in_place() {
        let mut wb = WriteBuffer::new();
        wb.insert(Addr(3), 30);
        assert!(!wb.insert(Addr(3), 33), "same word, same line");
        assert_eq!(wb.get(Addr(3)), Some(33));
        assert_eq!(wb.line_count(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut wb = WriteBuffer::new();
        wb.insert(Addr(0), 1);
        wb.clear();
        assert!(wb.is_empty());
        assert_eq!(wb.line_count(), 0);
    }

    #[test]
    fn line_set_is_sorted_and_deduplicated() {
        let mut s = LineSet::new();
        assert!(s.insert(LineAddr(7)));
        assert!(s.insert(LineAddr(2)));
        assert!(!s.insert(LineAddr(7)), "duplicate");
        assert!(s.contains(&LineAddr(2)));
        assert!(!s.contains(&LineAddr(3)));
        let order: Vec<_> = s.iter().copied().collect();
        assert_eq!(order, vec![LineAddr(2), LineAddr(7)]);
        let collected: LineSet = [LineAddr(9), LineAddr(1), LineAddr(9)]
            .into_iter()
            .collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(
            collected.iter().copied().collect::<Vec<_>>(),
            vec![LineAddr(1), LineAddr(9)]
        );
        s.clear();
        assert!(s.is_empty());
    }
}
