//! The multiversioned memory store: the full MVM address space.
//!
//! [`MvmStore`] combines a bump allocator over a word-addressed space
//! with per-line [`VersionList`]s, the live-transaction registry and the
//! Appendix A census. It offers the four access paths of the paper:
//!
//! * non-transactional reads (newest version) and writes (in place),
//! * transactional snapshot reads,
//! * transient (uncommitted) version spill and recovery,
//! * commit-time write-write validation and version installation.
//!
//! Version lists materialize lazily on first write; an address that was
//! allocated but never written reads as zero, mirroring the paper's lazy
//! population of physical lines. Since line addresses are bump-allocated
//! from zero, the lists live in a dense paged [`LineTable`] rather than
//! a hash map: lookups index directly by line address.

use sitm_obs::{MetricsRegistry, Observable};

use crate::active::ActiveTransactions;
use crate::line_table::LineTable;
use crate::stats::VersionDepthCensus;
use crate::timestamp::Timestamp;
use crate::types::{Addr, LineAddr, LineData, ThreadId, Word, WORDS_PER_LINE, ZERO_LINE};
use crate::version_list::{OverflowPolicy, SnapshotRead, VersionList, VersionOverflow};

/// Configuration of the multiversioned memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvmConfig {
    /// Maximum committed versions retained per line.
    pub version_cap: usize,
    /// Behaviour when the cap would be exceeded.
    pub overflow_policy: OverflowPolicy,
    /// Whether to disable coalescing (ablation switch; the paper always
    /// coalesces).
    pub coalescing: bool,
}

impl Default for MvmConfig {
    fn default() -> Self {
        MvmConfig {
            version_cap: crate::version_list::DEFAULT_VERSION_CAP,
            overflow_policy: OverflowPolicy::default(),
            coalescing: true,
        }
    }
}

/// The multiversioned memory: address space, version lists, live
/// transactions, and census.
///
/// # Examples
///
/// ```
/// use sitm_mvm::{MvmStore, Timestamp, ThreadId};
/// let mut mem = MvmStore::new();
/// let base = mem.alloc_lines(1);
/// let addr = base.word(0);
/// mem.write_word(addr, 7); // non-transactional initialization
/// assert_eq!(mem.read_word(addr), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MvmStore {
    config: MvmConfig,
    lines: LineTable,
    active: ActiveTransactions,
    census: VersionDepthCensus,
    next_line: u64,
    /// Committed version installs that created a new slot / coalesced.
    installs_created: u64,
    installs_coalesced: u64,
    /// Versions reclaimed by GC across all lines.
    gc_reclaimed: u64,
    /// Install attempts rejected by the abort-writer overflow policy.
    overflow_aborts: u64,
}

impl MvmStore {
    /// Creates an empty store with the paper's default configuration
    /// (4-version cap, abort-on-overflow, coalescing on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with an explicit configuration.
    pub fn with_config(config: MvmConfig) -> Self {
        MvmStore {
            config,
            ..Self::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> MvmConfig {
        self.config
    }

    /// Allocates `n` fresh cache lines and returns the first line address
    /// (the `mvmalloc` of section 4.4). Only the mapping is created; data
    /// lines materialize on first write.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn alloc_lines(&mut self, n: u64) -> LineAddr {
        assert!(n > 0, "allocation must cover at least one line");
        let base = LineAddr(self.next_line);
        self.next_line += n;
        base
    }

    /// Allocates at least `words` words, rounded up to whole lines, and
    /// returns the first word address.
    pub fn alloc_words(&mut self, words: u64) -> Addr {
        let lines = words.div_ceil(WORDS_PER_LINE as u64).max(1);
        self.alloc_lines(lines).first_word()
    }

    /// Number of lines handed out by the allocator so far.
    pub fn allocated_lines(&self) -> u64 {
        self.next_line
    }

    // ------------------------------------------------------------------
    // Live-transaction registry
    // ------------------------------------------------------------------

    /// Registers a beginning transaction's snapshot so GC and coalescing
    /// preserve the versions it can observe.
    pub fn register_transaction(&mut self, thread: ThreadId, start: Timestamp) {
        self.active.register(thread, start);
    }

    /// Unregisters a finished (committed or aborted) transaction.
    pub fn unregister_transaction(&mut self, thread: ThreadId) -> Option<Timestamp> {
        self.active.unregister(thread)
    }

    /// Read-only view of the live-transaction registry.
    pub fn active(&self) -> &ActiveTransactions {
        &self.active
    }

    // ------------------------------------------------------------------
    // Non-transactional access (newest version, in place)
    // ------------------------------------------------------------------

    /// Reads `addr` non-transactionally: the newest committed version.
    pub fn read_word(&self, addr: Addr) -> Word {
        self.lines
            .get(addr.line())
            .map_or(0, |vl| vl.newest_data()[addr.offset()])
    }

    /// Reads a whole line non-transactionally.
    pub fn read_line(&self, line: LineAddr) -> LineData {
        self.lines
            .get(line)
            .map_or(ZERO_LINE, |vl| vl.newest_data())
    }

    /// Writes `addr` non-transactionally, modifying the most current
    /// version in place (creating the line at timestamp zero if it never
    /// existed). Used for initialization and for the 2PL/SONTM baselines,
    /// which keep a single in-place version.
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        let vl = self.lines.entry(addr.line());
        let mut data = vl.newest_data();
        data[addr.offset()] = value;
        Self::overwrite_newest(vl, data, &self.active, &self.config);
    }

    /// Writes a whole line non-transactionally, in place.
    pub fn write_line(&mut self, line: LineAddr, data: LineData) {
        let vl = self.lines.entry(line);
        Self::overwrite_newest(vl, data, &self.active, &self.config);
    }

    fn overwrite_newest(
        vl: &mut VersionList,
        data: LineData,
        active: &ActiveTransactions,
        config: &MvmConfig,
    ) {
        // Non-transactional writes modify the most current version in
        // place (section 3). If the line has no version yet, install one
        // at timestamp zero so it is visible to every snapshot.
        match vl.newest_ts() {
            Some(ts) => {
                // In-place update: re-install at the same timestamp by
                // rebuilding the newest slot. VersionList::install demands
                // increasing timestamps, so emulate in-place mutation.
                vl.overwrite_newest_in_place(ts, data);
            }
            None => {
                vl.install(
                    Timestamp::ZERO,
                    data,
                    active,
                    config.version_cap,
                    config.overflow_policy,
                )
                .expect("first install cannot overflow");
            }
        }
    }

    // ------------------------------------------------------------------
    // Transactional access
    // ------------------------------------------------------------------

    /// Reads the line containing `addr` as of snapshot `start`,
    /// recording the served version depth in the census. The caller
    /// (protocol model) first consults its own write buffer and the
    /// transient store.
    ///
    /// Returns `None` when no version old enough survives (the snapshot
    /// was garbage collected or discarded): the reader must abort.
    pub fn read_snapshot(&mut self, line: LineAddr, start: Timestamp) -> Option<SnapshotRead> {
        match self.lines.get(line) {
            None => Some(SnapshotRead {
                data: ZERO_LINE,
                depth: 0,
                ts: Timestamp::ZERO,
            }),
            Some(vl) => {
                let r = vl.read_snapshot(start)?;
                self.census.record(r.depth);
                Some(r)
            }
        }
    }

    /// Reads a single word as of snapshot `start` along with the served
    /// version's timestamp, without copying the full line. Census
    /// recording matches [`MvmStore::read_snapshot`].
    pub fn read_word_snapshot_ts(
        &mut self,
        addr: Addr,
        start: Timestamp,
    ) -> Option<(Word, Timestamp)> {
        match self.lines.get(addr.line()) {
            None => Some((0, Timestamp::ZERO)),
            Some(vl) => {
                let (data, depth, ts) = vl.read_snapshot_ref(start)?;
                let word = data[addr.offset()];
                self.census.record(depth);
                Some((word, ts))
            }
        }
    }

    /// Reads a single word as of snapshot `start`; convenience over
    /// [`MvmStore::read_word_snapshot_ts`].
    pub fn read_word_snapshot(&mut self, addr: Addr, start: Timestamp) -> Option<Word> {
        self.read_word_snapshot_ts(addr, start).map(|(w, _)| w)
    }

    /// Whether a committed version of `line` is newer than `start` — the
    /// write-write validation check.
    pub fn newer_than(&self, line: LineAddr, start: Timestamp) -> bool {
        self.lines.get(line).is_some_and(|vl| vl.newer_than(start))
    }

    /// Commit timestamp of the newest committed version of `line`
    /// (`None` if the line has never been written transactionally).
    /// Used by abort forensics to identify the winning committer at a
    /// conflict site.
    pub fn newest_ts(&self, line: LineAddr) -> Option<Timestamp> {
        self.lines.get(line).and_then(|vl| vl.newest_ts())
    }

    /// Installs a committed version of `line` tagged `end`, applying
    /// coalescing and GC.
    ///
    /// # Errors
    ///
    /// Propagates [`VersionOverflow`] under the abort-on-overflow policy;
    /// the committing transaction must abort and roll back any versions
    /// it already installed via [`MvmStore::remove_installed`].
    pub fn install(
        &mut self,
        line: LineAddr,
        end: Timestamp,
        data: LineData,
    ) -> Result<(), VersionOverflow> {
        let vl = self.lines.entry(line);
        let gc_before = vl.gc_reclaimed_total();
        let result = if self.config.coalescing {
            vl.install(
                end,
                data,
                &self.active,
                self.config.version_cap,
                self.config.overflow_policy,
            )
        } else {
            // Ablation: force a fresh slot for every install by
            // pretending a snapshot separates every version pair.
            vl.install_no_coalesce(
                end,
                data,
                &self.active,
                self.config.version_cap,
                self.config.overflow_policy,
            )
        };
        // GC runs inside install; attribute what it reclaimed.
        self.gc_reclaimed += vl.gc_reclaimed_total() - gc_before;
        match result {
            Ok(true) => self.installs_created += 1,
            Ok(false) => self.installs_coalesced += 1,
            Err(overflow) => {
                self.overflow_aborts += 1;
                return Err(overflow);
            }
        }
        Ok(())
    }

    /// Removes a version previously installed at exactly `end` from
    /// `line` — the rollback path when a write-write conflict or version
    /// overflow is discovered midway through a commit ("removes all
    /// written lines from the MVM").
    pub fn remove_installed(&mut self, line: LineAddr, end: Timestamp) {
        if let Some(vl) = self.lines.get_mut(line) {
            vl.remove_version(end);
        }
    }

    /// Flattens every line's history to a single epoch version of its
    /// newest committed data (the clock-overflow interrupt handler; see
    /// [`VersionList::flatten`]). All transactions must have been aborted
    /// and unregistered first.
    ///
    /// # Panics
    ///
    /// Panics if transactions are still registered.
    pub fn flatten_all(&mut self) {
        assert!(
            self.active.is_empty(),
            "flatten_all with transactions in flight"
        );
        for vl in self.lines.iter_mut() {
            vl.flatten();
        }
    }

    // ------------------------------------------------------------------
    // Transient (uncommitted, evicted) versions
    // ------------------------------------------------------------------

    /// Spills an uncommitted line owned by `owner` into the MVM (the
    /// eviction path that makes transactions unbounded).
    pub fn put_transient(&mut self, owner: ThreadId, line: LineAddr, data: LineData) {
        self.lines.entry(line).put_transient(owner, data);
    }

    /// Reads back `owner`'s transient version of `line`, if present.
    pub fn transient_of(&self, owner: ThreadId, line: LineAddr) -> Option<LineData> {
        self.lines
            .get(line)
            .and_then(|vl| vl.transient_of(owner).copied())
    }

    /// Removes and returns `owner`'s transient version of `line`.
    pub fn take_transient(&mut self, owner: ThreadId, line: LineAddr) -> Option<LineData> {
        self.lines
            .get_mut(line)
            .and_then(|vl| vl.take_transient(owner))
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// The Appendix A version-depth census accumulated so far.
    pub fn census(&self) -> &VersionDepthCensus {
        &self.census
    }

    /// Resets the census (e.g. after warmup).
    pub fn reset_census(&mut self) {
        self.census = VersionDepthCensus::new();
    }

    /// `(created, coalesced)` counts of committed installs.
    pub fn install_counts(&self) -> (u64, u64) {
        (self.installs_created, self.installs_coalesced)
    }

    /// Number of committed versions currently held for `line`.
    pub fn version_count(&self, line: LineAddr) -> usize {
        self.lines.get(line).map_or(0, |vl| vl.version_count())
    }

    /// Largest version-list population across all lines (diagnostics for
    /// the coalescing ablation).
    pub fn max_version_count(&self) -> usize {
        self.lines
            .iter()
            .map(|vl| vl.version_count())
            .max()
            .unwrap_or(0)
    }

    /// Total versions reclaimed by garbage collection.
    pub fn gc_reclaimed(&self) -> u64 {
        self.gc_reclaimed
    }

    /// Install attempts rejected by the abort-writer overflow policy.
    pub fn overflow_aborts(&self) -> u64 {
        self.overflow_aborts
    }
}

impl Observable for MvmStore {
    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        let census = self.census();
        for depth in 0..VersionDepthCensus::REPORTED_DEPTHS {
            registry.count(&format!("mvm.census.depth{depth}"), census.at_depth(depth));
        }
        registry.count("mvm.census.tail", census.tail());
        registry.count("mvm.census.total", census.total());
        registry.count("mvm.installs.created", self.installs_created);
        registry.count("mvm.installs.coalesced", self.installs_coalesced);
        registry.count("mvm.gc.reclaimed", self.gc_reclaimed);
        registry.count("mvm.overflow.aborts", self.overflow_aborts);
        registry.count("mvm.lines", self.lines.len() as u64);
        registry.observe("mvm.version_depth.max", self.max_version_count() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_disjoint_and_line_rounded() {
        let mut m = MvmStore::new();
        let a = m.alloc_words(3);
        let b = m.alloc_words(9);
        let c = m.alloc_lines(2);
        assert_eq!(a.line(), LineAddr(0));
        assert_eq!(b.line(), LineAddr(1));
        assert_eq!(c, LineAddr(3));
        assert_eq!(m.allocated_lines(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn alloc_zero_rejected() {
        MvmStore::new().alloc_lines(0);
    }

    #[test]
    fn unwritten_words_read_zero() {
        let mut m = MvmStore::new();
        let a = m.alloc_words(8);
        assert_eq!(m.read_word(a), 0);
        assert_eq!(m.read_word_snapshot(a, Timestamp(100)), Some(0));
    }

    #[test]
    fn non_transactional_write_updates_in_place() {
        let mut m = MvmStore::new();
        let a = m.alloc_words(8);
        m.write_word(a, 1);
        m.write_word(a.add(1), 2);
        m.write_word(a, 3);
        assert_eq!(m.read_word(a), 3);
        assert_eq!(m.read_word(a.add(1)), 2);
        // In-place: still a single version.
        assert_eq!(m.version_count(a.line()), 1);
    }

    #[test]
    fn snapshot_isolation_of_commits() {
        let mut m = MvmStore::new();
        let a = m.alloc_words(8);
        m.write_word(a, 10);
        // Reader starts at TS 5.
        m.register_transaction(ThreadId(0), Timestamp(5));
        // Writer installs a committed version at TS 8.
        let mut data = m.read_line(a.line());
        data[a.offset()] = 99;
        m.install(a.line(), Timestamp(8), data).unwrap();
        // The TS-5 snapshot still sees the old value; a TS-9 snapshot
        // sees the new one.
        assert_eq!(m.read_word_snapshot(a, Timestamp(5)), Some(10));
        assert_eq!(m.read_word_snapshot(a, Timestamp(9)), Some(99));
        // Non-transactional reads see the newest.
        assert_eq!(m.read_word(a), 99);
    }

    #[test]
    fn write_write_validation_via_newer_than() {
        let mut m = MvmStore::new();
        let a = m.alloc_words(1);
        m.install(a.line(), Timestamp(7), ZERO_LINE).unwrap();
        assert!(m.newer_than(a.line(), Timestamp(3)));
        assert!(!m.newer_than(a.line(), Timestamp(7)));
        assert!(!m.newer_than(LineAddr(999), Timestamp(0)));
    }

    #[test]
    fn rollback_removes_installed_versions() {
        let mut m = MvmStore::new();
        let a = m.alloc_words(1);
        m.write_word(a, 5);
        m.register_transaction(ThreadId(1), Timestamp(1));
        let mut data = ZERO_LINE;
        data[a.offset()] = 6;
        m.install(a.line(), Timestamp(9), data).unwrap();
        m.remove_installed(a.line(), Timestamp(9));
        assert_eq!(m.read_word(a), 5, "rollback restores the prior version");
    }

    #[test]
    fn transient_roundtrip() {
        let mut m = MvmStore::new();
        let l = m.alloc_lines(1);
        let mut data = ZERO_LINE;
        data[3] = 42;
        m.put_transient(ThreadId(2), l, data);
        assert_eq!(m.transient_of(ThreadId(2), l), Some(data));
        assert_eq!(m.transient_of(ThreadId(1), l), None);
        assert_eq!(m.take_transient(ThreadId(2), l), Some(data));
        assert_eq!(m.take_transient(ThreadId(2), l), None);
    }

    #[test]
    fn census_records_snapshot_depths() {
        let mut m = MvmStore::new();
        let a = m.alloc_words(1);
        m.register_transaction(ThreadId(0), Timestamp(2));
        m.install(a.line(), Timestamp(1), ZERO_LINE).unwrap();
        m.install(a.line(), Timestamp(5), ZERO_LINE).unwrap();
        m.read_word_snapshot(a, Timestamp(9)).unwrap(); // depth 0
        m.read_word_snapshot(a, Timestamp(2)).unwrap(); // depth 1
        assert_eq!(m.census().at_depth(0), 1);
        assert_eq!(m.census().at_depth(1), 1);
        m.reset_census();
        assert_eq!(m.census().total(), 0);
    }

    #[test]
    fn coalescing_ablation_creates_more_versions() {
        let run = |coalescing: bool| {
            let mut m = MvmStore::with_config(MvmConfig {
                coalescing,
                overflow_policy: OverflowPolicy::Unbounded,
                ..MvmConfig::default()
            });
            let a = m.alloc_words(1);
            // An ancient reader keeps GC from truncating history; no
            // snapshot lies between consecutive installs, so coalescing
            // (when enabled) merges them all.
            m.register_transaction(ThreadId(9), Timestamp(1));
            for ts in 2..=7 {
                m.install(a.line(), Timestamp(ts), ZERO_LINE).unwrap();
            }
            m.version_count(a.line())
        };
        assert_eq!(run(true), 1, "no live snapshots: everything coalesces");
        assert_eq!(run(false), 6, "ablation keeps every version");
    }

    #[test]
    fn gc_reclaims_once_readers_leave() {
        let mut m = MvmStore::new();
        let a = m.alloc_words(1);
        // A reader snapshot between consecutive installs blocks
        // coalescing, so each install creates a distinct slot.
        for ts in 2..=5 {
            m.install(a.line(), Timestamp(ts), ZERO_LINE).unwrap();
            m.register_transaction(ThreadId(ts as usize), Timestamp(ts));
        }
        assert_eq!(m.version_count(a.line()), 4);
        assert_eq!(m.gc_reclaimed(), 0);
        // Readers leave; the next install's GC truncates the history.
        for ts in 2..=5usize {
            m.unregister_transaction(ThreadId(ts));
        }
        m.install(a.line(), Timestamp(6), ZERO_LINE).unwrap();
        assert_eq!(m.version_count(a.line()), 1);
        assert!(m.gc_reclaimed() >= 3, "stale versions were reclaimed");
    }

    #[test]
    fn export_metrics_reports_census_installs_and_gc() {
        use sitm_obs::MetricsRegistry;
        let mut m = MvmStore::new();
        let a = m.alloc_words(1);
        m.register_transaction(ThreadId(0), Timestamp(1));
        m.install(a.line(), Timestamp(2), ZERO_LINE).unwrap();
        m.install(a.line(), Timestamp(3), ZERO_LINE).unwrap();
        m.read_word_snapshot(a, Timestamp(9)).unwrap(); // depth 0

        let mut reg = MetricsRegistry::new();
        m.export_metrics(&mut reg);
        assert_eq!(reg.counter("mvm.census.depth0"), 1);
        assert_eq!(reg.counter("mvm.census.total"), m.census().total());
        let (created, coalesced) = m.install_counts();
        assert_eq!(reg.counter("mvm.installs.created"), created);
        assert_eq!(reg.counter("mvm.installs.coalesced"), coalesced);
        assert_eq!(reg.counter("mvm.lines"), 1);
    }
}
