//! The genome kernel: gene sequencing by segment deduplication and
//! overlap matching.
//!
//! STAMP's genome spends its transactional time in two phases: (1)
//! inserting DNA segments into a shared hash set to remove duplicates,
//! and (2) matching segment overlaps, which probes shared tables and
//! links segments into chains. Transactions are of moderate length with
//! a high read:write ratio (probe sequences followed by at most one or
//! two writes), and contention comes from hash collisions.
//!
//! The kernel reproduces this with an open-addressing hash set in
//! simulated memory (one slot per cache line): 70% *dedup-insert*
//! transactions probe linearly and claim the first empty slot; 30%
//! *match* transactions probe for several existing segments read-only
//! and link one chain pointer.
//!
//! Expectation (Figure 7/8): both conflict serializability and snapshot
//! isolation eliminate most 2PL aborts here, performing almost on par
//! (~3.8x speedup over 2PL at 32 threads for both).

use sitm_mvm::{Addr, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::txm::{Diverged, LogicTx, TxLogic, TxMemory};

/// Parameters of the genome kernel.
#[derive(Debug, Clone, Copy)]
pub struct GenomeParams {
    /// Hash-table slots (one per line).
    pub table_slots: usize,
    /// Number of distinct segment ids inserted.
    pub segments: usize,
    /// Total transactions across all threads (STAMP runs a fixed
    /// input, so the work is divided among threads).
    pub total_txs: usize,
}

impl Default for GenomeParams {
    fn default() -> Self {
        GenomeParams {
            table_slots: 2048,
            segments: 1024,
            total_txs: 1920,
        }
    }
}

impl GenomeParams {
    /// Miniature configuration for fast tests.
    pub fn quick() -> Self {
        GenomeParams {
            table_slots: 64,
            segments: 32,
            total_txs: 40,
        }
    }
}

/// The genome workload. One hash slot per cache line; slot word 0 holds
/// the segment id (0 = empty), word 1 holds the chain link.
#[derive(Debug)]
pub struct GenomeWorkload {
    params: GenomeParams,
    table_base: Option<u64>,
    n_threads: usize,
}

impl GenomeWorkload {
    /// Creates the workload.
    pub fn new(params: GenomeParams) -> Self {
        GenomeWorkload {
            params,
            table_base: None,
            n_threads: 1,
        }
    }

    fn slot_addr(base: u64, slot: usize) -> Addr {
        Addr((base + slot as u64) * WORDS_PER_LINE as u64)
    }
}

impl Workload for GenomeWorkload {
    fn name(&self) -> &str {
        "genome"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        self.n_threads = n_threads;
        let base = mem.alloc_lines(self.params.table_slots as u64).0;
        self.table_base = Some(base);
        // Pre-populate half the segments so match transactions find
        // work.
        let mut rng = SmallRng::seed_from_u64(0x6E0);
        for _ in 0..self.params.segments / 2 {
            let seg = rng.gen_range(1..=self.params.segments as u64);
            let mut slot = (seg as usize * 31) % self.params.table_slots;
            loop {
                let a = Self::slot_addr(base, slot);
                let cur = mem.read_word(a);
                if cur == 0 {
                    mem.write_word(a, seg);
                    break;
                }
                if cur == seg {
                    break;
                }
                slot = (slot + 1) % self.params.table_slots;
            }
        }
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        Box::new(GenomeThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: crate::registry::fixed_share(self.params.total_txs, tid, self.n_threads),
            base: self.table_base.expect("setup must run first"),
            params: self.params,
        })
    }
}

#[derive(Debug)]
struct GenomeThread {
    rng: SmallRng,
    remaining: usize,
    base: u64,
    params: GenomeParams,
}

impl ThreadWorkload for GenomeThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let seg = self.rng.gen_range(1..=self.params.segments as u64);
        if self.rng.gen_range(0..100) < 70 {
            Some(LogicTx::boxed(DedupInsert {
                base: self.base,
                slots: self.params.table_slots,
                segment: seg,
            }))
        } else {
            let probes: Vec<u64> = (0..6)
                .map(|_| self.rng.gen_range(1..=self.params.segments as u64))
                .collect();
            Some(LogicTx::boxed(MatchChain {
                base: self.base,
                slots: self.params.table_slots,
                probes,
                link_target: seg,
            }))
        }
    }
}

/// Phase-1 transaction: insert a segment into the shared hash set
/// (linear probing; no-op if present).
#[derive(Debug)]
struct DedupInsert {
    base: u64,
    slots: usize,
    segment: Word,
}

impl TxLogic for DedupInsert {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let mut slot = (self.segment as usize * 31) % self.slots;
        for _ in 0..self.slots {
            let a = GenomeWorkload::slot_addr(self.base, slot);
            let cur = mem.read(a).await?;
            if cur == 0 {
                mem.write(a, self.segment);
                return Ok(());
            }
            if cur == self.segment {
                return Ok(()); // duplicate
            }
            slot = (slot + 1) % self.slots;
        }
        Ok(()) // table full: drop the segment
    }

    fn compute_cycles(&self) -> u64 {
        20
    }
}

/// Phase-2 transaction: probe several segments read-only, then link one
/// chain pointer (word 1 of the target's slot).
#[derive(Debug)]
struct MatchChain {
    base: u64,
    slots: usize,
    probes: Vec<Word>,
    link_target: Word,
}

impl MatchChain {
    async fn find_slot(&self, mem: &mut TxMemory, seg: Word) -> Result<Option<usize>, Diverged> {
        let mut slot = (seg as usize * 31) % self.slots;
        for _ in 0..self.slots {
            let cur = mem.read(GenomeWorkload::slot_addr(self.base, slot)).await?;
            if cur == seg {
                return Ok(Some(slot));
            }
            if cur == 0 {
                return Ok(None);
            }
            slot = (slot + 1) % self.slots;
        }
        Ok(None)
    }
}

impl TxLogic for MatchChain {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let mut last_found = None;
        for &seg in &self.probes {
            if let Some(slot) = self.find_slot(mem, seg).await? {
                last_found = Some(slot);
            }
        }
        // Link the chain of the last found segment to the target.
        if let Some(slot) = last_found {
            let link = GenomeWorkload::slot_addr(self.base, slot).add(1);
            mem.write(link, self.link_target);
        }
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        40
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txm::run_on_store;

    #[test]
    fn setup_populates_table() {
        let mut w = GenomeWorkload::new(GenomeParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let base = w.table_base.unwrap();
        let filled = (0..GenomeParams::quick().table_slots)
            .filter(|&s| mem.read_word(GenomeWorkload::slot_addr(base, s)) != 0)
            .count();
        assert!(filled > 0, "setup inserted segments");
    }

    #[test]
    fn dedup_insert_claims_one_slot_per_segment() {
        let mut w = GenomeWorkload::new(GenomeParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let base = w.table_base.unwrap();
        let count = |mem: &MvmStore, seg: Word| {
            (0..GenomeParams::quick().table_slots)
                .filter(|&s| mem.read_word(GenomeWorkload::slot_addr(base, s)) == seg)
                .count()
        };
        // Insert the same fresh segment twice: one slot claimed.
        let seg = 1000;
        for _ in 0..2 {
            run_on_store(
                &mut mem,
                &mut LogicTx::new(DedupInsert {
                    base,
                    slots: GenomeParams::quick().table_slots,
                    segment: seg,
                }),
            );
        }
        assert_eq!(count(&mem, seg), 1);
    }

    #[test]
    fn threads_complete_their_quota() {
        let mut w = GenomeWorkload::new(GenomeParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let mut tw = w.thread_workload(0, 3);
        let mut n = 0;
        while let Some(mut tx) = tw.next_transaction() {
            run_on_store(&mut mem, &mut *tx);
            n += 1;
        }
        assert_eq!(n, GenomeParams::quick().total_txs);
    }
}
