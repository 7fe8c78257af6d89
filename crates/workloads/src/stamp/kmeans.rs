//! The kmeans kernel: iterative clustering with shared center updates.
//!
//! STAMP's kmeans assigns points to clusters outside transactions, then
//! transactionally accumulates each point into its cluster's center:
//! a short burst of read-modify-write operations on the center's
//! coordinate sums and count. Every accessed word is in both the read
//! and the write set, so *every* conflict is (also) a write-write
//! conflict — neither conflict serializability nor snapshot isolation
//! can forgive it.
//!
//! The kernel reproduces this directly: each transaction picks a cluster
//! (uniformly across a small K) and read-modify-writes `dims` words of
//! its center line plus the membership count. Following STAMP's layout,
//! the membership counts live in a *compact array* (eight counters per
//! cache line), so transactions on different clusters still collide at
//! line granularity on the counter line — the false-sharing-plus-RMW
//! pattern that makes kmeans hostile to every conflict-detection
//! scheme.
//!
//! Expectation (Figures 7/8): 2PL, SONTM and SI-TM all show similar
//! abort rates and performance here — the case SI explicitly does not
//! claim to improve.

use sitm_mvm::{Addr, MvmConfig, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::txm::{Diverged, LogicTx, TxLogic, TxMemory};

/// Parameters of the kmeans kernel.
#[derive(Debug, Clone, Copy)]
pub struct KmeansParams {
    /// Number of cluster centers (STAMP's simulated configs use ~16).
    pub clusters: usize,
    /// Coordinates accumulated per update (capped at one line minus the
    /// count word).
    pub dims: usize,
    /// Total transactions across all threads (fixed input, strong
    /// scaling).
    pub total_txs: usize,
}

impl Default for KmeansParams {
    fn default() -> Self {
        KmeansParams {
            clusters: 16,
            dims: 4,
            total_txs: 2560,
        }
    }
}

impl KmeansParams {
    /// Miniature configuration for fast tests.
    pub fn quick() -> Self {
        KmeansParams {
            clusters: 4,
            dims: 2,
            total_txs: 40,
        }
    }
}

/// The kmeans workload. Each center's coordinate sums occupy one line
/// (words `0..dims`); the membership counts live in a separate compact
/// array starting at `counts_base`.
#[derive(Debug)]
pub struct KmeansWorkload {
    params: KmeansParams,
    base: Option<u64>,
    counts_base: Option<Addr>,
    n_threads: usize,
}

impl KmeansWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `dims + 1` exceeds the line size.
    pub fn new(params: KmeansParams) -> Self {
        assert!(params.dims <= WORDS_PER_LINE, "center must fit a line");
        KmeansWorkload {
            params,
            base: None,
            counts_base: None,
            n_threads: 1,
        }
    }

    fn center_addr(base: u64, cluster: usize, word: usize) -> Addr {
        Addr((base + cluster as u64) * WORDS_PER_LINE as u64 + word as u64)
    }

    /// Address of `cluster`'s membership counter in the compact array.
    fn count_addr(counts_base: Addr, cluster: usize) -> Addr {
        counts_base.add(cluster as u64)
    }

    /// Total membership count across centers (post-run verification).
    pub fn total_count(mem: &MvmStore, counts_base: Addr, params: KmeansParams) -> Word {
        (0..params.clusters)
            .map(|c| mem.read_word(Self::count_addr(counts_base, c)))
            .sum()
    }
}

impl Workload for KmeansWorkload {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        self.n_threads = n_threads;
        let base = mem.alloc_lines(self.params.clusters as u64).0;
        for c in 0..self.params.clusters {
            for w in 0..self.params.dims {
                mem.write_word(Self::center_addr(base, c, w), 0);
            }
        }
        // Compact counter array: eight counters per line (STAMP's
        // new_centers_len layout).
        let counts_base = mem.alloc_words(self.params.clusters as u64);
        for c in 0..self.params.clusters {
            mem.write_word(Self::count_addr(counts_base, c), 0);
        }
        self.base = Some(base);
        self.counts_base = Some(counts_base);
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        Box::new(KmeansThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: crate::registry::fixed_share(self.params.total_txs, tid, self.n_threads),
            base: self.base.expect("setup must run first"),
            counts_base: self.counts_base.expect("setup must run first"),
            params: self.params,
        })
    }
}

/// Allows the harness to read back where the centers live.
impl KmeansWorkload {
    /// Base line of the center array (after setup).
    pub fn base(&self) -> u64 {
        self.base.expect("setup must run first")
    }

    /// Base address of the compact counter array (after setup).
    pub fn counts_base(&self) -> Addr {
        self.counts_base.expect("setup must run first")
    }

    /// The MVM configuration has no influence here; helper retained for
    /// symmetry with other workloads.
    pub fn mvm_config() -> MvmConfig {
        MvmConfig::default()
    }
}

#[derive(Debug)]
struct KmeansThread {
    rng: SmallRng,
    remaining: usize,
    base: u64,
    counts_base: Addr,
    params: KmeansParams,
}

impl ThreadWorkload for KmeansThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let cluster = self.rng.gen_range(0..self.params.clusters);
        let point: Vec<Word> = (0..self.params.dims)
            .map(|_| self.rng.gen_range(0..100))
            .collect();
        Some(LogicTx::boxed(AccumulatePoint {
            base: self.base,
            counts_base: self.counts_base,
            cluster,
            dims: self.params.dims,
            point,
        }))
    }
}

/// One point accumulation: RMW of the center's sums and count.
#[derive(Debug)]
struct AccumulatePoint {
    base: u64,
    counts_base: Addr,
    cluster: usize,
    dims: usize,
    point: Vec<Word>,
}

impl TxLogic for AccumulatePoint {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let _ = self.dims;
        for (d, &coord) in self.point.iter().enumerate() {
            let a = KmeansWorkload::center_addr(self.base, self.cluster, d);
            let sum = mem.read(a).await?;
            mem.write(a, sum.wrapping_add(coord));
        }
        let count_addr = KmeansWorkload::count_addr(self.counts_base, self.cluster);
        let count = mem.read(count_addr).await?;
        mem.write(count_addr, count + 1);
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        // The nearest-center distance computation happens *outside* the
        // transaction in STAMP; the transaction itself is just the RMW
        // burst.
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txm::run_on_store;

    #[test]
    fn accumulation_is_rmw_on_one_center() {
        let mut w = KmeansWorkload::new(KmeansParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let mut tx = LogicTx::new(AccumulatePoint {
            base: w.base(),
            counts_base: w.counts_base(),
            cluster: 1,
            dims: 2,
            point: vec![10, 20],
        });
        let (_, writes) = run_on_store(&mut mem, &mut tx);
        assert_eq!(writes, 3, "two sums + count");
        assert_eq!(
            mem.read_word(KmeansWorkload::center_addr(w.base(), 1, 0)),
            10
        );
        assert_eq!(
            mem.read_word(KmeansWorkload::count_addr(w.counts_base(), 1)),
            1
        );
    }

    #[test]
    fn total_count_matches_transactions_run() {
        let mut w = KmeansWorkload::new(KmeansParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let mut tw = w.thread_workload(0, 5);
        let mut n = 0;
        while let Some(mut tx) = tw.next_transaction() {
            run_on_store(&mut mem, &mut *tx);
            n += 1;
        }
        assert_eq!(
            KmeansWorkload::total_count(&mem, w.counts_base(), KmeansParams::quick()),
            n
        );
    }

    #[test]
    #[should_panic(expected = "must fit a line")]
    fn oversized_dims_rejected() {
        KmeansWorkload::new(KmeansParams {
            dims: WORDS_PER_LINE + 1,
            ..KmeansParams::quick()
        });
    }
}
