//! The bayes kernel: structure learning of Bayesian networks.
//!
//! STAMP's bayes performs hill-climbing over candidate network edges:
//! each step evaluates the score delta of adding/removing an edge, which
//! reads a large slice of the shared adjacency structure and sufficient-
//! statistics cache, and — if the candidate is adopted — writes the new
//! edge plus a handful of invalidated score-cache entries. Transactions
//! are few, long and costly to re-execute; about a quarter are pure
//! (read-only) evaluations.
//!
//! The kernel reproduces this: every transaction reads `reads_per_tx`
//! random cells of a shared score table; 75% of transactions then adopt
//! their candidate, writing an adjacency cell and several score-cache
//! invalidations.
//!
//! Expectation (Figures 7/8): SI-TM cuts aborts ~20x over 2PL (long
//! read phases stop being fatal) and scales to ~10x at 32 threads while
//! 2PL and CS flatten beyond 8.

use sitm_mvm::{Addr, MvmStore, Word};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::txm::{Diverged, LogicTx, TxLogic, TxMemory};

/// Parameters of the bayes kernel.
#[derive(Debug, Clone, Copy)]
pub struct BayesParams {
    /// Score-table cells (one word each).
    pub score_cells: usize,
    /// Adjacency cells (one word each).
    pub adjacency_cells: usize,
    /// Cells read per evaluation transaction.
    pub reads_per_tx: usize,
    /// Cache cells invalidated per adopted candidate.
    pub writes_per_adopt: usize,
    /// Total transactions across all threads (bayes runs few, long
    /// transactions; fixed input, strong scaling).
    pub total_txs: usize,
}

impl Default for BayesParams {
    fn default() -> Self {
        BayesParams {
            score_cells: 16384,
            adjacency_cells: 4096,
            reads_per_tx: 120,
            writes_per_adopt: 4,
            total_txs: 480,
        }
    }
}

impl BayesParams {
    /// Miniature configuration for fast tests.
    pub fn quick() -> Self {
        BayesParams {
            score_cells: 64,
            adjacency_cells: 32,
            reads_per_tx: 10,
            writes_per_adopt: 2,
            total_txs: 20,
        }
    }
}

/// The bayes workload.
#[derive(Debug)]
pub struct BayesWorkload {
    params: BayesParams,
    scores: Option<Addr>,
    adjacency: Option<Addr>,
    n_threads: usize,
}

impl BayesWorkload {
    /// Creates the workload.
    pub fn new(params: BayesParams) -> Self {
        BayesWorkload {
            params,
            scores: None,
            adjacency: None,
            n_threads: 1,
        }
    }
}

impl Workload for BayesWorkload {
    fn name(&self) -> &str {
        "bayes"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        self.n_threads = n_threads;
        let scores = mem.alloc_words(self.params.score_cells as u64);
        let adjacency = mem.alloc_words(self.params.adjacency_cells as u64);
        let mut rng = SmallRng::seed_from_u64(0xBAE5);
        for i in 0..self.params.score_cells {
            mem.write_word(scores.add(i as u64), rng.gen_range(1..1000));
        }
        self.scores = Some(scores);
        self.adjacency = Some(adjacency);
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        Box::new(BayesThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: crate::registry::fixed_share(self.params.total_txs, tid, self.n_threads),
            scores: self.scores.expect("setup must run first"),
            adjacency: self.adjacency.expect("setup must run first"),
            params: self.params,
        })
    }
}

#[derive(Debug)]
struct BayesThread {
    rng: SmallRng,
    remaining: usize,
    scores: Addr,
    adjacency: Addr,
    params: BayesParams,
}

impl ThreadWorkload for BayesThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let reads: Vec<u64> = (0..self.params.reads_per_tx)
            .map(|_| self.rng.gen_range(0..self.params.score_cells as u64))
            .collect();
        let adopt = if self.rng.gen_range(0..100) < 75 {
            let edge = self.rng.gen_range(0..self.params.adjacency_cells as u64);
            let invalidate: Vec<u64> = (0..self.params.writes_per_adopt)
                .map(|_| self.rng.gen_range(0..self.params.score_cells as u64))
                .collect();
            Some((edge, invalidate))
        } else {
            None
        };
        Some(LogicTx::boxed(EvaluateCandidate {
            scores: self.scores,
            adjacency: self.adjacency,
            reads,
            adopt,
        }))
    }
}

/// One hill-climbing step: long read phase, optional adopt phase.
#[derive(Debug)]
struct EvaluateCandidate {
    scores: Addr,
    adjacency: Addr,
    reads: Vec<u64>,
    adopt: Option<(u64, Vec<u64>)>,
}

impl TxLogic for EvaluateCandidate {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let mut acc: Word = 0;
        for &cell in &self.reads {
            acc = acc.wrapping_add(mem.read(self.scores.add(cell)).await?);
        }
        if let Some((edge, invalidate)) = &self.adopt {
            let edge_addr = self.adjacency.add(*edge);
            let cur = mem.read(edge_addr).await?;
            mem.write(edge_addr, cur.wrapping_add(acc | 1));
            for &cell in invalidate {
                mem.write(self.scores.add(cell), acc.wrapping_mul(31).max(1));
            }
        }
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        // Score evaluation is the application's dominant compute cost.
        500
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txm::run_on_store;

    #[test]
    fn transactions_are_long_and_read_heavy() {
        let mut w = BayesWorkload::new(BayesParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let mut tw = w.thread_workload(0, 4);
        let mut total_reads = 0;
        let mut total_writes = 0;
        let mut txs = 0;
        while let Some(mut tx) = tw.next_transaction() {
            let (r, wr) = run_on_store(&mut mem, &mut *tx);
            total_reads += r;
            total_writes += wr;
            txs += 1;
        }
        assert_eq!(txs, BayesParams::quick().total_txs);
        assert!(
            total_reads >= total_writes * 3,
            "read-heavy: {total_reads} reads vs {total_writes} writes"
        );
    }

    #[test]
    fn adopting_transactions_write_adjacency() {
        let mut w = BayesWorkload::new(BayesParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let (_, writes) = run_on_store(
            &mut mem,
            &mut LogicTx::new(EvaluateCandidate {
                scores: w.scores.unwrap(),
                adjacency: w.adjacency.unwrap(),
                reads: vec![0, 1, 2],
                adopt: Some((3, vec![4, 5])),
            }),
        );
        assert_eq!(writes, 3, "edge + two invalidations");
        assert_ne!(mem.read_word(w.adjacency.unwrap().add(3)), 0);
    }

    #[test]
    fn read_only_evaluations_write_nothing() {
        let mut w = BayesWorkload::new(BayesParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let (_, writes) = run_on_store(
            &mut mem,
            &mut LogicTx::new(EvaluateCandidate {
                scores: w.scores.unwrap(),
                adjacency: w.adjacency.unwrap(),
                reads: vec![0, 1],
                adopt: None,
            }),
        );
        assert_eq!(writes, 0);
    }
}
