//! The ssca2 kernel: graph construction from the Scalable Synthetic
//! Compact Applications benchmark 2.
//!
//! STAMP's ssca2 (kernel 1) builds a large directed multigraph: each
//! transaction appends one edge to a node's adjacency array — a tiny
//! read-modify-write of the node's degree counter plus a slot write.
//! With far more nodes than threads, collisions are rare and absolute
//! abort rates are already low (<5% under 2PL in the paper), so no
//! system gains much; ssca2 is the "nothing to fix" control.
//!
//! Layout: one line per node: word 0 = degree, words 1..8 = adjacency
//! slots (spill appends beyond 7 edges drop silently — degree keeps
//! counting, matching the bounded-slot compact representation).

use sitm_mvm::{Addr, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::txm::{Diverged, LogicTx, TxLogic, TxMemory};

/// Parameters of the ssca2 kernel.
#[derive(Debug, Clone, Copy)]
pub struct Ssca2Params {
    /// Number of graph nodes.
    pub nodes: usize,
    /// Total edge-insertion transactions across all threads (fixed
    /// input, strong scaling).
    pub total_txs: usize,
}

impl Default for Ssca2Params {
    fn default() -> Self {
        Ssca2Params {
            nodes: 4096,
            total_txs: 3200,
        }
    }
}

impl Ssca2Params {
    /// Miniature configuration for fast tests.
    pub fn quick() -> Self {
        Ssca2Params {
            nodes: 32,
            total_txs: 40,
        }
    }
}

/// The ssca2 workload.
#[derive(Debug)]
pub struct Ssca2Workload {
    params: Ssca2Params,
    base: Option<u64>,
    n_threads: usize,
}

impl Ssca2Workload {
    /// Creates the workload.
    pub fn new(params: Ssca2Params) -> Self {
        Ssca2Workload {
            params,
            base: None,
            n_threads: 1,
        }
    }

    fn degree_addr(base: u64, node: usize) -> Addr {
        Addr((base + node as u64) * WORDS_PER_LINE as u64)
    }

    /// Total degree across all nodes (post-run verification).
    pub fn total_degree(mem: &MvmStore, base: u64, nodes: usize) -> Word {
        (0..nodes)
            .map(|n| mem.read_word(Self::degree_addr(base, n)))
            .sum()
    }

    /// Base line of the node array (after setup).
    pub fn base(&self) -> u64 {
        self.base.expect("setup must run first")
    }
}

impl Workload for Ssca2Workload {
    fn name(&self) -> &str {
        "ssca2"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        self.n_threads = n_threads;
        self.base = Some(mem.alloc_lines(self.params.nodes as u64).0);
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        Box::new(Ssca2Thread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: crate::registry::fixed_share(self.params.total_txs, tid, self.n_threads),
            base: self.base(),
            nodes: self.params.nodes,
        })
    }
}

#[derive(Debug)]
struct Ssca2Thread {
    rng: SmallRng,
    remaining: usize,
    base: u64,
    nodes: usize,
}

impl ThreadWorkload for Ssca2Thread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let from = self.rng.gen_range(0..self.nodes);
        let to = self.rng.gen_range(0..self.nodes) as Word;
        Some(LogicTx::boxed(AddEdge {
            base: self.base,
            from,
            to,
        }))
    }
}

/// One edge insertion: bump the degree, write the adjacency slot.
#[derive(Debug)]
struct AddEdge {
    base: u64,
    from: usize,
    to: Word,
}

impl TxLogic for AddEdge {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let deg_addr = Ssca2Workload::degree_addr(self.base, self.from);
        let degree = mem.read(deg_addr).await?;
        mem.write(deg_addr, degree + 1);
        let slot = 1 + (degree as usize % (WORDS_PER_LINE - 1));
        mem.write(deg_addr.add(slot as u64), self.to + 1);
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txm::run_on_store;

    #[test]
    fn edges_accumulate_in_degree_counters() {
        let mut w = Ssca2Workload::new(Ssca2Params::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let mut tw = w.thread_workload(0, 21);
        let mut n = 0;
        while let Some(mut tx) = tw.next_transaction() {
            run_on_store(&mut mem, &mut *tx);
            n += 1;
        }
        assert_eq!(
            Ssca2Workload::total_degree(&mem, w.base(), Ssca2Params::quick().nodes),
            n
        );
    }

    #[test]
    fn adjacency_slot_is_populated() {
        let mut w = Ssca2Workload::new(Ssca2Params::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        run_on_store(
            &mut mem,
            &mut LogicTx::new(AddEdge {
                base: w.base(),
                from: 3,
                to: 17,
            }),
        );
        let deg = Ssca2Workload::degree_addr(w.base(), 3);
        assert_eq!(mem.read_word(deg), 1);
        assert_eq!(mem.read_word(deg.add(1)), 18);
    }
}
