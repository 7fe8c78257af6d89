//! The intruder kernel: signature-based network intrusion detection.
//!
//! STAMP's intruder pulls packet fragments from a shared work queue and
//! reassembles them into per-flow structures (a dictionary of lists),
//! occasionally draining a completed flow for detection. Its
//! transactions exist purely to access shared data structures — a queue
//! and a map of lists — which the paper notes "perform well under SI":
//! list traversals are read-heavy with a single-writer tail, so 2PL and
//! even CS abort frequently where SI sees only rare write-write
//! conflicts on the queue head and on adjacent list nodes.
//!
//! The kernel reproduces this as: pop a fragment id from a shared
//! circular queue (an RMW on the head counter — the residual write-write
//! contention), then insert the fragment into its flow's sorted list
//! (traversal + one-node splice, reusing the list logic); every few
//! fragments a flow completes and the transaction also resets the flow's
//! header (an extra write).
//!
//! Expectation (Figure 7): at 32 threads SI-TM reduces aborts by ~50x
//! over 2PL and ~40x over CS.

use sitm_mvm::{Addr, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::list::{ListOp, ListOpKind};
use crate::txm::{Diverged, LogicTx, TxLogic, TxMemory};

/// Parameters of the intruder kernel.
#[derive(Debug, Clone, Copy)]
pub struct IntruderParams {
    /// Number of flows (each with its own fragment list).
    pub flows: usize,
    /// Fragments per flow before it "completes".
    pub fragments_per_flow: u64,
    /// Total transactions across all threads (fixed input, strong
    /// scaling).
    pub total_txs: usize,
}

impl Default for IntruderParams {
    fn default() -> Self {
        IntruderParams {
            flows: 16,
            fragments_per_flow: 96,
            total_txs: 1920,
        }
    }
}

impl IntruderParams {
    /// Miniature configuration for fast tests.
    pub fn quick() -> Self {
        IntruderParams {
            flows: 8,
            fragments_per_flow: 4,
            total_txs: 40,
        }
    }
}

/// The intruder workload.
///
/// Layout: one line for the queue head counter; `flows` sentinel list
/// heads (one line each, list layout as in [`crate::list`]); a node pool
/// for fragment inserts.
#[derive(Debug)]
pub struct IntruderWorkload {
    params: IntruderParams,
    queue_head: Option<Addr>,
    flow_heads: Vec<u64>,
    pool: Vec<u64>,
    n_threads: usize,
}

impl IntruderWorkload {
    /// Creates the workload.
    pub fn new(params: IntruderParams) -> Self {
        IntruderWorkload {
            params,
            queue_head: None,
            flow_heads: Vec::new(),
            pool: Vec::new(),
            n_threads: 1,
        }
    }
}

impl Workload for IntruderWorkload {
    fn name(&self) -> &str {
        "intruder"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        self.n_threads = n_threads;
        let queue_head = mem.alloc_lines(1).first_word();
        mem.write_word(queue_head, 0);
        self.queue_head = Some(queue_head);
        self.flow_heads = (0..self.params.flows)
            .map(|_| {
                let head = mem.alloc_lines(1).0;
                mem.write_word(Addr(head * WORDS_PER_LINE as u64), 0);
                mem.write_word(Addr(head * WORDS_PER_LINE as u64 + 1), crate::list::NULL);
                head
            })
            .collect();
        self.pool = (0..self.params.total_txs)
            .map(|_| mem.alloc_lines(1).0)
            .collect();
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        // Hand each thread its share of the fixed node pool.
        let start: usize = (0..tid)
            .map(|t| crate::registry::fixed_share(self.params.total_txs, t, self.n_threads))
            .sum();
        let share = crate::registry::fixed_share(self.params.total_txs, tid, self.n_threads);
        Box::new(IntruderThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: share,
            queue_head: self.queue_head.expect("setup must run first"),
            flow_heads: self.flow_heads.clone(),
            pool: self.pool[start..start + share].to_vec(),
            params: self.params,
        })
    }
}

#[derive(Debug)]
struct IntruderThread {
    rng: SmallRng,
    remaining: usize,
    queue_head: Addr,
    flow_heads: Vec<u64>,
    pool: Vec<u64>,
    params: IntruderParams,
}

impl ThreadWorkload for IntruderThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // STAMP's intruder runs the queue pop and the reassembly insert
        // as *separate* transactions; a packet pop feeds several
        // fragment inserts, so pops are a small minority of the mix —
        // the paper attributes intruder's behaviour to its list/tree
        // accesses, not the queue counter.
        if self.remaining % 8 == 7 {
            Some(LogicTx::boxed(PopFragment {
                queue_head: self.queue_head,
            }))
        } else {
            let flow = self.rng.gen_range(0..self.flow_heads.len());
            let fragment = self.rng.gen_range(1..=self.params.fragments_per_flow * 4);
            Some(LogicTx::boxed(InsertFragment {
                flow_head: self.flow_heads[flow],
                fragment,
                new_node: self.pool.pop().expect("pool sized to tx count"),
                complete_at: self.params.fragments_per_flow,
            }))
        }
    }
}

/// The dequeue transaction: a tiny RMW on the shared head counter —
/// intruder's residual write-write contention point.
#[derive(Debug)]
struct PopFragment {
    queue_head: Addr,
}

impl TxLogic for PopFragment {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let head = mem.read(self.queue_head).await?;
        mem.write(self.queue_head, head + 1);
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        5
    }
}

/// The reassembly transaction: insert the fragment into its flow's
/// sorted list; a completing fragment also touches the flow header.
#[derive(Debug)]
struct InsertFragment {
    flow_head: u64,
    fragment: Word,
    new_node: u64,
    complete_at: u64,
}

impl TxLogic for InsertFragment {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        // Insert the fragment into the flow's sorted list (duplicate
        // fragments are dropped by the insert logic).
        let insert = ListOp {
            head_line: self.flow_head,
            target: self.fragment,
            kind: ListOpKind::Insert {
                new_node: self.new_node,
            },
        };
        insert.run(mem).await?;
        // Flow completion check: an insert that completes the flow also
        // updates the flow header's sequence word (models handing the
        // assembled flow to detection).
        if self.fragment % self.complete_at == self.complete_at - 1 {
            let header = Addr(self.flow_head * WORDS_PER_LINE as u64);
            let seq = mem.read(header).await?;
            mem.write(header, seq + 1);
        }
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        25
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txm::run_on_store;

    #[test]
    fn fragments_land_in_flow_lists_and_queue_advances() {
        let mut w = IntruderWorkload::new(IntruderParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let mut tw = w.thread_workload(0, 11);
        let mut n = 0;
        while let Some(mut tx) = tw.next_transaction() {
            run_on_store(&mut mem, &mut *tx);
            n += 1;
        }
        assert_eq!(n, IntruderParams::quick().total_txs);
        // Queue head advanced once per pop transaction (an eighth of
        // the mix).
        assert_eq!(mem.read_word(w.queue_head.unwrap()), n as Word / 8);
        // Flow lists are sorted and duplicate-free.
        let mut total = 0;
        for &head in &w.flow_heads {
            let values = crate::list::ListWorkload::snapshot_values(&mem, head);
            assert!(values.windows(2).all(|p| p[0] < p[1]), "sorted unique");
            total += values.len();
        }
        assert!(total > 0, "some fragments inserted");
    }
}
