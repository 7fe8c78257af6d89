//! The List microbenchmark (section 6.2) and the Listing 2 write-skew
//! scenario (section 5).
//!
//! A sorted singly-linked list in simulated memory: every operation
//! traverses from the head until it finds its position, so read sets
//! grow with list length while write sets stay at one or two nodes. The
//! paper runs 40% insert / 40% remove / 20% lookup and reports a >30x
//! abort reduction for SI-TM over 2PL and ~14x speedup at 32 threads.
//!
//! The `remove` operation demonstrates the Listing 2 write-skew anomaly:
//! under snapshot isolation, two concurrent removals of *adjacent*
//! elements have disjoint write sets (each writes only its predecessor's
//! next pointer), so both commit — and the second element's unlinking is
//! lost. Setting the removed node's next pointer to null (the commented
//! line 10 of Listing 2) forces a write-write conflict in exactly that
//! schedule. [`ListParams::skew_fix`] toggles the fix; the write-skew
//! tooling in `sitm_check::skew` detects the unfixed variant.
//!
//! Node layout (one node per cache line, so node-granularity conflicts):
//! word 0 = value, word 1 = next (line number of the successor, or
//! [`NULL`]).

use sitm_mvm::{Addr, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::txm::{Diverged, LogicTx, TxLogic, TxMemory};

/// Null successor marker (no node lives at line `u64::MAX`).
pub const NULL: Word = u64::MAX;

/// Word address of a node's value field, given its line number.
fn value_addr(node_line: u64) -> Addr {
    Addr(node_line * WORDS_PER_LINE as u64)
}

/// Word address of a node's next field.
fn next_addr(node_line: u64) -> Addr {
    Addr(node_line * WORDS_PER_LINE as u64 + 1)
}

/// Parameters of the List benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ListParams {
    /// Initial number of elements (the paper uses 1000).
    pub initial_size: usize,
    /// Transactions per thread (the paper uses 1000).
    pub txs_per_thread: usize,
    /// Percent of insert operations.
    pub insert_percent: u32,
    /// Percent of remove operations (lookups make up the remainder).
    pub remove_percent: u32,
    /// Value range: keys are drawn from `1..=value_range`.
    pub value_range: u64,
    /// Apply the Listing 2 fix (null the removed node's next pointer) so
    /// adjacent removals conflict write-write instead of skewing.
    pub skew_fix: bool,
}

impl Default for ListParams {
    fn default() -> Self {
        ListParams {
            initial_size: 128,
            txs_per_thread: 60,
            insert_percent: 40,
            remove_percent: 40,
            value_range: 512,
            skew_fix: true,
        }
    }
}

impl ListParams {
    /// The paper's configuration (1000 elements, 1000 transactions per
    /// thread, 40/40/20 insert/remove/lookup).
    pub fn paper() -> Self {
        ListParams {
            initial_size: 1000,
            txs_per_thread: 1000,
            value_range: 4000,
            ..Self::default()
        }
    }

    /// A miniature configuration for fast tests.
    pub fn quick() -> Self {
        ListParams {
            initial_size: 16,
            txs_per_thread: 10,
            value_range: 64,
            ..Self::default()
        }
    }
}

/// The sorted-linked-list workload.
#[derive(Debug)]
pub struct ListWorkload {
    params: ListParams,
    head_line: Option<u64>,
    /// Pool of preallocated nodes for inserts, handed out per thread.
    pool: Vec<u64>,
}

impl ListWorkload {
    /// Creates the workload with the given parameters.
    pub fn new(params: ListParams) -> Self {
        ListWorkload {
            params,
            head_line: None,
            pool: Vec::new(),
        }
    }

    /// Line number of the sentinel head node (after setup).
    pub fn head_line(&self) -> u64 {
        self.head_line.expect("setup must run first")
    }

    /// Reads the committed list contents non-transactionally (post-run
    /// verification).
    pub fn snapshot_values(mem: &MvmStore, head_line: u64) -> Vec<Word> {
        let mut out = Vec::new();
        let mut cur = mem.read_word(next_addr(head_line));
        let mut hops = 0;
        while cur != NULL {
            out.push(mem.read_word(value_addr(cur)));
            cur = mem.read_word(next_addr(cur));
            hops += 1;
            assert!(hops < 1_000_000, "list is cyclic");
        }
        out
    }
}

impl Workload for ListWorkload {
    fn name(&self) -> &str {
        "list"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        // Sentinel head with value 0; keys are >= 1.
        let head = mem.alloc_lines(1).0;
        self.head_line = Some(head);
        // Initial sorted contents: evenly spaced keys.
        let mut keys: Vec<u64> = (0..self.params.initial_size)
            .map(|i| {
                1 + (i as u64 * self.params.value_range) / self.params.initial_size.max(1) as u64
            })
            .collect();
        keys.dedup();
        let mut prev = head;
        mem.write_word(value_addr(head), 0);
        for key in keys {
            let node = mem.alloc_lines(1).0;
            mem.write_word(value_addr(node), key);
            mem.write_word(next_addr(prev), node);
            prev = node;
        }
        mem.write_word(next_addr(prev), NULL);
        // Preallocate insert nodes: one per potential insert.
        let per_thread = self.params.txs_per_thread;
        let total = per_thread * n_threads;
        self.pool = (0..total).map(|_| mem.alloc_lines(1).0).collect();
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        let head_line = self.head_line();
        let per_thread = self.params.txs_per_thread;
        let pool = self.pool[tid * per_thread..(tid + 1) * per_thread].to_vec();
        Box::new(ListThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: per_thread,
            head_line,
            pool,
            params: self.params,
        })
    }
}

#[derive(Debug)]
struct ListThread {
    rng: SmallRng,
    remaining: usize,
    head_line: u64,
    pool: Vec<u64>,
    params: ListParams,
}

impl ThreadWorkload for ListThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let p = self.rng.gen_range(0..100);
        let target = self.rng.gen_range(1..=self.params.value_range);
        let op = if p < self.params.insert_percent {
            let node = self.pool.pop().expect("pool sized to insert count");
            ListOpKind::Insert { new_node: node }
        } else if p < self.params.insert_percent + self.params.remove_percent {
            ListOpKind::Remove {
                fix_skew: self.params.skew_fix,
            }
        } else {
            ListOpKind::Lookup
        };
        Some(LogicTx::boxed(ListOp {
            head_line: self.head_line,
            target,
            kind: op,
        }))
    }
}

/// Which list operation a transaction performs.
#[derive(Debug, Clone, Copy)]
pub enum ListOpKind {
    /// Insert `target`, linking in the given preallocated node (no-op if
    /// the key is present).
    Insert {
        /// Line number of the node to link in.
        new_node: u64,
    },
    /// Remove `target` (no-op if absent); optionally null the removed
    /// node's next pointer (the Listing 2 write-skew fix).
    Remove {
        /// Apply the write-skew fix.
        fix_skew: bool,
    },
    /// Membership test; read-only.
    Lookup,
}

/// One sorted-list operation as transactional logic.
#[derive(Debug)]
pub struct ListOp {
    /// Sentinel head node line.
    pub head_line: u64,
    /// Key this operation targets.
    pub target: Word,
    /// Operation kind.
    pub kind: ListOpKind,
}

impl TxLogic for ListOp {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        // Traverse: find prev = last node with value < target and
        // next = first node with value >= target (or NULL).
        let mut prev = self.head_line;
        let mut next = mem.read(next_addr(prev)).await?;
        while next != NULL {
            let v = mem.read(value_addr(next)).await?;
            if v >= self.target {
                break;
            }
            prev = next;
            next = mem.read(next_addr(prev)).await?;
        }
        let found = next != NULL && mem.read(value_addr(next)).await? == self.target;
        match self.kind {
            ListOpKind::Lookup => {}
            ListOpKind::Insert { new_node } => {
                if !found {
                    mem.write(value_addr(new_node), self.target);
                    mem.write(next_addr(new_node), next);
                    mem.write(next_addr(prev), new_node);
                }
            }
            ListOpKind::Remove { fix_skew } => {
                if found {
                    let after = mem.read(next_addr(next)).await?;
                    mem.write(next_addr(prev), after);
                    if fix_skew {
                        // Listing 2, line 10: force a write-write
                        // conflict with a concurrent removal of the
                        // successor.
                        mem.write(next_addr(next), NULL);
                    }
                }
            }
        }
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        10
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txm::run_on_store;

    fn build_list(mem: &mut MvmStore, keys: &[u64]) -> u64 {
        let head = mem.alloc_lines(1).0;
        mem.write_word(value_addr(head), 0);
        let mut prev = head;
        for &k in keys {
            let node = mem.alloc_lines(1).0;
            mem.write_word(value_addr(node), k);
            mem.write_word(next_addr(prev), node);
            prev = node;
        }
        mem.write_word(next_addr(prev), NULL);
        head
    }

    fn execute(mem: &mut MvmStore, op: ListOp) {
        run_on_store(mem, &mut LogicTx::new(op));
    }

    #[test]
    fn insert_keeps_list_sorted() {
        let mut mem = MvmStore::new();
        let head = build_list(&mut mem, &[2, 5, 9]);
        let node = mem.alloc_lines(1).0;
        execute(
            &mut mem,
            ListOp {
                head_line: head,
                target: 7,
                kind: ListOpKind::Insert { new_node: node },
            },
        );
        assert_eq!(ListWorkload::snapshot_values(&mem, head), vec![2, 5, 7, 9]);
    }

    #[test]
    fn insert_duplicate_is_noop() {
        let mut mem = MvmStore::new();
        let head = build_list(&mut mem, &[2, 5]);
        let node = mem.alloc_lines(1).0;
        execute(
            &mut mem,
            ListOp {
                head_line: head,
                target: 5,
                kind: ListOpKind::Insert { new_node: node },
            },
        );
        assert_eq!(ListWorkload::snapshot_values(&mem, head), vec![2, 5]);
    }

    #[test]
    fn insert_at_ends() {
        let mut mem = MvmStore::new();
        let head = build_list(&mut mem, &[5]);
        for (target, expect) in [(1, vec![1, 5]), (9, vec![1, 5, 9])] {
            let node = mem.alloc_lines(1).0;
            execute(
                &mut mem,
                ListOp {
                    head_line: head,
                    target,
                    kind: ListOpKind::Insert { new_node: node },
                },
            );
            assert_eq!(ListWorkload::snapshot_values(&mem, head), expect);
        }
    }

    #[test]
    fn remove_unlinks_and_nulls_with_fix() {
        let mut mem = MvmStore::new();
        let head = build_list(&mut mem, &[2, 5, 9]);
        // Locate node 5's line to check the fix below.
        let n2 = mem.read_word(next_addr(head));
        let n5 = mem.read_word(next_addr(n2));
        execute(
            &mut mem,
            ListOp {
                head_line: head,
                target: 5,
                kind: ListOpKind::Remove { fix_skew: true },
            },
        );
        assert_eq!(ListWorkload::snapshot_values(&mem, head), vec![2, 9]);
        assert_eq!(mem.read_word(next_addr(n5)), NULL, "fix nulled the pointer");
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut mem = MvmStore::new();
        let head = build_list(&mut mem, &[2, 9]);
        execute(
            &mut mem,
            ListOp {
                head_line: head,
                target: 5,
                kind: ListOpKind::Remove { fix_skew: true },
            },
        );
        assert_eq!(ListWorkload::snapshot_values(&mem, head), vec![2, 9]);
    }

    #[test]
    fn setup_produces_sorted_initial_list() {
        let mut w = ListWorkload::new(ListParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 2);
        let values = ListWorkload::snapshot_values(&mem, w.head_line());
        assert!(!values.is_empty());
        assert!(values.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
    }

    #[test]
    fn thread_workloads_are_seed_deterministic() {
        let mut w = ListWorkload::new(ListParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 2);
        let drain = |tw: &mut Box<dyn ThreadWorkload>| {
            let mut ops = Vec::new();
            while let Some(mut tx) = tw.next_transaction() {
                ops.push(format!("{:?}", tx.resume(None)));
            }
            ops
        };
        let mut a = w.thread_workload(0, 42);
        let mut b = w.thread_workload(0, 42);
        assert_eq!(drain(&mut a), drain(&mut b));
    }
}
