//! The Red-Black Tree microbenchmark (section 6.2).
//!
//! A complete red-black tree living in simulated memory, with CLRS-style
//! insert and delete including recoloring and rotations. A single update
//! can touch many nodes through rebalancing, so write sets are larger
//! and more scattered than the list's — the paper reports only ~2x
//! improvement for SI-TM here: lookups (50% of the mix) never conflict,
//! but insert/delete rebalancing produces genuine write-write conflicts
//! that snapshot isolation cannot forgive.
//!
//! Mix: 50% lookup / 25% insert / 25% delete over a tree initialized
//! with 100 elements (the paper's configuration).
//!
//! Node layout (one node per cache line): word 0 = key, word 1 = value,
//! word 2 = color (0 black, 1 red), word 3 = left, word 4 = right,
//! word 5 = parent. Child/parent fields hold line numbers or [`NIL`].

use sitm_mvm::{Addr, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::txm::{run_on_store, Diverged, LogicTx, TxLogic, TxMemory};

/// Null node marker.
pub const NIL: Word = u64::MAX;

const BLACK: Word = 0;
const RED: Word = 1;

const F_KEY: u64 = 0;
const F_VAL: u64 = 1;
const F_COLOR: u64 = 2;
const F_LEFT: u64 = 3;
const F_RIGHT: u64 = 4;
const F_PARENT: u64 = 5;

fn field(node: Word, f: u64) -> Addr {
    debug_assert_ne!(node, NIL, "field access on NIL");
    Addr(node * WORDS_PER_LINE as u64 + f)
}

/// Red-black tree operations over a [`TxMemory`].
///
/// The tree is identified by the address of its root pointer; all node
/// accesses are transactional reads/writes, so the same code runs under
/// every protocol.
#[derive(Debug, Clone, Copy)]
pub struct RbTree {
    /// Address of the word holding the root node's line number (or
    /// [`NIL`]).
    pub root_ptr: Addr,
}

impl RbTree {
    async fn root(&self, m: &mut TxMemory) -> Result<Word, Diverged> {
        m.read(self.root_ptr).await
    }

    async fn get(&self, m: &mut TxMemory, n: Word, f: u64) -> Result<Word, Diverged> {
        m.read(field(n, f)).await
    }

    fn set(&self, m: &mut TxMemory, n: Word, f: u64, v: Word) {
        m.write(field(n, f), v);
    }

    async fn is_red(&self, m: &mut TxMemory, n: Word) -> Result<bool, Diverged> {
        if n == NIL {
            return Ok(false);
        }
        Ok(self.get(m, n, F_COLOR).await? == RED)
    }

    /// Finds the node with `key`, if present.
    pub async fn lookup(&self, m: &mut TxMemory, key: Word) -> Result<Option<Word>, Diverged> {
        let mut cur = self.root(m).await?;
        while cur != NIL {
            let k = self.get(m, cur, F_KEY).await?;
            cur = match key.cmp(&k) {
                std::cmp::Ordering::Equal => return Ok(Some(cur)),
                std::cmp::Ordering::Less => self.get(m, cur, F_LEFT).await?,
                std::cmp::Ordering::Greater => self.get(m, cur, F_RIGHT).await?,
            };
        }
        Ok(None)
    }

    async fn rotate_left(&self, m: &mut TxMemory, x: Word) -> Result<(), Diverged> {
        let y = self.get(m, x, F_RIGHT).await?;
        let y_left = self.get(m, y, F_LEFT).await?;
        self.set(m, x, F_RIGHT, y_left);
        if y_left != NIL {
            self.set(m, y_left, F_PARENT, x);
        }
        let xp = self.get(m, x, F_PARENT).await?;
        self.set(m, y, F_PARENT, xp);
        if xp == NIL {
            m.write(self.root_ptr, y);
        } else if self.get(m, xp, F_LEFT).await? == x {
            self.set(m, xp, F_LEFT, y);
        } else {
            self.set(m, xp, F_RIGHT, y);
        }
        self.set(m, y, F_LEFT, x);
        self.set(m, x, F_PARENT, y);
        Ok(())
    }

    async fn rotate_right(&self, m: &mut TxMemory, x: Word) -> Result<(), Diverged> {
        let y = self.get(m, x, F_LEFT).await?;
        let y_right = self.get(m, y, F_RIGHT).await?;
        self.set(m, x, F_LEFT, y_right);
        if y_right != NIL {
            self.set(m, y_right, F_PARENT, x);
        }
        let xp = self.get(m, x, F_PARENT).await?;
        self.set(m, y, F_PARENT, xp);
        if xp == NIL {
            m.write(self.root_ptr, y);
        } else if self.get(m, xp, F_RIGHT).await? == x {
            self.set(m, xp, F_RIGHT, y);
        } else {
            self.set(m, xp, F_LEFT, y);
        }
        self.set(m, y, F_RIGHT, x);
        self.set(m, x, F_PARENT, y);
        Ok(())
    }

    /// Inserts `key` using the preallocated `node`. Returns `false` (and
    /// leaves the tree untouched) if the key already exists.
    pub async fn insert(
        &self,
        m: &mut TxMemory,
        key: Word,
        value: Word,
        node: Word,
    ) -> Result<bool, Diverged> {
        // BST descend.
        let mut parent = NIL;
        let mut cur = self.root(m).await?;
        while cur != NIL {
            let k = self.get(m, cur, F_KEY).await?;
            parent = cur;
            cur = match key.cmp(&k) {
                std::cmp::Ordering::Equal => return Ok(false),
                std::cmp::Ordering::Less => self.get(m, cur, F_LEFT).await?,
                std::cmp::Ordering::Greater => self.get(m, cur, F_RIGHT).await?,
            };
        }
        // Attach red node.
        self.set(m, node, F_KEY, key);
        self.set(m, node, F_VAL, value);
        self.set(m, node, F_COLOR, RED);
        self.set(m, node, F_LEFT, NIL);
        self.set(m, node, F_RIGHT, NIL);
        self.set(m, node, F_PARENT, parent);
        if parent == NIL {
            m.write(self.root_ptr, node);
        } else if key < self.get(m, parent, F_KEY).await? {
            self.set(m, parent, F_LEFT, node);
        } else {
            self.set(m, parent, F_RIGHT, node);
        }
        self.insert_fixup(m, node).await?;
        Ok(true)
    }

    async fn insert_fixup(&self, m: &mut TxMemory, mut z: Word) -> Result<(), Diverged> {
        loop {
            let zp = self.get(m, z, F_PARENT).await?;
            if zp == NIL || !self.is_red(m, zp).await? {
                break;
            }
            let zpp = self.get(m, zp, F_PARENT).await?;
            if zpp == NIL {
                break;
            }
            if self.get(m, zpp, F_LEFT).await? == zp {
                let uncle = self.get(m, zpp, F_RIGHT).await?;
                if self.is_red(m, uncle).await? {
                    self.set(m, zp, F_COLOR, BLACK);
                    self.set(m, uncle, F_COLOR, BLACK);
                    self.set(m, zpp, F_COLOR, RED);
                    z = zpp;
                } else {
                    if self.get(m, zp, F_RIGHT).await? == z {
                        z = zp;
                        self.rotate_left(m, z).await?;
                    }
                    let zp = self.get(m, z, F_PARENT).await?;
                    let zpp = self.get(m, zp, F_PARENT).await?;
                    self.set(m, zp, F_COLOR, BLACK);
                    self.set(m, zpp, F_COLOR, RED);
                    self.rotate_right(m, zpp).await?;
                }
            } else {
                let uncle = self.get(m, zpp, F_LEFT).await?;
                if self.is_red(m, uncle).await? {
                    self.set(m, zp, F_COLOR, BLACK);
                    self.set(m, uncle, F_COLOR, BLACK);
                    self.set(m, zpp, F_COLOR, RED);
                    z = zpp;
                } else {
                    if self.get(m, zp, F_LEFT).await? == z {
                        z = zp;
                        self.rotate_right(m, z).await?;
                    }
                    let zp = self.get(m, z, F_PARENT).await?;
                    let zpp = self.get(m, zp, F_PARENT).await?;
                    self.set(m, zp, F_COLOR, BLACK);
                    self.set(m, zpp, F_COLOR, RED);
                    self.rotate_left(m, zpp).await?;
                }
            }
        }
        let root = self.root(m).await?;
        if self.is_red(m, root).await? {
            self.set(m, root, F_COLOR, BLACK);
        }
        Ok(())
    }

    /// Replaces the subtree rooted at `u` with the one rooted at `v`
    /// (which may be NIL) in `u`'s parent.
    async fn transplant(&self, m: &mut TxMemory, u: Word, v: Word) -> Result<(), Diverged> {
        let up = self.get(m, u, F_PARENT).await?;
        if up == NIL {
            m.write(self.root_ptr, v);
        } else if self.get(m, up, F_LEFT).await? == u {
            self.set(m, up, F_LEFT, v);
        } else {
            self.set(m, up, F_RIGHT, v);
        }
        if v != NIL {
            self.set(m, v, F_PARENT, up);
        }
        Ok(())
    }

    async fn minimum(&self, m: &mut TxMemory, mut n: Word) -> Result<Word, Diverged> {
        loop {
            let l = self.get(m, n, F_LEFT).await?;
            if l == NIL {
                return Ok(n);
            }
            n = l;
        }
    }

    /// Removes `key`. Returns `false` if absent.
    pub async fn remove(&self, m: &mut TxMemory, key: Word) -> Result<bool, Diverged> {
        let Some(z) = self.lookup(m, key).await? else {
            return Ok(false);
        };
        let mut y = z;
        let mut y_was_black = !self.is_red(m, y).await?;
        let x;
        let mut x_parent;
        let z_left = self.get(m, z, F_LEFT).await?;
        let z_right = self.get(m, z, F_RIGHT).await?;
        if z_left == NIL {
            x = z_right;
            x_parent = self.get(m, z, F_PARENT).await?;
            self.transplant(m, z, z_right).await?;
        } else if z_right == NIL {
            x = z_left;
            x_parent = self.get(m, z, F_PARENT).await?;
            self.transplant(m, z, z_left).await?;
        } else {
            y = self.minimum(m, z_right).await?;
            y_was_black = !self.is_red(m, y).await?;
            x = self.get(m, y, F_RIGHT).await?;
            if self.get(m, y, F_PARENT).await? == z {
                x_parent = y;
                if x != NIL {
                    self.set(m, x, F_PARENT, y);
                }
            } else {
                x_parent = self.get(m, y, F_PARENT).await?;
                self.transplant(m, y, x).await?;
                self.set(m, y, F_RIGHT, z_right);
                let yr = self.get(m, y, F_RIGHT).await?;
                self.set(m, yr, F_PARENT, y);
            }
            self.transplant(m, z, y).await?;
            self.set(m, y, F_LEFT, z_left);
            self.set(m, z_left, F_PARENT, y);
            let z_color = self.get(m, z, F_COLOR).await?;
            self.set(m, y, F_COLOR, z_color);
        }
        if y_was_black {
            self.delete_fixup(m, x, x_parent).await?;
        }
        let _ = &mut x_parent;
        Ok(true)
    }

    async fn delete_fixup(
        &self,
        m: &mut TxMemory,
        mut x: Word,
        mut x_parent: Word,
    ) -> Result<(), Diverged> {
        while x != self.root(m).await? && !self.is_red(m, x).await? {
            if x_parent == NIL {
                break;
            }
            if self.get(m, x_parent, F_LEFT).await? == x {
                let mut w = self.get(m, x_parent, F_RIGHT).await?;
                if self.is_red(m, w).await? {
                    self.set(m, w, F_COLOR, BLACK);
                    self.set(m, x_parent, F_COLOR, RED);
                    self.rotate_left(m, x_parent).await?;
                    w = self.get(m, x_parent, F_RIGHT).await?;
                }
                let wl = self.get(m, w, F_LEFT).await?;
                let wr = self.get(m, w, F_RIGHT).await?;
                if !self.is_red(m, wl).await? && !self.is_red(m, wr).await? {
                    self.set(m, w, F_COLOR, RED);
                    x = x_parent;
                    x_parent = self.get(m, x, F_PARENT).await?;
                } else {
                    if !self.is_red(m, wr).await? {
                        if wl != NIL {
                            self.set(m, wl, F_COLOR, BLACK);
                        }
                        self.set(m, w, F_COLOR, RED);
                        self.rotate_right(m, w).await?;
                        w = self.get(m, x_parent, F_RIGHT).await?;
                    }
                    let pc = self.get(m, x_parent, F_COLOR).await?;
                    self.set(m, w, F_COLOR, pc);
                    self.set(m, x_parent, F_COLOR, BLACK);
                    let wr = self.get(m, w, F_RIGHT).await?;
                    if wr != NIL {
                        self.set(m, wr, F_COLOR, BLACK);
                    }
                    self.rotate_left(m, x_parent).await?;
                    x = self.root(m).await?;
                    x_parent = NIL;
                }
            } else {
                let mut w = self.get(m, x_parent, F_LEFT).await?;
                if self.is_red(m, w).await? {
                    self.set(m, w, F_COLOR, BLACK);
                    self.set(m, x_parent, F_COLOR, RED);
                    self.rotate_right(m, x_parent).await?;
                    w = self.get(m, x_parent, F_LEFT).await?;
                }
                let wl = self.get(m, w, F_LEFT).await?;
                let wr = self.get(m, w, F_RIGHT).await?;
                if !self.is_red(m, wl).await? && !self.is_red(m, wr).await? {
                    self.set(m, w, F_COLOR, RED);
                    x = x_parent;
                    x_parent = self.get(m, x, F_PARENT).await?;
                } else {
                    if !self.is_red(m, wl).await? {
                        if wr != NIL {
                            self.set(m, wr, F_COLOR, BLACK);
                        }
                        self.set(m, w, F_COLOR, RED);
                        self.rotate_left(m, w).await?;
                        w = self.get(m, x_parent, F_LEFT).await?;
                    }
                    let pc = self.get(m, x_parent, F_COLOR).await?;
                    self.set(m, w, F_COLOR, pc);
                    self.set(m, x_parent, F_COLOR, BLACK);
                    let wl = self.get(m, w, F_LEFT).await?;
                    if wl != NIL {
                        self.set(m, wl, F_COLOR, BLACK);
                    }
                    self.rotate_right(m, x_parent).await?;
                    x = self.root(m).await?;
                    x_parent = NIL;
                }
            }
        }
        if x != NIL {
            self.set(m, x, F_COLOR, BLACK);
        }
        Ok(())
    }
}

/// Verifies the committed tree non-transactionally: BST order, red rule
/// (no red node has a red child), and equal black height on every path.
/// Returns the sorted keys.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_tree(mem: &MvmStore, root_ptr: Addr) -> Result<Vec<Word>, String> {
    fn walk(
        mem: &MvmStore,
        n: Word,
        lo: Option<Word>,
        hi: Option<Word>,
        keys: &mut Vec<Word>,
        depth: usize,
    ) -> Result<usize, String> {
        if n == NIL {
            return Ok(1); // NIL counts as black
        }
        if depth > 128 {
            return Err("tree too deep (cycle?)".into());
        }
        let key = mem.read_word(field(n, F_KEY));
        if lo.is_some_and(|l| key <= l) || hi.is_some_and(|h| key >= h) {
            return Err(format!("BST order violated at key {key}"));
        }
        let color = mem.read_word(field(n, F_COLOR));
        let left = mem.read_word(field(n, F_LEFT));
        let right = mem.read_word(field(n, F_RIGHT));
        if color == RED {
            for c in [left, right] {
                if c != NIL && mem.read_word(field(c, F_COLOR)) == RED {
                    return Err(format!("red-red violation under key {key}"));
                }
            }
        }
        let lh = walk(mem, left, lo, Some(key), keys, depth + 1)?;
        keys.push(key);
        let rh = walk(mem, right, Some(key), hi, keys, depth + 1)?;
        if lh != rh {
            return Err(format!("black-height mismatch at key {key}: {lh} vs {rh}"));
        }
        Ok(lh + usize::from(color == BLACK))
    }
    let root = mem.read_word(root_ptr);
    if root != NIL && mem.read_word(field(root, F_COLOR)) != BLACK {
        return Err("root is not black".into());
    }
    let mut keys = Vec::new();
    walk(mem, root, None, None, &mut keys, 0)?;
    Ok(keys)
}

/// Parameters of the Red-Black Tree benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RbTreeParams {
    /// Initial number of elements (the paper uses 100).
    pub initial_size: usize,
    /// Transactions per thread.
    pub txs_per_thread: usize,
    /// Percent of lookups (inserts and deletes split the rest evenly).
    pub lookup_percent: u32,
    /// Keys are drawn from `1..=key_range`.
    pub key_range: u64,
}

impl Default for RbTreeParams {
    fn default() -> Self {
        RbTreeParams {
            initial_size: 100,
            txs_per_thread: 60,
            lookup_percent: 50,
            key_range: 400,
        }
    }
}

impl RbTreeParams {
    /// The paper's configuration (100 elements, 50/25/25).
    pub fn paper() -> Self {
        RbTreeParams {
            txs_per_thread: 1000,
            ..Self::default()
        }
    }

    /// A miniature configuration for fast tests.
    pub fn quick() -> Self {
        RbTreeParams {
            initial_size: 20,
            txs_per_thread: 10,
            key_range: 64,
            ..Self::default()
        }
    }
}

/// The red-black-tree workload.
#[derive(Debug)]
pub struct RbTreeWorkload {
    params: RbTreeParams,
    root_ptr: Option<Addr>,
    pool: Vec<u64>,
}

impl RbTreeWorkload {
    /// Creates the workload with the given parameters.
    pub fn new(params: RbTreeParams) -> Self {
        RbTreeWorkload {
            params,
            root_ptr: None,
            pool: Vec::new(),
        }
    }

    /// Address of the root pointer (after setup).
    pub fn root_ptr(&self) -> Addr {
        self.root_ptr.expect("setup must run first")
    }
}

impl Workload for RbTreeWorkload {
    fn name(&self) -> &str {
        "rbtree"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        let root_ptr = mem.alloc_lines(1).first_word();
        mem.write_word(root_ptr, NIL);
        self.root_ptr = Some(root_ptr);
        // Build the initial tree by running inserts through the same
        // logic directly against the store.
        let tree = RbTree { root_ptr };
        let mut rng = SmallRng::seed_from_u64(0x5EED_7EEE);
        let mut inserted = 0;
        while inserted < self.params.initial_size {
            let key = rng.gen_range(1..=self.params.key_range);
            let new_node = mem.alloc_lines(1).0;
            let kind = RbOpKind::Insert { new_node };
            if apply(mem, RbOp { tree, key, kind }) {
                inserted += 1;
            }
        }
        let per_thread = self.params.txs_per_thread;
        self.pool = (0..per_thread * n_threads)
            .map(|_| mem.alloc_lines(1).0)
            .collect();
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        let per_thread = self.params.txs_per_thread;
        Box::new(RbThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: per_thread,
            tree: RbTree {
                root_ptr: self.root_ptr(),
            },
            pool: self.pool[tid * per_thread..(tid + 1) * per_thread].to_vec(),
            params: self.params,
        })
    }
}

/// Runs one tree operation directly against the store (initialization
/// and tests; no concurrency, no protocol). Returns whether it changed
/// the tree: inserting a present key or removing an absent one writes
/// nothing.
fn apply(mem: &mut MvmStore, op: RbOp) -> bool {
    run_on_store(mem, &mut LogicTx::new(op)).1 > 0
}

#[derive(Debug)]
struct RbThread {
    rng: SmallRng,
    remaining: usize,
    tree: RbTree,
    pool: Vec<u64>,
    params: RbTreeParams,
}

impl ThreadWorkload for RbThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let p = self.rng.gen_range(0..100);
        let key = self.rng.gen_range(1..=self.params.key_range);
        let insert_cut = self.params.lookup_percent + (100 - self.params.lookup_percent) / 2;
        let kind = if p < self.params.lookup_percent {
            RbOpKind::Lookup
        } else if p < insert_cut {
            RbOpKind::Insert {
                new_node: self.pool.pop().expect("pool sized to tx count"),
            }
        } else {
            RbOpKind::Remove
        };
        Some(LogicTx::boxed(RbOp {
            tree: self.tree,
            key,
            kind,
        }))
    }
}

/// Which tree operation a transaction performs.
#[derive(Debug, Clone, Copy)]
pub enum RbOpKind {
    /// Membership test (read-only).
    Lookup,
    /// Insert with a preallocated node.
    Insert {
        /// Line number of the node to link in.
        new_node: u64,
    },
    /// Delete by key.
    Remove,
}

/// One tree operation as transactional logic.
#[derive(Debug)]
pub struct RbOp {
    /// The tree to operate on.
    pub tree: RbTree,
    /// Target key.
    pub key: Word,
    /// Operation kind.
    pub kind: RbOpKind,
}

impl TxLogic for RbOp {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        match self.kind {
            RbOpKind::Lookup => {
                let _ = self.tree.lookup(mem, self.key).await?;
            }
            RbOpKind::Insert { new_node } => {
                let _ = self
                    .tree
                    .insert(mem, self.key, self.key * 2, new_node)
                    .await?;
            }
            RbOpKind::Remove => {
                let _ = self.tree.remove(mem, self.key).await?;
            }
        }
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        15
    }

    /// The paper's study found "multiple write skews in a Red-Black Tree
    /// implementation": two rebalancing updates can read each other's
    /// regions while writing disjoint nodes, committing a structurally
    /// broken tree under plain SI. Following section 5.1, update
    /// operations promote their structural reads; lookups stay
    /// unpromoted and never abort.
    fn promote_reads(&self) -> bool {
        !matches!(self.kind, RbOpKind::Lookup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn fresh(mem: &mut MvmStore) -> RbTree {
        let root_ptr = mem.alloc_lines(1).first_word();
        mem.write_word(root_ptr, NIL);
        RbTree { root_ptr }
    }

    fn insert(mem: &mut MvmStore, tree: RbTree, key: Word) -> bool {
        let new_node = mem.alloc_lines(1).0;
        let kind = RbOpKind::Insert { new_node };
        apply(mem, RbOp { tree, key, kind })
    }

    fn remove(mem: &mut MvmStore, tree: RbTree, key: Word) -> bool {
        let kind = RbOpKind::Remove;
        apply(mem, RbOp { tree, key, kind })
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let mut mem = MvmStore::new();
        let tree = fresh(&mut mem);
        for k in 1..=64 {
            assert!(insert(&mut mem, tree, k));
            let keys = check_tree(&mem, tree.root_ptr).expect("invariants hold");
            assert_eq!(keys.len(), k as usize);
        }
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut mem = MvmStore::new();
        let tree = fresh(&mut mem);
        assert!(insert(&mut mem, tree, 5));
        assert!(!insert(&mut mem, tree, 5));
        assert_eq!(check_tree(&mem, tree.root_ptr).unwrap(), vec![5]);
    }

    #[test]
    fn remove_all_in_various_orders() {
        for seed in 0..4u64 {
            let mut mem = MvmStore::new();
            let tree = fresh(&mut mem);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut reference = BTreeSet::new();
            for _ in 0..80 {
                let k = rng.gen_range(1..60);
                insert(&mut mem, tree, k);
                reference.insert(k);
            }
            let mut keys: Vec<Word> = reference.iter().copied().collect();
            // Remove in a shuffled order.
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.gen_range(0..=i));
            }
            for k in keys {
                assert!(remove(&mut mem, tree, k), "key {k} present");
                reference.remove(&k);
                let got = check_tree(&mem, tree.root_ptr).expect("invariants hold");
                let want: Vec<Word> = reference.iter().copied().collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut mem = MvmStore::new();
        let tree = fresh(&mut mem);
        insert(&mut mem, tree, 3);
        assert!(!remove(&mut mem, tree, 9));
        assert_eq!(check_tree(&mem, tree.root_ptr).unwrap(), vec![3]);
    }

    #[test]
    fn random_interleaved_ops_match_reference() {
        let mut mem = MvmStore::new();
        let tree = fresh(&mut mem);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut reference = BTreeSet::new();
        for _ in 0..500 {
            let k = rng.gen_range(1..100u64);
            if rng.gen_bool(0.5) {
                assert_eq!(insert(&mut mem, tree, k), reference.insert(k));
            } else {
                assert_eq!(remove(&mut mem, tree, k), reference.remove(&k));
            }
            let got = check_tree(&mem, tree.root_ptr).expect("invariants hold");
            let want: Vec<Word> = reference.iter().copied().collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn workload_setup_builds_valid_tree() {
        let mut w = RbTreeWorkload::new(RbTreeParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 2);
        let keys = check_tree(&mem, w.root_ptr()).expect("valid initial tree");
        assert_eq!(keys.len(), RbTreeParams::quick().initial_size);
    }
}
