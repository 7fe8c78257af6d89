//! The labyrinth kernel: transactional path routing in a 3D grid.
//!
//! STAMP's labyrinth routes wires through a shared three-dimensional
//! grid (Lee's algorithm): each transaction reads a large region of the
//! grid while searching, then claims the cells of its chosen path.
//! Transactions are huge (hundreds of accesses) but overlap rarely on a
//! large grid, so absolute abort rates are low for every system; the
//! interesting property is that the enormous read/write sets overflow
//! bounded version buffers, which SI-TM tolerates.
//!
//! The kernel routes rectilinear x-then-y-then-z paths between random
//! endpoints: the transaction reads every cell along the candidate path
//! (plus a halo of neighbour probes, modelling the breadth-first
//! expansion), aborts its claim in software if a cell is occupied
//! (restarting with different endpoints is the application's job; here
//! occupied cells simply end the claim), and writes its id into the free
//! path cells.
//!
//! Expectation (Figures 7/8): low abort rates and similar scaling for
//! 2PL, SONTM, and SI-TM.

use sitm_mvm::{Addr, MvmStore, Word};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::txm::{Diverged, LogicTx, TxLogic, TxMemory};

/// Parameters of the labyrinth kernel.
#[derive(Debug, Clone, Copy)]
pub struct LabyrinthParams {
    /// Grid side length (the grid is `side^3` cells, one word each).
    pub side: usize,
    /// Total routing transactions across all threads (fixed input,
    /// strong scaling).
    pub total_txs: usize,
}

impl Default for LabyrinthParams {
    fn default() -> Self {
        LabyrinthParams {
            side: 24,
            total_txs: 640,
        }
    }
}

impl LabyrinthParams {
    /// Miniature configuration for fast tests.
    pub fn quick() -> Self {
        LabyrinthParams {
            side: 8,
            total_txs: 20,
        }
    }
}

/// The labyrinth workload: a `side^3` grid of cells (0 = free, otherwise
/// the id of the claiming route).
#[derive(Debug)]
pub struct LabyrinthWorkload {
    params: LabyrinthParams,
    base: Option<Addr>,
    n_threads: usize,
}

impl LabyrinthWorkload {
    /// Creates the workload.
    pub fn new(params: LabyrinthParams) -> Self {
        LabyrinthWorkload {
            params,
            base: None,
            n_threads: 1,
        }
    }

    fn cell_addr(base: Addr, side: usize, x: usize, y: usize, z: usize) -> Addr {
        Addr(base.0 + ((z * side + y) * side + x) as u64)
    }
}

impl Workload for LabyrinthWorkload {
    fn name(&self) -> &str {
        "labyrinth"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        self.n_threads = n_threads;
        let cells = (self.params.side * self.params.side * self.params.side) as u64;
        let base = mem.alloc_words(cells);
        self.base = Some(base);
        // Grid starts free (zero); nothing to initialize thanks to lazy
        // zero lines.
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        Box::new(LabyrinthThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: crate::registry::fixed_share(self.params.total_txs, tid, self.n_threads),
            base: self.base.expect("setup must run first"),
            side: self.params.side,
            route_id: (tid as Word) << 32 | 1,
        })
    }
}

#[derive(Debug)]
struct LabyrinthThread {
    rng: SmallRng,
    remaining: usize,
    base: Addr,
    side: usize,
    route_id: Word,
}

impl ThreadWorkload for LabyrinthThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let s = self.side;
        let from = (
            self.rng.gen_range(0..s),
            self.rng.gen_range(0..s),
            self.rng.gen_range(0..s),
        );
        let to = (
            self.rng.gen_range(0..s),
            self.rng.gen_range(0..s),
            self.rng.gen_range(0..s),
        );
        let id = self.route_id;
        self.route_id += 1;
        Some(LogicTx::boxed(RouteTx {
            base: self.base,
            side: s,
            from,
            to,
            route_id: id,
        }))
    }
}

/// One routing transaction: probe the rectilinear path and claim its
/// free cells.
#[derive(Debug)]
struct RouteTx {
    base: Addr,
    side: usize,
    from: (usize, usize, usize),
    to: (usize, usize, usize),
    route_id: Word,
}

impl RouteTx {
    /// The x-then-y-then-z rectilinear path between the endpoints.
    fn path(&self) -> Vec<(usize, usize, usize)> {
        let (mut x, mut y, mut z) = self.from;
        let mut cells = vec![(x, y, z)];
        while x != self.to.0 {
            x = if x < self.to.0 { x + 1 } else { x - 1 };
            cells.push((x, y, z));
        }
        while y != self.to.1 {
            y = if y < self.to.1 { y + 1 } else { y - 1 };
            cells.push((x, y, z));
        }
        while z != self.to.2 {
            z = if z < self.to.2 { z + 1 } else { z - 1 };
            cells.push((x, y, z));
        }
        cells
    }
}

impl TxLogic for RouteTx {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let path = self.path();
        // Expansion phase: read the path cells plus neighbour probes.
        let mut free = true;
        for &(x, y, z) in &path {
            let v = mem
                .read(LabyrinthWorkload::cell_addr(self.base, self.side, x, y, z))
                .await?;
            if v != 0 {
                free = false;
            }
            // Neighbour probe (the BFS halo): one adjacent cell.
            if x + 1 < self.side {
                let _ = mem
                    .read(LabyrinthWorkload::cell_addr(
                        self.base,
                        self.side,
                        x + 1,
                        y,
                        z,
                    ))
                    .await?;
            }
        }
        // Claim phase: only fully free paths are claimed (occupied paths
        // fall through as read-only transactions; the application would
        // re-plan).
        if free {
            for &(x, y, z) in &path {
                mem.write(
                    LabyrinthWorkload::cell_addr(self.base, self.side, x, y, z),
                    self.route_id,
                );
            }
        }
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        200 // Lee-style expansion is compute-heavy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txm::run_on_store;

    #[test]
    fn path_is_contiguous_and_reaches_target() {
        let tx = RouteTx {
            base: Addr(0),
            side: 8,
            from: (1, 2, 3),
            to: (5, 0, 7),
            route_id: 1,
        };
        let path = tx.path();
        assert_eq!(*path.first().unwrap(), (1, 2, 3));
        assert_eq!(*path.last().unwrap(), (5, 0, 7));
        for pair in path.windows(2) {
            let d = (pair[0].0 as i64 - pair[1].0 as i64).abs()
                + (pair[0].1 as i64 - pair[1].1 as i64).abs()
                + (pair[0].2 as i64 - pair[1].2 as i64).abs();
            assert_eq!(d, 1, "path moves one cell at a time");
        }
    }

    #[test]
    fn free_path_is_claimed_occupied_is_not() {
        let mut w = LabyrinthWorkload::new(LabyrinthParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let base = w.base.unwrap();
        let tx = RouteTx {
            base,
            side: 8,
            from: (0, 0, 0),
            to: (3, 0, 0),
            route_id: 42,
        };
        run_on_store(&mut mem, &mut LogicTx::new(tx));
        for x in 0..=3 {
            assert_eq!(
                mem.read_word(LabyrinthWorkload::cell_addr(base, 8, x, 0, 0)),
                42
            );
        }
        // A crossing route finds an occupied cell and claims nothing.
        let tx2 = RouteTx {
            base,
            side: 8,
            from: (2, 2, 0),
            to: (2, 0, 0), // crosses (2,0,0) which is taken
            route_id: 43,
        };
        run_on_store(&mut mem, &mut LogicTx::new(tx2));
        assert_eq!(
            mem.read_word(LabyrinthWorkload::cell_addr(base, 8, 2, 2, 0)),
            0,
            "occupied path left unclaimed"
        );
    }

    #[test]
    fn threads_complete_their_quota() {
        let mut w = LabyrinthWorkload::new(LabyrinthParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 2);
        let mut tw = w.thread_workload(1, 9);
        let mut n = 0;
        while let Some(mut tx) = tw.next_transaction() {
            run_on_store(&mut mem, &mut *tx);
            n += 1;
        }
        // Thread 1 of 2 gets its share of the fixed total.
        assert_eq!(
            n,
            crate::registry::fixed_share(LabyrinthParams::quick().total_txs, 1, 2)
        );
    }
}
