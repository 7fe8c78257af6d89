//! The vacation kernel: an online travel-reservation OLTP system.
//!
//! STAMP's vacation runs an in-memory travel database (flights, rooms,
//! cars, customers) under three transaction types: make-reservation
//! (dominant; queries many records read-only before writing at most a
//! couple), delete-customer, and update-tables. Transactions are long
//! and read-heavy — the paper calls vacation "an ideal candidate for
//! SI-TM" and measures under 1% of 2PL's aborts with linear scaling to
//! 32 threads, while CS drops off past 8 threads.
//!
//! The kernel keeps the same three transaction types over record tables
//! in simulated memory. Record layout (one line each): word 0 = total
//! slots, word 1 = reserved count, word 2 = price. Customer layout:
//! word 0 = reservation count, word 1 = total spent.

use sitm_mvm::{Addr, MvmStore, Word, WORDS_PER_LINE};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};

use crate::txm::{Diverged, LogicTx, TxLogic, TxMemory};

/// Number of resource tables (flights, rooms, cars).
const TABLES: usize = 3;

/// Parameters of the vacation kernel.
#[derive(Debug, Clone, Copy)]
pub struct VacationParams {
    /// Records per resource table.
    pub records_per_table: usize,
    /// Number of customers.
    pub customers: usize,
    /// Records queried (read) per reservation transaction.
    pub queries_per_tx: usize,
    /// Total transactions across all threads (fixed input, strong
    /// scaling).
    pub total_txs: usize,
}

impl Default for VacationParams {
    fn default() -> Self {
        VacationParams {
            records_per_table: 8192,
            customers: 8192,
            queries_per_tx: 32,
            total_txs: 1600,
        }
    }
}

impl VacationParams {
    /// Miniature configuration for fast tests.
    pub fn quick() -> Self {
        VacationParams {
            records_per_table: 32,
            customers: 16,
            queries_per_tx: 6,
            total_txs: 40,
        }
    }
}

/// The vacation workload.
///
/// Each table also has an *index header* line (STAMP's tables are
/// red-black trees: every lookup traverses index nodes that
/// administrative updates rewrite). Reservations read all three
/// headers; `update-tables` transactions rewrite one — the read-write
/// conflict pattern snapshot isolation tolerates and eager detection
/// cannot.
#[derive(Debug)]
pub struct VacationWorkload {
    params: VacationParams,
    tables: Vec<u64>,
    /// Index-header word per table.
    headers: Vec<Addr>,
    customers_base: Option<u64>,
    n_threads: usize,
}

impl VacationWorkload {
    /// Creates the workload.
    pub fn new(params: VacationParams) -> Self {
        VacationWorkload {
            params,
            tables: Vec::new(),
            headers: Vec::new(),
            customers_base: None,
            n_threads: 1,
        }
    }

    fn record_addr(table_base: u64, record: usize, word: u64) -> Addr {
        Addr((table_base + record as u64) * WORDS_PER_LINE as u64 + word)
    }

    fn customer_addr(base: u64, customer: usize, word: u64) -> Addr {
        Addr((base + customer as u64) * WORDS_PER_LINE as u64 + word)
    }

    /// Invariant check: for every record, `reserved <= total`. Returns
    /// total reservations (post-run verification).
    pub fn check_reservations(&self, mem: &MvmStore) -> Result<Word, String> {
        let mut total = 0;
        for &table in &self.tables {
            for r in 0..self.params.records_per_table {
                let slots = mem.read_word(Self::record_addr(table, r, 0));
                let reserved = mem.read_word(Self::record_addr(table, r, 1));
                if reserved > slots {
                    return Err(format!("record {r} overbooked: {reserved}/{slots}"));
                }
                total += reserved;
            }
        }
        Ok(total)
    }
}

impl Workload for VacationWorkload {
    fn name(&self) -> &str {
        "vacation"
    }

    fn setup(&mut self, mem: &mut MvmStore, n_threads: usize) {
        self.n_threads = n_threads;
        let mut rng = SmallRng::seed_from_u64(0xACA7);
        self.tables = (0..TABLES)
            .map(|_| {
                let base = mem.alloc_lines(self.params.records_per_table as u64).0;
                for r in 0..self.params.records_per_table {
                    mem.write_word(Self::record_addr(base, r, 0), rng.gen_range(50..200));
                    mem.write_word(Self::record_addr(base, r, 1), 0);
                    mem.write_word(Self::record_addr(base, r, 2), rng.gen_range(100..1000));
                }
                base
            })
            .collect();
        self.headers = (0..TABLES)
            .map(|_| {
                let h = mem.alloc_lines(1).first_word();
                mem.write_word(h, 1);
                h
            })
            .collect();
        self.customers_base = Some(mem.alloc_lines(self.params.customers as u64).0);
    }

    fn thread_workload(&self, tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        Box::new(VacationThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: crate::registry::fixed_share(self.params.total_txs, tid, self.n_threads),
            tables: self.tables.clone(),
            headers: self.headers.clone(),
            customers_base: self.customers_base.expect("setup must run first"),
            params: self.params,
        })
    }
}

#[derive(Debug)]
struct VacationThread {
    rng: SmallRng,
    remaining: usize,
    tables: Vec<u64>,
    headers: Vec<Addr>,
    customers_base: u64,
    params: VacationParams,
}

impl ThreadWorkload for VacationThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let p = self.rng.gen_range(0..100);
        if p < 80 {
            // Make-reservation: query many records, book the cheapest of
            // each table, update the customer.
            let queries: Vec<(usize, usize)> = (0..self.params.queries_per_tx)
                .map(|_| {
                    (
                        self.rng.gen_range(0..TABLES),
                        self.rng.gen_range(0..self.params.records_per_table),
                    )
                })
                .collect();
            Some(LogicTx::boxed(MakeReservation {
                tables: self.tables.clone(),
                headers: self.headers.clone(),
                customers_base: self.customers_base,
                customer: self.rng.gen_range(0..self.params.customers),
                queries,
            }))
        } else if p < 90 {
            // Delete-customer: read the customer and clear it.
            Some(LogicTx::boxed(DeleteCustomer {
                customers_base: self.customers_base,
                customer: self.rng.gen_range(0..self.params.customers),
            }))
        } else {
            // Update-tables: re-price a handful of records.
            let updates: Vec<(usize, usize, Word)> = (0..4)
                .map(|_| {
                    (
                        self.rng.gen_range(0..TABLES),
                        self.rng.gen_range(0..self.params.records_per_table),
                        self.rng.gen_range(100..1000),
                    )
                })
                .collect();
            Some(LogicTx::boxed(UpdateTables {
                tables: self.tables.clone(),
                header: self.headers[self.rng.gen_range(0..TABLES)],
                updates,
            }))
        }
    }
}

/// The dominant transaction: long read-only query phase, then at most
/// one booking write per table plus the customer update.
#[derive(Debug)]
struct MakeReservation {
    tables: Vec<u64>,
    headers: Vec<Addr>,
    customers_base: u64,
    customer: usize,
    queries: Vec<(usize, usize)>,
}

impl TxLogic for MakeReservation {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        // Index traversal: every lookup starts from the tables' index
        // headers (the tree roots in STAMP's vacation).
        for &h in &self.headers {
            let _generation = mem.read(h).await?;
        }
        // Query phase: inspect every queried record (price comparisons
        // and availability checks), remembering the first available
        // record per table. The queried records are uniformly random,
        // so bookings spread across the tables — matching vacation's
        // per-customer item choices rather than a global "cheapest"
        // hotspot.
        let mut chosen: [Option<(usize, Word)>; TABLES] = [None; TABLES];
        for &(table, record) in &self.queries {
            let base = self.tables[table];
            let slots = mem
                .read(VacationWorkload::record_addr(base, record, 0))
                .await?;
            let reserved = mem
                .read(VacationWorkload::record_addr(base, record, 1))
                .await?;
            let price = mem
                .read(VacationWorkload::record_addr(base, record, 2))
                .await?;
            if reserved < slots && chosen[table].is_none() {
                chosen[table] = Some((record, price));
            }
        }
        // Booking phase: reserve the chosen record in each table
        // (vacation books a flight, a room and a car per itinerary).
        let mut spent = 0;
        let mut booked = false;
        for (table, choice) in chosen.iter().enumerate() {
            if let Some((record, price)) = choice {
                let base = self.tables[table];
                let reserved_addr = VacationWorkload::record_addr(base, *record, 1);
                let reserved = mem.read(reserved_addr).await?;
                mem.write(reserved_addr, reserved + 1);
                spent += price;
                booked = true;
            }
        }
        if booked {
            let count_addr = VacationWorkload::customer_addr(self.customers_base, self.customer, 0);
            let spent_addr = VacationWorkload::customer_addr(self.customers_base, self.customer, 1);
            let count = mem.read(count_addr).await?;
            let prev = mem.read(spent_addr).await?;
            mem.write(count_addr, count + 1);
            mem.write(spent_addr, prev + spent);
        }
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        60
    }
}

/// Clears one customer record.
#[derive(Debug)]
struct DeleteCustomer {
    customers_base: u64,
    customer: usize,
}

impl TxLogic for DeleteCustomer {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let count_addr = VacationWorkload::customer_addr(self.customers_base, self.customer, 0);
        let spent_addr = VacationWorkload::customer_addr(self.customers_base, self.customer, 1);
        let count = mem.read(count_addr).await?;
        if count > 0 {
            mem.write(count_addr, 0);
            mem.write(spent_addr, 0);
        }
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        15
    }
}

/// Re-prices several records (the administrative update transaction).
#[derive(Debug)]
struct UpdateTables {
    tables: Vec<u64>,
    header: Addr,
    updates: Vec<(usize, usize, Word)>,
}

impl TxLogic for UpdateTables {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        for &(table, record, price) in &self.updates {
            let addr = VacationWorkload::record_addr(self.tables[table], record, 2);
            let _old = mem.read(addr).await?;
            mem.write(addr, price);
        }
        // The administrative update rewrites one table's index header
        // (an index rebalance in the tree-backed original).
        let generation = mem.read(self.header).await?;
        mem.write(self.header, generation + 1);
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        20
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txm::run_on_store;

    #[test]
    fn reservations_never_overbook_sequentially() {
        let mut w = VacationWorkload::new(VacationParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let mut tw = w.thread_workload(0, 2);
        while let Some(mut tx) = tw.next_transaction() {
            run_on_store(&mut mem, &mut *tx);
        }
        w.check_reservations(&mem).expect("no overbooking");
    }

    #[test]
    fn reservation_updates_customer() {
        let mut w = VacationWorkload::new(VacationParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        run_on_store(
            &mut mem,
            &mut LogicTx::new(MakeReservation {
                tables: w.tables.clone(),
                headers: w.headers.clone(),
                customers_base: w.customers_base.unwrap(),
                customer: 3,
                queries: vec![(0, 1), (1, 2), (2, 3)],
            }),
        );
        let count = mem.read_word(VacationWorkload::customer_addr(
            w.customers_base.unwrap(),
            3,
            0,
        ));
        assert_eq!(count, 1);
        // One booking per table with an available record.
        assert_eq!(w.check_reservations(&mem).unwrap(), TABLES as u64);
    }

    #[test]
    fn delete_customer_clears_state() {
        let mut w = VacationWorkload::new(VacationParams::quick());
        let mut mem = MvmStore::new();
        w.setup(&mut mem, 1);
        let base = w.customers_base.unwrap();
        mem.write_word(VacationWorkload::customer_addr(base, 5, 0), 2);
        mem.write_word(VacationWorkload::customer_addr(base, 5, 1), 900);
        run_on_store(
            &mut mem,
            &mut LogicTx::new(DeleteCustomer {
                customers_base: base,
                customer: 5,
            }),
        );
        assert_eq!(
            mem.read_word(VacationWorkload::customer_addr(base, 5, 0)),
            0
        );
        assert_eq!(
            mem.read_word(VacationWorkload::customer_addr(base, 5, 1)),
            0
        );
    }
}
