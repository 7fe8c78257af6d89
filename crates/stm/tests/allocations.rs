//! Heap allocations on the per-transaction path, counted.
//!
//! A transaction's write set is one `Vec`. A write to an `i64` or
//! `u64` variable is buffered inline in it; a write of any other type
//! adds one box. Under `Serializable` the read log adds its map.
//! Nothing else on begin / read / write / commit allocates once the
//! written chains have their spill capacity. This binary installs a
//! counting global allocator (counts are per thread, so the harness's
//! own threads do not disturb them) and holds the commit path to that
//! budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sitm_stm::{Stm, TVar};

struct Counting;

thread_local! {
    /// Allocations (`alloc` and growing `realloc` alike) made by this
    /// thread. Const-initialised and `Drop`-free, so reading it from
    /// inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every request to `System` unchanged; the only addition
// is a thread-local counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `work` runs.
fn allocations_in(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// An account balance of the value type under test.
trait Balance: Clone + Send + Sync + 'static {
    fn of(v: i64) -> Self;
    fn get(&self) -> i64;
}

impl Balance for i64 {
    fn of(v: i64) -> Self {
        v
    }
    fn get(&self) -> i64 {
        *self
    }
}

/// Serve's value type: not word-sized, so its writes are boxed.
impl Balance for Option<i64> {
    fn of(v: i64) -> Self {
        Some(v)
    }
    fn get(&self) -> i64 {
        self.expect("funded")
    }
}

const TXNS: u64 = 256;

/// Allocations made by `TXNS` two-write transfers and by `TXNS`
/// two-read audits on two fresh accounts of type `B`, after warm-up.
fn transfers_and_audits<B: Balance>(stm: &Stm) -> (u64, u64) {
    let (a, b) = (TVar::new(B::of(1_000)), TVar::new(B::of(1_000)));
    let transfer = || {
        stm.atomically(|tx| {
            let (va, vb) = (tx.read(&a)?.get(), tx.read(&b)?.get());
            tx.write(&a, B::of(va - 1));
            tx.write(&b, B::of(vb + 1));
            Ok(())
        });
    };
    let audit = || {
        let total = stm.atomically(|tx| Ok(tx.read(&a)?.get() + tx.read(&b)?.get()));
        assert_eq!(total, 2_000);
    };
    // The watermark is rescanned once per 64 commits, so a chain
    // written back to back spills that many versions before its first
    // trim; let both spills reach their full capacity first.
    for _ in 0..4 * TXNS {
        transfer();
    }
    audit();
    (
        allocations_in(|| (0..TXNS).for_each(|_| transfer())),
        allocations_in(|| (0..TXNS).for_each(|_| audit())),
    )
}

#[test]
fn a_word_transfer_allocates_once_a_boxed_one_three_times_and_a_snapshot_audit_never() {
    // One test, so no other test's live snapshot holds the watermark
    // back while the chains are at their warmed-up capacity.
    let snapshot = Stm::snapshot();
    // The write set's `Vec`; both writes are inline.
    assert_eq!(transfers_and_audits::<i64>(&snapshot), (TXNS, 0));
    // The `Vec` and one box per buffered write.
    assert_eq!(
        transfers_and_audits::<Option<i64>>(&snapshot),
        (3 * TXNS, 0)
    );
    // The read log's map adds one node to each transaction.
    let serializable = Stm::serializable();
    assert_eq!(transfers_and_audits::<i64>(&serializable), (2 * TXNS, TXNS));
}
