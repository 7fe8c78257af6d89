//! Heap allocations on the per-transaction path, counted.
//!
//! A transaction's write set is one `Vec` plus one boxed entry per
//! buffered write; nothing else on begin / read / write / commit
//! allocates once the written chains have their spill capacity. This
//! binary installs a counting global allocator (counts are per thread,
//! so the harness's own threads do not disturb them) and holds the
//! commit path to that budget.

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

#[test]
fn a_two_write_transfer_allocates_three_times_and_an_audit_never() {
    const TXNS: u64 = 256;
    let stm = Stm::snapshot();
    let (a, b) = (TVar::new(1_000i64), TVar::new(1_000i64));
    let transfer = || {
        stm.atomically(|tx| {
            let (va, vb) = (tx.read(&a)?, tx.read(&b)?);
            tx.write(&a, va - 1);
            tx.write(&b, vb + 1);
            Ok(())
        });
    };
    let audit = || {
        let total = stm.atomically(|tx| Ok(tx.read(&a)? + tx.read(&b)?));
        assert_eq!(total, 2_000);
    };
    // The watermark is rescanned once per 64 commits, so a chain
    // written back to back spills that many versions before its first
    // trim; let both spills reach their full capacity first.
    for _ in 0..4 * TXNS {
        transfer();
    }
    audit();

    // The write set's `Vec` and one box per buffered write.
    let transfers = allocations_in(|| (0..TXNS).for_each(|_| transfer()));
    assert_eq!(transfers, 3 * TXNS);
    assert_eq!(allocations_in(|| (0..TXNS).for_each(|_| audit())), 0);
}
