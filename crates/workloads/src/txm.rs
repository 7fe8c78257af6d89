//! The transaction machine: write workload algorithms as ordinary Rust,
//! run them as resumable op-level programs.
//!
//! The discrete-event engine requires transactions to be resumable state
//! machines ([`sitm_sim::TxProgram`]), but data-structure algorithms
//! (tree rebalancing, list splicing, hash probing) are far more natural
//! as straight-line code. [`LogicTx`] bridges the two by running the
//! algorithm as an `async` body that suspends at every read the engine
//! has to serve:
//!
//! * The algorithm is a [`TxLogic`]: a deterministic `async fn` over a
//!   [`TxMemory`], reading with `mem.read(addr).await?` and writing with
//!   [`TxMemory::write`].
//! * A read of an address already read or written this attempt completes
//!   at once. The first read of any other address parks the address in a
//!   slot shared with the driver and suspends the body; the program
//!   yields [`TxOp::Read`] to the engine. The next `resume` hands the
//!   value back through the slot and polls the body again, so it carries
//!   on from the read that missed. Each body runs exactly once per
//!   attempt and each distinct address costs one simulated memory
//!   access: host work per transaction is linear in its length.
//! * When the body completes, the buffered writes are emitted in first-
//!   write order, followed by `Commit`.
//!
//! Writes are visible to subsequent reads of the same attempt through the
//! overlay, giving read-own-writes semantics identical to the protocol
//! models'. The body is polled with a no-op waker on the engine's thread:
//! there is no executor, and nothing here is concurrent.

use std::collections::HashMap;
use std::future::Future;
use std::hash::{BuildHasherDefault, Hasher};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use sitm_mvm::{Addr, MvmStore, Word};
use sitm_sim::{TxOp, TxProgram};

/// The logic exceeded its read budget: it is running on an inconsistent
/// ("zombie") view and must restart. Only single-version lazy protocols
/// (SONTM) can produce such views; snapshot protocols always feed
/// consistent values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diverged;

/// Base read-call budget per attempt; the effective budget is
/// `READ_BUDGET_BASE + 20 · footprint²`, where the footprint counts the
/// addresses fetched plus the addresses written so far. A zombie loop
/// keeps issuing reads without growing its footprint and trips the bound
/// quickly.
///
/// The budget is a sandbox, not a cost model, and it is kept bit for bit
/// because results depend on *where* it trips: SONTM's `inconsistent`
/// aborts are recorded at that read. Before bodies ran as coroutines,
/// each miss re-ran the body from the top, and read call k was first
/// evaluated in the run whose cache held exactly the addresses missed
/// before call k — the same footprint and overlay the coroutine sees at
/// call k, which it evaluates once. Later replays only saw a larger
/// footprint, and a larger footprint never trips earlier, so the budget
/// trips at the same read call as it did then.
const READ_BUDGET_BASE: u64 = 10_000;

/// Deterministic multiply-then-fold hasher for [`Addr`] keys.
///
/// `TxMemory::read` is the hottest call in the whole simulator (every
/// read of every body probes the overlay and the cache), and the default
/// SipHash is most of its cost. Addresses need no DoS resistance — they
/// are small, simulator-generated integers — so a single multiply by a
/// 64-bit odd constant plus a fold of the high half (addresses are
/// word-aligned, leaving plain-multiply low bits degenerate) replaces
/// it. The hash is fixed across runs, which if anything *strengthens*
/// determinism: map iteration order is only ever observed after sorting.
#[derive(Debug, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Unused by `Addr` keys (which hash as one `u64`); kept correct
        // for completeness via a byte-wise FNV-1a fold.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Address-keyed map with the cheap deterministic hasher above.
type AddrMap = HashMap<Addr, Word, BuildHasherDefault<AddrHasher>>;

/// Where a suspended body and its driver meet: the body parks the address
/// of the read that missed, the driver answers with its value. Atomics
/// only so the program stays `Send`; both sides run on one thread, inside
/// one `poll`, so `Relaxed` suffices.
#[derive(Debug, Default)]
struct Slot {
    addr: AtomicU64,
    value: AtomicU64,
}

/// The transactional view an algorithm runs against: values read so far
/// this attempt plus the local write overlay.
#[derive(Debug)]
pub struct TxMemory {
    cache: AddrMap,
    overlay: AddrMap,
    write_order: Vec<Addr>,
    read_calls: u64,
    slot: Arc<Slot>,
}

impl TxMemory {
    fn new(slot: Arc<Slot>) -> Self {
        TxMemory {
            cache: AddrMap::default(),
            overlay: AddrMap::default(),
            write_order: Vec::new(),
            read_calls: 0,
            slot,
        }
    }

    /// Reads `addr`: at once if it was read or written earlier this
    /// attempt, otherwise after the body suspends for the engine to fetch
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`Diverged`] once the attempt exceeds its read budget.
    pub async fn read(&mut self, addr: Addr) -> Result<Word, Diverged> {
        self.read_calls += 1;
        let footprint = (self.cache.len() + self.overlay.len()) as u64;
        if self.read_calls > READ_BUDGET_BASE + 20 * footprint * footprint {
            // Zombie sandbox: force the driver to restart the
            // transaction rather than loop forever on a torn view.
            return Err(Diverged);
        }
        // The overlay is empty for read-only logic and for the read
        // phase of most updates; skip its probe entirely then.
        if !self.overlay.is_empty() {
            if let Some(&v) = self.overlay.get(&addr) {
                return Ok(v);
            }
        }
        if let Some(&v) = self.cache.get(&addr) {
            return Ok(v);
        }
        self.slot.addr.store(addr.0, Ordering::Relaxed);
        let mut parked = false;
        // Pending once: the driver fetches the value, then polls again.
        std::future::poll_fn(|_| {
            if std::mem::replace(&mut parked, true) {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
        let value = self.slot.value.load(Ordering::Relaxed);
        self.cache.insert(addr, value);
        Ok(value)
    }

    /// Buffers a write of `addr = value`, visible to subsequent reads of
    /// this attempt.
    pub fn write(&mut self, addr: Addr, value: Word) {
        if self.overlay.insert(addr, value).is_none() {
            self.write_order.push(addr);
        }
    }
}

/// A deterministic transactional algorithm, run once per attempt as an
/// `async` body that suspends at each first read of an address.
///
/// Implement [`TxLogic::run`] as an `async fn`. Implementations must be
/// deterministic given the values in the [`TxMemory`]: any randomness
/// must be fixed at construction time. `Send + Sync + 'static` lets
/// [`LogicTx`] keep the logic behind an `Arc` shared with the boxed body,
/// and keeps `TxProgram: Send` so whole cells can migrate onto sweep
/// worker threads.
pub trait TxLogic: Send + Sync + 'static {
    /// Runs the algorithm.
    ///
    /// # Errors
    ///
    /// Propagates [`Diverged`] from [`TxMemory::read`] (use `.await?`).
    fn run(&self, mem: &mut TxMemory) -> impl Future<Output = Result<(), Diverged>> + Send;

    /// Extra cycles of local computation to charge once at commit time
    /// (models the non-memory work between accesses).
    fn compute_cycles(&self) -> u64 {
        0
    }

    /// Whether every read should be *promoted* at commit (section 5.1):
    /// promoted reads join the write set for conflict detection without
    /// creating versions. Enable for update operations on structures
    /// whose invariants span multiple nodes (the paper's red-black tree
    /// fix); leave off for read-only and single-location logic.
    fn promote_reads(&self) -> bool {
        false
    }
}

/// One attempt's body: the logic run over a memory it owns, handing the
/// memory back when it completes.
type Body = Pin<Box<dyn Future<Output = Result<TxMemory, Diverged>> + Send>>;

/// Driver state: what the program does next.
enum Stage {
    /// No body this attempt yet; the next `resume` starts one.
    Idle,
    /// The body is suspended at a read; the next `resume` carries its
    /// value.
    Suspended(Body),
    /// The body completed; these ops precede the `Commit`.
    Draining(std::vec::IntoIter<TxOp>),
}

/// Adapts a [`TxLogic`] into a [`TxProgram`].
pub struct LogicTx<L> {
    logic: Arc<L>,
    slot: Arc<Slot>,
    stage: Stage,
}

impl<L: std::fmt::Debug> std::fmt::Debug for LogicTx<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogicTx")
            .field("logic", &self.logic)
            .finish_non_exhaustive()
    }
}

impl<L: TxLogic> LogicTx<L> {
    /// Wraps `logic` as a resumable transaction program.
    pub fn new(logic: L) -> Self {
        LogicTx {
            logic: Arc::new(logic),
            slot: Arc::default(),
            stage: Stage::Idle,
        }
    }

    /// Boxed convenience for workload factories.
    pub fn boxed(logic: L) -> Box<dyn TxProgram> {
        Box::new(Self::new(logic))
    }

    fn start(&self) -> Body {
        let logic = Arc::clone(&self.logic);
        let mut mem = TxMemory::new(Arc::clone(&self.slot));
        Box::pin(async move {
            logic.run(&mut mem).await?;
            Ok(mem)
        })
    }

    /// The ops a completed body owes the engine before `Commit`: the
    /// compute charge, the buffered writes in first-write order, then
    /// (for promoting updates) the reads not written, in address order —
    /// written lines validate anyway.
    fn epilogue(&self, mem: &TxMemory) -> Vec<TxOp> {
        let mut ops = Vec::with_capacity(1 + mem.write_order.len());
        let cycles = self.logic.compute_cycles();
        if cycles > 0 {
            ops.push(TxOp::Compute(cycles));
        }
        ops.extend(
            mem.write_order
                .iter()
                .map(|a| TxOp::Write(*a, mem.overlay[a])),
        );
        if self.logic.promote_reads() && !mem.overlay.is_empty() {
            let mut promoted: Vec<Addr> = mem
                .cache
                .keys()
                .filter(|a| !mem.overlay.contains_key(a))
                .copied()
                .collect();
            promoted.sort_unstable();
            ops.extend(promoted.into_iter().map(TxOp::Promote));
        }
        ops
    }
}

impl<L: TxLogic> TxProgram for LogicTx<L> {
    fn resume(&mut self, input: Option<Word>) -> TxOp {
        match &mut self.stage {
            Stage::Draining(ops) => return ops.next().unwrap_or(TxOp::Commit),
            Stage::Suspended(_) => {
                let value = input.expect("engine must supply the read value");
                self.slot.value.store(value, Ordering::Relaxed);
            }
            Stage::Idle => self.stage = Stage::Suspended(self.start()),
        }
        let Stage::Suspended(body) = &mut self.stage else {
            unreachable!("a body is running")
        };
        match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Pending => TxOp::Read(Addr(self.slot.addr.load(Ordering::Relaxed))),
            Poll::Ready(Err(Diverged)) => {
                // The engine aborts and resets us.
                self.stage = Stage::Idle;
                TxOp::Restart
            }
            Poll::Ready(Ok(mem)) => {
                let mut ops = self.epilogue(&mem).into_iter();
                let first = ops.next().unwrap_or(TxOp::Commit);
                self.stage = Stage::Draining(ops);
                first
            }
        }
    }

    fn reset(&mut self) {
        self.stage = Stage::Idle;
    }
}

/// Runs `program` to its commit directly against `store`, as a
/// single-threaded, protocol-free "engine": reads see the newest
/// committed data and writes land as they are emitted. Setup helpers
/// and tests build structures through the same logic the workloads run.
///
/// Returns how many reads and writes the program issued.
///
/// # Panics
///
/// Panics if the program asks to restart: a consistent view cannot
/// diverge.
pub fn run_on_store(store: &mut MvmStore, program: &mut dyn TxProgram) -> (usize, usize) {
    let (mut reads, mut writes) = (0, 0);
    let mut input = None;
    loop {
        match program.resume(input.take()) {
            TxOp::Read(a) => {
                reads += 1;
                input = Some(store.read_word(a));
            }
            TxOp::Write(a, v) => {
                writes += 1;
                store.write_word(a, v);
            }
            TxOp::Compute(_) | TxOp::Promote(_) => {}
            TxOp::Commit => return (reads, writes),
            TxOp::Restart => panic!("consistent driver cannot diverge"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Increment a counter and mirror it: read a, write a+1, write b=a+1.
    #[derive(Debug)]
    struct IncMirror {
        a: Addr,
        b: Addr,
    }

    impl TxLogic for IncMirror {
        async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
            let v = mem.read(self.a).await?;
            mem.write(self.a, v + 1);
            mem.write(self.b, v + 1);
            // Read-own-write must be visible.
            assert_eq!(mem.read(self.a).await?, v + 1);
            Ok(())
        }

        fn compute_cycles(&self) -> u64 {
            7
        }
    }

    #[test]
    fn logic_tx_emits_read_compute_writes_commit() {
        let mut p = LogicTx::new(IncMirror {
            a: Addr(0),
            b: Addr(8),
        });
        assert_eq!(p.resume(None), TxOp::Read(Addr(0)));
        assert_eq!(p.resume(Some(41)), TxOp::Compute(7));
        assert_eq!(p.resume(None), TxOp::Write(Addr(0), 42));
        assert_eq!(p.resume(None), TxOp::Write(Addr(8), 42));
        assert_eq!(p.resume(None), TxOp::Commit);
    }

    #[test]
    fn reset_replays_with_fresh_values() {
        let mut p = LogicTx::new(IncMirror {
            a: Addr(0),
            b: Addr(8),
        });
        assert_eq!(p.resume(None), TxOp::Read(Addr(0)));
        let _ = p.resume(Some(1));
        p.reset();
        assert_eq!(p.resume(None), TxOp::Read(Addr(0)));
        assert_eq!(p.resume(Some(100)), TxOp::Compute(7));
        assert_eq!(p.resume(None), TxOp::Write(Addr(0), 101));
    }

    /// A data-dependent chain: follow pointers until zero.
    #[derive(Debug)]
    struct ChainWalk {
        start: Addr,
        sink: Addr,
    }

    impl TxLogic for ChainWalk {
        async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
            let mut hops = 0;
            let mut cur = self.start;
            loop {
                let next = mem.read(cur).await?;
                if next == 0 {
                    break;
                }
                hops += 1;
                cur = Addr(next);
            }
            mem.write(self.sink, hops);
            Ok(())
        }
    }

    #[test]
    fn data_dependent_reads_resolve_one_by_one() {
        let mut p = LogicTx::new(ChainWalk {
            start: Addr(0),
            sink: Addr(64),
        });
        assert_eq!(p.resume(None), TxOp::Read(Addr(0)));
        assert_eq!(p.resume(Some(8)), TxOp::Read(Addr(8)));
        assert_eq!(p.resume(Some(16)), TxOp::Read(Addr(16)));
        assert_eq!(p.resume(Some(0)), TxOp::Write(Addr(64), 2));
        assert_eq!(p.resume(None), TxOp::Commit);
    }

    #[test]
    fn double_write_keeps_first_order_and_last_value() {
        #[derive(Debug)]
        struct TwoWrites;
        impl TxLogic for TwoWrites {
            async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
                mem.write(Addr(3), 1);
                mem.write(Addr(4), 2);
                mem.write(Addr(3), 9);
                Ok(())
            }
        }
        let mut p = LogicTx::new(TwoWrites);
        assert_eq!(p.resume(None), TxOp::Write(Addr(3), 9));
        assert_eq!(p.resume(None), TxOp::Write(Addr(4), 2));
        assert_eq!(p.resume(None), TxOp::Commit);
    }

    /// Reads `n` distinct addresses (then, if `spin`, re-reads the first
    /// forever, like a zombie), counting body entries and read calls.
    #[derive(Debug, Default)]
    struct Counted {
        n: u64,
        spin: bool,
        entries: AtomicUsize,
        read_calls: AtomicUsize,
    }

    impl TxLogic for Counted {
        async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
            self.entries.fetch_add(1, Ordering::Relaxed);
            let addrs = (0..self.n).chain(std::iter::repeat(0).take_while(|_| self.spin));
            for a in addrs {
                self.read_calls.fetch_add(1, Ordering::Relaxed);
                mem.read(Addr(a)).await?;
            }
            Ok(())
        }
    }

    #[test]
    fn body_is_entered_once_per_attempt() {
        // Replay-on-miss entered this body n + 1 times per attempt.
        let mut p = LogicTx::new(Counted {
            n: 64,
            ..Counted::default()
        });
        let mut input = None;
        let mut reads = 0;
        while let TxOp::Read(_) = p.resume(input.take()) {
            reads += 1;
            input = Some(0);
        }
        assert_eq!(reads, 64);
        assert_eq!(p.logic.entries.load(Ordering::Relaxed), 1);
        p.reset();
        assert_eq!(p.resume(None), TxOp::Read(Addr(0)));
        assert_eq!(
            p.logic.entries.load(Ordering::Relaxed),
            2,
            "one per attempt"
        );
    }

    #[test]
    fn zombie_budget_trips_at_the_same_read_call() {
        // One distinct address: footprint 1 after the fetch, so the
        // budget is 10_000 + 20 and read call 10_021 trips — where it
        // tripped under replay-on-miss.
        let mut p = LogicTx::new(Counted {
            n: 1,
            spin: true,
            ..Counted::default()
        });
        assert_eq!(p.resume(None), TxOp::Read(Addr(0)));
        assert_eq!(p.resume(Some(5)), TxOp::Restart);
        assert_eq!(p.logic.read_calls.load(Ordering::Relaxed), 10_021);
        assert_eq!(p.logic.entries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_on_store_applies_writes_and_counts_ops() {
        let mut store = MvmStore::new();
        let a = store.alloc_words(2);
        store.write_word(a, 41);
        let mut p = LogicTx::new(IncMirror { a, b: a.add(1) });
        assert_eq!(run_on_store(&mut store, &mut p), (1, 2));
        assert_eq!(store.read_word(a), 42);
        assert_eq!(store.read_word(a.add(1)), 42);
    }
}
