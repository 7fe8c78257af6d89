//! The server runtime: event-loop reactors multiplexing pipelined
//! connections, sharded deadline-bounded group-commit workers, and the
//! GC tick.
//!
//! # Threading model (DESIGN.md §17)
//!
//! - **Accept thread** — owns the listener and nothing else. Each
//!   accepted socket is handed to an event-loop reactor round-robin
//!   (pushed onto the reactor's inbox, then its waker fires).
//! - **Reactor threads** — a fixed pool (`reactors`), each running a
//!   readiness loop over a [`Poller`]: nonblocking sockets, per
//!   connection a [`FrameBuffer`] reassembling frames from arbitrary
//!   read boundaries, a reply window releasing responses in request
//!   order, and a write buffer absorbing partial writes. Interactive
//!   requests (`BEGIN`/`READ`/`WRITE`/`COMMIT`/`ABORT`/`STATS`)
//!   execute inline on the reactor — snapshot reads are lock-free and
//!   never abort, so nothing inline can block the loop for long.
//!   One-shot `TXN` batches are dispatched to shard workers and their
//!   completions return over a **pooled** per-reactor channel (one
//!   mpsc + eventfd wake per reactor, not one channel per request —
//!   the allocation/rendezvous hot spot of the thread-per-connection
//!   server).
//! - **Shard workers** — `TXN` batches are routed by key hash onto
//!   `shards` worker threads. A worker collects up to `batch_max`
//!   requests per intake — returning early when `batch_deadline`
//!   elapses, so group commit is latency-bounded — and
//!   *group-commits*: requests with pairwise-disjoint key footprints
//!   are packed into one merged STM transaction. Disjointness makes
//!   the merged execution exactly equal to serial execution at a
//!   single commit point, so the recorded history stays
//!   snapshot-isolated and oracle-certifiable while the commit-clock
//!   and lock traffic is paid once per group.
//! - **GC tick** — a timer thread sweeps [`TVar::compact`] over every
//!   key (via [`Store::compact_all`]) to release versions that a
//!   finished long reader pinned on cold keys (DESIGN.md §14/§16).
//!
//! # Ordering contract under pipelining
//!
//! Responses are always delivered in request order (the reply
//! window). *Execution* order is relaxed in exactly one way: `TXN`
//! batches run asynchronously on shard workers, so a `TXN` may take
//! effect after a later interactive request from the same connection
//! has executed. A closed-loop client (one request in flight) can
//! never observe this; a pipelined client sees each response matched
//! to its request, and every individual request is still a full SI
//! transaction, so the recorded history remains oracle-certifiable.
//!
//! # Backpressure
//!
//! Two bounds per connection: `max_inflight` caps decoded-but-
//! unanswered frames, `write_buf_cap` caps buffered response bytes.
//! When either trips, the reactor stops *reading* that socket (the
//! kernel receive window then closes end-to-end toward the client) and
//! resumes when completions drain the window. A slow reader therefore
//! costs O(`write_buf_cap` + one frame), never unbounded memory.
//!
//! [`TVar::compact`]: sitm_stm::TVar::compact
//! [`FrameBuffer`]: crate::wire::FrameBuffer

use std::collections::{HashMap, HashSet};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sitm_obs::{AtomicHistogram, History, MetricsRegistry};
use sitm_stm::{live_snapshots, Conflict, IsolationLevel, Stm, StmError, StmStats, TVar, Tx};

use crate::conn::{Conn, OpKind};
use crate::reactor::{Event, Interest, Poller, Waker};
use crate::store::Store;
use crate::wire::{ErrCode, Request, Response, TxnOp, WireConflict, WireStats};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Event-loop threads multiplexing client connections.
    pub reactors: usize,
    /// Group-commit worker threads for `TXN` batches.
    pub shards: usize,
    /// Max `TXN` requests drained per worker intake (the group-commit
    /// packing window).
    pub batch_max: usize,
    /// How long a worker may wait for more `TXN`s to fill its packing
    /// window. `Duration::ZERO` (the default) means "never wait":
    /// flush as soon as the queue drains, which keeps solo-request
    /// latency identical to an unbatched server. A small nonzero
    /// deadline trades that latency for larger groups under pipelined
    /// load.
    pub batch_deadline: Duration,
    /// Per-connection cap on buffered response bytes before the
    /// reactor stops reading that socket (slow-client backpressure).
    /// Peak usage can overshoot by at most one frame.
    pub write_buf_cap: usize,
    /// Per-connection cap on decoded-but-unanswered pipelined frames.
    pub max_inflight: usize,
    /// Period of the background `compact` sweep.
    pub gc_interval: Duration,
    /// Transaction-history record capacity; 0 disables recording.
    /// Size it above the total attempt count when the history will be
    /// oracle-certified — the oracle refuses truncated histories.
    pub history_capacity: usize,
    /// Isolation level for every transaction the server runs.
    pub level: IsolationLevel,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            reactors: 2,
            shards: 4,
            batch_max: 32,
            batch_deadline: Duration::ZERO,
            write_buf_cap: 256 * 1024,
            max_inflight: 1024,
            gc_interval: Duration::from_millis(25),
            history_capacity: 0,
            level: IsolationLevel::Snapshot,
        }
    }
}

/// Server-side counters and per-op latency histograms, exported under
/// the `serve.*` metric namespace.
#[derive(Debug, Default)]
struct ServeMetrics {
    conns: AtomicU64,
    frames: AtomicU64,
    malformed: AtomicU64,
    group_batches: AtomicU64,
    group_txns: AtomicU64,
    group_retries: AtomicU64,
    flush_size: AtomicU64,
    flush_deadline: AtomicU64,
    flush_drain: AtomicU64,
    reactor_wakeups: AtomicU64,
    backpressure_pauses: AtomicU64,
    gc_ticks: AtomicU64,
    gc_reclaimed: AtomicU64,
    batch_size: AtomicHistogram,
    events_per_wake: AtomicHistogram,
    frames_per_wake: AtomicHistogram,
    inflight: AtomicHistogram,
    lat_begin: AtomicHistogram,
    lat_read: AtomicHistogram,
    lat_write: AtomicHistogram,
    lat_commit: AtomicHistogram,
    lat_abort: AtomicHistogram,
    lat_txn: AtomicHistogram,
    lat_stats: AtomicHistogram,
}

impl ServeMetrics {
    /// Latency histogram for a window slot's op kind; malformed
    /// frames are counted but not timed.
    fn latency_hist(&self, kind: OpKind) -> Option<&AtomicHistogram> {
        match kind {
            OpKind::Begin => Some(&self.lat_begin),
            OpKind::Read => Some(&self.lat_read),
            OpKind::Write => Some(&self.lat_write),
            OpKind::Commit => Some(&self.lat_commit),
            OpKind::Abort => Some(&self.lat_abort),
            OpKind::Txn => Some(&self.lat_txn),
            OpKind::Stats => Some(&self.lat_stats),
            OpKind::Malformed => None,
        }
    }

    fn record_latency(&self, kind: OpKind, elapsed: Duration) {
        if let Some(hist) = self.latency_hist(kind) {
            hist.record(elapsed.as_nanos() as u64);
        }
    }

    fn export(&self, reg: &mut MetricsRegistry) {
        reg.count("serve.conns", self.conns.load(Ordering::Relaxed));
        reg.count("serve.frames", self.frames.load(Ordering::Relaxed));
        reg.count("serve.malformed", self.malformed.load(Ordering::Relaxed));
        reg.count(
            "serve.group_commit.batches",
            self.group_batches.load(Ordering::Relaxed),
        );
        reg.count(
            "serve.group_commit.txns",
            self.group_txns.load(Ordering::Relaxed),
        );
        reg.count(
            "serve.group_commit.retries",
            self.group_retries.load(Ordering::Relaxed),
        );
        reg.count(
            "serve.group_commit.flush.size",
            self.flush_size.load(Ordering::Relaxed),
        );
        reg.count(
            "serve.group_commit.flush.deadline",
            self.flush_deadline.load(Ordering::Relaxed),
        );
        reg.count(
            "serve.group_commit.flush.drain",
            self.flush_drain.load(Ordering::Relaxed),
        );
        reg.count(
            "serve.reactor.wakeups",
            self.reactor_wakeups.load(Ordering::Relaxed),
        );
        reg.count(
            "serve.backpressure.pauses",
            self.backpressure_pauses.load(Ordering::Relaxed),
        );
        reg.count("serve.gc.ticks", self.gc_ticks.load(Ordering::Relaxed));
        reg.count(
            "serve.gc.reclaimed",
            self.gc_reclaimed.load(Ordering::Relaxed),
        );
        reg.merge_histogram("serve.group_commit.batch_size", &self.batch_size.snapshot());
        reg.merge_histogram(
            "serve.reactor.events_per_wake",
            &self.events_per_wake.snapshot(),
        );
        reg.merge_histogram(
            "serve.reactor.frames_per_wake",
            &self.frames_per_wake.snapshot(),
        );
        reg.merge_histogram("serve.pipeline.inflight", &self.inflight.snapshot());
        for (name, hist) in [
            ("serve.latency_ns.begin", &self.lat_begin),
            ("serve.latency_ns.read", &self.lat_read),
            ("serve.latency_ns.write", &self.lat_write),
            ("serve.latency_ns.commit", &self.lat_commit),
            ("serve.latency_ns.abort", &self.lat_abort),
            ("serve.latency_ns.txn", &self.lat_txn),
            ("serve.latency_ns.stats", &self.lat_stats),
        ] {
            reg.merge_histogram(name, &hist.snapshot());
        }
    }
}

/// A one-shot `TXN` batch in flight to a shard worker. Addresses its
/// reply by (reactor, token, gen, seq) — no per-request channel.
struct ShardJob {
    reactor: usize,
    token: u64,
    gen: u64,
    seq: u64,
    ops: Vec<TxnOp>,
}

/// A finished `TXN` on its way back to the reactor that owns the
/// connection. Stale (token, gen) pairs are dropped at delivery.
struct Completion {
    token: u64,
    gen: u64,
    seq: u64,
    resp: Response,
}

/// State shared by every server thread.
struct Shared {
    stm: Stm,
    store: Store,
    batch_max: usize,
    batch_deadline: Duration,
    write_buf_cap: usize,
    max_inflight: usize,
    gc_interval: Duration,
    stop: AtomicBool,
    gc_gate: (Mutex<()>, Condvar),
    metrics: ServeMetrics,
}

/// A running KV server bound to a loopback port. Dropping it (or
/// calling [`Server::shutdown`]) stops every thread and closes every
/// connection; open interactive transactions on dying connections are
/// rolled back and recorded as `aborted:explicit`, and `TXN` batches
/// already queued to shard workers run to completion — so no epoch
/// slot or pinned snapshot outlives shutdown.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    wakers: Vec<Waker>,
    workers: Vec<JoinHandle<()>>,
    gc: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `127.0.0.1:0` and starts the accept thread, `reactors`
    /// event-loop threads, `shards` group-commit workers and the GC
    /// tick thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure or poller creation failure.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;

        let mut stm = Stm::with_level(config.level);
        if config.history_capacity > 0 {
            stm = stm.with_history(config.history_capacity);
        }
        let shared = Arc::new(Shared {
            stm,
            store: Store::new(),
            batch_max: config.batch_max.max(1),
            batch_deadline: config.batch_deadline,
            write_buf_cap: config.write_buf_cap.max(4096),
            max_inflight: config.max_inflight.max(1),
            gc_interval: config.gc_interval,
            stop: AtomicBool::new(false),
            gc_gate: (Mutex::new(()), Condvar::new()),
            metrics: ServeMetrics::default(),
        });

        let n_reactors = config.reactors.max(1);
        let shards = config.shards.max(1);

        // Per-reactor plumbing: the poller (created here so its waker
        // can be shared before the thread owns it), the accept inbox,
        // and the pooled completion channel workers reply over.
        let mut pollers = Vec::with_capacity(n_reactors);
        let mut wakers = Vec::with_capacity(n_reactors);
        let mut inboxes = Vec::with_capacity(n_reactors);
        let mut comp_txs = Vec::with_capacity(n_reactors);
        let mut comp_rxs = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            let poller = Poller::new()?;
            wakers.push(poller.waker());
            pollers.push(poller);
            inboxes.push(Arc::new(Mutex::new(Vec::<TcpStream>::new())));
            let (tx, rx) = mpsc::channel::<Completion>();
            comp_txs.push(tx);
            comp_rxs.push(rx);
        }

        let mut workers = Vec::with_capacity(shards);
        let mut reactors = Vec::with_capacity(n_reactors);
        let mut accept = None;
        let mut gc = None;

        // Spawn phase. A failure partway through must tear down what
        // already runs — reactor threads park in `poller.wait(None)`
        // and would leak (along with the bound listener) if start just
        // returned the error.
        let spawned: io::Result<()> = (|| {
            let mut job_txs = Vec::with_capacity(shards);
            for i in 0..shards {
                let (tx, rx) = mpsc::channel::<ShardJob>();
                job_txs.push(tx);
                let sh = Arc::clone(&shared);
                let comp = comp_txs.clone();
                let wk = wakers.clone();
                workers.push(
                    thread::Builder::new()
                        .name(format!("sitm-serve-shard-{i}"))
                        .spawn(move || shard_worker(&sh, &rx, &comp, &wk))?,
                );
            }
            // start's comp_txs copies are dropped here so the shard
            // workers hold the only completion senders.
            drop(comp_txs);

            for (idx, (poller, comp_rx)) in pollers.into_iter().zip(comp_rxs).enumerate() {
                let sh = Arc::clone(&shared);
                let inbox = Arc::clone(&inboxes[idx]);
                let jobs = job_txs.clone();
                reactors.push(
                    thread::Builder::new()
                        .name(format!("sitm-serve-reactor-{idx}"))
                        .spawn(move || reactor_loop(&sh, idx, &poller, &inbox, &comp_rx, &jobs))?,
                );
            }
            // Reactors now hold the only job senders: when the last
            // reactor exits, workers drain their queues and see
            // disconnect.
            drop(job_txs);

            let sh = Arc::clone(&shared);
            let accept_wakers = wakers.clone();
            accept = Some(
                thread::Builder::new()
                    .name("sitm-serve-accept".into())
                    .spawn(move || accept_loop(&sh, &listener, &inboxes, &accept_wakers))?,
            );

            let sh = Arc::clone(&shared);
            gc = Some(
                thread::Builder::new()
                    .name("sitm-serve-gc".into())
                    .spawn(move || gc_loop(&sh))?,
            );
            Ok(())
        })();

        if let Err(e) = spawned {
            shared.stop.store(true, Ordering::Release);
            for w in &wakers {
                w.wake();
            }
            shared.gc_gate.1.notify_all();
            // The accept loop (if it got that far) re-checks `stop`
            // per connection; poke it loose. Harmless if it never
            // spawned — the listener is already gone.
            let _ = TcpStream::connect(addr);
            if let Some(h) = accept.take() {
                let _ = h.join();
            }
            for h in reactors.drain(..) {
                let _ = h.join();
            }
            // Exiting reactors dropped their job-sender clones (the
            // closure environment dropped start's), so workers see
            // disconnect once their queues drain.
            for h in workers.drain(..) {
                let _ = h.join();
            }
            if let Some(h) = gc.take() {
                let _ = h.join();
            }
            return Err(e);
        }

        Ok(Server {
            shared,
            addr,
            accept,
            reactors,
            wakers,
            workers,
            gc,
        })
    }

    /// The loopback address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The runtime's commit/abort statistics.
    pub fn stats(&self) -> &StmStats {
        self.shared.stm.stats()
    }

    /// Snapshot of the recorded transaction history (if
    /// [`ServerConfig::history_capacity`] was nonzero) — feed this to
    /// the sitm-check oracle to certify the run, to `sitm_check::skew`, or
    /// to `sitm_obs::ForensicsSnapshot::from_history` for per-variable
    /// abort attribution.
    pub fn history(&self) -> Option<History> {
        self.shared.stm.history()
    }

    /// Everything observable about the server: `stm.*` runtime metrics
    /// plus the `serve.*` counters and per-op latency histograms.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.shared.stm.export_metrics(&mut reg);
        self.shared.metrics.export(&mut reg);
        reg
    }

    /// Keys ever created in the store.
    pub fn keys(&self) -> usize {
        self.shared.store.len()
    }

    /// Versions currently retained across all keys (one per key once
    /// quiescent and compacted).
    pub fn versions_retained(&self) -> usize {
        self.shared.store.versions_retained()
    }

    /// Runs one synchronous GC sweep (tests use this instead of
    /// waiting out [`ServerConfig::gc_interval`]); returns the number
    /// of versions reclaimed.
    pub fn compact_now(&self) -> u64 {
        let reclaimed = self.shared.store.compact_all();
        self.shared
            .metrics
            .gc_reclaimed
            .fetch_add(reclaimed, Ordering::Relaxed);
        self.shared.metrics.gc_ticks.fetch_add(1, Ordering::Relaxed);
        reclaimed
    }

    /// Stops every thread and closes every connection. Equivalent to
    /// dropping the server, but lets callers observe an orderly join.
    /// Idempotent: dropping the server afterwards (or racing a second
    /// shutdown) is a no-op.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // First caller wins; everyone else (including Drop after an
        // explicit shutdown) sees the swapped flag and returns.
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the accept loop: it re-checks `stop` per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Kick every reactor out of its wait; each aborts the open
        // interactive transactions it owns on the way out, then drops
        // its job senders.
        for w in &self.wakers {
            w.wake();
        }
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
        // With every job sender gone the workers drain what's queued
        // (in-flight pipelined TXNs still commit — their snapshots and
        // epoch slots are released normally) and exit on disconnect.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.gc_gate.1.notify_all();
        if let Some(h) = self.gc.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// --------------------------------------------------------------------------
// Accept thread.
// --------------------------------------------------------------------------

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    inboxes: &[Arc<Mutex<Vec<TcpStream>>>],
    wakers: &[Waker],
) {
    let mut next = 0usize;
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        shared.metrics.conns.fetch_add(1, Ordering::Relaxed);
        let idx = next % inboxes.len();
        next = next.wrapping_add(1);
        inboxes[idx]
            .lock()
            .expect("reactor inbox poisoned")
            .push(stream);
        wakers[idx].wake();
    }
}

// --------------------------------------------------------------------------
// Directory cache: key → TVar bindings are immutable once created, so
// every thread on the hot path may cache them privately and skip the
// sharded directory RwLocks entirely in steady state.
// --------------------------------------------------------------------------

/// Safety valve so a hostile key stream can't grow a cache without
/// bound; at this size the cache is simply rebuilt from the directory.
const DIR_CACHE_MAX: usize = 1 << 18;

type DirCache = HashMap<u64, TVar<Option<i64>>>;

fn cached_lookup(shared: &Shared, cache: &mut DirCache, key: u64) -> Option<TVar<Option<i64>>> {
    if let Some(var) = cache.get(&key) {
        return Some(var.clone());
    }
    let var = shared.store.lookup(key)?;
    if cache.len() >= DIR_CACHE_MAX {
        cache.clear();
    }
    cache.insert(key, var.clone());
    Some(var)
}

fn cached_get_or_create(shared: &Shared, cache: &mut DirCache, key: u64) -> TVar<Option<i64>> {
    if let Some(var) = cache.get(&key) {
        return var.clone();
    }
    let var = shared.store.get_or_create(key);
    if cache.len() >= DIR_CACHE_MAX {
        cache.clear();
    }
    cache.insert(key, var.clone());
    var
}

// --------------------------------------------------------------------------
// Reactor: the event loop.
// --------------------------------------------------------------------------

/// Socket reads per connection per readiness event. Level-triggered
/// polling re-reports anything left, so the cap only bounds how long
/// one connection can monopolize the loop.
const READS_PER_EVENT: usize = 8;

struct ReactorCtx<'a> {
    shared: &'a Shared,
    reactor: usize,
    poller: &'a Poller,
    job_tx: &'a [mpsc::Sender<ShardJob>],
    dir_cache: DirCache,
    /// Frames decoded since the last wakeup (for frames_per_wake).
    frames_this_wake: u64,
}

fn reactor_loop(
    shared: &Arc<Shared>,
    reactor: usize,
    poller: &Poller,
    inbox: &Mutex<Vec<TcpStream>>,
    comp_rx: &mpsc::Receiver<Completion>,
    job_tx: &[mpsc::Sender<ShardJob>],
) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut next_gen: u64 = 0;
    let mut ctx = ReactorCtx {
        shared,
        reactor,
        poller,
        job_tx,
        dir_cache: DirCache::new(),
        frames_this_wake: 0,
    };

    loop {
        if poller.wait(&mut events, None).is_err() {
            // An unusable poller means the loop can't continue; tear
            // down as if stopping (aborting open transactions below).
            break;
        }
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        shared
            .metrics
            .reactor_wakeups
            .fetch_add(1, Ordering::Relaxed);
        shared.metrics.events_per_wake.record(events.len() as u64);
        ctx.frames_this_wake = 0;

        // Adopt connections handed over by the accept thread.
        loop {
            // Take the lock briefly; never hold it across conn setup.
            let Some(stream) = inbox.lock().expect("reactor inbox poisoned").pop() else {
                break;
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            next_gen = next_gen.wrapping_add(1);
            let conn = Conn::new(stream, next_gen);
            if poller
                .add(&conn.stream, token as u64, conn.interest)
                .is_err()
            {
                free.push(token);
                continue;
            }
            conns[token] = Some(conn);
            touch(&mut conns, &mut touched, token);
        }

        // Drain pooled completions from the shard workers.
        while let Ok(c) = comp_rx.try_recv() {
            let token = c.token as usize;
            if let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) {
                if conn.gen == c.gen {
                    if let Some((kind, took)) = conn.window.fulfill(c.seq, c.resp) {
                        shared.metrics.record_latency(kind, took);
                    }
                    touch(&mut conns, &mut touched, token);
                }
            }
        }

        // Socket readiness: pull bytes in; writability is handled by
        // the advance pass (it always attempts a flush).
        for ev in &events {
            let token = ev.token as usize;
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if ev.readable && !conn.paused && !conn.read_closed && !conn.dead {
                read_socket(conn, &mut scratch);
            }
            touch(&mut conns, &mut touched, token);
        }

        // Advance every connection something happened to: decode,
        // execute, release replies, flush, retune interest or close.
        for token in std::mem::take(&mut touched) {
            let Some(mut conn) = conns.get_mut(token).and_then(Option::take) else {
                continue;
            };
            conn.dirty = false;
            if advance_conn(&mut ctx, &mut conn, token as u64) {
                conns[token] = Some(conn);
            } else {
                close_conn(shared, poller, conn, token as u64);
                free.push(token);
            }
        }
        shared.metrics.frames_per_wake.record(ctx.frames_this_wake);
    }

    // Teardown: abort the interactive transactions this loop owns so
    // their epoch slots and pinned versions are released, then drop
    // the job senders (workers exit once every reactor has).
    for (token, conn) in conns.into_iter().enumerate() {
        if let Some(conn) = conn {
            close_conn(shared, poller, conn, token as u64);
        }
    }
}

fn touch(conns: &mut [Option<Conn>], touched: &mut Vec<usize>, token: usize) {
    if let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) {
        if !conn.dirty {
            conn.dirty = true;
            touched.push(token);
        }
    }
}

fn close_conn(shared: &Shared, poller: &Poller, mut conn: Conn, token: u64) {
    let _ = poller.remove(&conn.stream, token);
    if let Some(tx) = conn.open.take() {
        shared.stm.abort(tx);
    }
    // The stream drops (and closes) here; in-flight completions for
    // this connection are discarded by the (token, gen) check.
}

/// Pulls whatever the socket has into the frame buffer.
fn read_socket(conn: &mut Conn, scratch: &mut [u8]) {
    for _ in 0..READS_PER_EVENT {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => {
                conn.frames.extend(&scratch[..n]);
                if n < scratch.len() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Runs one connection's state machine to quiescence: decode and
/// execute frames (bounded by the in-flight window and the write
/// buffer cap), release in-order replies, flush to the socket, then
/// retune poller interest. Returns `false` when the connection should
/// be closed.
fn advance_conn(ctx: &mut ReactorCtx<'_>, conn: &mut Conn, token: u64) -> bool {
    let shared = ctx.shared;
    loop {
        let mut progressed = false;

        // Decode + execute while the pipeline has room.
        while !conn.dead
            && conn.window.len() < shared.max_inflight
            && conn.out.len() < shared.write_buf_cap
        {
            match conn.frames.next_frame() {
                Ok(Some(frame)) => {
                    progressed = true;
                    ctx.frames_this_wake += 1;
                    process_frame(ctx, conn, token, &frame);
                }
                Ok(None) => break,
                Err(_) => {
                    // Unrecoverable framing (oversized or zero-length
                    // prefix): the stream can't be resynchronized.
                    // Serve out what's already in flight, then close.
                    conn.read_closed = true;
                    break;
                }
            }
        }

        // Release the contiguous ready prefix of the reply window.
        while conn.out.len() < shared.write_buf_cap {
            match conn.window.pop_ready() {
                Some(resp) => {
                    progressed = true;
                    conn.out.push_frame(&resp.encode());
                }
                None => break,
            }
        }

        // Flush as much as the socket will take.
        if !conn.out.is_empty() {
            match conn.out.write_to(&mut conn.stream) {
                Ok(drained) => progressed |= drained,
                Err(_) => conn.dead = true,
            }
        }

        if conn.dead || !progressed {
            break;
        }
    }

    if conn.dead {
        return false;
    }
    if conn.read_closed && conn.drained() {
        // Clean half-close fully served: nothing more can arrive
        // (reads stopped) and nothing is owed.
        return false;
    }

    // Backpressure bookkeeping + poller interest.
    let paused = conn.window.len() >= shared.max_inflight || conn.out.len() >= shared.write_buf_cap;
    if paused && !conn.paused {
        shared
            .metrics
            .backpressure_pauses
            .fetch_add(1, Ordering::Relaxed);
    }
    conn.paused = paused;
    let want = Interest {
        readable: !paused && !conn.read_closed,
        writable: !conn.out.is_empty(),
    };
    if want != conn.interest {
        if ctx.poller.modify(&conn.stream, token, want).is_err() {
            return false;
        }
        conn.interest = want;
    }
    true
}

/// Decodes and executes one frame. Interactive requests run inline;
/// `TXN` batches are dispatched to a shard worker and complete later.
fn process_frame(ctx: &mut ReactorCtx<'_>, conn: &mut Conn, token: u64, frame: &[u8]) {
    let shared = ctx.shared;
    shared.metrics.frames.fetch_add(1, Ordering::Relaxed);
    match Request::decode(frame) {
        Err(err) => {
            // The frame was well-delimited, only its payload was
            // garbage — report in order and keep serving.
            shared.metrics.malformed.fetch_add(1, Ordering::Relaxed);
            let seq = conn.window.push(OpKind::Malformed);
            conn.window.fulfill(
                seq,
                Response::Err {
                    code: ErrCode::Malformed,
                    detail: err.to_string(),
                },
            );
        }
        Ok(Request::Txn { ops }) => {
            if ops.is_empty() {
                let seq = conn.window.push(OpKind::Txn);
                conn.window.fulfill(
                    seq,
                    Response::Err {
                        code: ErrCode::EmptyTxn,
                        detail: "empty TXN batch".into(),
                    },
                );
                return;
            }
            // Route by first-key hash; any shard executes the batch
            // correctly (it runs a full STM transaction), routing only
            // decides which group-commit queue absorbs it.
            let shard = (ops[0].key() % ctx.job_tx.len() as u64) as usize;
            let seq = conn.window.push(OpKind::Txn);
            shared.metrics.inflight.record(conn.window.len() as u64);
            let job = ShardJob {
                reactor: ctx.reactor,
                token,
                gen: conn.gen,
                seq,
                ops,
            };
            if ctx.job_tx[shard].send(job).is_err() {
                // Only possible while the server is tearing down under
                // the client; the reply will never come, drop the conn.
                conn.dead = true;
            }
        }
        Ok(req) => {
            let kind = match req {
                Request::Begin => OpKind::Begin,
                Request::Read { .. } => OpKind::Read,
                Request::Write { .. } => OpKind::Write,
                Request::Commit => OpKind::Commit,
                Request::Abort => OpKind::Abort,
                Request::Stats => OpKind::Stats,
                Request::Txn { .. } => unreachable!("handled above"),
            };
            let seq = conn.window.push(kind);
            let resp = exec_inline(shared, &mut ctx.dir_cache, req, &mut conn.open);
            if let Some((kind, took)) = conn.window.fulfill(seq, resp) {
                shared.metrics.record_latency(kind, took);
            }
        }
    }
}

fn conflict_to_wire(c: Conflict) -> WireConflict {
    match c {
        Conflict::WriteWrite => WireConflict::WriteWrite,
        Conflict::ReadValidation => WireConflict::ReadValidation,
    }
}

/// Executes one interactive request on the reactor thread.
fn exec_inline(
    shared: &Shared,
    dir_cache: &mut DirCache,
    req: Request,
    open: &mut Option<Tx>,
) -> Response {
    match req {
        Request::Begin => {
            if open.is_some() {
                Response::Err {
                    code: ErrCode::TxnOpen,
                    detail: "transaction already open on this connection".into(),
                }
            } else {
                *open = Some(shared.stm.begin());
                Response::Ok
            }
        }
        Request::Read { key } => match open.as_mut() {
            Some(tx) => match cached_lookup(shared, dir_cache, key) {
                // Never-created key: reads `None` at every snapshot.
                None => Response::Value { value: None },
                Some(var) => match tx.read(&var) {
                    Ok(value) => Response::Value { value },
                    Err(StmError::Conflict(c)) => {
                        // `Tx::read` returns `Ok` today (DESIGN.md §14),
                        // but its type allows a conflict: if one comes,
                        // the transaction is dead, roll it back.
                        let tx = open.take().expect("checked above");
                        shared.stm.abort(tx);
                        Response::Aborted {
                            conflict: conflict_to_wire(c),
                        }
                    }
                },
            },
            None => {
                // One-shot snapshot read.
                let value = cached_lookup(shared, dir_cache, key)
                    .map(|var| shared.stm.atomically(|tx| tx.read(&var)))
                    .unwrap_or(None);
                Response::Value { value }
            }
        },
        Request::Write { key, value } => {
            let var = cached_get_or_create(shared, dir_cache, key);
            match open.as_mut() {
                Some(tx) => {
                    tx.write(&var, Some(value));
                    Response::Ok
                }
                None => {
                    // One-shot auto-committed write (blind, conflict-free).
                    shared.stm.atomically(|tx| {
                        tx.write(&var, Some(value));
                        Ok(())
                    });
                    Response::Ok
                }
            }
        }
        Request::Commit => match open.take() {
            None => Response::Err {
                code: ErrCode::NoTxn,
                detail: "no open transaction to commit".into(),
            },
            Some(tx) => match shared.stm.commit(tx) {
                Ok(ts) => Response::Committed {
                    commit_ts: ts.unwrap_or(0),
                },
                Err(c) => Response::Aborted {
                    conflict: conflict_to_wire(c),
                },
            },
        },
        Request::Abort => match open.take() {
            None => Response::Err {
                code: ErrCode::NoTxn,
                detail: "no open transaction to abort".into(),
            },
            Some(tx) => {
                shared.stm.abort(tx);
                Response::Ok
            }
        },
        Request::Stats => {
            let stats = shared.stm.stats();
            Response::Stats(WireStats {
                commits: stats.commits(),
                aborts: stats.aborts(),
                versions_retired: stats.versions_retired(),
                gc_reclaimed: shared.metrics.gc_reclaimed.load(Ordering::Relaxed),
                gc_ticks: shared.metrics.gc_ticks.load(Ordering::Relaxed),
                live_snapshots: live_snapshots() as u64,
                keys: shared.store.len() as u64,
            })
        }
        Request::Txn { .. } => unreachable!("TXN is dispatched, never inline"),
    }
}

// --------------------------------------------------------------------------
// Group-commit shard workers.
// --------------------------------------------------------------------------

/// Why a worker stopped collecting and committed its batch.
enum FlushCause {
    /// The packing window filled (`batch_max`).
    Size,
    /// `batch_deadline` elapsed with the window partly full.
    Deadline,
    /// The queue drained (deadline disabled).
    Drain,
}

fn shard_worker(
    shared: &Arc<Shared>,
    rx: &mpsc::Receiver<ShardJob>,
    comp: &[mpsc::Sender<Completion>],
    wakers: &[Waker],
) {
    let mut dir_cache = DirCache::new();
    while let Ok(first) = rx.recv() {
        // Batched intake: one blocking recv, then fill the packing
        // window — greedily when no deadline is set (flush the moment
        // the queue drains), or waiting out `batch_deadline` for more
        // work when it is (latency-bounded group commit).
        let mut batch = vec![first];
        let mut cause = FlushCause::Drain;
        if shared.batch_deadline.is_zero() {
            while batch.len() < shared.batch_max {
                match rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
        } else {
            let deadline = Instant::now() + shared.batch_deadline;
            while batch.len() < shared.batch_max {
                let now = Instant::now();
                if now >= deadline {
                    cause = FlushCause::Deadline;
                    break;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(job) => batch.push(job),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        cause = FlushCause::Deadline;
                        break;
                    }
                    // Run what we have; the outer recv() exits next.
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        if batch.len() >= shared.batch_max {
            cause = FlushCause::Size;
        }
        let cause_counter = match cause {
            FlushCause::Size => &shared.metrics.flush_size,
            FlushCause::Deadline => &shared.metrics.flush_deadline,
            FlushCause::Drain => &shared.metrics.flush_drain,
        };
        cause_counter.fetch_add(1, Ordering::Relaxed);
        shared.metrics.batch_size.record(batch.len() as u64);

        // Greedy disjoint-footprint packing: requests that touch no
        // common key go into one merged transaction. Disjointness means
        // the merged execution is byte-identical to running them
        // serially at a single commit point, so SI is preserved.
        let mut groups: Vec<(HashSet<u64>, Vec<ShardJob>)> = Vec::new();
        'pack: for job in batch {
            let footprint: HashSet<u64> = job.ops.iter().map(TxnOp::key).collect();
            for (group_keys, group_jobs) in &mut groups {
                if group_keys.is_disjoint(&footprint) {
                    group_keys.extend(&footprint);
                    group_jobs.push(job);
                    continue 'pack;
                }
            }
            groups.push((footprint, vec![job]));
        }

        for (_, jobs) in groups {
            shared.metrics.group_batches.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .group_txns
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            run_group(shared, &mut dir_cache, &jobs, comp, wakers);
        }
    }
}

/// Executes a disjoint group of `TXN` batches as one STM transaction,
/// retrying on write-write conflicts (against interactive commits or
/// other shards' workers) until it lands, then routes each reply back
/// to its connection's reactor over the pooled completion channel.
fn run_group(
    shared: &Shared,
    dir_cache: &mut DirCache,
    jobs: &[ShardJob],
    comp: &[mpsc::Sender<Completion>],
    wakers: &[Waker],
) {
    // Resolve directory entries once, outside the retry loop. `Get` on
    // a never-created key stays unresolved and reads `None`; mutating
    // ops materialize the key.
    type ResolvedOp<'a> = (&'a TxnOp, Option<TVar<Option<i64>>>);
    let resolved: Vec<Vec<ResolvedOp<'_>>> = jobs
        .iter()
        .map(|job| {
            job.ops
                .iter()
                .map(|op| {
                    let var = match op {
                        TxnOp::Get { key } => cached_lookup(shared, dir_cache, *key),
                        TxnOp::Put { key, .. } | TxnOp::Add { key, .. } | TxnOp::Del { key } => {
                            Some(cached_get_or_create(shared, dir_cache, *key))
                        }
                    };
                    (op, var)
                })
                .collect()
        })
        .collect();

    let mut attempt = 0u32;
    loop {
        let mut tx = shared.stm.begin();
        let mut replies: Vec<Vec<Option<i64>>> = Vec::with_capacity(jobs.len());
        let mut failed = None;
        'exec: for ops in &resolved {
            let mut reads = Vec::new();
            for (op, var) in ops {
                let outcome = match (op, var) {
                    (TxnOp::Get { .. }, None) => {
                        reads.push(None);
                        Ok(())
                    }
                    (TxnOp::Get { .. }, Some(var)) => tx.read(var).map(|v| reads.push(v)),
                    (TxnOp::Put { value, .. }, Some(var)) => {
                        tx.write(var, Some(*value));
                        Ok(())
                    }
                    (TxnOp::Add { delta, .. }, Some(var)) => tx.read(var).map(|cur| {
                        tx.write(var, Some(cur.unwrap_or(0).wrapping_add(*delta)));
                    }),
                    (TxnOp::Del { .. }, Some(var)) => {
                        tx.write(var, None);
                        Ok(())
                    }
                    // Mutating ops always resolve a var.
                    (_, None) => Ok(()),
                };
                if let Err(StmError::Conflict(c)) = outcome {
                    failed = Some(c);
                    break 'exec;
                }
            }
            replies.push(reads);
        }

        if failed.is_some() {
            // `Tx::read` returns `Ok` today, but its type allows a
            // conflict, so stay total: the attempt is recorded and
            // rerun on a fresh snapshot.
            shared.stm.abort(tx);
        } else if let Ok(ts) = shared.stm.commit(tx) {
            let commit_ts = ts.unwrap_or(0);
            let mut woken: Vec<usize> = Vec::with_capacity(1);
            for (job, reads) in jobs.iter().zip(replies) {
                // The reactor (or the whole connection) may be gone;
                // stale deliveries are dropped by the (token, gen)
                // check on the other side.
                let sent = comp[job.reactor].send(Completion {
                    token: job.token,
                    gen: job.gen,
                    seq: job.seq,
                    resp: Response::TxnResult { reads, commit_ts },
                });
                if sent.is_ok() && !woken.contains(&job.reactor) {
                    woken.push(job.reactor);
                }
            }
            for idx in woken {
                wakers[idx].wake();
            }
            return;
        }

        shared.metrics.group_retries.fetch_add(1, Ordering::Relaxed);
        attempt = attempt.saturating_add(1);
        if attempt > 8 {
            thread::sleep(Duration::from_micros(50));
        } else {
            thread::yield_now();
        }
    }
}

// --------------------------------------------------------------------------
// GC tick.
// --------------------------------------------------------------------------

fn gc_loop(shared: &Arc<Shared>) {
    let (lock, cvar) = &shared.gc_gate;
    let mut guard = lock.lock().expect("gc gate poisoned");
    loop {
        let (next, _timeout) = cvar
            .wait_timeout(guard, shared.gc_interval)
            .expect("gc gate poisoned");
        guard = next;
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let reclaimed = shared.store.compact_all();
        shared
            .metrics
            .gc_reclaimed
            .fetch_add(reclaimed, Ordering::Relaxed);
        shared.metrics.gc_ticks.fetch_add(1, Ordering::Relaxed);
    }
}
