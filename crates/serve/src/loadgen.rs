//! Deterministic load generation for the KV server, in closed-loop
//! (one request in flight per connection) and pipelined open-loop
//! (a sliding window of [`LoadConfig::pipeline`] requests in flight)
//! modes.
//!
//! Each simulated client owns one connection and one seeded
//! [`SmallRng`]; the op *sequence* each client issues is a pure
//! function of `(seed, client index)`, so two runs with the same
//! [`LoadConfig`] issue byte-identical request streams (verified by
//! [`LoadReport::checksum`]) — only timing differs. Pipelining does
//! not change the stream either: the window alters *when* frames hit
//! the wire, never which frames or their order, so the checksum
//! contract is mode-independent. The workload is the bank: funded
//! keys, two-key `Add` transfers and two-key `Get` audits, so the sum
//! over all keys is invariant and every run can be checked for
//! conservation and certified by the sitm-check oracle.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::thread;
use std::time::Instant;

use sitm_obs::SmallRng;

use crate::client::{Client, ClientError};
use crate::server::{Server, ServerConfig};
use crate::wire::{Request, Response, TxnOp};

/// Funding installed into every key before the measured phase.
pub const FUND_PER_KEY: i64 = 1_000;

/// Shape of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Closed-loop operations (TXN batches) per client.
    pub ops_per_client: usize,
    /// Percent of ops that are two-key read audits (the rest are
    /// two-key transfers).
    pub read_pct: u8,
    /// Key-space size.
    pub keys: u64,
    /// Percent of key picks that land in the hot subset (skew).
    pub hot_pct: u8,
    /// Size of the hot subset (must be ≤ `keys`).
    pub hot_keys: u64,
    /// Base RNG seed; client `i` draws from `seed + i`.
    pub seed: u64,
    /// Requests each client keeps in flight. `0` or `1` is the
    /// classic closed loop; larger values pipeline a sliding window
    /// over the connection (latency samples then include queueing
    /// time, as an open-loop client would experience).
    pub pipeline: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            ops_per_client: 250,
            read_pct: 50,
            keys: 256,
            hot_pct: 80,
            hot_keys: 16,
            seed: 42,
            pipeline: 1,
        }
    }
}

/// What a run did and how it went.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Total TXN batches issued (clients × ops).
    pub ops_total: u64,
    /// Wall-clock duration of the measured phase, nanoseconds.
    pub wall_ns: u64,
    /// Per-op round-trip latencies, nanoseconds, sorted ascending.
    pub latencies_ns: Vec<u64>,
    /// Order-independent digest of every request frame issued; equal
    /// seeds and configs must produce equal checksums (the
    /// determinism probe).
    pub checksum: u64,
    /// Sum over all keys after quiescence.
    pub final_total: i64,
    /// What that sum must be (`keys × FUND_PER_KEY`).
    pub expected_total: i64,
}

impl LoadReport {
    /// Whether the bank's invariant held.
    pub fn conserved(&self) -> bool {
        self.final_total == self.expected_total
    }
}

/// Exact percentile over an ascending-sorted sample set (nearest-rank
/// method); 0 on an empty set.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// FNV-1a over a byte slice, folded into `acc`.
fn fnv1a(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

fn pick_key(rng: &mut SmallRng, cfg: &LoadConfig) -> u64 {
    if cfg.hot_keys > 0 && u64::from(cfg.hot_pct) > rng.gen_range(0..100u64) {
        rng.gen_range(0..cfg.hot_keys.min(cfg.keys))
    } else {
        rng.gen_range(0..cfg.keys)
    }
}

/// The next op batch for a client — a pure function of the RNG state.
fn gen_ops(rng: &mut SmallRng, cfg: &LoadConfig) -> Vec<TxnOp> {
    let a = pick_key(rng, cfg);
    let mut b = pick_key(rng, cfg);
    if b == a {
        b = (a + 1) % cfg.keys.max(1);
    }
    if u64::from(cfg.read_pct) > rng.gen_range(0..100u64) {
        vec![TxnOp::Get { key: a }, TxnOp::Get { key: b }]
    } else {
        let amount = rng.gen_range(1..=10i64);
        vec![
            TxnOp::Add {
                key: a,
                delta: -amount,
            },
            TxnOp::Add {
                key: b,
                delta: amount,
            },
        ]
    }
}

/// Installs [`FUND_PER_KEY`] into every key (chunked batches so no
/// single frame gets huge).
///
/// # Errors
///
/// Propagates client transport failures.
pub fn fund(client: &mut Client, keys: u64) -> Result<(), ClientError> {
    for chunk in (0..keys).collect::<Vec<_>>().chunks(128) {
        let ops = chunk
            .iter()
            .map(|&key| TxnOp::Add {
                key,
                delta: FUND_PER_KEY,
            })
            .collect();
        client.txn(ops)?;
    }
    Ok(())
}

/// Sums every key's balance in one consistent pass (chunked `Get`
/// batches each read one snapshot; the store must be quiescent for the
/// chunks to compose into one total).
///
/// # Errors
///
/// Propagates client transport failures.
pub fn audit_total(client: &mut Client, keys: u64) -> Result<i64, ClientError> {
    let mut total = 0i64;
    for chunk in (0..keys).collect::<Vec<_>>().chunks(128) {
        let ops = chunk.iter().map(|&key| TxnOp::Get { key }).collect();
        let (reads, _ts) = client.txn(ops)?;
        total += reads.iter().flatten().sum::<i64>();
    }
    Ok(total)
}

/// Drives `cfg.clients` connections against a live server at `addr`.
/// The store must already be funded; this runs only the measured
/// phase.
///
/// # Errors
///
/// Returns the first client's failure (connection refused, server
/// died mid-run).
pub fn run_against(addr: SocketAddr, cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    // All clients connect and seed their RNGs before the clock starts:
    // the barrier keeps thread-spawn and TCP-connect jitter out of the
    // measured phase (at quick scale that overhead is a visible
    // fraction of a multi-hundred-k-txns/s run).
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(cfg.clients + 1));
    let mut handles = Vec::with_capacity(cfg.clients);
    for client_idx in 0..cfg.clients {
        let cfg = cfg.clone();
        let barrier = std::sync::Arc::clone(&barrier);
        handles.push(thread::spawn(
            move || -> Result<(Vec<u64>, u64), ClientError> {
                // Connect before the barrier but defer the error past
                // it: every party must reach the wait, or one refused
                // connect would strand the main thread (and every
                // other client) at its barrier.wait() forever.
                let connected = Client::connect(addr);
                let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(client_idx as u64));
                barrier.wait();
                let mut client = connected?;
                let mut latencies = Vec::with_capacity(cfg.ops_per_client);
                let mut checksum = 0xcbf2_9ce4_8422_2325u64;
                let window = cfg.pipeline.max(1);
                if window <= 1 {
                    for _ in 0..cfg.ops_per_client {
                        let ops = gen_ops(&mut rng, &cfg);
                        checksum = fnv1a(checksum, &Request::Txn { ops: ops.clone() }.encode());
                        let op_start = Instant::now();
                        client.txn(ops)?;
                        latencies.push(op_start.elapsed().as_nanos() as u64);
                    }
                } else {
                    // Sliding window: keep `window` requests in flight,
                    // collecting responses in request order. The op
                    // sequence (and so the checksum) is identical to
                    // the closed loop's — only pacing changes.
                    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
                    let mut issued = 0usize;
                    let mut completed = 0usize;
                    while completed < cfg.ops_per_client {
                        while issued < cfg.ops_per_client && sent_at.len() < window {
                            let ops = gen_ops(&mut rng, &cfg);
                            let req = Request::Txn { ops };
                            checksum = fnv1a(checksum, &req.encode());
                            client.send(&req)?;
                            sent_at.push_back(Instant::now());
                            issued += 1;
                        }
                        client.flush()?;
                        match client.recv()? {
                            Response::TxnResult { .. } => {}
                            Response::Err { code, detail } => {
                                return Err(ClientError::Refused { code, detail })
                            }
                            other => return Err(ClientError::Unexpected(other)),
                        }
                        let started = sent_at.pop_front().expect("response without request");
                        latencies.push(started.elapsed().as_nanos() as u64);
                        completed += 1;
                    }
                }
                Ok((latencies, checksum))
            },
        ));
    }
    barrier.wait();
    let started = Instant::now();

    let mut latencies = Vec::with_capacity(cfg.clients * cfg.ops_per_client);
    let mut checksum = 0u64;
    for handle in handles {
        let (lat, sum) = handle
            .join()
            .map_err(|_| ClientError::Io(std::io::Error::other("load client panicked")))??;
        latencies.extend(lat);
        // Order-independent combine: join order is fixed anyway, but
        // keep the digest robust to it.
        checksum = checksum.wrapping_add(sum);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    latencies.sort_unstable();

    let mut auditor = Client::connect(addr)?;
    let final_total = audit_total(&mut auditor, cfg.keys)?;

    Ok(LoadReport {
        ops_total: (cfg.clients * cfg.ops_per_client) as u64,
        wall_ns,
        latencies_ns: latencies,
        checksum,
        final_total,
        expected_total: cfg.keys as i64 * FUND_PER_KEY,
    })
}

/// Starts an in-process server, funds the key space, runs the measured
/// phase, and returns both the report and the still-running server (so
/// callers can inspect stats and history before shutdown).
///
/// # Errors
///
/// Propagates server-start and client failures as [`ClientError`].
pub fn run_loopback(
    server_cfg: ServerConfig,
    load_cfg: &LoadConfig,
) -> Result<(Server, LoadReport), ClientError> {
    let server = Server::start(server_cfg)?;
    let mut funder = Client::connect(server.addr())?;
    fund(&mut funder, load_cfg.keys)?;
    drop(funder);
    let report = run_against(server.addr(), load_cfg)?;
    Ok((server, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 50.0), 20);
        assert_eq!(percentile(&s, 99.0), 40);
        assert_eq!(percentile(&s, 100.0), 40);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn gen_ops_is_deterministic() {
        let cfg = LoadConfig::default();
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(gen_ops(&mut a, &cfg), gen_ops(&mut b, &cfg));
        }
    }

    #[test]
    fn transfers_are_two_distinct_keys_netting_zero() {
        let cfg = LoadConfig {
            read_pct: 0,
            ..LoadConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let ops = gen_ops(&mut rng, &cfg);
            let [TxnOp::Add { key: a, delta: da }, TxnOp::Add { key: b, delta: db }] = ops[..]
            else {
                panic!("transfer shape");
            };
            assert_ne!(a, b);
            assert_eq!(da + db, 0);
        }
    }
}
