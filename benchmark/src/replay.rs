//! Layer replay: the same seeded request stream pushed through each
//! layer's public functions in-process, with no sockets and no
//! server, to get the per-call cost of each layer.
//!
//! Every row is the median of [`REPS`] timed repetitions. Rows that
//! time single calls inside a transaction read the clock around the
//! call and take the clock's own cost off.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sitm_obs::AtomicHistogram;
use sitm_serve::reactor::{Interest, Poller};
use sitm_serve::wire::write_frame;
use sitm_serve::{FrameBuffer, Request, Response, Store};
use sitm_stm::{Stm, TVar, Tx};

use crate::gen::{OpStream, FUND_PER_KEY};
use crate::serve::{interactive_frames, one_shot, Mode, ServeWorkload};
use crate::spec::MetricSet;
use crate::stats::median;

/// Timed repetitions per row.
const REPS: usize = 5;

/// Operations of the workload's stream that are replayed.
const REPLAYED_OPS: usize = 20_000;

/// Variables in the stm rows; reads and compactions are averaged over
/// them.
const VARS: usize = 512;

/// The frames a workload's stream puts on the wire, request and reply
/// side by side, and the keys they touch.
pub struct Frames {
    exchanges: Vec<(Request, Response)>,
    keys: Vec<u64>,
    ops: usize,
}

pub fn frames_of(w: ServeWorkload, seed: u64) -> Frames {
    let mut stream = OpStream::new(seed, w.name, 0, w.mix);
    let mut frames = Frames {
        exchanges: Vec::new(),
        keys: Vec::new(),
        ops: REPLAYED_OPS,
    };
    for ts in 0..REPLAYED_OPS as u64 {
        let op = stream.next_op();
        frames.keys.extend([op.a, op.b]);
        if w.mode != Mode::Interactive {
            let reads = if op.transfer {
                vec![]
            } else {
                vec![Some(FUND_PER_KEY); 2]
            };
            let reply = Response::TxnResult {
                reads,
                commit_ts: ts + 1,
            };
            frames.exchanges.push((one_shot(op), reply));
            continue;
        }
        for request in interactive_frames(op, FUND_PER_KEY, FUND_PER_KEY) {
            let reply = match request {
                Request::Read { .. } => Response::Value {
                    value: Some(FUND_PER_KEY),
                },
                Request::Commit => Response::Committed { commit_ts: ts + 1 },
                _ => Response::Ok,
            };
            frames.exchanges.push((request, reply));
        }
    }
    frames
}

/// Median over [`REPS`] of `pass`'s wall time, divided by `items`.
fn ns_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            pass();
            started.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&reps)
}

/// `wire`: encode and decode of both directions, and reassembly of
/// the request frames from 4 KiB reads.
pub fn wire(frames: &Frames, m: &mut MetricSet) {
    let n = frames.exchanges.len();
    let requests: Vec<Vec<u8>> = frames.exchanges.iter().map(|(q, _)| q.encode()).collect();
    let replies: Vec<Vec<u8>> = frames.exchanges.iter().map(|(_, r)| r.encode()).collect();
    m.set(
        "wire.req_encode_ns",
        ns_per_item(n, || {
            for (request, _) in &frames.exchanges {
                black_box(request.encode());
            }
        }),
    );
    m.set(
        "wire.resp_encode_ns",
        ns_per_item(n, || {
            for (_, reply) in &frames.exchanges {
                black_box(reply.encode());
            }
        }),
    );
    m.set(
        "wire.req_decode_ns",
        ns_per_item(n, || {
            for bytes in &requests {
                black_box(Request::decode(bytes).expect("encoded by this program"));
            }
        }),
    );
    m.set(
        "wire.resp_decode_ns",
        ns_per_item(n, || {
            for bytes in &replies {
                black_box(Response::decode(bytes).expect("encoded by this program"));
            }
        }),
    );
    let mut stream = Vec::new();
    for body in &requests {
        write_frame(&mut stream, body).expect("writing to a Vec cannot fail");
    }
    m.set(
        "wire.framebuf_ns",
        ns_per_item(n, || {
            let mut buffer = FrameBuffer::new();
            let mut seen = 0;
            for chunk in stream.chunks(4096) {
                buffer.extend(chunk);
                while let Some(frame) = buffer.next_frame().expect("well-formed stream") {
                    black_box(frame);
                    seen += 1;
                }
            }
            assert_eq!(seen, n, "every frame comes back out");
        }),
    );
    let bytes: usize = requests.iter().chain(&replies).map(|b| 4 + b.len()).sum();
    m.set("wire.bytes_per_op", bytes as f64 / frames.ops as f64);
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// A connected loopback pair with Nagle off, as the server and its
/// clients set theirs.
fn loopback_pair() -> Result<(TcpStream, TcpStream), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind", e))?;
    let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
    let near = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    let (far, _) = listener.accept().map_err(|e| io_err("accept", e))?;
    for stream in [&near, &far] {
        stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
    }
    Ok((near, far))
}

/// `reactor` and the host's floor under it: one waker hop between two
/// threads, a `wait` that finds its event ready, and a plain
/// std-socket echo with no server at all.
pub fn reactor(m: &mut MetricSet) -> Result<(), String> {
    const HOPS: usize = 20_000;
    const WAITS: usize = 100_000;
    // A framed two-op TXN request.
    const ECHO_BYTES: usize = 43;

    let here = Poller::new().map_err(|e| io_err("poller", e))?;
    let there = Poller::new().map_err(|e| io_err("poller", e))?;
    let (wake_here, wake_there) = (here.waker(), there.waker());
    let stop = AtomicBool::new(false);
    let mut hop_ns = Vec::with_capacity(HOPS);
    std::thread::scope(|scope| {
        let stop = &stop;
        // A poller is owned by the one thread that waits on it.
        scope.spawn(move || {
            let mut events = Vec::new();
            while there.wait(&mut events, None).is_ok() && !stop.load(Ordering::Acquire) {
                wake_here.wake();
            }
        });
        let mut events = Vec::new();
        for _ in 0..HOPS {
            let started = Instant::now();
            wake_there.wake();
            here.wait(&mut events, None).expect("epoll_wait");
            // There and back is two hops.
            hop_ns.push(started.elapsed().as_nanos() as u64 / 2);
        }
        stop.store(true, Ordering::Release);
        wake_there.wake();
    });
    m.set("reactor.wake_hop_ns", crate::stats::median_u64(&hop_ns));

    let (mut near, far) = loopback_pair()?;
    far.set_nonblocking(true)
        .map_err(|e| io_err("nonblocking", e))?;
    near.write_all(&[1]).map_err(|e| io_err("write", e))?;
    here.add(&far, 1, Interest::READ)
        .map_err(|e| io_err("add", e))?;
    let mut events = Vec::new();
    // Level-triggered and never read: every wait finds it ready.
    here.wait(&mut events, None)
        .map_err(|e| io_err("wait", e))?;
    m.set(
        "reactor.wait_ready_ns",
        ns_per_item(WAITS, || {
            for _ in 0..WAITS {
                here.wait(&mut events, Some(Duration::ZERO))
                    .expect("epoll_wait");
                assert!(!events.is_empty(), "the byte is still unread");
            }
        }),
    );
    here.remove(&far, 1).map_err(|e| io_err("remove", e))?;

    let (near, mut far) = loopback_pair()?;
    let mut rtt_ns = Vec::with_capacity(HOPS);
    std::thread::scope(|scope| -> Result<(), String> {
        // Owned here so that any way out of this closure closes it,
        // which ends the echo thread's read.
        let mut near = near;
        scope.spawn(move || {
            let mut buf = [0u8; ECHO_BYTES];
            while far.read_exact(&mut buf).is_ok() && far.write_all(&buf).is_ok() {}
        });
        let mut buf = [7u8; ECHO_BYTES];
        for _ in 0..HOPS {
            let started = Instant::now();
            near.write_all(&buf).map_err(|e| io_err("echo write", e))?;
            near.read_exact(&mut buf)
                .map_err(|e| io_err("echo read", e))?;
            rtt_ns.push(started.elapsed().as_nanos() as u64);
        }
        Ok(())
    })?;
    m.set("loopback.rtt_ns", crate::stats::median_u64(&rtt_ns));
    Ok(())
}

/// `store`: directory lookups of the stream's keys and a GC sweep
/// over a quiescent 4096-key store.
pub fn store(frames: &Frames, m: &mut MetricSet) {
    let store = Store::new();
    let stm = Stm::snapshot();
    let key_space = frames.keys.iter().max().map_or(0, |k| k + 1);
    for key in 0..key_space {
        let var = store.get_or_create(key);
        stm.atomically(|tx| {
            tx.write(&var, Some(FUND_PER_KEY));
            Ok(())
        });
    }
    let n = frames.keys.len();
    m.set(
        "store.lookup_ns",
        ns_per_item(n, || {
            for &key in &frames.keys {
                black_box(store.lookup(key));
            }
        }),
    );
    m.set(
        "store.get_or_create_ns",
        ns_per_item(n, || {
            for &key in &frames.keys {
                black_box(store.get_or_create(key));
            }
        }),
    );
    let sweep_ns = ns_per_item(1, || {
        black_box(store.compact_all());
    });
    m.set("store.compact_all_ms", sweep_ns / 1e6);
}

/// What two back-to-back clock reads cost; taken off every interval
/// timed around a single call.
fn clock_ns() -> f64 {
    let samples: Vec<u64> = (0..10_000)
        .map(|_| {
            let started = Instant::now();
            black_box(Instant::now()).duration_since(started).as_nanos() as u64
        })
        .collect();
    crate::stats::median_u64(&samples)
}

/// Median `[begin, body, commit]` times of a transaction that reads
/// `width` variables and, with `writing`, writes them back.
fn txn_phases(stm: &Stm, vars: &[TVar<i64>], width: usize, writing: bool, clock: f64) -> [f64; 3] {
    const TXNS: usize = 20_000;
    let mut phases = [const { Vec::new() }; 3];
    for i in 0..TXNS {
        let window = &vars[(i * width) % (vars.len() - width + 1)..][..width];
        let t0 = Instant::now();
        let mut tx = stm.begin();
        let t1 = Instant::now();
        for var in window {
            let value = tx
                .read(var)
                .expect("dynamic retention never refuses a read");
            if writing {
                tx.write(var, value + 1);
            }
        }
        let t2 = Instant::now();
        stm.commit(tx)
            .expect("one thread cannot conflict with itself");
        let t3 = Instant::now();
        for (samples, (from, to)) in phases.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
            samples.push((to - from).as_nanos() as u64);
        }
    }
    phases.map(|samples| (crate::stats::median_u64(&samples) - clock).max(0.0))
}

/// [`VARS`] variables whose chains are `depth` versions deep, and the
/// parked transaction whose snapshot keeps them that deep.
fn deep_chains(depth: usize) -> (Stm, Vec<TVar<i64>>, Tx) {
    let stm = Stm::snapshot();
    let vars: Vec<TVar<i64>> = (0..VARS).map(|_| TVar::new(0)).collect();
    let parked = stm.begin();
    for version in 1..depth as i64 {
        for var in &vars {
            stm.atomically(|tx| {
                tx.write(var, version);
                Ok(())
            });
        }
    }
    assert_eq!(
        vars[0].version_count(),
        depth,
        "the parked snapshot pins the chain"
    );
    (stm, vars, parked)
}

/// `stm`: begin, read at four chain depths, write, commit at two
/// write-set sizes, read-only commit, and compaction of a deep chain.
pub fn stm(m: &mut MetricSet) {
    let clock = clock_ns();
    let stm = Stm::snapshot();
    let vars: Vec<TVar<i64>> = (0..VARS).map(|_| TVar::new(0)).collect();
    let audit = txn_phases(&stm, &vars, 2, false, clock);
    let transfer = txn_phases(&stm, &vars, 2, true, clock);
    let group = txn_phases(&stm, &vars, 64, true, clock);
    m.set("stm.begin_ns", transfer[0]);
    m.set("stm.write_ns", ((transfer[1] - audit[1]) / 2.0).max(0.0));
    m.set("stm.commit_ns.w2", transfer[2]);
    m.set("stm.commit_ns.w64", group[2]);
    m.set("stm.commit_ro_ns", audit[2]);

    for depth in [1usize, 8, 64, 512] {
        let (stm, vars, mut parked) = deep_chains(depth);
        // The parked snapshot predates every later version, so each
        // read has the whole chain above it.
        let per_read = ns_per_item(VARS * 20, || {
            for _ in 0..20 {
                for var in &vars {
                    black_box(parked.read(var).expect("pinned versions stay readable"));
                }
            }
        });
        m.set(&format!("stm.read_ns.d{depth}"), per_read);
        stm.abort(parked);
    }

    let compactions: Vec<f64> = (0..REPS)
        .map(|_| {
            let (stm, vars, parked) = deep_chains(64);
            stm.abort(parked);
            let started = Instant::now();
            let reclaimed: u64 = vars.iter().map(TVar::compact).sum();
            let ns = started.elapsed().as_nanos() as f64 / VARS as f64;
            assert_eq!(reclaimed, (VARS * 63) as u64, "nothing pins the chains now");
            ns
        })
        .collect();
    m.set("stm.compact_ns.d64", median(&compactions));
}

/// `obs`: the unit cost of one histogram stamp.
pub fn obs(m: &mut MetricSet) {
    const RECORDS: usize = 1_000_000;
    let histogram = AtomicHistogram::new();
    m.set(
        "obs.hist_record_ns",
        ns_per_item(RECORDS, || {
            for value in 0..RECORDS as u64 {
                histogram.record(black_box(value));
            }
        }),
    );
}

fn wire_per_exchange(m: &MetricSet) -> f64 {
    [
        "wire.req_encode_ns",
        "wire.req_decode_ns",
        "wire.resp_encode_ns",
        "wire.resp_decode_ns",
        "wire.framebuf_ns",
    ]
    .iter()
    .map(|name| m.get(name).unwrap_or(0.0))
    .sum()
}

/// The blocking chain of one closed-loop one-shot transaction, from
/// the replayed layer costs: the socket round trip, the wire work of
/// one exchange, the two waker hops (reactor to worker and back), and
/// the transaction itself (half audits, half transfers).
pub fn one_shot_budget_ns(m: &MetricSet) -> f64 {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let audit = get("stm.begin_ns") + 2.0 * get("stm.read_ns.d1") + get("stm.commit_ro_ns");
    let transfer = get("stm.begin_ns")
        + 2.0 * (get("stm.read_ns.d1") + get("stm.write_ns"))
        + get("stm.commit_ns.w2");
    get("loopback.rtt_ns")
        + wire_per_exchange(m)
        + 2.0 * get("reactor.wake_hop_ns")
        + (audit + transfer) / 2.0
}

/// The blocking chain of one interactive transaction: five exchanges
/// on average (four for an audit, six for a transfer), each a socket
/// round trip plus wire work plus the server's inline execution.
pub fn interactive_budget_ns(m: &MetricSet) -> f64 {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let inline = get("server.inline.begin_ns")
        + 2.0 * get("server.inline.read_ns")
        + get("server.inline.write_ns")
        + get("server.inline.commit_ns");
    5.0 * (get("loopback.rtt_ns") + wire_per_exchange(m)) + inline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::WORKLOADS;

    #[test]
    fn one_shot_streams_replay_one_exchange_per_op() {
        let frames = frames_of(WORKLOADS[0], 42);
        assert_eq!(frames.exchanges.len(), REPLAYED_OPS);
        assert_eq!(frames.keys.len(), 2 * REPLAYED_OPS);
        let (audits, transfers): (Vec<_>, Vec<_>) = frames.exchanges.iter().partition(
            |(_, reply)| matches!(reply, Response::TxnResult { reads, .. } if reads.len() == 2),
        );
        assert!(audits.len() > REPLAYED_OPS / 3 && transfers.len() > REPLAYED_OPS / 3);
    }

    #[test]
    fn interactive_streams_replay_four_or_six_exchanges_per_op() {
        let interactive = WORKLOADS
            .iter()
            .find(|w| w.mode == Mode::Interactive)
            .unwrap();
        let frames = frames_of(*interactive, 42);
        let per_op = frames.exchanges.len() as f64 / REPLAYED_OPS as f64;
        assert!((4.8..5.2).contains(&per_op), "{per_op}");
        assert_eq!(frames.exchanges[0].0, Request::Begin);
    }

    #[test]
    fn deep_chains_are_as_deep_as_asked_and_readable_from_the_parked_snapshot() {
        let (stm, vars, mut parked) = deep_chains(8);
        assert!(vars.iter().all(|v| v.version_count() == 8));
        assert_eq!(parked.read(&vars[3]).unwrap(), 0, "the oldest version");
        assert_eq!(vars[3].load(), 7, "the newest");
        stm.abort(parked);
    }
}
