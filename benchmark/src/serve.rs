//! The serve workloads: two loopback connections against an
//! in-process `Server::start(ServerConfig::default())`.
//!
//! Defaults are what users get, so they are what is measured: 2
//! reactors, 4 shard workers, `batch_max` 32, no batch deadline, a
//! 25 ms GC tick, history and forensics off. History recording is
//! switched on only for the short certified pass after the timed run.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use sitm_obs::MetricsRegistry;
use sitm_serve::loadgen::audit_total;
use sitm_serve::{Client, ClientError, Request, Response, Server, ServerConfig, TxnOp};

use crate::checks;
use crate::gen::{Mix, Op, OpStream, FUND_PER_KEY};
use crate::replay;
use crate::run::{repeated_setup, Lane, PhaseKind, Schedule, Summary};
use crate::span::{chrome_trace, SpanBuf, SpanSummary, ROOT};
use crate::spec::MetricSet;
use crate::{Ctx, Outcome};

/// Accounts of every serve workload. They fit the server's
/// per-thread directory cache (`DIR_CACHE_MAX` = 2^18) on purpose.
const KEYS: u64 = 4096;

/// Requests a pipelined connection keeps in flight.
const WINDOW: usize = 64;

/// Times the client retries an interactive commit the server refused.
const COMMIT_RETRIES: u32 = 8;

/// How long after the schedule ends a request may stay unanswered
/// before it counts as failed.
const ANSWER_GRACE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One one-shot `TXN` frame in flight.
    Closed,
    /// One interactive transaction at a time, a round trip per
    /// request.
    Interactive,
    /// A sliding window of [`WINDOW`] one-shot `TXN` frames.
    Pipelined,
}

#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub mode: Mode,
    pub mix: Mix,
    /// Connections, one load thread each.
    lanes: usize,
    /// Latency samples per second a lane's buffers are sized for.
    samples_per_s: f64,
    /// One request in this many is traced.
    span_stride: u64,
}

pub const WORKLOADS: [ServeWorkload; 4] = [
    ServeWorkload {
        name: "serve_closed",
        mode: Mode::Closed,
        mix: Mix::uniform(KEYS),
        // One request in flight in the whole server. With two, this
        // host flips between a mode where wake-ups stay on the waker's
        // core and one where they cross to an idle core (17 us a hop),
        // and throughput swings 15-25% from run to run.
        lanes: 1,
        samples_per_s: 50_000.0,
        span_stride: 2,
    },
    ServeWorkload {
        name: "serve_interactive",
        mode: Mode::Interactive,
        mix: Mix::uniform(KEYS),
        lanes: 2,
        samples_per_s: 50_000.0,
        span_stride: 16,
    },
    ServeWorkload {
        name: "serve_pipelined",
        mode: Mode::Pipelined,
        mix: Mix::uniform(KEYS),
        lanes: 2,
        samples_per_s: 400_000.0,
        span_stride: 32,
    },
    ServeWorkload {
        name: "serve_hot",
        mode: Mode::Pipelined,
        mix: Mix {
            keys: KEYS,
            audit_pct: 0,
            hot_pct: 90,
            hot_base: 0,
            hot_keys: 8,
        },
        lanes: 2,
        samples_per_s: 400_000.0,
        span_stride: 32,
    },
];

pub fn find(name: &str) -> Option<ServeWorkload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// The `(workload, lane, mix)` of every stream `bless` pins.
pub fn lane_mixes() -> Vec<(&'static str, usize, Mix)> {
    WORKLOADS
        .iter()
        .flat_map(|w| (0..w.lanes).map(move |lane| (w.name, lane, w.mix)))
        .collect()
}

/// A started server with its funded store and connected load clients.
struct Rig {
    server: Server,
    clients: Vec<Client>,
    start_s: f64,
}

fn client_err(what: &str, e: ClientError) -> String {
    format!("{what}: {e}")
}

/// Installs [`FUND_PER_KEY`] into every key: every batch is sent
/// before the first reply is read, so set-up time is the server's
/// work on the batches and not one idle round trip per batch.
fn fund(client: &mut Client) -> Result<(), ClientError> {
    let keys: Vec<u64> = (0..KEYS).collect();
    let batches = keys.chunks(128);
    let owed = batches.len();
    for batch in batches {
        let ops = batch
            .iter()
            .map(|&key| TxnOp::Add {
                key,
                delta: FUND_PER_KEY,
            })
            .collect();
        client.send(&Request::Txn { ops })?;
    }
    client.flush()?;
    for _ in 0..owed {
        match client.recv()? {
            Response::TxnResult { .. } => {}
            other => return Err(ClientError::Unexpected(other)),
        }
    }
    Ok(())
}

fn rig(w: ServeWorkload, config: ServerConfig) -> Result<Rig, String> {
    let started = Instant::now();
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let start_s = started.elapsed().as_secs_f64();
    let mut clients = (0..w.lanes)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    fund(&mut clients[0]).map_err(|e| client_err("fund", e))?;
    Ok(Rig {
        server,
        clients,
        start_s,
    })
}

pub fn one_shot(op: Op) -> Request {
    let ops = if op.transfer {
        vec![
            TxnOp::Add {
                key: op.a,
                delta: -op.amount,
            },
            TxnOp::Add {
                key: op.b,
                delta: op.amount,
            },
        ]
    } else {
        vec![TxnOp::Get { key: op.a }, TxnOp::Get { key: op.b }]
    };
    Request::Txn { ops }
}

/// Whether `resp` answers the one-shot request made from `op`.
fn one_shot_answered(op: Op, resp: &Response) -> bool {
    match resp {
        Response::TxnResult { reads, .. } if op.transfer => reads.is_empty(),
        Response::TxnResult { reads, .. } => reads.len() == 2 && reads.iter().all(Option::is_some),
        _ => false,
    }
}

/// The frames one interactive transaction sends; `va`/`vb` are the
/// balances its reads saw.
pub fn interactive_frames(op: Op, va: i64, vb: i64) -> Vec<Request> {
    let mut frames = vec![
        Request::Begin,
        Request::Read { key: op.a },
        Request::Read { key: op.b },
    ];
    if op.transfer {
        frames.push(Request::Write {
            key: op.a,
            value: va - op.amount,
        });
        frames.push(Request::Write {
            key: op.b,
            value: vb + op.amount,
        });
    }
    frames.push(Request::Commit);
    frames
}

/// Where a traced request hangs its spans.
struct Tracing<'a> {
    spans: &'a mut SpanBuf,
    parent: u32,
    req: u64,
}

/// One request, one reply. With `tracing` the three client calls get
/// a span each.
fn exchange(
    client: &mut Client,
    req: &Request,
    tracing: Option<&mut Tracing<'_>>,
) -> Result<Response, ClientError> {
    let Some(t) = tracing else {
        client.send(req)?;
        client.flush()?;
        return client.recv();
    };
    let t0 = Instant::now();
    client.send(req)?;
    let t1 = Instant::now();
    client.flush()?;
    let t2 = Instant::now();
    let resp = client.recv();
    let t3 = Instant::now();
    t.spans.push("client.send", t0, t1, t.parent, t.req);
    t.spans.push("client.flush", t1, t2, t.parent, t.req);
    t.spans.push("client.recv", t2, t3, t.parent, t.req);
    resp
}

/// One operation about to be issued: when, in which phase, and
/// whether it is one of the traced ones.
struct Issue {
    op: Op,
    at: Instant,
    phase: usize,
    traced: bool,
    seq: u64,
}

/// The part of a load loop that is the same in every mode.
struct Issuer<'a> {
    stream: OpStream,
    schedule: &'a Schedule,
    stride: u64,
    seq: u64,
}

impl Issuer<'_> {
    /// `None` once the schedule is over.
    fn next(&mut self, lane: &mut Lane) -> Option<Issue> {
        let op = self.stream.next_op();
        let at = Instant::now();
        let phase = self.schedule.phase_at(at)?;
        let seq = self.seq;
        self.seq += 1;
        lane.attempt(self.schedule, phase, 1);
        Some(Issue {
            op,
            at,
            phase,
            traced: self.schedule.kind(phase) == PhaseKind::Traced
                && seq.is_multiple_of(self.stride),
            seq,
        })
    }
}

fn closed_loop(client: &mut Client, issuer: &mut Issuer<'_>, lane: &mut Lane) {
    while let Some(issue) = issuer.next(lane) {
        let req = one_shot(issue.op);
        let parent = issue
            .traced
            .then(|| lane.spans.open("txn", issue.at, issue.seq));
        let mut tracing = parent.map(|parent| Tracing {
            spans: &mut lane.spans,
            parent,
            req: issue.seq,
        });
        let resp = exchange(client, &req, tracing.as_mut());
        let done = Instant::now();
        match resp {
            Ok(resp) if one_shot_answered(issue.op, &resp) => {
                lane.complete(issuer.schedule, issue.phase, done - issue.at, 1);
            }
            Ok(resp) => lane.fail(
                issuer.schedule,
                issue.phase,
                format!("{req:?} answered {resp:?}"),
            ),
            Err(e) => {
                lane.fail(issuer.schedule, issue.phase, client_err("closed loop", e));
                return;
            }
        }
        if let Some(parent) = parent {
            lane.spans.close(parent, Instant::now());
        }
    }
}

/// How one attempt at an interactive transaction ended.
enum Attempt {
    Committed,
    /// Refused at commit; the client may begin again.
    Refused,
    /// A reply that does not answer its request.
    Mismatch(String),
    Transport(ClientError),
}

fn interactive_attempt(
    client: &mut Client,
    op: Op,
    mut tracing: Option<&mut Tracing<'_>>,
) -> Attempt {
    // The writes carry what the reads returned, so the frame list is
    // rebuilt once both balances are known.
    let mut frames = interactive_frames(op, 0, 0);
    let mut balances = [0i64; 2];
    let mut i = 0;
    loop {
        let resp = match exchange(client, &frames[i], tracing.as_deref_mut()) {
            Ok(resp) => resp,
            Err(e) => return Attempt::Transport(e),
        };
        match (&frames[i], &resp) {
            (Request::Begin | Request::Write { .. }, Response::Ok) => {}
            (Request::Read { .. }, Response::Value { value: Some(v) }) => {
                balances[i - 1] = *v;
                if i == 2 {
                    frames = interactive_frames(op, balances[0], balances[1]);
                }
            }
            (Request::Commit, Response::Committed { .. }) => return Attempt::Committed,
            (Request::Commit, Response::Aborted { .. }) => return Attempt::Refused,
            (req, resp) => return Attempt::Mismatch(format!("{req:?} answered {resp:?}")),
        }
        i += 1;
    }
}

fn interactive_loop(client: &mut Client, issuer: &mut Issuer<'_>, lane: &mut Lane) {
    while let Some(issue) = issuer.next(lane) {
        let parent = issue
            .traced
            .then(|| lane.spans.open("itxn", issue.at, issue.seq));
        let mut attempt = Attempt::Refused;
        for _ in 0..=COMMIT_RETRIES {
            let mut tracing = parent.map(|parent| Tracing {
                spans: &mut lane.spans,
                parent,
                req: issue.seq,
            });
            attempt = interactive_attempt(client, issue.op, tracing.as_mut());
            match attempt {
                Attempt::Refused => lane.retries += 1,
                _ => break,
            }
        }
        let done = Instant::now();
        match attempt {
            Attempt::Committed => lane.complete(issuer.schedule, issue.phase, done - issue.at, 1),
            Attempt::Refused => lane.fail(
                issuer.schedule,
                issue.phase,
                format!("still refused after {COMMIT_RETRIES} retries"),
            ),
            Attempt::Mismatch(why) => {
                lane.fail(issuer.schedule, issue.phase, why);
                // Leave no transaction open for the next BEGIN to trip
                // on; the server refusing (none open) is fine too.
                if let Err(ClientError::Io(_)) = client.abort() {
                    return;
                }
            }
            Attempt::Transport(e) => {
                lane.fail(issuer.schedule, issue.phase, client_err("interactive", e));
                return;
            }
        }
        if let Some(parent) = parent {
            lane.spans.close(parent, Instant::now());
        }
    }
}

fn pipelined_loop(client: &mut Client, issuer: &mut Issuer<'_>, lane: &mut Lane) {
    let mut in_flight: VecDeque<(Issue, u32)> = VecDeque::with_capacity(WINDOW);
    let mut open = true;
    let mut batch = 0u64;
    'run: loop {
        // Top the window up once half of it has been answered, with
        // one flush per top-up: the syscall is paid per batch, which
        // is what makes this the throughput path.
        if open && in_flight.len() <= WINDOW / 2 {
            let mut any_traced = false;
            while in_flight.len() < WINDOW {
                let Some(issue) = issuer.next(lane) else {
                    open = false;
                    break;
                };
                let sent = client.send(&one_shot(issue.op));
                let mut parent = ROOT;
                if issue.traced {
                    any_traced = true;
                    parent = lane.spans.open("txn", issue.at, issue.seq);
                    lane.spans
                        .push("client.send", issue.at, Instant::now(), parent, issue.seq);
                }
                in_flight.push_back((issue, parent));
                if let Err(e) = sent {
                    lane.error.get_or_insert(client_err("send", e));
                    break 'run;
                }
            }
            let flushing = Instant::now();
            if let Err(e) = client.flush() {
                lane.error.get_or_insert(client_err("flush", e));
                break;
            }
            if any_traced {
                lane.spans
                    .push("client.flush", flushing, Instant::now(), ROOT, batch);
            }
            batch += 1;
        }
        let Some((issue, parent)) = in_flight.pop_front() else {
            break;
        };
        let waiting = Instant::now();
        let resp = client.recv();
        let done = Instant::now();
        if issue.traced {
            lane.spans
                .push("client.recv", waiting, done, parent, issue.seq);
            lane.spans.close(parent, done);
        }
        match resp {
            Ok(resp) if one_shot_answered(issue.op, &resp) => {
                lane.complete(issuer.schedule, issue.phase, done - issue.at, 1);
            }
            Ok(resp) => lane.fail(
                issuer.schedule,
                issue.phase,
                format!("{:?} answered {resp:?}", one_shot(issue.op)),
            ),
            Err(e) => {
                lane.fail(issuer.schedule, issue.phase, client_err("recv", e));
                break;
            }
        }
    }
    // Whatever is still owed after a transport failure was issued and
    // will never be answered.
    for (issue, _) in in_flight {
        lane.fail(issuer.schedule, issue.phase, "unanswered".into());
    }
}

/// What the coordinator saw while the lanes ran.
#[derive(Default)]
struct Observed {
    /// Server counters when the warm-up ended.
    before: Option<MetricsRegistry>,
    versions_peak: usize,
}

/// Runs `schedule` on both lanes and watches them from the calling
/// thread: with `observe` it takes the after-warm-up server snapshot
/// and samples retained versions, and it always enforces
/// [`ANSWER_GRACE`]. The server comes back unless it had to be shut
/// down to unblock lanes whose requests were never answered.
fn drive(
    w: ServeWorkload,
    seed: u64,
    schedule: &Schedule,
    server: Server,
    clients: &mut [Client],
    observe: bool,
) -> (Vec<Lane>, Observed, Option<Server>) {
    let mut lanes: Vec<Lane> = clients
        .iter()
        .map(|_| Lane::new(schedule, w.samples_per_s))
        .collect();
    let mut observed = Observed::default();
    let mut server = Some(server);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&mut lanes)
            .enumerate()
            .map(|(index, (client, lane))| {
                scope.spawn(move || {
                    let mut issuer = Issuer {
                        stream: OpStream::new(seed, w.name, index, w.mix),
                        schedule,
                        stride: w.span_stride,
                        seq: 0,
                    };
                    schedule.wait_for_start();
                    match w.mode {
                        Mode::Closed => closed_loop(client, &mut issuer, lane),
                        Mode::Interactive => interactive_loop(client, &mut issuer, lane),
                        Mode::Pipelined => pipelined_loop(client, &mut issuer, lane),
                    }
                    lane.digest = issuer.stream.digest();
                })
            })
            .collect();

        let sleep_until = |at: Instant| {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        };
        if let (true, Some(server)) = (observe, &server) {
            sleep_until(schedule.measured_from());
            observed.before = Some(server.metrics());
            while Instant::now() < schedule.end() {
                observed.versions_peak = observed.versions_peak.max(server.versions_retained());
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        sleep_until(schedule.end());
        let deadline = schedule.end() + ANSWER_GRACE;
        while handles.iter().any(|h| !h.is_finished()) {
            if Instant::now() > deadline {
                // Closing the sockets is the only way to unblock a
                // lane stuck in `recv`.
                server.take().expect("taken once").shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    (lanes, observed, server)
}

fn mean_between(before: &MetricsRegistry, after: &MetricsRegistry, name: &str) -> f64 {
    let sum_and_total = |reg: &MetricsRegistry| {
        reg.histogram(name).map_or((0.0, 0.0), |h| {
            (h.mean() * h.total() as f64, h.total() as f64)
        })
    };
    let (s0, n0) = sum_and_total(before);
    let (s1, n1) = sum_and_total(after);
    if n1 > n0 {
        (s1 - s0) / (n1 - n0)
    } else {
        0.0
    }
}

/// The per-layer numbers read from the running server: counter
/// differences and exact histogram means between the end of the
/// warm-up and now. (The server's histograms are log2-bucketed, so a
/// median read from them moves only in factors of two.)
fn fill_server_layers(m: &mut MetricSet, before: &MetricsRegistry, server: &Server) {
    let after = server.metrics();
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let mean = |name: &str| mean_between(before, &after, name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let batches = delta("serve.group_commit.batches");
    let txns = delta("serve.group_commit.txns");
    let retries = delta("serve.group_commit.retries");
    m.set("reactor.wakeups", delta("serve.reactor.wakeups"));
    m.set(
        "reactor.frames_per_wake",
        mean("serve.reactor.frames_per_wake"),
    );
    m.set(
        "reactor.events_per_wake",
        mean("serve.reactor.events_per_wake"),
    );
    m.set("server.group.batches", batches);
    m.set("server.group.txns", txns);
    m.set("server.group.size", ratio(txns, batches));
    m.set("server.group.retries", retries);
    m.set("server.group.retry_per_batch", ratio(retries, batches));
    m.set("server.flush.size", delta("serve.group_commit.flush.size"));
    m.set(
        "server.flush.deadline",
        delta("serve.group_commit.flush.deadline"),
    );
    m.set(
        "server.flush.drain",
        delta("serve.group_commit.flush.drain"),
    );
    m.set("server.inflight", mean("serve.pipeline.inflight"));
    m.set(
        "server.backpressure.pauses",
        delta("serve.backpressure.pauses"),
    );
    m.set("server.txn_exec_ns", mean("serve.latency_ns.txn"));
    m.set("server.inline.begin_ns", mean("serve.latency_ns.begin"));
    m.set("server.inline.read_ns", mean("serve.latency_ns.read"));
    m.set("server.inline.write_ns", mean("serve.latency_ns.write"));
    m.set("server.inline.commit_ns", mean("serve.latency_ns.commit"));
    m.set("server.gc.ticks", delta("serve.gc.ticks"));
    m.set("server.gc.reclaimed", delta("serve.gc.reclaimed"));

    crate::stm::fill_counters(m, before, &after);
    m.set(
        "store.versions_retained_end",
        server.versions_retained() as f64,
    );
}

pub fn run(w: ServeWorkload, ctx: &Ctx) -> Result<Outcome, String> {
    let (rig, setup_s) = repeated_setup(
        || rig(w, ServerConfig::default()),
        |old: Rig| old.server.shutdown(),
    )?;
    let Rig {
        server,
        mut clients,
        start_s,
    } = rig;
    let schedule = ctx.schedule();
    let (lanes, observed, server) = drive(w, ctx.seed, &schedule, server, &mut clients, ctx.trace);
    let lane_refs: Vec<&Lane> = lanes.iter().collect();
    let summary = Summary::of(&schedule, &lane_refs, &lane_refs);
    let mut outcome = Outcome::new(ctx, summary.attempted, summary.failed);
    eprintln!("{}: {}", w.name, summary.describe());

    for (index, lane) in lanes.iter().enumerate() {
        if let Some(why) = &lane.error {
            eprintln!("{}: lane {index}: {why}", w.name);
        }
        let want = ctx.expected_stream_digest(w.name, index, w.mix)?;
        outcome.check(checks::stream_digest(
            &format!("{} lane {index}", w.name),
            lane.digest,
            want,
        ));
    }
    let Some(server) = server else {
        outcome.problems.push(format!(
            "requests still unanswered {}s after the run; server shut down",
            ANSWER_GRACE.as_secs()
        ));
        return Ok(outcome);
    };
    match audit_total(&mut clients[0], KEYS) {
        Ok(total) => outcome.check(checks::conserved(total, w.mix.funded_total())),
        Err(e) => outcome.problems.push(client_err("final audit", e)),
    }

    if ctx.trace {
        let m = &mut outcome.metrics;
        summary.fill_client_layer(m);
        let spans = SpanSummary::of(lanes.iter().map(|l| &l.spans));
        let root = match w.mode {
            Mode::Interactive => "itxn",
            Mode::Closed | Mode::Pipelined => "txn",
        };
        m.set("client.send_ns", spans.median_ns("client.send"));
        m.set("client.flush_ns", spans.median_ns("client.flush"));
        m.set("client.wait_ns", spans.median_ns("client.recv"));
        m.set("client.self_ns", spans.median_self_ns(root));
        m.set(
            "client.itxn_retries",
            lanes.iter().map(|l| l.retries).sum::<u64>() as f64,
        );
        let bufs: Vec<&SpanBuf> = lanes.iter().map(|l| &l.spans).collect();
        ctx.write_trace(w.name, &chrome_trace(&bufs))?;
        let dropped: u64 = bufs.iter().map(|b| b.dropped()).sum();
        if dropped > 0 {
            eprintln!("{}: {dropped} spans did not fit the buffers", w.name);
        }
        m.set("server.start_s", start_s);
        m.set("stm.versions_peak", observed.versions_peak as f64);
        let before = observed.before.as_ref().expect("a traced run is observed");
        fill_server_layers(m, before, &server);
    } else {
        summary.fill_end_to_end(&mut outcome.metrics, setup_s);
    }

    drop(clients);
    let stopping = Instant::now();
    server.shutdown();
    let shutdown_s = stopping.elapsed().as_secs_f64();
    let live = sitm_stm::live_snapshots();
    outcome.check(checks::no_live_snapshots(live));

    if ctx.trace {
        let m = &mut outcome.metrics;
        m.set("server.shutdown_s", shutdown_s);
        m.set("stm.live_snapshots_end", live as f64);
        let frames = replay::frames_of(w, ctx.seed);
        replay::wire(&frames, m);
        replay::reactor(m)?;
        replay::store(&frames, m);
        replay::stm(m);
        replay::obs(m);
        let budget_ns = match w.mode {
            Mode::Closed => Some(replay::one_shot_budget_ns(m)),
            Mode::Interactive => Some(replay::interactive_budget_ns(m)),
            // Under a window, latency is queueing; no chain of layer
            // costs adds up to it.
            Mode::Pipelined => None,
        };
        if let Some(budget_ns) = budget_ns {
            m.set("server.budget_ns", budget_ns);
            m.set("server.unattributed_ns", summary.p50_us() * 1e3 - budget_ns);
        }
    }

    let verdict =
        certified_history(w, ctx.seed).and_then(|history| checks::certify(w.name, &history));
    outcome.certified(ctx, verdict);
    Ok(outcome)
}

/// The short certified pass: the same load against a server that
/// records its history. Certification stays out of the timed run
/// because recording changes the program measured.
fn certified_history(w: ServeWorkload, seed: u64) -> Result<sitm_obs::History, String> {
    let Rig {
        server,
        mut clients,
        ..
    } = rig(
        w,
        ServerConfig {
            history_capacity: checks::HISTORY_CAPACITY,
            ..ServerConfig::default()
        },
    )?;
    let schedule = Schedule::brief(checks::CERTIFIED_PASS);
    let (lanes, _, server) = drive(w, seed, &schedule, server, &mut clients, false);
    if let Some(why) = lanes.iter().find_map(|l| l.error.as_ref()) {
        return Err(format!("{}: certified pass: {why}", w.name));
    }
    let server = server.ok_or("certified pass: requests left unanswered")?;
    drop(clients);
    let history = server.history().ok_or("the server recorded no history")?;
    server.shutdown();
    Ok(history)
}
