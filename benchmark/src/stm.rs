//! The stm workloads: two threads on one `Stm::snapshot()`, no
//! sockets, the serve layers idle.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sitm_obs::MetricsRegistry;
use sitm_stm::{Stm, StmError, TVar};

use crate::checks;
use crate::gen::{Mix, Op, OpStream, FUND_PER_KEY};
use crate::replay;
use crate::run::{repeated_setup, Lane, PhaseKind, Schedule, Summary};
use crate::span::{chrome_trace, SpanBuf, SpanSummary};
use crate::spec::MetricSet;
use crate::{Ctx, Outcome};

/// Transactions per latency sample. A transaction here lasts a few
/// hundred nanoseconds; reading the clock around each one would be a
/// quarter of what is measured, so one sample is the mean over a
/// batch.
const BATCH: u64 = 256;

/// One batch in this many has its first transaction traced.
const TRACED_BATCH_STRIDE: u64 = 8;

/// One traced scan in this many also counts retained versions (a walk
/// over every account, so it is kept rare).
const CENSUS_STRIDE: u64 = 8;

#[derive(Debug, Clone, Copy)]
pub struct StmWorkload {
    pub name: &'static str,
    /// Lane 0 scans every account per transaction instead of drawing
    /// from the stream.
    long_reader: bool,
    /// The stream the writing lanes draw from.
    pub mix: Mix,
}

pub const WORKLOADS: [StmWorkload; 2] = [
    StmWorkload {
        name: "stm_short",
        long_reader: false,
        mix: Mix::uniform(4096),
    },
    StmWorkload {
        name: "stm_longscan",
        long_reader: true,
        // Four picks in five land in the last 32 accounts, so those
        // chains grow by tens of versions while one scan is live.
        mix: Mix {
            keys: 16_384,
            audit_pct: 0,
            hot_pct: 80,
            hot_base: 16_384 - 32,
            hot_keys: 32,
        },
    },
];

const LANES: usize = 2;

pub fn find(name: &str) -> Option<StmWorkload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

impl StmWorkload {
    fn stream_lanes(&self) -> std::ops::Range<usize> {
        usize::from(self.long_reader)..LANES
    }
}

/// The `(workload, lane, mix)` of every stream `bless` pins.
pub fn lane_mixes() -> Vec<(&'static str, usize, Mix)> {
    WORKLOADS
        .iter()
        .flat_map(|w| w.stream_lanes().map(move |lane| (w.name, lane, w.mix)))
        .collect()
}

/// The funded accounts and the runtime they are used through.
struct Bank {
    stm: Stm,
    accounts: Vec<TVar<i64>>,
}

impl Bank {
    fn new(stm: Stm, keys: u64) -> Bank {
        Bank {
            stm,
            accounts: (0..keys).map(|_| TVar::new(FUND_PER_KEY)).collect(),
        }
    }

    fn apply(&self, op: Op) {
        let (a, b) = (&self.accounts[op.a as usize], &self.accounts[op.b as usize]);
        if op.transfer {
            self.stm.atomically(|tx| {
                let (va, vb) = (tx.read(a)?, tx.read(b)?);
                tx.write(a, va - op.amount);
                tx.write(b, vb + op.amount);
                Ok(())
            });
        } else {
            black_box(self.stm.atomically(|tx| Ok(tx.read(a)? + tx.read(b)?)));
        }
    }

    /// `apply`, one call at a time with a span around each. A commit
    /// the runtime refuses is left to `apply`'s retry loop.
    fn apply_traced(&self, op: Op, spans: &mut SpanBuf, req: u64) {
        let (a, b) = (&self.accounts[op.a as usize], &self.accounts[op.b as usize]);
        let t0 = Instant::now();
        let root = spans.open("stm.txn", t0, req);
        let mut tx = self.stm.begin();
        let t1 = Instant::now();
        let balances = tx.read(a).and_then(|va| Ok((va, tx.read(b)?)));
        let t2 = Instant::now();
        spans.push("stm.begin", t0, t1, root, req);
        spans.push("stm.read", t1, t2, root, req);
        let committed = match balances {
            Ok((va, vb)) => {
                if op.transfer {
                    tx.write(a, va - op.amount);
                    tx.write(b, vb + op.amount);
                }
                let t3 = Instant::now();
                let result = self.stm.commit(tx);
                let t4 = Instant::now();
                if op.transfer {
                    spans.push("stm.write", t2, t3, root, req);
                }
                spans.push("stm.commit", t3, t4, root, req);
                result.is_ok()
            }
            Err(StmError::Conflict(_)) => {
                self.stm.abort(tx);
                false
            }
        };
        if !committed {
            self.apply(op);
        }
        spans.close(root, Instant::now());
    }

    fn total(&self) -> i64 {
        self.accounts.iter().map(TVar::load).sum()
    }

    /// `(deepest chain, versions retained)` over every account.
    fn census(&self) -> (usize, usize) {
        self.accounts
            .iter()
            .map(TVar::version_count)
            .fold((0, 0), |(deepest, all), n| (deepest.max(n), all + n))
    }
}

/// Chain depths a traced lane or the coordinator sampled.
#[derive(Debug, Default, Clone, Copy)]
struct Census {
    depth_peak: usize,
    versions_peak: usize,
}

impl Census {
    fn sample(&mut self, bank: &Bank) {
        let (depth, versions) = bank.census();
        self.depth_peak = self.depth_peak.max(depth);
        self.versions_peak = self.versions_peak.max(versions);
    }
}

fn stream_lane(bank: &Bank, mut stream: OpStream, schedule: &Schedule, lane: &mut Lane) {
    let mut batch = 0u64;
    loop {
        let started = Instant::now();
        let Some(phase) = schedule.phase_at(started) else {
            break;
        };
        lane.attempt(schedule, phase, BATCH);
        let mut untraced = BATCH;
        if schedule.kind(phase) == PhaseKind::Traced && batch.is_multiple_of(TRACED_BATCH_STRIDE) {
            bank.apply_traced(stream.next_op(), &mut lane.spans, batch);
            untraced -= 1;
        }
        for _ in 0..untraced {
            bank.apply(stream.next_op());
        }
        lane.complete(schedule, phase, started.elapsed() / BATCH as u32, BATCH);
        batch += 1;
    }
    lane.digest = stream.digest();
}

/// Scans every account in one read-only transaction, over and over.
/// A scan that aborts is a failed operation; one that sums to
/// anything but the funded total stops the lane with an error.
fn scan_lane(bank: &Bank, funded: i64, schedule: &Schedule, lane: &mut Lane) -> Census {
    let mut census = Census::default();
    let mut scan = 0u64;
    loop {
        let t0 = Instant::now();
        let Some(phase) = schedule.phase_at(t0) else {
            break;
        };
        lane.attempt(schedule, phase, 1);
        let traced = schedule.kind(phase) == PhaseKind::Traced;
        let mut tx = bank.stm.begin();
        let t1 = Instant::now();
        let sum = bank.accounts.iter().try_fold(0i64, |sum, account| {
            Ok::<_, StmError>(sum + tx.read(account)?)
        });
        let t2 = Instant::now();
        if traced && scan.is_multiple_of(CENSUS_STRIDE) {
            // While this snapshot is still live: the chains are as
            // deep as this scan made them.
            census.sample(bank);
        }
        let t3 = Instant::now();
        let committed = sum.is_ok() && bank.stm.commit(tx).is_ok();
        let t4 = Instant::now();
        if traced {
            let root = lane.spans.push("stm.scan", t0, t4, crate::span::ROOT, scan);
            lane.spans.push("stm.begin", t0, t1, root, scan);
            lane.spans.push("stm.read", t1, t2, root, scan);
            lane.spans.push("bench.census", t2, t3, root, scan);
            lane.spans.push("stm.commit", t3, t4, root, scan);
        }
        match sum {
            Ok(sum) if committed && sum == funded => {
                // The census is the benchmark's own work, not the scan's.
                lane.complete(schedule, phase, (t4 - t0) - (t3 - t2), 1);
            }
            Ok(sum) if committed => {
                lane.error = Some(format!("scan {scan} summed to {sum}, not {funded}"));
                break;
            }
            _ => lane.fail(schedule, phase, format!("scan {scan} aborted")),
        }
        scan += 1;
    }
    census
}

/// The runtime's counters at one instant, as `Stm::export_metrics`
/// names them.
fn counters(stm: &Stm) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    stm.export_metrics(&mut registry);
    registry
}

/// The `stm.*` counter metrics: differences between two exports of
/// `StmStats` (an `Stm`'s own, or the ones in `Server::metrics()`).
pub fn fill_counters(m: &mut MetricSet, before: &MetricsRegistry, after: &MetricsRegistry) {
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let (commits, ww) = (delta("stm.commits"), delta("stm.aborts.write_write"));
    m.set("stm.commits", commits);
    m.set("stm.aborts.ww", ww);
    m.set(
        "stm.abort_per_commit",
        if commits > 0.0 { ww / commits } else { 0.0 },
    );
    m.set("stm.backoffs", delta("stm.backoffs"));
    m.set("stm.backoff_ns", delta("stm.backoff_ns"));
    m.set("stm.versions_retired", delta("stm.versions_retired"));
    m.set(
        "stm.watermark_lag_max",
        after.gauge_value("stm.watermark_lag_max").unwrap_or(0.0),
    );
}

/// Runs `schedule` on both lanes. With `observe` the calling thread
/// reads the counters when the warm-up ends and samples chain depths
/// ten times a second.
fn drive(
    w: StmWorkload,
    seed: u64,
    schedule: &Schedule,
    bank: &Bank,
    observe: bool,
) -> (Vec<Lane>, Option<MetricsRegistry>, Census) {
    // A scan is one sample; a stream lane takes one per batch.
    let mut lanes: Vec<Lane> = (0..LANES).map(|_| Lane::new(schedule, 50_000.0)).collect();
    let mut before = None;
    let mut census = Census::default();
    std::thread::scope(|scope| {
        let mut scanner = None;
        for (index, lane) in lanes.iter_mut().enumerate() {
            if w.long_reader && index == 0 {
                let funded = w.mix.funded_total();
                scanner = Some(scope.spawn(move || {
                    schedule.wait_for_start();
                    scan_lane(bank, funded, schedule, lane)
                }));
            } else {
                let stream = OpStream::new(seed, w.name, index, w.mix);
                scope.spawn(move || {
                    schedule.wait_for_start();
                    stream_lane(bank, stream, schedule, lane);
                });
            }
        }
        if observe {
            std::thread::sleep(
                schedule
                    .measured_from()
                    .saturating_duration_since(Instant::now()),
            );
            before = Some(counters(&bank.stm));
            // The scanning lane samples its own chains at their
            // deepest; without one, sample from here.
            while scanner.is_none() && Instant::now() < schedule.end() {
                census.sample(bank);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        if let Some(scanner) = scanner {
            census = scanner.join().expect("the scan lane does not panic");
        }
    });
    (lanes, before, census)
}

pub fn run(w: StmWorkload, ctx: &Ctx) -> Result<Outcome, String> {
    let (bank, setup_s) = repeated_setup(|| Ok(Bank::new(Stm::snapshot(), w.mix.keys)), drop)?;
    let schedule = ctx.schedule();
    let (lanes, before, census) = drive(w, ctx.seed, &schedule, &bank, ctx.trace);

    // Throughput counts committed stream transactions; with a long
    // reader, latency is the reader's and throughput the writer's.
    let stream_lanes: Vec<&Lane> = w.stream_lanes().map(|i| &lanes[i]).collect();
    let lat_lanes: Vec<&Lane> = if w.long_reader {
        vec![&lanes[0]]
    } else {
        stream_lanes.clone()
    };
    let summary = Summary::of(&schedule, &stream_lanes, &lat_lanes);
    let mut outcome = Outcome::new(ctx, summary.attempted, summary.failed);
    eprintln!("{}: {}", w.name, summary.describe());

    for (index, lane) in lanes.iter().enumerate() {
        if let Some(why) = &lane.error {
            outcome
                .problems
                .push(format!("{} lane {index}: {why}", w.name));
        }
    }
    for index in w.stream_lanes() {
        let want = ctx.expected_stream_digest(w.name, index, w.mix)?;
        outcome.check(checks::stream_digest(
            &format!("{} lane {index}", w.name),
            lanes[index].digest,
            want,
        ));
    }
    outcome.check(checks::conserved(bank.total(), w.mix.funded_total()));
    let live = sitm_stm::live_snapshots();
    outcome.check(checks::no_live_snapshots(live));

    if ctx.trace {
        let m = &mut outcome.metrics;
        summary.fill_client_layer(m);
        let bufs: Vec<&SpanBuf> = lanes.iter().map(|l| &l.spans).collect();
        ctx.write_trace(w.name, &chrome_trace(&bufs))?;
        let spans = SpanSummary::of(bufs.iter().copied());
        eprintln!(
            "{}: traced medians: begin {:.0} ns, read {:.0} ns, commit {:.0} ns over {} transactions",
            w.name,
            spans.median_ns("stm.begin"),
            spans.median_ns("stm.read"),
            spans.median_ns("stm.commit"),
            spans.count("stm.begin"),
        );

        let before = before.expect("a traced run is observed");
        fill_counters(m, &before, &counters(&bank.stm));
        m.set("stm.chain_depth_peak", census.depth_peak as f64);
        m.set("stm.versions_peak", census.versions_peak as f64);
        m.set("stm.live_snapshots_end", live as f64);
        if w.long_reader {
            let scans = Summary::of(&schedule, &[&lanes[0]], &[&lanes[0]]);
            m.set("stm.scans_per_s", scans.ops_per_s());
        }
        replay::stm(m);
    } else {
        summary.fill_end_to_end(&mut outcome.metrics, setup_s);
    }
    drop(bank);

    let certified = Bank::new(
        Stm::snapshot().with_history(checks::HISTORY_CAPACITY),
        w.mix.keys,
    );
    let brief = Schedule::brief(checks::CERTIFIED_PASS);
    let (cert_lanes, _, _) = drive(w, ctx.seed, &brief, &certified, false);
    let verdict = match cert_lanes.iter().find_map(|l| l.error.as_ref()) {
        Some(why) => Err(format!("{}: certified pass: {why}", w.name)),
        None => certified
            .stm
            .history()
            .ok_or_else(|| "the runtime recorded no history".to_string())
            .and_then(|history| checks::certify(w.name, &history)),
    };
    outcome.certified(ctx, verdict);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_transactions_do_the_same_thing() {
        let plain = Bank::new(Stm::snapshot(), 16);
        let traced = Bank::new(Stm::snapshot(), 16);
        let mut spans = SpanBuf::new(Instant::now(), 1024);
        let mut stream = OpStream::new(1, "stm_short", 0, Mix::uniform(16));
        for req in 0..100 {
            let op = stream.next_op();
            plain.apply(op);
            traced.apply_traced(op, &mut spans, req);
        }
        let balances = |bank: &Bank| bank.accounts.iter().map(TVar::load).collect::<Vec<_>>();
        assert_eq!(balances(&plain), balances(&traced));
        assert_eq!(plain.total(), 16 * FUND_PER_KEY);
        let summary = SpanSummary::of([&spans]);
        assert_eq!(summary.count("stm.txn"), 100);
        assert_eq!(summary.count("stm.commit"), 100);
        assert!(summary.count("stm.write") < 100, "audits write nothing");
    }

    #[test]
    fn only_stream_lanes_are_pinned() {
        let pinned: Vec<(&str, usize)> = lane_mixes().iter().map(|(w, l, _)| (*w, *l)).collect();
        assert_eq!(
            pinned,
            [("stm_short", 0), ("stm_short", 1), ("stm_longscan", 1)]
        );
    }
}
