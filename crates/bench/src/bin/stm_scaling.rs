//! Real-thread throughput scaling of the software STM (`sitm-stm`).
//!
//! Unlike `sitm-bench`'s experiments, which replay the paper's *simulated*
//! machine, this experiment measures the crate's actual commit path —
//! per-`TVar` versioned commit locks, the sharded epoch clock,
//! watermark-driven version GC, and capped jittered backoff — from
//! real OS threads on the host, in host wall-clock time. Six workloads
//! span the contention spectrum:
//!
//! | workload | shape |
//! |---|---|
//! | `counter-array` | uniform increments over 1024 counters (low contention) |
//! | `hashmap-ops` | 70/20/10 get/insert/remove over a 256-key [`THashMap`] |
//! | `bank-transfer` | two-account transfers over 64 accounts (write hot) |
//! | `read-mostly-audit` | 90% whole-bank read-only audits, 10% transfers |
//! | `long-scan` | 1 long-scan reader over 256 dynamic `TVar`s + hot writers |
//! | `long-scan-capped` | the same, over 8-version capped `TVar`s (the PR 3 design) |
//!
//! Each (workload × isolation level × thread count) point is repeated
//! over the seed schedule and reported as mean commits **per second**
//! (the `throughput` field of the JSONL line — host seconds here, not
//! simulated cycles). The audit workload runs its auditors on their own
//! [`Stm`] handle and reports `auditor_aborts` separately; the
//! long-scan workloads do the same for their reader
//! (`reader_commits`/`reader_aborts`): under snapshot isolation
//! read-only transactions never abort, which is the property the paper
//! builds on. The capped variant exists as the *before* column of that
//! claim — its reader aborts with `snapshot-too-old` whenever writer
//! churn evicts the version its snapshot needs.
//!
//! **Gate:** the run exits nonzero if the `long-scan` reader records
//! any abort under Snapshot isolation — dynamic retention makes reader
//! aborts impossible, and this binary is the regression tripwire for
//! that guarantee. The reader runtime records its attempts
//! (`Stm::with_history`), and the abort attribution folded from that
//! log is exported alongside as `reader_forensic_aborts`, so every
//! reader abort is also *attributed* (cause, variable, winner) in every
//! build.
//!
//! Timing cells always execute sequentially — each cell owns the host's
//! cores while it runs — so `--jobs` shapes nothing here; the flag is
//! accepted for harness-CLI compatibility and echoed in the sweep
//! summary. On hosts with fewer cores than a cell's thread count the
//! sweep still runs, but the scaling numbers measure oversubscription
//! rather than parallel speedup (see EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p sitm-bench --bin stm_scaling
//! [--quick] [--seeds N] [--threads N] [--jobs N] [--json PATH]
//! [--ops N] [--workload NAME]`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use sitm_bench::{
    positive, seed_for, sweep_summary, usage_error, Console, HarnessOpts, ReportSink, SweepRunner,
};
use sitm_obs::{MetricsRegistry, RunReport, SmallRng};
use sitm_stm::{IsolationLevel, Stm, THashMap, TVar};
use sitm_workloads::Scale;

/// Thread counts swept when `--threads` is not given.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The two isolation levels compared, with their report labels.
const LEVELS: [(IsolationLevel, &str); 2] = [
    (IsolationLevel::Snapshot, "Snapshot"),
    (IsolationLevel::Serializable, "Serializable"),
];

/// The real-thread workloads, in display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    CounterArray,
    HashMapOps,
    BankTransfer,
    ReadMostlyAudit,
    /// One long-scan reader over dynamically retained `TVar`s plus
    /// `threads - 1` hot writers.
    LongScan,
    /// The same access pattern over 8-version capped `TVar`s — the
    /// PR 3 single-clock-era design, kept as the abort-rate baseline.
    LongScanCapped,
}

const WORKLOADS: [Work; 6] = [
    Work::CounterArray,
    Work::HashMapOps,
    Work::BankTransfer,
    Work::ReadMostlyAudit,
    Work::LongScan,
    Work::LongScanCapped,
];

impl Work {
    fn name(self) -> &'static str {
        match self {
            Work::CounterArray => "counter-array",
            Work::HashMapOps => "hashmap-ops",
            Work::BankTransfer => "bank-transfer",
            Work::ReadMostlyAudit => "read-mostly-audit",
            Work::LongScan => "long-scan",
            Work::LongScanCapped => "long-scan-capped",
        }
    }
}

/// Raw tallies of one timing cell (one level × workload × thread count
/// × seed execution).
#[derive(Debug, Default, Clone)]
struct CellStats {
    commits: u64,
    write_write: u64,
    snapshot_too_old: u64,
    read_validation: u64,
    backoffs: u64,
    backoff_ns: u64,
    wall_s: f64,
    /// Commit/abort tallies of the auditors' dedicated runtime
    /// (read-mostly-audit only).
    auditor_commits: u64,
    auditor_aborts: u64,
    /// Commit/abort tallies of the long-scan reader's dedicated
    /// runtime (long-scan workloads only), plus the abort count its
    /// recorded history attributes.
    reader_commits: u64,
    reader_aborts: u64,
    reader_forensic_aborts: u64,
}

impl CellStats {
    fn aborts(&self) -> u64 {
        self.write_write + self.snapshot_too_old + self.read_validation
    }

    /// Folds an [`Stm`]'s counters into the tallies.
    fn absorb(&mut self, stm: &Stm) {
        let s = stm.stats();
        self.commits += s.commits();
        self.write_write += s.write_write_aborts();
        self.snapshot_too_old += s.snapshot_too_old_aborts();
        self.read_validation += s.read_validation_aborts();
        self.backoffs += s.backoffs();
        self.backoff_ns += s.backoff_ns();
    }
}

/// Runs `threads` worker threads, each executing `ops` transactions of
/// `work` against a fresh state, and returns the tallies.
fn run_cell(work: Work, level: IsolationLevel, threads: usize, ops: usize, seed: u64) -> CellStats {
    let stm = Arc::new(Stm::with_level(level));
    let mut cell = CellStats::default();
    let start = Instant::now();
    match work {
        Work::CounterArray => {
            let counters: Vec<TVar<u64>> = (0..1024).map(|_| TVar::new(0)).collect();
            thread::scope(|s| {
                for t in 0..threads {
                    let stm = Arc::clone(&stm);
                    let counters = &counters;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                        for _ in 0..ops {
                            let i = rng.gen_range(0..counters.len() as u64) as usize;
                            stm.atomically(|tx| {
                                let v = tx.read(&counters[i])?;
                                tx.write(&counters[i], v + 1);
                                Ok(())
                            });
                        }
                    });
                }
            });
        }
        Work::HashMapOps => {
            const KEYS: u64 = 256;
            let map: THashMap<u64> = THashMap::new(64);
            let setup = Stm::snapshot();
            for key in (0..KEYS).step_by(2) {
                setup.atomically(|tx| map.insert(tx, key, key).map(|_| ()));
            }
            thread::scope(|s| {
                for t in 0..threads {
                    let stm = Arc::clone(&stm);
                    let map = &map;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                        for _ in 0..ops {
                            let key = rng.gen_range(0..KEYS);
                            let die = rng.gen_range(0..100u64);
                            stm.atomically(|tx| {
                                if die < 70 {
                                    map.get(tx, key).map(|_| ())
                                } else if die < 90 {
                                    map.insert(tx, key, die).map(|_| ())
                                } else {
                                    map.remove(tx, key).map(|_| ())
                                }
                            });
                        }
                    });
                }
            });
        }
        Work::BankTransfer => {
            const ACCOUNTS: usize = 64;
            let bank: Vec<TVar<u64>> = (0..ACCOUNTS).map(|_| TVar::new(1_000)).collect();
            thread::scope(|s| {
                for t in 0..threads {
                    let stm = Arc::clone(&stm);
                    let bank = &bank;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                        for _ in 0..ops {
                            let src = rng.gen_range(0..ACCOUNTS as u64) as usize;
                            let dst = rng.gen_range(0..ACCOUNTS as u64) as usize;
                            if src == dst {
                                continue;
                            }
                            let amount = rng.gen_range(1..=10u64);
                            stm.atomically(|tx| {
                                let from = tx.read(&bank[src])?;
                                if from >= amount {
                                    let to = tx.read(&bank[dst])?;
                                    tx.write(&bank[src], from - amount);
                                    tx.write(&bank[dst], to + amount);
                                }
                                Ok(())
                            });
                        }
                    });
                }
            });
        }
        Work::ReadMostlyAudit => {
            const ACCOUNTS: usize = 32;
            // Deep histories so a whole-bank audit's snapshot always
            // stays within every account's retained versions.
            let bank: Vec<TVar<u64>> = (0..ACCOUNTS)
                .map(|_| TVar::with_history(1_000, 16_384))
                .collect();
            let auditors = Arc::new(Stm::with_level(level));
            thread::scope(|s| {
                for t in 0..threads {
                    let stm = Arc::clone(&stm);
                    let auditors = Arc::clone(&auditors);
                    let bank = &bank;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                        for _ in 0..ops {
                            if rng.gen_range(0..100u64) < 90 {
                                let sum = auditors.atomically(|tx| {
                                    let mut sum = 0u64;
                                    for account in bank {
                                        sum += tx.read(account)?;
                                    }
                                    Ok(sum)
                                });
                                assert_eq!(sum, ACCOUNTS as u64 * 1_000);
                            } else {
                                let src = rng.gen_range(0..ACCOUNTS as u64) as usize;
                                let dst = (src + 1) % ACCOUNTS;
                                stm.atomically(|tx| {
                                    let from = tx.read(&bank[src])?;
                                    if from > 0 {
                                        let to = tx.read(&bank[dst])?;
                                        tx.write(&bank[src], from - 1);
                                        tx.write(&bank[dst], to + 1);
                                    }
                                    Ok(())
                                });
                            }
                        }
                    });
                }
            });
            cell.auditor_commits = auditors.stats().commits();
            cell.auditor_aborts = auditors.stats().aborts();
            cell.absorb(&auditors);
        }
        Work::LongScan | Work::LongScanCapped => {
            const SCAN_VARS: usize = 256;
            // Writers concentrate on a hot range at the *end* of the
            // scan order, so a capped history has the whole scan
            // duration to churn a version out from under the reader's
            // snapshot before the reader arrives there.
            const HOT_VARS: usize = 32;
            const CAP: usize = 8;
            /// Bounded retries per scan so the capped baseline reports
            /// its abort rate instead of livelocking against churn
            /// (under sustained churn a capped scan never succeeds, so
            /// every extra attempt only multiplies wall time).
            const MAX_ATTEMPTS: usize = 8;
            let capped = work == Work::LongScanCapped;
            let vars: Vec<TVar<u64>> = (0..SCAN_VARS)
                .map(|v| {
                    if capped {
                        TVar::with_history(v as u64, CAP)
                    } else {
                        TVar::new(v as u64)
                    }
                })
                .collect();
            // Scans are ~256x heavier than the short transactions of
            // the other workloads (and stretched by yields), so scale
            // the count down from the per-thread op budget.
            let scans = (ops / 64).max(1);
            // The reader's history holds every attempt it can make.
            let reader_stm = Arc::new(Stm::with_level(level).with_history(scans * MAX_ATTEMPTS));
            // Writers churn until the reader finishes every scan —
            // bounding them by op count instead would let them drain in
            // milliseconds and leave most scans running unopposed.
            let done = AtomicBool::new(false);
            thread::scope(|s| {
                {
                    let reader_stm = Arc::clone(&reader_stm);
                    let vars = &vars;
                    let done = &done;
                    s.spawn(move || {
                        for _ in 0..scans {
                            for _attempt in 0..MAX_ATTEMPTS {
                                let scanned = reader_stm.try_atomically(&mut |tx| {
                                    let mut sum = 0u64;
                                    for (i, var) in vars.iter().enumerate() {
                                        sum += tx.read(var)?;
                                        if i % 32 == 31 {
                                            thread::yield_now(); // stretch the scan
                                        }
                                    }
                                    Ok(sum)
                                });
                                if scanned.is_ok() {
                                    break;
                                }
                            }
                        }
                        done.store(true, Ordering::Release);
                    });
                }
                for t in 0..threads.saturating_sub(1) {
                    let stm = Arc::clone(&stm);
                    let vars = &vars;
                    let done = &done;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                        while !done.load(Ordering::Acquire) {
                            let i =
                                SCAN_VARS - HOT_VARS + rng.gen_range(0..HOT_VARS as u64) as usize;
                            stm.atomically(|tx| {
                                let v = tx.read(&vars[i])?;
                                tx.write(&vars[i], v + 1);
                                Ok(())
                            });
                        }
                    });
                }
            });
            cell.reader_commits = reader_stm.stats().commits();
            cell.reader_aborts = reader_stm.stats().aborts();
            cell.reader_forensic_aborts = reader_stm.forensics().map_or(0, |f| f.total);
            cell.absorb(&reader_stm);
        }
    }
    cell.wall_s = start.elapsed().as_secs_f64();
    cell.absorb(&stm);
    cell
}

fn main() {
    let (opts, rest) = HarnessOpts::from_args();
    let mut ops = match opts.scale {
        Scale::Quick => 500,
        _ => 20_000,
    };
    // `--ops N` overrides the per-thread transaction count (scale
    // studies and CI smoke); `--workload NAME` restricts the sweep to
    // one workload (repeatable).
    let mut only: Vec<&'static str> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ops" => ops = positive(arg, it.next()).unwrap_or_else(|msg| usage_error(msg)),
            "--workload" => match it
                .next()
                .and_then(|name| WORKLOADS.iter().find(|w| w.name() == name))
            {
                Some(w) => only.push(w.name()),
                None => usage_error(format!(
                    "unknown --workload (expected one of: {})",
                    WORKLOADS.map(Work::name).join(", ")
                )),
            },
            _ => usage_error(format!("unknown argument {arg:?}")),
        }
    }
    let sink = ReportSink::new(&opts);
    let con = Console::new(&opts);
    let workloads: Vec<Work> = WORKLOADS
        .into_iter()
        .filter(|w| only.is_empty() || only.contains(&w.name()))
        .collect();
    let threads: Vec<usize> = match opts.threads {
        Some(n) => vec![n.max(1)],
        None => THREADS.to_vec(),
    };

    con.line("stm_scaling: real-thread STM throughput (commits/second, host wall-clock)");
    con.line(format!(
        "host cores: {}, ops/thread: {ops}, seeds: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        opts.seeds
    ));
    con.blank();

    let mut cells = 0usize;
    let mut gate_failures: Vec<String> = Vec::new();
    let sweep_start = Instant::now();
    for work in workloads {
        con.line(format!("== {} ==", work.name()));
        let mut header = vec!["threads".to_string()];
        header.extend(LEVELS.iter().map(|&(_, name)| format!("{name} c/s")));
        header.push("aborts".to_string());
        con.row("", &header);

        for &t in &threads {
            let mut row = vec![t.to_string()];
            let mut abort_cells = Vec::new();
            for &(level, level_name) in &LEVELS {
                let mut total = CellStats::default();
                let mut reg = MetricsRegistry::new();
                let mut throughput_sum = 0.0;
                for s in 0..opts.seeds {
                    let cell = run_cell(work, level, t, ops, seed_for(s) ^ 0x57AC);
                    throughput_sum += cell.commits as f64 / cell.wall_s.max(1e-9);
                    total.commits += cell.commits;
                    total.write_write += cell.write_write;
                    total.snapshot_too_old += cell.snapshot_too_old;
                    total.read_validation += cell.read_validation;
                    total.backoffs += cell.backoffs;
                    total.backoff_ns += cell.backoff_ns;
                    total.wall_s += cell.wall_s;
                    total.auditor_commits += cell.auditor_commits;
                    total.auditor_aborts += cell.auditor_aborts;
                    total.reader_commits += cell.reader_commits;
                    total.reader_aborts += cell.reader_aborts;
                    total.reader_forensic_aborts += cell.reader_forensic_aborts;
                    cells += 1;
                }
                reg.count("stm.commits", total.commits);
                reg.count("stm.aborts.write_write", total.write_write);
                reg.count("stm.aborts.snapshot_too_old", total.snapshot_too_old);
                reg.count("stm.aborts.read_validation", total.read_validation);
                reg.count("stm.backoffs", total.backoffs);
                reg.count("stm.backoff_ns", total.backoff_ns);

                let mean_cps = throughput_sum / opts.seeds as f64;
                let mut report = RunReport::new("stm_scaling", level_name, work.name());
                report.threads = t as u64;
                report.seeds = opts.seeds;
                report.commits = total.commits;
                for (label, n) in [
                    ("write-write", total.write_write),
                    ("snapshot-too-old", total.snapshot_too_old),
                    ("read-validation", total.read_validation),
                ] {
                    if n > 0 {
                        report.aborts.insert(label.to_string(), n);
                    }
                }
                let attempts = total.commits + total.aborts();
                report.abort_rate = if attempts > 0 {
                    total.aborts() as f64 / attempts as f64
                } else {
                    0.0
                };
                report.throughput = mean_cps;
                report.set_counters(&reg);
                report.extra.insert("wall_ms".into(), total.wall_s * 1e3);
                report.extra.insert("ops_per_thread".into(), ops as f64);
                report.extra.insert("commits_per_sec".into(), mean_cps);
                if work == Work::ReadMostlyAudit {
                    report
                        .extra
                        .insert("auditor_commits".into(), total.auditor_commits as f64);
                    report
                        .extra
                        .insert("auditor_aborts".into(), total.auditor_aborts as f64);
                }
                if matches!(work, Work::LongScan | Work::LongScanCapped) {
                    report
                        .extra
                        .insert("reader_commits".into(), total.reader_commits as f64);
                    report
                        .extra
                        .insert("reader_aborts".into(), total.reader_aborts as f64);
                    report.extra.insert(
                        "reader_forensic_aborts".into(),
                        total.reader_forensic_aborts as f64,
                    );
                    // The regression gate: dynamic retention must make
                    // the Snapshot-isolated long reader abort-free.
                    if work == Work::LongScan
                        && level == IsolationLevel::Snapshot
                        && total.reader_aborts > 0
                    {
                        gate_failures.push(format!(
                            "long-scan @ {t} threads: {} reader abort(s) under Snapshot \
                             (forensic attribution: {}) — dynamic retention must keep \
                             readers abort-free",
                            total.reader_aborts, total.reader_forensic_aborts
                        ));
                    }
                }
                sink.push(&report);

                row.push(format!("{mean_cps:.0}"));
                abort_cells.push(format!("{}", total.aborts()));
            }
            row.push(abort_cells.join("/"));
            con.row("", &row);
        }
        con.blank();
    }

    let runner = SweepRunner::from_opts(&opts);
    sink.push(&sweep_summary(
        "stm_scaling",
        &runner,
        cells,
        sweep_start.elapsed().as_secs_f64() * 1e3,
    ));
    sink.finish();

    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            eprintln!("GATE FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
