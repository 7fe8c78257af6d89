//! The paper's tables and figures, one function each, and the table
//! `sitm-bench <experiment>` dispatches on.
//!
//! A row's name is three things at once: the subcommand, the stem of its
//! pinned `results/<name>.txt` (the experiment's stdout at no flags, byte
//! for byte; `tests/pinned_results.rs` checks every row), and the `bench`
//! field of its JSONL reports.

use std::time::Instant;

use sitm_core::SiTmConfig;
use sitm_mvm::{Addr, MvmStore, OverflowPolicy, OverheadModel, VersionDepthCensus};
use sitm_obs::{MetricsRegistry, Observable, RunReport, SmallRng};
use sitm_sim::{
    AbortCause, MachineConfig, RunStats, ThreadWorkload, TmProtocol, TxProgram, Workload,
};
use sitm_workloads::{all_workloads, microbenchmarks, Diverged, LogicTx, TxLogic, TxMemory};

use crate::{
    fmt_ratio, machine, report_from_grid, report_from_stats, run_grid, run_once, run_si_tm,
    Console, GridOutcome, GridPoint, HarnessOpts, Protocol, ReportSink, SweepRunner,
};

/// What the driver hands every experiment: the parsed flags and the
/// sweep executor, report sink and console built from them once.
#[derive(Debug)]
pub struct Ctx {
    /// The experiment's row name, which is also its reports' `bench`.
    pub name: &'static str,
    /// The parsed command line.
    pub opts: HarnessOpts,
    /// Executes the experiment's cells (`--jobs`).
    pub runner: SweepRunner,
    /// Collects the JSONL reports (`--json`).
    pub sink: ReportSink,
    /// Prints the table.
    pub con: Console,
}

/// One experiment: prints its table, pushes its reports, and returns the
/// cell count and host wall-clock milliseconds of its sweep, from which
/// the driver writes the `{bench}/sweep` summary record (`None` for the
/// analytic tables, which run no sweep).
pub type Experiment = fn(&Ctx) -> Option<(usize, f64)>;

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("table1_config", table1_config),
    ("fig1_aborts", fig1_aborts),
    ("fig7_abort_rates", fig7_abort_rates),
    ("fig8_speedup", fig8_speedup),
    ("table2_versions", table2_versions),
    ("overheads", overheads),
    ("ablate_version_cap", ablate_version_cap),
    ("ablate_coalescing", ablate_coalescing),
    ("ablate_backoff", ablate_backoff),
    ("ablate_granularity", ablate_granularity),
    ("ablate_ssi", ablate_ssi),
];

/// The workloads' names, in order.
fn names(workloads: Vec<Box<dyn Workload>>) -> Vec<String> {
    workloads.iter().map(|w| w.name().to_string()).collect()
}

/// `f()` and its host wall-clock in milliseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// The report of one seed-42 variant cell: `bench` is
/// `<experiment>/<variant>`, `extra.wall_ms` the cell's wall-clock.
fn variant_report(ctx: &Ctx, variant: &str, stats: &RunStats, wall_ms: f64) -> RunReport {
    let mut report = report_from_stats(&format!("{}/{variant}", ctx.name), stats, 1);
    report.extra.insert("wall_ms".into(), wall_ms);
    report
}

/// SI-TM with the version cap lifted.
fn unbounded() -> SiTmConfig {
    let mut si_cfg = SiTmConfig::default();
    si_cfg.mvm.version_cap = usize::MAX;
    si_cfg.mvm.overflow_policy = OverflowPolicy::Unbounded;
    si_cfg
}

/// Runs every registry workload × `threads` × `protocols`, nested in that
/// order (the display order of every grid table), each point averaged
/// over `--seeds`, and warns on stderr about any point that hit the cycle
/// ceiling. Returns the workload names, one outcome per point, and the
/// sweep for its summary record.
fn grid(
    ctx: &Ctx,
    threads: &[usize],
    protocols: &[Protocol],
) -> (Vec<String>, Vec<GridOutcome>, (usize, f64)) {
    let names = names(all_workloads(ctx.opts.scale));
    let mut points = Vec::new();
    for workload in 0..names.len() {
        for &cores in threads {
            for &protocol in protocols {
                points.push(GridPoint {
                    protocol,
                    workload,
                    cores,
                });
            }
        }
    }
    let (grid, wall_ms) = run_grid(&points, ctx.opts.scale, ctx.opts.seeds, &ctx.runner);
    for GridOutcome { point, avg, .. } in &grid {
        if avg.truncated {
            eprintln!(
                "warning: {}/{}/{}T hit the simulation cycle ceiling; numbers are lower bounds",
                point.protocol.name(),
                names[point.workload],
                point.cores
            );
        }
    }
    let cells = points.len() * ctx.opts.seeds as usize;
    (names, grid, (cells, wall_ms))
}

/// Table 1: the simulated platform.
fn table1_config(ctx: &Ctx) -> Option<(usize, f64)> {
    let cfg = MachineConfig::default();
    ctx.con.line("Table 1: Simulated Architecture");
    ctx.con.blank();
    ctx.con.line(cfg.table1().trim_end_matches('\n'));

    let mut report = RunReport::new(ctx.name, "-", "-");
    report.threads = cfg.cores as u64;
    report.extra.insert("cores".into(), cfg.cores as f64);
    report
        .extra
        .insert("max_cycles".into(), cfg.max_cycles as f64);
    ctx.sink.push(&report);
    None
}

/// Figure 1: the share of read-write vs write-write aborts under 2PL.
///
/// The paper's motivation: "75%-99% of all transaction aborts in
/// applications as the STAMP benchmark suite are caused by read-write
/// conflicts" — exactly the aborts snapshot isolation eliminates.
fn fig1_aborts(ctx: &Ctx) -> Option<(usize, f64)> {
    let con = &ctx.con;
    let threads = ctx.opts.threads_or(32);
    con.line(format!(
        "Figure 1: Read-Write and Write-Write aborts under 2PL ({threads} threads)"
    ));
    con.blank();
    con.row(
        "benchmark",
        &["rw aborts", "ww aborts", "other", "rw share"].map(String::from),
    );

    let (names, grid, sweep) = grid(ctx, &[threads], &[Protocol::TwoPl]);
    for (name, out) in names.iter().zip(&grid) {
        let rw = out.avg.aborts_by_cause[AbortCause::ReadWrite.index()];
        let ww = out.avg.aborts_by_cause[AbortCause::WriteWrite.index()];
        let total: u64 = out.avg.aborts_by_cause.iter().sum();
        let other = total - rw - ww;
        let share = if total == 0 {
            0.0
        } else {
            rw as f64 / total as f64 * 100.0
        };
        con.row(
            name,
            &[
                rw.to_string(),
                ww.to_string(),
                other.to_string(),
                format!("{share:.1}%"),
            ],
        );
        let mut report = report_from_grid(ctx.name, name, ctx.opts.seeds, out);
        report.extra.insert("rw_share".into(), share / 100.0);
        ctx.sink.push(&report);
    }
    con.blank();
    con.line("paper expectation: read-write conflicts cause 75-99% of 2PL aborts");
    con.line("in read-heavy benchmarks (kmeans is the RMW exception: all of its");
    con.line("read-write conflicts are simultaneously write-write).");
    Some(sweep)
}

/// Figure 7: abort rates relative to 2PL, for 8/16/32 threads and the
/// three systems, across all ten benchmarks.
///
/// The paper's headline result: SI-TM reduces aborts by up to three
/// orders of magnitude (array), >30x (list), ~50x (intruder), <1% of
/// 2PL (vacation), ~20x (bayes); little to nothing on kmeans,
/// labyrinth and ssca2, whose conflicts are genuinely write-write or
/// already rare.
fn fig7_abort_rates(ctx: &Ctx) -> Option<(usize, f64)> {
    const THREADS: [usize; 3] = [8, 16, 32];
    let con = &ctx.con;
    con.line("Figure 7: abort rate relative to 2PL (lower is better; 1.000 = 2PL)");
    con.blank();

    let (names, grid, sweep) = grid(ctx, &THREADS, &Protocol::PAPER);
    let per_workload = THREADS.len() * Protocol::PAPER.len();
    for (name, rows) in names.iter().zip(grid.chunks(per_workload)) {
        con.line(format!("== {name} =="));
        let mut header = vec!["threads".to_string()];
        header.extend(Protocol::PAPER.iter().map(|p| p.name().to_string()));
        header.push("SI abs".to_string());
        con.row("", &header);
        for group in rows.chunks(Protocol::PAPER.len()) {
            let base = group[0].avg.abort_rate;
            let mut cells = vec![group[0].point.cores.to_string()];
            for out in group {
                let rate = out.avg.abort_rate;
                let mut report = report_from_grid(ctx.name, name, ctx.opts.seeds, out);
                if base > 0.0 {
                    report.extra.insert("rate_rel_2pl".into(), rate / base);
                }
                ctx.sink.push(&report);
                cells.push(if base != 0.0 {
                    fmt_ratio(rate / base)
                } else if rate == 0.0 {
                    "0".into()
                } else {
                    "inf".into()
                });
            }
            cells.push(format!("{:.2}%", group[2].avg.abort_rate * 100.0));
            con.row("", &cells);
        }
        con.blank();
    }
    con.line("paper expectation (32 threads): array ~1/3000 of 2PL, list <1/30,");
    con.line("intruder ~1/50, vacation <1/100, bayes ~1/20; kmeans/labyrinth/ssca2 ~1.");
    Some(sweep)
}

/// Figure 8: application speedup from 1 to 32 threads for 2PL, SONTM
/// and SI-TM on all ten benchmarks.
///
/// Speedup is throughput (committed transactions per cycle) relative to
/// the same system at one thread, the standard weak-scaling measure for
/// fixed per-thread transaction counts.
///
/// Paper expectations at 32 threads: SI-TM ~20x on array and ~14x on
/// list (where 2PL *degrades* beyond 2 threads), ~2x on rbtree, ~3.8x
/// on genome for both CS and SI, near-linear scaling on vacation
/// (with CS dropping off past 8 threads), ~10x on bayes, and parity on
/// kmeans/labyrinth/ssca2.
fn fig8_speedup(ctx: &Ctx) -> Option<(usize, f64)> {
    // One thread comes first, so each workload's first row is its
    // baselines.
    const THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];
    let con = &ctx.con;
    con.line("Figure 8: speedup over the same system at 1 thread");
    con.blank();

    let (names, grid, sweep) = grid(ctx, &THREADS, &Protocol::PAPER);
    let per_workload = THREADS.len() * Protocol::PAPER.len();
    for (name, rows) in names.iter().zip(grid.chunks(per_workload)) {
        con.line(format!("== {name} =="));
        let mut header = vec!["threads".to_string()];
        header.extend(Protocol::PAPER.iter().map(|p| p.name().to_string()));
        con.row("", &header);
        let baselines = &rows[..Protocol::PAPER.len()];
        for group in rows.chunks(Protocol::PAPER.len()) {
            let mut cells = vec![group[0].point.cores.to_string()];
            for (out, base) in group.iter().zip(baselines) {
                let speedup = if out.point.cores == 1 {
                    1.0
                } else if base.avg.throughput > 0.0 {
                    out.avg.throughput / base.avg.throughput
                } else {
                    f64::NAN
                };
                let mut report = report_from_grid(ctx.name, name, ctx.opts.seeds, out);
                if speedup.is_finite() {
                    report.extra.insert("speedup".into(), speedup);
                }
                ctx.sink.push(&report);
                cells.push(format!("{speedup:.2}x"));
            }
            con.row("", &cells);
        }
        con.blank();
    }
    Some(sweep)
}

/// Table 2 / Appendix A: the number of transactional accesses served by
/// each MVM version depth, with the version cap lifted.
///
/// The paper configures SI-TM for unbounded versions, runs every
/// benchmark at 32 threads, and counts accesses to the 1st..5th most
/// recent version plus a "tail" — concluding that fewer than 1% of
/// accesses need versions older than the 4th, which justifies the
/// 4-version hardware cap.
fn table2_versions(ctx: &Ctx) -> Option<(usize, f64)> {
    let (con, scale) = (&ctx.con, ctx.opts.scale);
    let threads = ctx.opts.threads_or(32);
    con.line("Table 2: transactional accesses per MVM version depth");
    con.line(format!("(SI-TM, unbounded versions, {threads} threads)"));
    con.blank();
    con.row(
        "benchmark",
        &["1st", "2nd", "3rd", "4th", "5th", "tail", ">4th"].map(String::from),
    );

    let n = all_workloads(scale).len();
    let (results, wall_ms) = ctx.runner.run_timed((0..n).collect(), |index| {
        let cfg = machine(threads);
        let mut workloads = all_workloads(scale);
        timed(|| run_si_tm(unbounded(), workloads[index].as_mut(), &cfg, 42))
    });

    let mut worst_old_fraction: f64 = 0.0;
    for ((stats, protocol), cell_wall) in &results {
        let name = &stats.workload;
        assert!(stats.commits() > 0, "{name} must make progress");
        let census = protocol.store().census();
        let old = census.older_than(4);
        worst_old_fraction = worst_old_fraction.max(old);
        let mut cells: Vec<String> = (0..5).map(|d| census.at_depth(d).to_string()).collect();
        cells.push(census.tail().to_string());
        cells.push(format!("{:.2}%", old * 100.0));
        con.row(name, &cells);

        let mut report = report_from_stats(ctx.name, stats, 1);
        for d in 0..VersionDepthCensus::REPORTED_DEPTHS {
            report.version_depth[d] = census.at_depth(d);
        }
        report.version_depth[VersionDepthCensus::REPORTED_DEPTHS] = census.tail();
        report.extra.insert("older_than_4".into(), old);
        report.extra.insert("wall_ms".into(), *cell_wall);
        let mut reg = MetricsRegistry::new();
        protocol.export_metrics(&mut reg);
        report.set_counters(&reg);
        ctx.sink.push(&report);
    }
    con.blank();
    con.line(format!(
        "worst-case share of accesses older than the 4th version: {:.2}%",
        worst_old_fraction * 100.0
    ));
    con.line("paper conclusion: <1% of accesses target versions older than the 4th,");
    con.line("so a 4-version MVM is adequate at this level of concurrency.");
    Some((n, wall_ms))
}

/// Section 3.2: capacity and bandwidth overheads of the MVM indirection
/// layer.
fn overheads(ctx: &Ctx) -> Option<(usize, f64)> {
    let con = &ctx.con;
    con.line("Section 3.2: MVM indirection-layer overheads");
    con.blank();
    let base = OverheadModel::new();
    con.line("per-line metadata: 4 x 32-bit reference + 4 x 32-bit timestamp");
    con.line(format!(
        "capacity overhead, 4 active versions: {:>6.2}%  (paper: 12.5%)",
        base.capacity_overhead(4) * 100.0
    ));
    con.line(format!(
        "capacity overhead, 1 active version:  {:>6.2}%  (paper: 50% worst case)",
        base.capacity_overhead(1) * 100.0
    ));
    let bundled = OverheadModel {
        version_cap: 4,
        bundle_lines: 8,
    };
    con.line(format!(
        "worst case with 8-line bundles:       {:>6.2}%  (paper: ~6%)",
        bundled.capacity_overhead(1) * 100.0
    ));
    con.line(format!(
        "bundle copy-on-write cost:            {:>4} words per first write",
        bundled.copy_on_write_words()
    ));
    con.line(format!(
        "best-case bandwidth overhead:         {:>6.2}%  (paper: 12.5%)",
        base.best_case_bandwidth_overhead() * 100.0
    ));

    // The overhead model is analytic, not a simulation run; the report
    // carries its outputs in `extra`.
    let mut report = RunReport::new(ctx.name, "-", "-");
    for (key, value) in [
        ("capacity_overhead_4v", base.capacity_overhead(4)),
        ("capacity_overhead_1v", base.capacity_overhead(1)),
        ("capacity_overhead_1v_bundled", bundled.capacity_overhead(1)),
        ("copy_on_write_words", bundled.copy_on_write_words() as f64),
        (
            "best_case_bandwidth_overhead",
            base.best_case_bandwidth_overhead(),
        ),
    ] {
        report.extra.insert(key.into(), value);
    }
    ctx.sink.push(&report);
    None
}

/// Section 3.1 ablation: the version cap and its overflow policies.
///
/// The paper restricts the MVM to 4 versions and claims that both the
/// abort-writer and discard-oldest policies "affect the abort rates and
/// performance by less than 1%" compared to unbounded versions. This
/// ablation measures abort rate and throughput for cap 2/4/8 under both
/// policies plus the unbounded configuration, on the three
/// microbenchmarks (the version-hungriest workloads).
fn ablate_version_cap(ctx: &Ctx) -> Option<(usize, f64)> {
    const VARIANTS: [(&str, usize, OverflowPolicy); 5] = [
        ("abort cap=2", 2, OverflowPolicy::AbortWriter),
        ("abort cap=4", 4, OverflowPolicy::AbortWriter),
        ("abort cap=8", 8, OverflowPolicy::AbortWriter),
        ("drop  cap=4", 4, OverflowPolicy::DiscardOldest),
        ("unbounded", usize::MAX, OverflowPolicy::Unbounded),
    ];
    let (con, scale) = (&ctx.con, ctx.opts.scale);
    let threads = ctx.opts.threads_or(16);
    con.line(format!(
        "Ablation: MVM version cap and overflow policy ({threads} threads)"
    ));
    con.blank();

    let names = names(microbenchmarks(scale));
    let cells: Vec<(usize, usize, OverflowPolicy)> = (0..names.len())
        .flat_map(|index| VARIANTS.map(|(_, cap, policy)| (index, cap, policy)))
        .collect();
    let n = cells.len();
    let (results, wall_ms) = ctx.runner.run_timed(cells, |(index, cap, policy)| {
        let cfg = machine(threads);
        let mut workloads = microbenchmarks(scale);
        let mut si_cfg = SiTmConfig::default();
        si_cfg.mvm.version_cap = cap;
        si_cfg.mvm.overflow_policy = policy;
        timed(|| run_si_tm(si_cfg, workloads[index].as_mut(), &cfg, 42).0)
    });

    for (name, group) in names.iter().zip(results.chunks(VARIANTS.len())) {
        con.line(format!("== {name} =="));
        con.row(
            "variant",
            &["aborts", "abort rate", "commits/kc"].map(String::from),
        );
        for ((label, cap, _), (stats, cell_wall)) in VARIANTS.iter().zip(group) {
            con.row(
                label,
                &[
                    stats.aborts().to_string(),
                    format!("{:.2}%", stats.abort_rate() * 100.0),
                    format!("{:.3}", stats.throughput()),
                ],
            );
            let mut report = variant_report(ctx, label, stats, *cell_wall);
            if *cap != usize::MAX {
                report.extra.insert("version_cap".into(), *cap as f64);
            }
            ctx.sink.push(&report);
        }
        con.blank();
    }
    con.line("paper expectation: cap-4 policies within ~1% of unbounded.");
    Some((n, wall_ms))
}

/// Section 3.1 ablation: version coalescing.
///
/// Coalescing bounds the number of live versions by the number of
/// concurrent snapshots (figure 4): a new version slot is created only
/// when some live snapshot separates it from the previous one. The
/// scenario where this matters is the paper's own motivating one — "one
/// thread might commit an arbitrary number of modifications while
/// another thread is executing a long running transaction". This
/// ablation runs exactly that ([`PinnedScanner`]): one long-running
/// scanner pins an old snapshot while update threads hammer a single hot
/// line; with coalescing the line's version list stays at the number of
/// live snapshots, without it the list grows with every commit.
fn ablate_coalescing(ctx: &Ctx) -> Option<(usize, f64)> {
    let con = &ctx.con;
    con.line("Ablation: version coalescing");
    con.line("scenario: 1 long scanner pinning snapshots + 1 update thread");
    con.line("hammering one line (unbounded version lists)");
    con.blank();
    con.row(
        "coalescing",
        &["created", "merged", "max live", "hot commits"].map(String::from),
    );
    let (results, wall_ms) = ctx.runner.run_timed(vec![true, false], |coalescing| {
        let cfg = machine(2);
        let mut w = PinnedScanner {
            cold_lines: 512,
            scans: 6,
            updates_per_thread: 1200,
            cold_base: None,
            hot: None,
        };
        let mut si_cfg = unbounded();
        si_cfg.mvm.coalescing = coalescing;
        timed(|| run_si_tm(si_cfg, &mut w, &cfg, 42))
    });
    for (label, ((stats, protocol), cell_wall)) in ["on", "off"].into_iter().zip(&results) {
        let (created, merged) = protocol.store().install_counts();
        con.row(
            label,
            &[
                created.to_string(),
                merged.to_string(),
                protocol.store().max_version_count().to_string(),
                stats.commits().to_string(),
            ],
        );
        let mut report = variant_report(ctx, label, stats, *cell_wall);
        let mut reg = MetricsRegistry::new();
        protocol.export_metrics(&mut reg);
        report.set_counters(&reg);
        ctx.sink.push(&report);
    }
    con.blank();
    con.line("paper's figure 4 claim: with coalescing the live versions stay near");
    con.line("the number of concurrent snapshots; without it, every commit to the");
    con.line("hot line under a pinned snapshot adds a version.");
    Some((2, wall_ms))
}

/// Section 6.4 ablation: exponential backoff for the eager baselines.
///
/// "The two eager mechanisms utilize exponential backoff to avoid
/// livelock in situations where transactions consecutively abort each
/// other, which particularly occurs in Genome... Without exponential
/// backoff 2PL and CS show even higher abort rates and consequently
/// lower performance."
fn ablate_backoff(ctx: &Ctx) -> Option<(usize, f64)> {
    let (con, scale) = (&ctx.con, ctx.opts.scale);
    let threads = ctx.opts.threads_or(16);
    con.line(format!("Ablation: exponential backoff ({threads} threads)"));
    con.blank();
    con.row(
        "bench/proto",
        &["backoff", "aborts", "commits/kc"].map(String::from),
    );

    // Genome is the paper's named example; include the other
    // high-contention benchmarks for context.
    let names = names(all_workloads(scale));
    let mut cells = Vec::new();
    for (index, name) in names.iter().enumerate() {
        if ["genome", "list", "kmeans", "intruder"].contains(&name.as_str()) {
            for proto in Protocol::PAPER {
                cells.extend([(index, proto, true), (index, proto, false)]);
            }
        }
    }
    let (results, wall_ms) = ctx
        .runner
        .run_timed(cells.clone(), |(index, proto, backoff)| {
            let mut cfg = machine(threads);
            cfg.backoff.enabled = backoff;
            // The backoff-off eager configurations can livelock for
            // astronomical virtual times (that is the point of the
            // experiment); cap the budget so the demo stays quick.
            cfg.max_cycles = 50_000_000;
            let mut workloads = all_workloads(scale);
            timed(|| run_once(proto, workloads[index].as_mut(), &cfg, 42))
        });

    let per_workload = 2 * Protocol::PAPER.len();
    for (i, (&(index, proto, backoff), (stats, cell_wall))) in
        cells.iter().zip(&results).enumerate()
    {
        if i > 0 && i % per_workload == 0 {
            con.blank();
        }
        let label = if backoff { "on" } else { "off" };
        ctx.sink
            .push(&variant_report(ctx, label, stats, *cell_wall));
        con.row(
            &format!("{}/{}", names[index], proto.name()),
            &[
                label.into(),
                format!(
                    "{}{}",
                    stats.aborts(),
                    if stats.truncated { "*" } else { "" }
                ),
                format!("{:.3}", stats.throughput()),
            ],
        );
    }
    con.blank();
    con.line("expectation: disabling backoff inflates abort counts for the eager");
    con.line("systems (2PL, SONTM) far more than for lazy SI-TM.");
    con.line("(* = run truncated at the cycle budget: livelock)");
    Some((cells.len(), wall_ms))
}

/// Section 4.2 ablation: word- vs line-granularity write-write conflict
/// detection.
///
/// SI-TM can compare conflicting lines against the snapshot at word
/// granularity, dismissing false-sharing and silent-store conflicts.
/// The paper's evaluation keeps line granularity for comparability and
/// calls its results "a lower bound"; this ablation quantifies what the
/// optimization buys on a deliberately false-sharing-prone workload
/// ([`DenseArray`]): the array microbenchmark with eight entries packed
/// per cache line.
fn ablate_granularity(ctx: &Ctx) -> Option<(usize, f64)> {
    let con = &ctx.con;
    let threads = ctx.opts.threads_or(16);
    con.line(format!(
        "Ablation: write-write conflict granularity ({threads} threads)"
    ));
    con.line("workload: dense array, 8 entries per line, single-entry RMW updates");
    con.blank();
    con.row(
        "granularity",
        &["aborts", "abort rate", "commits/kc"].map(String::from),
    );
    let (results, wall_ms) = ctx.runner.run_timed(vec![false, true], |word_granularity| {
        let cfg = machine(threads);
        let mut w = DenseArray {
            entries: 256,
            txs_per_thread: 100,
            base: None,
        };
        let si_cfg = SiTmConfig {
            word_granularity,
            ..SiTmConfig::default()
        };
        timed(|| run_si_tm(si_cfg, &mut w, &cfg, 42).0)
    });
    for (label, (stats, cell_wall)) in ["line", "word"].into_iter().zip(&results) {
        ctx.sink
            .push(&variant_report(ctx, label, stats, *cell_wall));
        con.row(
            label,
            &[
                stats.aborts().to_string(),
                format!("{:.2}%", stats.abort_rate() * 100.0),
                format!("{:.3}", stats.throughput()),
            ],
        );
    }
    con.blank();
    con.line("expectation: word granularity dismisses the false-sharing conflicts");
    con.line("(most of the line-granularity aborts here are between updates of");
    con.line("different words of the same line).");
    Some((2, wall_ms))
}

/// Section 5.2 extension experiment: the cost of serializable snapshot
/// isolation.
///
/// SSI-TM adds read-set tracking and dangerous-structure detection to
/// SI-TM, trading extra aborts (including false positives) for full
/// serializability. This experiment compares SI-TM and SSI-TM abort
/// rates and throughput across the benchmark suite — the paper sketches
/// the mechanism and leaves the evaluation to future work, so this
/// table is the reproduction's own contribution.
fn ablate_ssi(ctx: &Ctx) -> Option<(usize, f64)> {
    let con = &ctx.con;
    let threads = ctx.opts.threads_or(16);
    con.line(format!(
        "Extension: the cost of serializability (SSI-TM vs SI-TM, {threads} threads)"
    ));
    con.blank();
    con.row(
        "benchmark",
        &["SI rate", "SSI rate", "SI c/kc", "SSI c/kc", "overhead"].map(String::from),
    );
    let (names, grid, sweep) = grid(ctx, &[threads], &[Protocol::SiTm, Protocol::SsiTm]);
    for (name, pair) in names.iter().zip(grid.chunks(2)) {
        let (si, ssi) = (&pair[0].avg, &pair[1].avg);
        let overhead = if ssi.throughput > 0.0 {
            (si.throughput / ssi.throughput - 1.0) * 100.0
        } else {
            f64::NAN
        };
        con.row(
            name,
            &[
                format!("{:.2}%", si.abort_rate * 100.0),
                format!("{:.2}%", ssi.abort_rate * 100.0),
                format!("{:.3}", si.throughput),
                format!("{:.3}", ssi.throughput),
                format!("{overhead:+.1}%"),
            ],
        );
        for out in pair {
            let mut report = report_from_grid(ctx.name, name, ctx.opts.seeds, out);
            if overhead.is_finite() {
                report.extra.insert("ssi_overhead_pct".into(), overhead);
            }
            ctx.sink.push(&report);
        }
    }
    con.blank();
    con.line("SSI-TM buys full serializability (no write skew, no read promotion");
    con.line("needed) for the extra aborts shown; read-only transactions still");
    con.line("commit unconditionally under both.");
    Some(sweep)
}

/// Thread 0 runs a handful of very long scans over a cold region (each
/// pins a snapshot for a long time); every other thread repeatedly
/// read-modify-writes one hot line.
#[derive(Debug)]
struct PinnedScanner {
    cold_lines: u64,
    scans: usize,
    updates_per_thread: usize,
    cold_base: Option<Addr>,
    hot: Option<Addr>,
}

impl Workload for PinnedScanner {
    fn name(&self) -> &str {
        "pinned-scanner"
    }

    fn setup(&mut self, mem: &mut MvmStore, _n_threads: usize) {
        self.cold_base = Some(mem.alloc_lines(self.cold_lines).first_word());
        self.hot = Some(mem.alloc_lines(1).first_word());
    }

    fn thread_workload(&self, tid: usize, _seed: u64) -> Box<dyn ThreadWorkload> {
        let (tx, remaining) = if tid == 0 {
            let base = self.cold_base.expect("setup must run first");
            let lines = self.cold_lines;
            (PinnedTx::Scan { base, lines }, self.scans)
        } else {
            let hot = self.hot.expect("setup must run first");
            (PinnedTx::Bump(hot), self.updates_per_thread)
        };
        Box::new(Repeat { tx, remaining })
    }
}

/// The pinned scanner's two transactions: a read of every cold line, and
/// an increment of the hot line.
#[derive(Debug, Clone, Copy)]
enum PinnedTx {
    Scan { base: Addr, lines: u64 },
    Bump(Addr),
}

impl TxLogic for PinnedTx {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        match *self {
            PinnedTx::Scan { base, lines } => {
                for line in 0..lines {
                    mem.read(Addr(base.0 + line * 8)).await?;
                }
            }
            PinnedTx::Bump(hot) => {
                let v = mem.read(hot).await?;
                mem.write(hot, v + 1);
            }
        }
        Ok(())
    }
}

/// A thread that runs one transaction `remaining` more times.
#[derive(Debug)]
struct Repeat {
    tx: PinnedTx,
    remaining: usize,
}

impl ThreadWorkload for Repeat {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(LogicTx::boxed(self.tx))
    }
}

/// Dense array: eight entries share each cache line, so updates to
/// *different* entries falsely share lines.
#[derive(Debug)]
struct DenseArray {
    entries: usize,
    txs_per_thread: usize,
    base: Option<Addr>,
}

#[derive(Debug)]
struct DenseUpdate {
    base: Addr,
    index: usize,
}

impl TxLogic for DenseUpdate {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let a = self.base.add(self.index as u64);
        let v = mem.read(a).await?;
        mem.write(a, v + 1);
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        5
    }
}

#[derive(Debug)]
struct DenseThread {
    rng: SmallRng,
    remaining: usize,
    base: Addr,
    entries: usize,
}

impl ThreadWorkload for DenseThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(LogicTx::boxed(DenseUpdate {
            base: self.base,
            index: self.rng.gen_range(0..self.entries),
        }))
    }
}

impl Workload for DenseArray {
    fn name(&self) -> &str {
        "dense-array"
    }

    fn setup(&mut self, mem: &mut MvmStore, _n_threads: usize) {
        self.base = Some(mem.alloc_words(self.entries as u64));
    }

    fn thread_workload(&self, _tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        Box::new(DenseThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: self.txs_per_thread,
            base: self.base.expect("setup must run first"),
            entries: self.entries,
        })
    }
}
