//! # sitm-bench — harness regenerating the paper's tables and figures
//!
//! One binary, `sitm-bench <experiment>`, regenerates every table and
//! figure; [`experiments::EXPERIMENTS`] is the list (see `EXPERIMENTS.md`
//! at the repository root for paper-vs-measured results). Four more
//! binaries stand apart: `abort_forensics`, `check_fuzz`, `stm_scaling`
//! and `sitm_report`.
//!
//! This library holds the shared runner: protocol dispatch, seed
//! averaging, plain-text table formatting, and the **parallel sweep
//! executor**. The evaluation grid (benchmark × protocol × core count ×
//! seed) is embarrassingly parallel *across* cells even though every
//! cell is a sequential deterministic simulation, so each experiment
//! flattens its grid into [`Cell`]s and hands them to a [`SweepRunner`]
//! (`--jobs N` OS threads, default [`std::thread::available_parallelism`]).
//! Results are collected in cell order and all randomness is per-cell
//! seeded, so tables and `--json` output are byte-identical regardless
//! of job count (wall-clock fields excepted).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use sitm_core::{SiTm, SiTmConfig, Sontm, SsiTm, TwoPl};
use sitm_obs::{JsonlSink, PhaseCycles, RunReport};
use sitm_sim::{AbortCause, Engine, MachineConfig, RunStats, Workload};
use sitm_workloads::{all_workloads, Scale};

pub mod experiments;

/// The protocols compared in the evaluation (the paper's three, plus
/// SSI-TM from section 5.2 as an extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Eager requester-wins 2-phase locking (baseline).
    TwoPl,
    /// Conflict-serializable SONTM (baseline).
    Sontm,
    /// Snapshot-isolation TM (the paper's contribution).
    SiTm,
    /// Serializable snapshot isolation (section 5.2 extension).
    SsiTm,
}

impl Protocol {
    /// The three systems of the paper's figures, in their order.
    pub const PAPER: [Protocol; 3] = [Protocol::TwoPl, Protocol::Sontm, Protocol::SiTm];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::TwoPl => "2PL",
            Protocol::Sontm => "SONTM",
            Protocol::SiTm => "SI-TM",
            Protocol::SsiTm => "SSI-TM",
        }
    }
}

/// Runs `workload` under `protocol` once and returns the statistics.
pub fn run_once(
    protocol: Protocol,
    workload: &mut dyn Workload,
    cfg: &MachineConfig,
    seed: u64,
) -> RunStats {
    match protocol {
        Protocol::TwoPl => Engine::new(TwoPl::new(cfg), workload, cfg, seed).run().0,
        Protocol::Sontm => Engine::new(Sontm::new(cfg), workload, cfg, seed).run().0,
        Protocol::SiTm => Engine::new(SiTm::new(cfg), workload, cfg, seed).run().0,
        Protocol::SsiTm => Engine::new(SsiTm::new(cfg), workload, cfg, seed).run().0,
    }
}

/// Runs `workload` under `protocol` once with history recording enabled
/// (bounded at `capacity` finished attempts) and returns the statistics.
/// `RunStats::history` is always `Some`; the `check_fuzz` harness feeds
/// it to the [`sitm_check`] oracle and `abort_forensics` folds it.
pub fn run_once_with_history(
    protocol: Protocol,
    workload: &mut dyn Workload,
    cfg: &MachineConfig,
    seed: u64,
    capacity: usize,
) -> RunStats {
    match protocol {
        Protocol::TwoPl => {
            Engine::new(TwoPl::new(cfg), workload, cfg, seed)
                .record_history(capacity)
                .run()
                .0
        }
        Protocol::Sontm => {
            Engine::new(Sontm::new(cfg), workload, cfg, seed)
                .record_history(capacity)
                .run()
                .0
        }
        Protocol::SiTm => {
            Engine::new(SiTm::new(cfg), workload, cfg, seed)
                .record_history(capacity)
                .run()
                .0
        }
        Protocol::SsiTm => {
            Engine::new(SsiTm::new(cfg), workload, cfg, seed)
                .record_history(capacity)
                .run()
                .0
        }
    }
}

/// Runs an SI-TM variant with a custom protocol configuration (for the
/// ablations and the Table 2 census) and returns the statistics together
/// with the protocol model for post-run inspection.
pub fn run_si_tm(
    si_cfg: SiTmConfig,
    workload: &mut dyn Workload,
    cfg: &MachineConfig,
    seed: u64,
) -> (RunStats, SiTm) {
    Engine::new(SiTm::with_config(cfg, si_cfg), workload, cfg, seed).run()
}

/// Averaged metrics over several seeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Averaged {
    /// Mean abort rate (aborts / attempts).
    pub abort_rate: f64,
    /// Mean throughput (commits per kilocycle).
    pub throughput: f64,
    /// Mean total aborts.
    pub aborts: f64,
    /// Mean commits.
    pub commits: f64,
    /// Mean virtual run length in cycles.
    pub total_cycles: f64,
    /// Whether any seed's run hit the cycle ceiling.
    pub truncated: bool,
    /// Per-cause abort totals summed over seeds, indexed by
    /// [`AbortCause::index`].
    pub aborts_by_cause: [u64; AbortCause::ALL.len()],
    /// Phase-cycle profile summed over seeds and threads.
    pub phase_cycles: PhaseCycles,
}

impl Averaged {
    /// Folds one seed's statistics into the running sums. Call
    /// [`Averaged::finalize`] once all seeds are accumulated.
    pub fn accumulate(&mut self, stats: &RunStats) {
        self.abort_rate += stats.abort_rate();
        self.throughput += stats.throughput();
        self.aborts += stats.aborts() as f64;
        self.commits += stats.commits() as f64;
        self.total_cycles += stats.total_cycles as f64;
        self.truncated |= stats.truncated;
        for cause in AbortCause::ALL {
            self.aborts_by_cause[cause.index()] += stats.aborts_by(cause);
        }
        self.phase_cycles.merge(&stats.phase_cycles());
    }

    /// Divides the accumulated sums by the seed count, turning them into
    /// means (abort-cause and phase-cycle totals stay summed).
    pub fn finalize(&mut self, seeds: u64) {
        let n = seeds as f64;
        self.abort_rate /= n;
        self.throughput /= n;
        self.aborts /= n;
        self.commits /= n;
        self.total_cycles /= n;
    }
}

/// The deterministic seed used for seed index `s` of any averaged run
/// (the same schedule `run_avg` has always used).
pub fn seed_for(s: u64) -> u64 {
    1000 + s * 7919
}

/// Runs `protocol` over fresh instances of workload `index` from the
/// registry, averaged over `seeds` seeds (the paper averages five runs
/// with different random seeds). Sequential; the sweep-based
/// equivalent is [`run_grid`].
pub fn run_avg(
    protocol: Protocol,
    scale: Scale,
    index: usize,
    cfg: &MachineConfig,
    seeds: u64,
) -> Averaged {
    let mut acc = Averaged::default();
    for seed in 0..seeds {
        let mut workloads = all_workloads(scale);
        let w = workloads[index].as_mut();
        let stats = run_once(protocol, w, cfg, seed_for(seed));
        acc.accumulate(&stats);
    }
    acc.finalize(seeds);
    acc
}

// ---------------------------------------------------------------------------
// The parallel sweep executor.
// ---------------------------------------------------------------------------

/// One cell of an evaluation grid: a single deterministic simulation of
/// one workload under one protocol at one core count with one seed.
///
/// Cells carry registry *indices* rather than workload instances: each
/// executing worker constructs a fresh workload from
/// [`all_workloads`]`(scale)`, so every cell owns its state and cells
/// share nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Benchmark scale the workload is constructed at.
    pub scale: Scale,
    /// Index into [`all_workloads`].
    pub workload: usize,
    /// Simulated core count (the machine is [`machine`]`(cores)`).
    pub cores: usize,
    /// Engine seed.
    pub seed: u64,
}

/// The result of executing one [`Cell`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The simulation statistics.
    pub stats: RunStats,
    /// Host wall-clock milliseconds the cell took to execute.
    pub wall_ms: f64,
}

/// Executes one [`Cell`]: builds the Table 1 machine at `cell.cores`,
/// constructs the workload fresh, and runs the simulation.
pub fn run_cell(cell: Cell) -> CellOutcome {
    let cfg = machine(cell.cores);
    let start = Instant::now();
    let mut workloads = all_workloads(cell.scale);
    let w = workloads[cell.workload].as_mut();
    let stats = run_once(cell.protocol, w, &cfg, cell.seed);
    CellOutcome {
        stats,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Work-stealing executor for sweep cells.
///
/// Cells are drawn from a shared queue by `jobs` worker OS threads and
/// their results are collected *in cell order*, so downstream tables
/// and JSONL records do not depend on execution order. Determinism
/// comes from per-cell seeding: a cell's simulation never observes
/// which host thread ran it or when.
///
/// `jobs == 1` executes inline on the calling thread, byte-for-byte
/// preserving the harness's historical sequential behaviour.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// A runner honoring `--jobs N` / `SITM_JOBS` from the parsed
    /// harness options.
    pub fn from_opts(opts: &HarnessOpts) -> Self {
        SweepRunner::new(opts.jobs)
    }

    /// The number of worker threads this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes `f` over every element of `cells`, returning the
    /// results in input order.
    pub fn run<T, R, F>(&self, cells: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.run_timed(cells, f).0
    }

    /// Like [`SweepRunner::run`], additionally returning the total
    /// sweep wall-clock in milliseconds.
    pub fn run_timed<T, R, F>(&self, cells: Vec<T>, f: F) -> (Vec<R>, f64)
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let start = Instant::now();
        let n = cells.len();
        let results = if self.jobs <= 1 || n <= 1 {
            cells.into_iter().map(&f).collect()
        } else {
            // Shared FIFO queue; idle workers steal the next cell.
            let queue: Mutex<VecDeque<(usize, T)>> =
                Mutex::new(cells.into_iter().enumerate().collect());
            let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..self.jobs.min(n) {
                    scope.spawn(|| loop {
                        let next = queue.lock().expect("sweep queue poisoned").pop_front();
                        let Some((i, cell)) = next else { break };
                        let result = f(cell);
                        *slots[i].lock().expect("sweep slot poisoned") = Some(result);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("sweep slot poisoned")
                        .expect("every queued cell must produce a result")
                })
                .collect()
        };
        (results, start.elapsed().as_secs_f64() * 1e3)
    }
}

/// One point of an averaged evaluation grid: a (protocol, workload,
/// cores) configuration whose metrics are averaged over the seed
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Index into [`all_workloads`].
    pub workload: usize,
    /// Simulated core count.
    pub cores: usize,
}

/// The averaged result of one [`GridPoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridOutcome {
    /// The point this outcome belongs to.
    pub point: GridPoint,
    /// Seed-averaged metrics (identical to [`run_avg`]'s).
    pub avg: Averaged,
    /// Summed wall-clock milliseconds of the point's seed cells.
    pub wall_ms: f64,
}

/// Expands `points` × the seed schedule into [`Cell`]s, executes them
/// on `runner`, and folds each point's seeds back into an [`Averaged`]
/// — numerically identical to calling [`run_avg`] per point, because
/// cells are seeded and folded in the same order. Returns the outcomes
/// in `points` order plus the total sweep wall-clock in milliseconds.
pub fn run_grid(
    points: &[GridPoint],
    scale: Scale,
    seeds: u64,
    runner: &SweepRunner,
) -> (Vec<GridOutcome>, f64) {
    let cells: Vec<Cell> = points
        .iter()
        .flat_map(|p| {
            (0..seeds).map(move |s| Cell {
                protocol: p.protocol,
                scale,
                workload: p.workload,
                cores: p.cores,
                seed: seed_for(s),
            })
        })
        .collect();
    let (outcomes, wall_ms) = runner.run_timed(cells, run_cell);
    let mut grid = Vec::with_capacity(points.len());
    let mut it = outcomes.into_iter();
    for &point in points {
        let mut avg = Averaged::default();
        let mut point_wall = 0.0;
        for _ in 0..seeds {
            let outcome = it.next().expect("one outcome per expanded cell");
            avg.accumulate(&outcome.stats);
            point_wall += outcome.wall_ms;
        }
        avg.finalize(seeds);
        grid.push(GridOutcome {
            point,
            avg,
            wall_ms: point_wall,
        });
    }
    (grid, wall_ms)
}

/// Report `extra` keys that carry host wall-clock measurements (and the
/// job count that shaped them). These are the only fields allowed to
/// differ between runs of the same sweep at different `--jobs` values;
/// strip them with [`strip_wall_clock`] before byte-comparing JSONL.
pub const WALL_CLOCK_KEYS: [&str; 3] = ["wall_ms", "sweep_wall_ms", "jobs"];

/// Removes the [`WALL_CLOCK_KEYS`] from a report, leaving only the
/// deterministic simulation results.
pub fn strip_wall_clock(report: &mut RunReport) {
    for key in WALL_CLOCK_KEYS {
        report.extra.remove(key);
    }
}

/// The summary record appended to a sweep's JSONL output: how many
/// cells ran, on how many jobs, in how much host wall-clock — so the
/// speedup from `--jobs` is itself observable in the run report.
pub fn sweep_summary(bench: &str, runner: &SweepRunner, cells: usize, wall_ms: f64) -> RunReport {
    let mut report = RunReport::new(&format!("{bench}/sweep"), "-", "-");
    report.extra.insert("jobs".into(), runner.jobs() as f64);
    report.extra.insert("cells".into(), cells as f64);
    report.extra.insert("sweep_wall_ms".into(), wall_ms);
    report
}

// ---------------------------------------------------------------------------
// CLI options and output routing.
// ---------------------------------------------------------------------------

/// Harness CLI options shared by `sitm-bench` and the standalone
/// binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Benchmark scale.
    pub scale: Scale,
    /// Seeds averaged per data point.
    pub seeds: u64,
    /// Simulated-core override (`--threads N`); binaries fall back to
    /// their experiment's default via [`HarnessOpts::threads_or`].
    pub threads: Option<usize>,
    /// JSONL output path (`--json PATH`, `-` for stdout); see
    /// [`ReportSink`].
    pub json: Option<String>,
    /// Host worker threads for the sweep executor (`--jobs N`, or the
    /// `SITM_JOBS` environment variable, defaulting to
    /// [`std::thread::available_parallelism`]). Distinct from
    /// `--threads`, which is the *simulated* core count.
    pub jobs: usize,
}

/// `SITM_JOBS` if set and positive, else the host's available
/// parallelism, else 1.
fn default_jobs() -> usize {
    std::env::var("SITM_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: Scale::Default,
            seeds: 3,
            threads: None,
            json: None,
            jobs: default_jobs(),
        }
    }
}

/// The flags [`HarnessOpts::parse`] knows, for usage lines.
pub const FLAGS: &str =
    "[--quick] [--seeds N] [--threads N] [--jobs N] [--json PATH|-]  (N a positive integer)";

/// Prints `msg` to stderr and exits with status 2: a command line the
/// harness cannot act on costs no computed results.
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The value following `flag`, parsed as a positive integer.
pub fn positive(flag: &str, value: Option<&String>) -> Result<usize, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got {value:?}")),
    }
}

impl HarnessOpts {
    /// Parses `--quick` (tiny instances), `--seeds N`, `--threads N`,
    /// `--jobs N` and `--json PATH` from `args` (the command line
    /// without the program name). A known flag whose value is missing,
    /// unparsable or zero is an error naming the flag. Every other
    /// argument is returned, in order, for the caller to interpret or
    /// reject.
    pub fn parse(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut opts = HarnessOpts::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => opts.scale = Scale::Quick,
                "--seeds" => opts.seeds = positive(arg, it.next())? as u64,
                "--threads" => opts.threads = Some(positive(arg, it.next())?),
                "--jobs" => opts.jobs = positive(arg, it.next())?,
                "--json" => {
                    let path = it.next().ok_or("--json needs a path (or `-` for stdout)")?;
                    opts.json = Some(path.clone());
                }
                _ => rest.push(arg.clone()),
            }
        }
        Ok((opts, rest))
    }

    /// [`HarnessOpts::parse`] over the process's command line; a parse
    /// error prints the message and the usage line to stderr and exits
    /// with status 2.
    pub fn from_args() -> (Self, Vec<String>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|msg| usage_error(format!("{msg}\nusage: {FLAGS}")))
    }

    /// The `--threads` override, or the experiment's default.
    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default)
    }

    /// Whether JSONL goes to stdout (`--json -`), in which case all
    /// narrative text must be suppressed so the output stays
    /// machine-clean.
    pub fn json_to_stdout(&self) -> bool {
        self.json.as_deref() == Some("-")
    }
}

/// Routes the binaries' narrative output (headers, tables, expectation
/// text): printed to stdout normally, suppressed entirely under
/// `--json -` so stdout carries nothing but JSONL.
#[derive(Debug, Clone, Copy)]
pub struct Console {
    enabled: bool,
}

impl Console {
    /// A console honoring `opts`' output mode.
    pub fn new(opts: &HarnessOpts) -> Self {
        Console {
            enabled: !opts.json_to_stdout(),
        }
    }

    /// Prints one line of narrative text (suppressed under `--json -`).
    pub fn line(&self, text: impl std::fmt::Display) {
        if self.enabled {
            println!("{text}");
        }
    }

    /// Prints an empty line (suppressed under `--json -`).
    pub fn blank(&self) {
        if self.enabled {
            println!();
        }
    }

    /// Prints a table row via [`print_row`] (suppressed under
    /// `--json -`).
    pub fn row(&self, label: &str, cells: &[String]) {
        if self.enabled {
            print_row(label, cells);
        }
    }
}

/// Builds a [`RunReport`] from one run's statistics: per-cause abort
/// counts (nonzero causes only, keyed by [`AbortCause::label`]), the
/// derived rates, and the phase-cycle profile.
pub fn report_from_stats(bench: &str, stats: &RunStats, seeds: u64) -> RunReport {
    let mut report = RunReport::new(bench, &stats.protocol, &stats.workload);
    report.threads = stats.threads as u64;
    report.seeds = seeds;
    report.commits = stats.commits();
    for cause in AbortCause::ALL {
        let n = stats.aborts_by(cause);
        if n > 0 {
            report.aborts.insert(cause.label().to_string(), n);
        }
    }
    report.abort_rate = stats.abort_rate();
    report.throughput = stats.throughput();
    report.total_cycles = stats.total_cycles;
    report.truncated = stats.truncated;
    report.set_phase_cycles(&stats.phase_cycles());
    report
}

/// Builds a [`RunReport`] from seed-averaged metrics. Commit/abort
/// counts are the rounded per-seed means; the exact means are kept in
/// `extra` under `mean_commits` / `mean_aborts`.
pub fn report_from_avg(
    bench: &str,
    protocol: Protocol,
    workload: &str,
    threads: usize,
    seeds: u64,
    avg: &Averaged,
) -> RunReport {
    let mut report = RunReport::new(bench, protocol.name(), workload);
    report.threads = threads as u64;
    report.seeds = seeds;
    report.commits = avg.commits.round() as u64;
    for cause in AbortCause::ALL {
        let n = avg.aborts_by_cause[cause.index()];
        if n > 0 {
            report.aborts.insert(cause.label().to_string(), n);
        }
    }
    report.abort_rate = avg.abort_rate;
    report.throughput = avg.throughput;
    report.total_cycles = avg.total_cycles.round() as u64;
    report.truncated = avg.truncated;
    report.set_phase_cycles(&avg.phase_cycles);
    report.extra.insert("mean_commits".into(), avg.commits);
    report.extra.insert("mean_aborts".into(), avg.aborts);
    report
}

/// Like [`report_from_avg`], additionally stamping the grid point's
/// summed per-cell wall-clock into `extra["wall_ms"]`.
pub fn report_from_grid(bench: &str, workload: &str, seeds: u64, out: &GridOutcome) -> RunReport {
    let mut report = report_from_avg(
        bench,
        out.point.protocol,
        workload,
        out.point.cores,
        seeds,
        &out.avg,
    );
    report.extra.insert("wall_ms".into(), out.wall_ms);
    report
}

/// Collects [`RunReport`]s and writes them as JSON Lines when the
/// harness was given `--json PATH`; a silent no-op otherwise.
///
/// Backed by [`sitm_obs::JsonlSink`], so pushes are thread-safe through
/// a shared reference and parallel sweep workers can report directly
/// with [`ReportSink::push_ordered`]. `--json -` writes the document to
/// stdout instead of a file (pair with [`Console`], which suppresses
/// narrative text in that mode).
#[derive(Debug, Default)]
pub struct ReportSink {
    /// `None` without `--json`, in which case pushes are dropped.
    dest: Option<Dest>,
    sink: JsonlSink,
}

/// Where [`ReportSink::finish`] writes the document.
#[derive(Debug)]
enum Dest {
    Stdout,
    File { path: String, file: File },
}

impl ReportSink {
    /// A sink honoring `opts.json`. The output file is created (and
    /// truncated) here, so an unwritable path costs no computed
    /// results: it is a one-line error on stderr and exit status 2
    /// before the sweep starts.
    pub fn new(opts: &HarnessOpts) -> Self {
        Self::open(opts).unwrap_or_else(|msg| usage_error(msg))
    }

    fn open(opts: &HarnessOpts) -> Result<Self, String> {
        let dest = match opts.json.as_deref() {
            None => None,
            Some("-") => Some(Dest::Stdout),
            Some(path) => {
                let file =
                    File::create(path).map_err(|e| format!("cannot write --json {path}: {e}"))?;
                Some(Dest::File {
                    path: path.to_string(),
                    file,
                })
            }
        };
        Ok(ReportSink {
            dest,
            sink: JsonlSink::new(),
        })
    }

    /// Records one report (serialized eagerly) at the next position.
    pub fn push(&self, report: &RunReport) {
        if self.dest.is_some() {
            self.sink.push(report);
        }
    }

    /// Records one report at the deterministic position `order`
    /// (for pushes racing from sweep workers).
    pub fn push_ordered(&self, order: u64, report: &RunReport) {
        if self.dest.is_some() {
            self.sink.push_ordered(order, report);
        }
    }

    /// Writes the collected JSONL document. Call once at the end of
    /// `main`.
    ///
    /// # Panics
    ///
    /// Panics if the write to the already-open file fails: a figure
    /// binary asked for `--json` has no useful way to continue without
    /// its output.
    pub fn finish(self) {
        let Some(dest) = self.dest else { return };
        let count = self.sink.len();
        let text = self.sink.into_jsonl();
        match dest {
            Dest::Stdout => print!("{text}"),
            Dest::File { path, mut file } => {
                file.write_all(text.as_bytes())
                    .unwrap_or_else(|e| panic!("failed to write --json {path}: {e}"));
                eprintln!("wrote {count} report(s) to {path}");
            }
        }
    }
}

/// Wall-clock microbenchmark: runs `f` once as warmup, then `iters`
/// timed iterations, and prints the mean per-iteration time. The
/// criterion-free replacement used by `benches/*.rs`.
pub fn quickbench<F: FnMut()>(name: &str, iters: u32, mut f: F) {
    f();
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed() / iters;
    println!("{name:<40} {per_iter:>12.2?}/iter  ({iters} iters)");
}

/// The machine configuration used by every experiment: Table 1 with the
/// requested core count and a generous safety ceiling.
pub fn machine(threads: usize) -> MachineConfig {
    let mut cfg = MachineConfig::with_cores(threads);
    cfg.max_cycles = 2_000_000_000;
    cfg
}

/// Formats a ratio for the relative-abort tables: `1.00` for the
/// baseline, small values printed with enough precision to show
/// orders-of-magnitude reductions.
pub fn fmt_ratio(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x < 0.001 {
        format!("{x:.1e}")
    } else {
        format!("{x:.3}")
    }
}

/// Prints a row of right-aligned cells after a left-aligned label.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<12}");
    for c in cells {
        print!(" {c:>10}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocols_have_paper_names() {
        let names: Vec<&str> = Protocol::PAPER.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["2PL", "SONTM", "SI-TM"]);
    }

    #[test]
    fn run_avg_is_reproducible() {
        let cfg = machine(2);
        let a = run_avg(Protocol::SiTm, Scale::Quick, 0, &cfg, 2);
        let b = run_avg(Protocol::SiTm, Scale::Quick, 0, &cfg, 2);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
    }

    #[test]
    fn history_recording_does_not_perturb_results() {
        // The acceptance bar for the one record stream: turning it on
        // must leave every other observable output identical, under
        // every real protocol (their abort sites are what gets stamped).
        let cfg = machine(4);
        for protocol in [
            Protocol::TwoPl,
            Protocol::Sontm,
            Protocol::SiTm,
            Protocol::SsiTm,
        ] {
            let mut workloads = all_workloads(Scale::Quick);
            let plain = run_once(protocol, workloads[0].as_mut(), &cfg, 21);
            let mut workloads = all_workloads(Scale::Quick);
            let mut recorded =
                run_once_with_history(protocol, workloads[0].as_mut(), &cfg, 21, 1 << 16);
            let history = recorded.history.take().expect("history was enabled");
            assert_eq!(recorded, plain, "{}", protocol.name());
            assert_eq!(history.dropped(), 0);
            assert_eq!(history.len() as u64, plain.commits() + plain.aborts());
            assert_eq!(history.committed().count() as u64, plain.commits());
            // The simulator writes nothing the reader rejects.
            let back = sitm_obs::History::from_jsonl(&history.to_jsonl()).expect("reads back");
            assert_eq!(back.records(), history.records());
        }
    }

    #[test]
    fn recorded_labels_details_and_timestamps_agree() {
        // What the polling hooks used to deliver by convention, checked
        // on every record the real protocols produce: an abort's detail
        // belongs to its own cause, and the SI protocols' committed
        // records carry exactly the timestamps their outcomes returned.
        use sitm_obs::{ForensicCause as F, TxnOutcome};
        let workloads = all_workloads(Scale::Quick).len();
        let rbtree = all_workloads(Scale::Default)
            .iter()
            .position(|w| w.name() == "rbtree")
            .expect("rbtree is registered");
        let quick = [
            Protocol::TwoPl,
            Protocol::Sontm,
            Protocol::SiTm,
            Protocol::SsiTm,
        ]
        .into_iter()
        .flat_map(|p| (0..workloads).map(move |w| (p, Scale::Quick, w, 8)));
        // Plus the one default-scale cell whose zombies sandbox
        // themselves (`TxOp::Restart`): aborts no protocol site saw.
        let mut restarts = 0;
        for (protocol, scale, w, threads) in
            quick.chain([(Protocol::Sontm, Scale::Default, rbtree, 16)])
        {
            let timestamped = matches!(protocol, Protocol::SiTm | Protocol::SsiTm);
            let mut all = all_workloads(scale);
            let stats =
                run_once_with_history(protocol, all[w].as_mut(), &machine(threads), 21, 1 << 20);
            let history = stats.history.expect("history was enabled");
            assert_eq!(history.dropped(), 0);
            for r in history.records() {
                let ok = match (r.outcome, r.abort) {
                    (TxnOutcome::Aborted(label), Some(d)) => match label {
                        "inconsistent" | "clock-overflow" => {
                            restarts += 1;
                            d.cause == F::Explicit && d.line.is_none()
                        }
                        "write-write" => matches!(d.cause, F::WriteWriteFcw | F::LockTimeout),
                        "capacity" | "version-overflow" => d.cause == F::CapacityEviction,
                        "order" => matches!(d.cause, F::SsiPivot | F::ReadValidation),
                        "read-write" => d.cause == F::LockTimeout,
                        _ => false,
                    },
                    // Every abort is stamped.
                    (TxnOutcome::Aborted(_), None) => false,
                    // A commit timestamp iff something was installed.
                    (TxnOutcome::Committed, _) if timestamped => {
                        r.begin_ts.is_some()
                            && r.commit_ts.is_some() == r.write_lines().next().is_some()
                    }
                    (TxnOutcome::Committed, _) => true,
                };
                assert!(ok, "{} x {}: {r:?}", protocol.name(), stats.workload);
            }
        }
        assert!(restarts > 0, "no engine-originated abort was exercised");
    }

    #[test]
    fn fmt_ratio_covers_magnitudes() {
        assert_eq!(fmt_ratio(0.0), "0");
        assert_eq!(fmt_ratio(1.0), "1.000");
        assert!(fmt_ratio(0.0000321).contains('e'));
    }

    #[test]
    fn sweep_runner_preserves_input_order() {
        for jobs in [1, 4] {
            let runner = SweepRunner::new(jobs);
            // Uneven work so completion order differs from input order.
            let out = runner.run((0..32u64).collect(), |i| {
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i * 10
            });
            assert_eq!(out, (0..32u64).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_grid_matches_run_avg_exactly() {
        let point = GridPoint {
            protocol: Protocol::SiTm,
            workload: 0,
            cores: 2,
        };
        let (grid, _) = run_grid(&[point], Scale::Quick, 2, &SweepRunner::new(1));
        let direct = run_avg(Protocol::SiTm, Scale::Quick, 0, &machine(2), 2);
        assert_eq!(grid[0].avg, direct);
    }

    #[test]
    fn sweep_summary_carries_wall_clock_keys() {
        let runner = SweepRunner::new(3);
        let mut report = sweep_summary("figX", &runner, 12, 450.0);
        assert_eq!(report.bench, "figX/sweep");
        assert_eq!(report.extra.get("jobs"), Some(&3.0));
        assert_eq!(report.extra.get("cells"), Some(&12.0));
        strip_wall_clock(&mut report);
        // `cells` is deterministic and survives stripping; the
        // wall-clock keys (and the job count that shaped them) do not.
        assert_eq!(report.extra.get("cells"), Some(&12.0));
        assert!(!report.extra.contains_key("jobs"));
        assert!(!report.extra.contains_key("sweep_wall_ms"));
    }

    #[test]
    fn jobs_clamp_to_at_least_one() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
    }

    /// Parses a whitespace-separated command line.
    fn parse(line: &str) -> Result<(HarnessOpts, Vec<String>), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        HarnessOpts::parse(&args)
    }

    #[test]
    fn parse_defaults_and_well_formed_flags() {
        let (d, rest) = parse("").unwrap();
        assert_eq!(d.scale, Scale::Default);
        assert_eq!((d.seeds, d.threads, d.json), (3, None, None));
        assert!(d.jobs >= 1);
        assert!(rest.is_empty());

        let (o, rest) = parse("--quick --seeds 5 --threads 8 --jobs 2 --json -").unwrap();
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!((o.seeds, o.threads, o.jobs), (5, Some(8), 2));
        assert!(o.json_to_stdout());
        assert!(rest.is_empty());
    }

    #[test]
    fn parse_rejects_missing_unparsable_and_zero_values() {
        for flag in ["--seeds", "--threads", "--jobs"] {
            // Last argument, not a number, zero, negative, and a flag
            // where the value belongs.
            for value in ["", "abc", "0", "-1", "--quick"] {
                let line = format!("--quick {flag} {value}");
                let err = parse(&line).expect_err("malformed value must not parse");
                assert!(err.contains(flag), "{line:?}: {err}");
            }
        }
        assert!(parse("--quick --json").unwrap_err().contains("--json"));
    }

    #[test]
    fn parse_returns_what_it_does_not_consume() {
        let (o, rest) =
            parse("fig1 --workload long-scan --ops 0 --seeds 2 --seed 5 --chrome t.json").unwrap();
        assert_eq!(o.seeds, 2);
        assert_eq!((o.scale, o.threads, o.json), (Scale::Default, None, None));
        let expected = "fig1 --workload long-scan --ops 0 --seed 5 --chrome t.json";
        assert_eq!(rest, expected.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn report_sink_refuses_an_unwritable_path_up_front() {
        let opts = HarnessOpts {
            json: Some("/nonexistent-dir/x.jsonl".into()),
            ..HarnessOpts::default()
        };
        let err = ReportSink::open(&opts).expect_err("no cell has run yet");
        assert!(err.contains("/nonexistent-dir/x.jsonl"), "{err}");
    }

    #[test]
    fn report_sink_writes_what_was_pushed() {
        let path =
            std::env::temp_dir().join(format!("sitm-bench-sink-{}.jsonl", std::process::id()));
        let opts = HarnessOpts {
            json: Some(path.to_str().unwrap().into()),
            ..HarnessOpts::default()
        };
        let sink = ReportSink::open(&opts).unwrap();
        assert!(path.exists(), "created before the first push");
        sink.push(&RunReport::new("b", "p", "w"));
        sink.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"bench\":\"b\""), "{text}");
    }
}
