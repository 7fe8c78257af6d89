//! `sim_grid`: the paper reproduction's inner loop on one host thread.
//!
//! A pass runs every cell of {2PL, SONTM, SI-TM, SSI-TM} x {array,
//! list, rbtree, kmeans, vacation} x the engine seeds derived from
//! `--seed`, at `Scale::Default` and 8 simulated cores. Every pass is
//! the same deterministic work, so every pass must produce the same
//! statistics bit for bit; only host time differs between them. All
//! times here are host time, never simulated time.

use std::time::{Duration, Instant};

use sitm_core::{SiTm, Sontm, SsiTm, TwoPl};
use sitm_obs::{Phase, PhaseCycles};
use sitm_serve::percentile;
use sitm_sim::{AbortCause, Engine, MachineConfig, RunStats, TmProtocol, Workload};
use sitm_workloads::stamp::{KmeansParams, KmeansWorkload, VacationParams, VacationWorkload};
use sitm_workloads::{
    ArrayParams, ArrayWorkload, ListParams, ListWorkload, RbTreeParams, RbTreeWorkload,
};

use crate::gen::Fnv;
use crate::run::{peak_rss_mb, repeated_setup, SEGMENTS};
use crate::span::{chrome_trace, SpanBuf};
use crate::stats::median;
use crate::{Ctx, Outcome};

pub const NAME: &str = "sim_grid";

const CORES: usize = 8;

/// Engine seeds per pass; sized so one pass takes about a quarter of
/// the default `--seconds`.
const ENGINE_SEEDS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    TwoPl,
    Sontm,
    SiTm,
    SsiTm,
}

impl Protocol {
    const ALL: [Protocol; 4] = [
        Protocol::TwoPl,
        Protocol::Sontm,
        Protocol::SiTm,
        Protocol::SsiTm,
    ];

    /// The layer-metric infix, as in `core.si_tm.ops_per_s`.
    fn key(self) -> &'static str {
        match self {
            Protocol::TwoPl => "2pl",
            Protocol::Sontm => "sontm",
            Protocol::SiTm => "si_tm",
            Protocol::SsiTm => "ssi_tm",
        }
    }
}

const LOADS: usize = 5;

fn build_load(index: usize) -> Box<dyn Workload> {
    match index {
        0 => Box::new(ArrayWorkload::new(ArrayParams::default())),
        1 => Box::new(ListWorkload::new(ListParams::default())),
        2 => Box::new(RbTreeWorkload::new(RbTreeParams::default())),
        3 => Box::new(KmeansWorkload::new(KmeansParams::default())),
        4 => Box::new(VacationWorkload::new(VacationParams::default())),
        _ => unreachable!("LOADS workloads"),
    }
}

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::with_cores(CORES);
    // The ceiling the figure harnesses run under.
    cfg.max_cycles = 2_000_000_000;
    cfg
}

fn engine_seeds(seed: u64) -> Vec<u64> {
    (0..ENGINE_SEEDS)
        .map(|k| {
            let mut id = Fnv::default();
            id.u64(seed);
            id.bytes(NAME.as_bytes());
            id.u64(k);
            id.0
        })
        .collect()
}

/// An engine set up for one cell: the workload has built its data in
/// simulated memory and nothing has run yet.
enum Built {
    TwoPl(Engine<TwoPl>),
    Sontm(Engine<Sontm>),
    SiTm(Engine<SiTm>),
    SsiTm(Engine<SsiTm>),
}

impl Built {
    fn new(protocol: Protocol, w: &mut dyn Workload, cfg: &MachineConfig, seed: u64) -> Built {
        match protocol {
            Protocol::TwoPl => Built::TwoPl(Engine::new(TwoPl::new(cfg), w, cfg, seed)),
            Protocol::Sontm => Built::Sontm(Engine::new(Sontm::new(cfg), w, cfg, seed)),
            Protocol::SiTm => Built::SiTm(Engine::new(SiTm::new(cfg), w, cfg, seed)),
            Protocol::SsiTm => Built::SsiTm(Engine::new(SsiTm::new(cfg), w, cfg, seed)),
        }
    }

    /// Runs the simulation; returns its statistics and the deepest
    /// version list the simulated memory ended with.
    fn run(self) -> (RunStats, usize) {
        fn go<P: TmProtocol>(engine: Engine<P>) -> (RunStats, usize) {
            let (stats, protocol) = engine.run();
            (stats, protocol.store().max_version_count())
        }
        match self {
            Built::TwoPl(engine) => go(engine),
            Built::Sontm(engine) => go(engine),
            Built::SiTm(engine) => go(engine),
            Built::SsiTm(engine) => go(engine),
        }
    }
}

/// Every cell of one pass, in the order it runs.
fn grid(seed: u64) -> impl Iterator<Item = (u64, Protocol, usize)> {
    engine_seeds(seed).into_iter().flat_map(|engine_seed| {
        Protocol::ALL
            .into_iter()
            .flat_map(move |protocol| (0..LOADS).map(move |load| (engine_seed, protocol, load)))
    })
}

/// Simulated transactional reads, writes and promotions, aborted
/// attempts included: trips through the engine's inner loop.
fn sim_ops(stats: &RunStats) -> u64 {
    stats.reads() + stats.writes() + stats.per_thread.iter().map(|t| t.promotions).sum::<u64>()
}

struct Cell {
    protocol: Protocol,
    host: Duration,
    ops: u64,
    aborts: u64,
    depth_max: usize,
    phases: PhaseCycles,
}

/// One pass over the grid.
struct Pass {
    cells: Vec<Cell>,
    /// Host time spent constructing the cells' workloads and setting
    /// their engines up, outside the timer that `host` sums.
    build: Duration,
    /// Sum of the cells' host times.
    host: Duration,
    /// Digest over every cell's simulated statistics.
    digest: u64,
}

impl Pass {
    fn run(seed: u64, mut spans: Option<&mut SpanBuf>) -> Pass {
        let cfg = machine();
        let root = spans
            .as_deref_mut()
            .map(|s| s.open("sim.pass", Instant::now(), 0));
        let mut cells = Vec::new();
        let mut build = Duration::ZERO;
        let mut digest = Fnv::default();
        for (index, (engine_seed, protocol, load)) in grid(seed).enumerate() {
            let building = Instant::now();
            let mut workload = build_load(load);
            let engine = Built::new(protocol, workload.as_mut(), &cfg, engine_seed);
            let started = Instant::now();
            let (stats, depth_max) = engine.run();
            let ended = Instant::now();
            build += started - building;
            if let (Some(spans), Some(root)) = (spans.as_deref_mut(), root) {
                spans.push("sim.engine_new", building, started, root, index as u64);
                spans.push("sim.engine_run", started, ended, root, index as u64);
            }
            digest.u64(stats.commits());
            for cause in AbortCause::ALL {
                digest.u64(stats.aborts_by(cause));
            }
            digest.u64(stats.reads());
            digest.u64(stats.writes());
            digest.u64(stats.total_cycles);
            cells.push(Cell {
                protocol,
                host: ended - started,
                ops: sim_ops(&stats),
                aborts: stats.aborts(),
                depth_max,
                phases: stats.phase_cycles(),
            });
        }
        if let (Some(spans), Some(root)) = (spans, root) {
            spans.close(root, Instant::now());
        }
        let host = cells.iter().map(|c| c.host).sum();
        Pass {
            cells,
            build,
            host,
            digest: digest.0,
        }
    }

    fn ops(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.host.as_secs_f64()
    }

    /// Percentile over the cells of a cell's host time per simulated
    /// operation. Cells differ in length by two orders of magnitude
    /// and their lengths follow the seed; per operation they compare.
    fn op_percentile_us(&self, p: f64) -> f64 {
        let mut ps_per_op: Vec<u64> = self
            .cells
            .iter()
            .map(|c| (c.host.as_nanos() as u64 * 1000) / c.ops.max(1))
            .collect();
        ps_per_op.sort_unstable();
        percentile(&ps_per_op, p) as f64 / 1e6
    }

    fn of_protocol(&self, protocol: Protocol) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(move |c| c.protocol == protocol)
    }
}

/// The digest `bless` pins: one pass's simulated statistics.
pub fn grid_digest(seed: u64) -> u64 {
    Pass::run(seed, None).digest
}

/// Builds every cell's workload and engine once, keeping none: what a
/// pass spends outside its timer.
fn set_up_grid(seed: u64) {
    let cfg = machine();
    for (engine_seed, protocol, load) in grid(seed) {
        let mut workload = build_load(load);
        drop(Built::new(protocol, workload.as_mut(), &cfg, engine_seed));
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Timed before anything is simulated: how long the allocator takes
    // over the engines' memory depends on what was freed before, and
    // after a pass that follows the seed (22 ms or 50 ms a pass, one
    // or the other for a whole run).
    let ((), setup_s) = repeated_setup(
        || {
            set_up_grid(ctx.seed);
            Ok(())
        },
        drop,
    )?;
    let warm_up = Pass::run(ctx.seed, None);
    let mut builds = vec![warm_up.build.as_secs_f64()];

    // Passes until the time is used up: the whole of `--seconds`
    // untraced, or a segment's worth before the one traced pass.
    let budget = if ctx.trace {
        ctx.seconds / SEGMENTS as f64
    } else {
        ctx.seconds
    };
    let mut passes = Vec::new();
    let mut spent = 0.0;
    while spent < budget {
        let pass = Pass::run(ctx.seed, None);
        spent += pass.host.as_secs_f64();
        builds.push(pass.build.as_secs_f64());
        passes.push(pass);
    }

    let cells_per_pass = warm_up.cells.len() as u64;
    let timed_passes = passes.len() as u64 + u64::from(ctx.trace);
    let mut outcome = Outcome::new(ctx, cells_per_pass * timed_passes, 0);
    let rate = median(&passes.iter().map(Pass::ops_per_s).collect::<Vec<_>>());

    let mut traced = None;
    if ctx.trace {
        let mut spans = SpanBuf::new(Instant::now(), 1 + 2 * cells_per_pass as usize);
        let pass = Pass::run(ctx.seed, Some(&mut spans));
        ctx.write_trace(NAME, &chrome_trace(&[&spans]))?;
        traced = Some(pass);
    }

    for pass in passes.iter().chain(&traced) {
        if pass.digest != warm_up.digest {
            outcome.problems.push(format!(
                "a pass digested to {:016x}, the first to {:016x}: the simulator did not repeat",
                pass.digest, warm_up.digest
            ));
        }
    }
    if let Some(pinned) = ctx.pinned_grid_digest()? {
        if pinned != warm_up.digest {
            outcome.problems.push(format!(
                "grid statistics digest {:016x}, pinned {pinned:016x}",
                warm_up.digest
            ));
        }
    }

    let Some(traced) = traced else {
        let m = &mut outcome.metrics;
        let over_passes =
            |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        m.set("ops_per_s", rate);
        m.set("op_p50_us", over_passes(&|p| p.op_percentile_us(50.0)));
        m.set("op_p95_us", over_passes(&|p| p.op_percentile_us(95.0)));
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", peak_rss_mb());
        eprintln!(
            "{NAME}: {} passes of {cells_per_pass} cells at {}; p50/p95 are over a pass's cells",
            passes.len(),
            passes
                .iter()
                .map(|p| format!("{:.0}/s", p.ops_per_s()))
                .collect::<Vec<_>>()
                .join(" ")
        );
        return Ok(outcome);
    };

    let m = &mut outcome.metrics;
    m.set(
        "trace_overhead_pct",
        100.0 * (rate - traced.ops_per_s()) / rate,
    );
    m.set("sim.host_ns_per_op", 1e9 / rate);
    m.set(
        "sim.cells_per_s",
        median(
            &passes
                .iter()
                .map(|p| p.cells.len() as f64 / p.host.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
    );
    for protocol in Protocol::ALL {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|pass| {
                let ops: u64 = pass.of_protocol(protocol).map(|c| c.ops).sum();
                let host: Duration = pass.of_protocol(protocol).map(|c| c.host).sum();
                ops as f64 / host.as_secs_f64()
            })
            .collect();
        m.set(
            &format!("core.{}.ops_per_s", protocol.key()),
            median(&per_pass),
        );
    }
    // Simulated quantities: identical in every pass, so read from one.
    let mut phases = PhaseCycles::new();
    for cell in &warm_up.cells {
        phases.merge(&cell.phases);
    }
    for (name, phase) in [
        ("read", Phase::Read),
        ("write", Phase::Write),
        ("validate", Phase::Validate),
        ("commit", Phase::Commit),
        ("backoff", Phase::Backoff),
    ] {
        m.set(&format!("sim.phase_share.{name}"), phases.share(phase));
    }
    let aborts = |p: Protocol| warm_up.of_protocol(p).map(|c| c.aborts).sum::<u64>() as f64;
    m.set(
        "core.si_tm.abort_rel_2pl",
        aborts(Protocol::SiTm) / aborts(Protocol::TwoPl),
    );
    m.set(
        "core.sontm.abort_rel_2pl",
        aborts(Protocol::Sontm) / aborts(Protocol::TwoPl),
    );
    m.set(
        "mvm.depth_max",
        warm_up.cells.iter().map(|c| c.depth_max).max().unwrap_or(0) as f64,
    );
    m.set("workloads.build_ms", median(&builds) * 1e3);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_seeds_follow_the_seed() {
        assert_eq!(engine_seeds(42), engine_seeds(42));
        assert_ne!(engine_seeds(42), engine_seeds(7));
        let seeds = engine_seeds(42);
        assert_eq!(seeds.len() as u64, ENGINE_SEEDS);
        assert_ne!(seeds[0], seeds[1]);
    }

    #[test]
    fn every_load_index_builds() {
        let mut names: Vec<String> = (0..LOADS)
            .map(|i| build_load(i).name().to_string())
            .collect();
        names.dedup();
        assert_eq!(names.len(), LOADS);
    }
}
