//! Regression test: a sweep produces identical results regardless of
//! the `--jobs` level.
//!
//! The parallel sweep executor's contract (DESIGN.md §9) is that
//! determinism comes from per-cell seeding, never from execution
//! order: results are collected in cell order and seed folds run in a
//! fixed order, so tables and JSONL are byte-identical at `--jobs 1`
//! and `--jobs 4` — modulo the host wall-clock fields, which are the
//! only part of a report allowed to vary between runs.
//!
//! The grid includes the software STM's cells. Their sweep workers
//! share the STM's process-wide commit clock and snapshot registry, so
//! timestamps interleave across cells; what a cell decides must depend
//! on its own order only.

use sitm_bench::{
    report_from_grid, run_grid, strip_wall_clock, sweep_summary, GridPoint, Protocol, SweepRunner,
};
use sitm_obs::JsonlSink;
use sitm_stm::IsolationLevel;
use sitm_workloads::{all_workloads, Scale};

/// A small fig7-style grid: every paper protocol and both STM levels
/// over two workloads at two core counts, averaged over two seeds.
fn fig7_style_points() -> Vec<GridPoint> {
    let stm = [IsolationLevel::Snapshot, IsolationLevel::Serializable].map(Protocol::Stm);
    let mut points = Vec::new();
    for workload in [0, 1] {
        for cores in [2, 4] {
            for protocol in Protocol::PAPER.into_iter().chain(stm) {
                points.push(GridPoint {
                    protocol,
                    workload,
                    cores,
                });
            }
        }
    }
    points
}

/// Renders a grid sweep to JSONL the way the figure binaries do, then
/// strips the wall-clock keys so the remainder must be byte-identical.
fn sweep_jsonl(jobs: usize) -> (Vec<sitm_bench::GridOutcome>, String) {
    let runner = SweepRunner::new(jobs);
    let points = fig7_style_points();
    let (grid, wall_ms) = run_grid(&points, Scale::Quick, 2, &runner);

    let names: Vec<String> = all_workloads(Scale::Quick)
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let sink = JsonlSink::new();
    for out in &grid {
        let mut report = report_from_grid("fig7_abort_rates", &names[out.point.workload], 2, out);
        strip_wall_clock(&mut report);
        sink.push(&report);
    }
    let mut summary = sweep_summary("fig7_abort_rates", &runner, grid.len(), wall_ms);
    strip_wall_clock(&mut summary);
    sink.push(&summary);
    (grid, sink.into_jsonl())
}

#[test]
fn jobs_1_and_jobs_4_agree_exactly() {
    let (grid_seq, jsonl_seq) = sweep_jsonl(1);
    let (grid_par, jsonl_par) = sweep_jsonl(4);

    // Averaged derives PartialEq over every metric, including the f64
    // ones, so this asserts bit-exact equality of the simulation
    // results — not approximate agreement.
    assert_eq!(grid_seq.len(), grid_par.len());
    for (s, p) in grid_seq.iter().zip(&grid_par) {
        assert_eq!(s.point, p.point, "grid order must not depend on jobs");
        assert_eq!(
            s.avg, p.avg,
            "averaged stats for {:?} differ between jobs=1 and jobs=4",
            s.point
        );
    }

    assert_eq!(
        jsonl_seq, jsonl_par,
        "JSONL output (wall-clock fields stripped) must be byte-identical"
    );
}

#[test]
fn repeated_parallel_runs_agree() {
    // Two independent jobs=4 runs must also agree with each other:
    // thread scheduling differs between runs, and nothing of it may
    // leak into the results.
    let (_, a) = sweep_jsonl(4);
    let (_, b) = sweep_jsonl(4);
    assert_eq!(a, b, "parallel sweeps must be reproducible across runs");
}

#[test]
fn wall_clock_is_the_only_varying_part() {
    // The un-stripped summary report carries exactly the keys that
    // strip_wall_clock removes (plus the cell count, which is
    // deterministic); this pins the schema the stripping relies on.
    let runner = SweepRunner::new(2);
    let mut summary = sweep_summary("x", &runner, 7, 1.25);
    assert_eq!(summary.extra.get("jobs"), Some(&2.0));
    assert_eq!(summary.extra.get("cells"), Some(&7.0));
    assert_eq!(summary.extra.get("sweep_wall_ms"), Some(&1.25));
    strip_wall_clock(&mut summary);
    assert!(!summary.extra.contains_key("jobs"));
    assert!(!summary.extra.contains_key("sweep_wall_ms"));
    assert_eq!(summary.extra.get("cells"), Some(&7.0));
}
