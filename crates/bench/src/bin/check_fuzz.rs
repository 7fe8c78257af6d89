//! `check_fuzz` — deterministic schedule fuzzer for the isolation
//! oracle.
//!
//! Sweeps every protocol × every registry workload × seeds × core
//! counts at Quick scale (many small schedules beat few big ones for
//! axiom coverage), records each run's full transaction history, and
//! machine-checks it with the `sitm-check` oracle against the
//! discipline the protocol claims: SI axioms for SI-TM, conflict
//! serializability for 2PL and SONTM, SI + multiversion
//! serialization-graph acyclicity for SSI-TM.
//!
//! Every run is deterministic in (protocol, workload, cores, seed), so
//! any rejected history reproduces exactly from the printed cell.
//!
//! Options: `--seeds N` (default 8), `--threads N` (pin one core count;
//! default sweeps 4 and 8), `--jobs N`, `--json PATH`. Exits nonzero if
//! any history is rejected.

use std::collections::BTreeMap;

use sitm_bench::{
    machine, report_from_stats, run_once_with_history, seed_for, usage_error, Console, HarnessOpts,
    Protocol, ReportSink, SweepRunner,
};
use sitm_check::{check, Discipline};
use sitm_workloads::{all_workloads, Scale};

const PROTOCOLS: [Protocol; 4] = [
    Protocol::TwoPl,
    Protocol::Sontm,
    Protocol::SiTm,
    Protocol::SsiTm,
];

/// Finished-attempt capacity per run; Quick-scale runs stay far below
/// this, and the oracle refuses any history that overflowed it.
const HISTORY_CAPACITY: usize = 1 << 20;

struct CellOutcome {
    protocol: Protocol,
    workload: usize,
    cores: usize,
    seed: u64,
    committed: usize,
    aborted: usize,
    reads_checked: usize,
    failures: Vec<String>,
}

fn main() {
    let (mut opts, rest) = HarnessOpts::from_args();
    if let Some(arg) = rest.first() {
        usage_error(format!("unknown argument {arg:?}"));
    }
    // The fuzzer's default seed budget is its own (the shared harness
    // default of 3 is tuned for averaging, not schedule coverage).
    if !std::env::args().any(|a| a == "--seeds") {
        opts.seeds = 8;
    }
    let console = Console::new(&opts);
    let sink = ReportSink::new(&opts);

    let core_counts: Vec<usize> = match opts.threads {
        Some(n) => vec![n],
        None => vec![4, 8],
    };
    let names: Vec<String> = all_workloads(Scale::Quick)
        .iter()
        .map(|w| w.name().to_string())
        .collect();

    let mut cells = Vec::new();
    for &protocol in &PROTOCOLS {
        for workload in 0..names.len() {
            for &cores in &core_counts {
                for s in 0..opts.seeds {
                    cells.push((cells.len(), protocol, workload, cores, seed_for(s)));
                }
            }
        }
    }
    console.line(format!(
        "check_fuzz: certifying {} histories ({} protocols x {} workloads x {:?} cores x {} seeds, {} jobs)",
        cells.len(),
        PROTOCOLS.len(),
        names.len(),
        core_counts,
        opts.seeds,
        opts.jobs,
    ));
    console.blank();

    let runner = SweepRunner::from_opts(&opts);
    let names_ref = &names;
    let sink_ref = &sink;
    let (outcomes, wall_ms) =
        runner.run_timed(cells, |(order, protocol, workload, cores, seed)| {
            let mut workloads = all_workloads(Scale::Quick);
            let cfg = machine(cores);
            let stats = run_once_with_history(
                protocol,
                &mut *workloads[workload],
                &cfg,
                seed,
                HISTORY_CAPACITY,
            );
            let history = stats.history.as_ref().expect("recording was enabled");
            let report = check(Discipline::for_protocol(protocol.name()), history);

            let mut run_report = report_from_stats("check_fuzz", &stats, 1);
            run_report.extra.insert("seed".into(), seed as f64);
            run_report
                .extra
                .insert("reads_checked".into(), report.reads_checked as f64);
            run_report
                .extra
                .insert("violations".into(), report.violations.len() as f64);
            sink_ref.push_ordered(order as u64, &run_report);

            CellOutcome {
                protocol,
                workload,
                cores,
                seed,
                committed: report.committed,
                aborted: report.aborted,
                reads_checked: report.reads_checked,
                failures: report
                    .violations
                    .iter()
                    .map(|v| {
                        format!(
                            "{} x {} @ {} cores, seed {}: {v}",
                            protocol.name(),
                            names_ref[workload],
                            cores,
                            seed,
                        )
                    })
                    .collect(),
            }
        });

    // Per-protocol summary over the whole sweep.
    let mut by_protocol: BTreeMap<&str, (usize, usize, usize, usize)> = BTreeMap::new();
    for out in &outcomes {
        let entry = by_protocol.entry(out.protocol.name()).or_default();
        entry.0 += 1;
        entry.1 += out.committed;
        entry.2 += out.aborted;
        entry.3 += out.reads_checked;
    }
    console.row(
        "protocol",
        &["histories", "committed", "aborted", "reads checked"].map(String::from),
    );
    for &protocol in &PROTOCOLS {
        let (runs, committed, aborted, reads) = by_protocol[protocol.name()];
        console.row(
            protocol.name(),
            &[
                runs.to_string(),
                committed.to_string(),
                aborted.to_string(),
                reads.to_string(),
            ],
        );
    }
    console.blank();

    let failures: Vec<&String> = outcomes.iter().flat_map(|o| &o.failures).collect();
    let empty = outcomes
        .iter()
        .filter(|o| o.committed == 0)
        .map(|o| {
            format!(
                "{} x {} @ {} cores, seed {}: no committed transactions",
                o.protocol.name(),
                names[o.workload],
                o.cores,
                o.seed,
            )
        })
        .collect::<Vec<_>>();

    for line in &empty {
        console.line(format!("warning: {line}"));
    }
    if failures.is_empty() {
        console.line(format!(
            "all {} histories certified in {:.0} ms",
            outcomes.len(),
            wall_ms,
        ));
        sink.finish();
    } else {
        for failure in &failures {
            eprintln!("VIOLATION: {failure}");
        }
        eprintln!(
            "{} of {} histories rejected",
            failures.len(),
            outcomes.len()
        );
        sink.finish();
        std::process::exit(1);
    }
}
