//! Abort forensics: where do aborts come from, per protocol and
//! workload?
//!
//! Sweeps protocol x workload at one thread count with history
//! recording on, folds each cell's `History` with
//! `ForensicsSnapshot::from_history`, and renders, per cell:
//!
//! * the per-cause abort table (the `ForensicCause` taxonomy:
//!   write-write first-committer-wins, read validation, SSI pivots,
//!   lock timeouts, capacity evictions, explicit aborts),
//! * the attribution rate (aborts carrying a concrete cause + line),
//! * the hottest conflicting cache lines (top-K sketch).
//!
//! `--json PATH` writes one `sitm.abort_forensics.v1` JSONL record per
//! (protocol, workload) cell. `--chrome PATH` additionally writes the
//! history of one representative cell (first workload under SI-TM,
//! seed 0) as a `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)
//! JSON array. Both destinations are opened before the sweep starts.
//! The run fails if fewer than 99% of aborts are attributed, or if any
//! cell's history dropped records.
//!
//! Usage: `cargo run --release -p sitm-bench --bin abort_forensics --
//! [--quick] [--seeds N] [--threads N] [--jobs N] [--json PATH]
//! [--chrome PATH]`

use std::fs::File;
use std::io::Write;

use sitm_bench::{
    machine, run_once_with_history, seed_for, usage_error, Console, HarnessOpts, Protocol,
    SweepRunner,
};
use sitm_obs::history::DEFAULT_HISTORY_CAPACITY;
use sitm_obs::{chrome_trace, ForensicCause, ForensicsReport, ForensicsSnapshot};
use sitm_workloads::all_workloads;

const PROTOCOLS: [Protocol; 4] = [
    Protocol::TwoPl,
    Protocol::Sontm,
    Protocol::SiTm,
    Protocol::SsiTm,
];

/// What one (workload, protocol, seed) cell hands back to the tables.
struct CellOutcome {
    /// The engine's own abort count.
    aborts: u64,
    /// The fold of the cell's recorded history.
    snapshot: ForensicsSnapshot,
    /// Records the history dropped over its capacity bound.
    dropped: u64,
    /// The Chrome rendering, for the one `--chrome` cell.
    timeline: Option<String>,
}

/// The binary's own `--chrome PATH` flag, from the arguments
/// [`HarnessOpts::parse`] left over; anything else there is an error.
fn chrome_arg(rest: &[String]) -> Option<String> {
    let mut chrome = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chrome" => match it.next() {
                Some(path) => chrome = Some(path.clone()),
                None => usage_error("--chrome needs a path"),
            },
            _ => usage_error(format!("unknown argument {arg:?}")),
        }
    }
    chrome
}

/// Creates (and truncates) the file `flag` names.
fn create(flag: &str, path: &str) -> File {
    File::create(path).unwrap_or_else(|e| usage_error(format!("cannot write {flag} {path}: {e}")))
}

/// Writes `text` to the file opened for `flag`.
fn write_out(flag: &str, path: &str, file: &mut File, text: &str) {
    file.write_all(text.as_bytes())
        .unwrap_or_else(|e| panic!("failed to write {flag} {path}: {e}"));
}

fn main() {
    let (opts, rest) = HarnessOpts::from_args();
    let chrome_path = chrome_arg(&rest);
    let mut json = opts
        .json
        .as_deref()
        .filter(|path| *path != "-")
        .map(|path| (path, create("--json", path)));
    let mut chrome = chrome_path
        .as_deref()
        .map(|path| (path, create("--chrome", path)));
    let runner = SweepRunner::from_opts(&opts);
    let con = Console::new(&opts);
    let threads = opts.threads_or(16);
    con.line(format!(
        "Abort forensics: per-cause attribution at {threads} threads, {} seed(s)",
        opts.seeds
    ));
    con.blank();

    let names: Vec<String> = all_workloads(opts.scale)
        .iter()
        .map(|w| w.name().to_string())
        .collect();

    // Flatten the (workload, protocol, seed) grid into cells; each cell
    // records one simulation's history and returns its folded pieces.
    let mut cells = Vec::new();
    for index in 0..names.len() {
        for proto in PROTOCOLS {
            for s in 0..opts.seeds {
                cells.push((index, proto, s));
            }
        }
    }
    let scale = opts.scale;
    let want_chrome = chrome.is_some();
    let mut outcomes = runner.run(cells.clone(), |(index, proto, s)| {
        let cfg = machine(threads);
        let mut workloads = all_workloads(scale);
        let stats = run_once_with_history(
            proto,
            workloads[index].as_mut(),
            &cfg,
            seed_for(s),
            DEFAULT_HISTORY_CAPACITY,
        );
        let history = stats.history.as_ref().expect("history was enabled");
        // One representative timeline: the first workload under SI-TM at
        // seed 0 — deterministic, so the export is stable.
        let timeline = (want_chrome && index == 0 && proto == Protocol::SiTm && s == 0)
            .then(|| chrome_trace(history));
        CellOutcome {
            aborts: stats.aborts(),
            snapshot: ForensicsSnapshot::from_history(history),
            dropped: history.dropped(),
            timeline,
        }
    });

    // A truncated history would make the fold under-count its cell.
    for (&(index, proto, s), outcome) in cells.iter().zip(&outcomes) {
        if outcome.dropped > 0 {
            eprintln!(
                "abort_forensics: {} on {}, seed {s}: history dropped {} record(s) over its \
                 {DEFAULT_HISTORY_CAPACITY}-record capacity — failing",
                proto.name(),
                names[index],
                outcome.dropped
            );
            std::process::exit(1);
        }
    }
    if let Some((path, file)) = chrome.as_mut() {
        let timeline = outcomes.iter_mut().find_map(|o| o.timeline.take());
        write_out(
            "--chrome",
            path,
            file,
            &timeline.expect("the --chrome cell ran"),
        );
        eprintln!("wrote chrome://tracing JSON to {path}");
    }

    let mut jsonl = String::new();
    let mut grand_aborts = 0u64;
    let mut grand = ForensicsSnapshot::default();
    let mut it = outcomes.into_iter();
    for name in &names {
        con.line(format!("== {name} =="));
        let mut header = vec!["aborts".to_string(), "attrib".to_string()];
        header.extend(ForensicCause::ALL.iter().map(|c| c.label().to_string()));
        con.row("", &header);
        for proto in PROTOCOLS {
            let mut aborts = 0u64;
            let mut merged = ForensicsSnapshot::default();
            for _ in 0..opts.seeds {
                let cell = it.next().expect("grid matches display loops");
                aborts += cell.aborts;
                merged.merge(&cell.snapshot);
            }
            grand_aborts += aborts;
            grand.merge(&merged);
            let mut row = vec![
                aborts.to_string(),
                format!("{:.1}%", merged.attribution_rate() * 100.0),
            ];
            row.extend(
                ForensicCause::ALL
                    .iter()
                    .map(|&c| merged.count(c).to_string()),
            );
            con.row(proto.name(), &row);
            if !merged.hot_lines.is_empty() {
                let top: Vec<String> = merged
                    .hot_lines
                    .iter()
                    .take(3)
                    .map(|&(line, count)| format!("line {line:#x} x{count}"))
                    .collect();
                con.line(format!("  {} hottest: {}", proto.name(), top.join(", ")));
            }
            let report = ForensicsReport {
                bench: "abort_forensics".to_string(),
                protocol: proto.name().to_string(),
                workload: name.clone(),
                threads,
                seeds: opts.seeds as usize,
                snapshot: merged,
            };
            jsonl.push_str(&report.to_json_line());
            jsonl.push('\n');
        }
        con.blank();
    }

    // Overall attribution: recorded-and-lined aborts over the engine's
    // own abort count, so unrecorded aborts count against the rate too.
    let overall = if grand_aborts > 0 {
        grand.total as f64 / grand_aborts as f64 * grand.attribution_rate()
    } else {
        1.0
    };
    if grand_aborts > 0 {
        con.line(format!(
            "overall: {grand_aborts} aborts, {} recorded, {:.2}% attributed to a concrete cause",
            grand.total,
            overall * 100.0
        ));
    }

    if opts.json_to_stdout() {
        print!("{jsonl}");
    } else if let Some((path, file)) = json.as_mut() {
        write_out("--json", path, file, &jsonl);
        eprintln!("wrote forensics JSONL to {path}");
    }

    // Attribution gate: every abort site must hand the record a concrete
    // cause + line, so anything under 99% means a site regressed to
    // anonymous aborts.
    if overall < 0.99 {
        eprintln!(
            "abort_forensics: only {:.2}% of aborts attributed (< 99%) — failing",
            overall * 100.0
        );
        std::process::exit(1);
    }
}
