//! Every pinned `results/<name>.txt` table is `sitm-bench <name>`'s
//! stdout at no flags, byte for byte, and `sitm-bench` refuses a command
//! line it does not understand.
//!
//! The cheap rows run in the default suite; the four sweeps take seconds
//! in release and minutes in debug, so they run with `--include-ignored`
//! (CI does, in release).

use std::path::PathBuf;
use std::process::{Command, Output};

use sitm_bench::experiments::EXPERIMENTS;

/// The rows that finish in seconds in a debug build.
const CHEAP: [&str; 7] = [
    "table1_config",
    "overheads",
    "ablate_coalescing",
    "ablate_granularity",
    "ablate_version_cap",
    "table2_versions",
    "ablate_ssi",
];

/// Pinned tables no row regenerates, and the gate that covers each.
const NOT_ROWS: [(&str, &str); 2] = [
    (
        "abort_forensics",
        "CI regenerates it with `abort_forensics --seeds 3` and cmps it",
    ),
    ("stm_scaling", "host wall-clock; not byte-gated"),
];

fn results() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn sitm_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sitm-bench"))
        .args(args)
        .output()
        .expect("sitm-bench runs")
}

/// Runs each experiment at no flags and compares its stdout with the
/// pinned table, naming every one that differs.
fn assert_regenerate<'a>(names: impl IntoIterator<Item = &'a str>) {
    let mut stale = Vec::new();
    for name in names {
        let out = sitm_bench(&[name]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "sitm-bench {name} failed: {stderr}");
        let pinned = std::fs::read(results().join(format!("{name}.txt"))).expect("pinned table");
        if out.stdout != pinned {
            stale.push(format!(
                "results/{name}.txt differs; if the change is meant, regenerate it with\n  \
                 cargo run --release -p sitm-bench -- {name} > results/{name}.txt"
            ));
        }
    }
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}

#[test]
fn cheap_tables_regenerate() {
    assert_regenerate(CHEAP);
}

#[test]
#[ignore = "the figure sweeps take minutes in debug; run with --include-ignored in release"]
fn sweep_tables_regenerate() {
    assert_regenerate(
        EXPERIMENTS
            .map(|(name, _)| name)
            .into_iter()
            .filter(|name| !CHEAP.contains(name)),
    );
}

#[test]
fn every_pinned_table_is_a_row() {
    let rows = EXPERIMENTS.map(|(name, _)| name);
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(results()).expect("results/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|ext| ext == "txt") {
            let stem = path.file_stem().expect("a file name").to_string_lossy();
            stems.push(stem.into_owned());
        }
    }
    for stem in &stems {
        assert!(
            rows.contains(&stem.as_str()) || NOT_ROWS.iter().any(|(name, _)| name == stem),
            "results/{stem}.txt is neither an experiment nor a named exception"
        );
    }
    for name in rows.into_iter().chain(NOT_ROWS.map(|(name, _)| name)) {
        assert!(stems.iter().any(|s| s == name), "no results/{name}.txt");
    }
    for (name, gate) in NOT_ROWS {
        assert!(
            !rows.contains(&name),
            "{name} is a row, yet excused ({gate})"
        );
    }
}

#[test]
fn command_lines_it_does_not_understand_exit_2() {
    for (args, problem) in [
        (&["ablate_ssi", "--seed", "5"][..], "\"--seed\""),
        (&["fig9"][..], "\"fig9\""),
        (&[][..], "missing experiment"),
        (
            &["fig7_abort_rates", "fig8_speedup"][..],
            "\"fig8_speedup\"",
        ),
    ] {
        let out = sitm_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
        assert!(
            stderr.contains("fig7_abort_rates"),
            "lists the experiments: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
