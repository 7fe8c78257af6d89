//! The `skew_analyze` exit contract: 1 with the report when a history
//! has dangerous structures, 0 when it is clean, 2 when the command line
//! or the history cannot be used.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn skew_analyze(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_skew_analyze"))
        .args(args)
        .output()
        .expect("skew_analyze runs")
}

/// A temporary file holding `text`, unique to this test process.
fn temp_history(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("skew_analyze_{}_{name}", std::process::id()));
    std::fs::write(&path, text).expect("write a temporary history");
    path
}

#[test]
fn skews_exit_1_with_the_golden_report() {
    let out = skew_analyze(&[&fixture("banking.jsonl")]);
    assert_eq!(out.status.code(), Some(1));
    let golden = std::fs::read(fixture("banking.report")).expect("golden report");
    // `println!` ends the report with one more newline.
    assert_eq!(out.stdout, [&golden[..], b"\n"].concat());
}

#[test]
fn a_clean_history_exits_0() {
    // The fixture's lone read-modify-write, which no cycle touches.
    let banking = std::fs::read_to_string(fixture("banking.jsonl")).expect("fixture");
    let banking = sitm_obs::History::from_jsonl(&banking).expect("fixture parses");
    let mut history = sitm_obs::History::default();
    for r in banking.records().iter().filter(|r| r.txn == 3) {
        history.push(r.clone());
    }
    let path = temp_history("clean.jsonl", &history.to_jsonl());
    let out = skew_analyze(&[&path]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no write-skew"));
}

#[test]
fn unusable_input_exits_2() {
    let garbage = temp_history("garbage.jsonl", "{\"schema\": \"not a history\"\n");
    let missing = fixture("no_such_history.jsonl");
    let banking = fixture("banking.jsonl");
    for args in [
        &[garbage.as_path()][..],
        &[missing.as_path()][..],
        &[banking.as_path(), banking.as_path()][..],
    ] {
        let out = skew_analyze(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
    std::fs::remove_file(&garbage).ok();
    let two = skew_analyze(&[banking.as_path(), banking.as_path()]);
    assert!(String::from_utf8_lossy(&two.stderr).contains("usage: skew_analyze"));
}
