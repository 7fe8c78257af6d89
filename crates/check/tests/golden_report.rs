//! Golden-file test for the `skew_analyze` report rendering.
//!
//! The report's `Display` output is the CLI's public interface — test
//! pipelines grep it — so format drift should be a deliberate,
//! reviewed change. The fixture history (`sitm.txn.v1` JSONL, exactly
//! what `History::to_jsonl` writes) covers every rendering branch:
//! multiple patterns, example cycles, and the promotion list. It holds
//! the Listing 1 banking write-skew (txns 1 and 2 over checking /
//! saving), a read-modify-write that starts after both skew parties
//! committed and must stay clean (txn 3), the same dangerous shape on a
//! disjoint variable pair (txns 4 and 5 over x / y), and an aborted
//! attempt that must be discarded (txn 6). To accept an intentional
//! format change, rerun with `SITM_UPDATE_GOLDEN=1` and review the diff
//! of `tests/fixtures/banking.report`.

use std::path::Path;

#[test]
fn banking_history_report_matches_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let text = std::fs::read_to_string(dir.join("banking.jsonl")).expect("fixture history");
    let history = sitm_obs::History::from_jsonl(&text).expect("fixture history parses");
    assert_eq!(history.to_jsonl(), text, "the fixture is a verbatim export");
    assert_eq!(history.len(), 6, "five commits and the aborted attempt");
    let report = sitm_check::skew::analyze(&history);

    // Structural sanity first, so a drifted golden file cannot mask an
    // analysis regression.
    assert_eq!(report.transactions_analyzed, 5);
    assert_eq!(report.findings.len(), 2, "both planted skews are found");
    assert!(report
        .promotions_by_variable()
        .iter()
        .map(String::as_str)
        .eq(["checking", "saving", "x", "y"]));

    let rendered = report.to_string();
    let golden_path = dir.join("banking.report");
    if std::env::var_os("SITM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden file");
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; run once with SITM_UPDATE_GOLDEN=1");
    assert_eq!(
        rendered,
        golden,
        "report format drifted from {}; if intentional, rerun with \
         SITM_UPDATE_GOLDEN=1 and review the diff",
        golden_path.display()
    );
}
