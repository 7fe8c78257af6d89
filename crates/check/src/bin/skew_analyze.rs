//! Command-line write-skew analyzer: reads a recorded transaction
//! history (`sitm.txn.v1` JSONL, as written by
//! `sitm_obs::History::to_jsonl` — the export of `Stm::history()` or
//! `Server::history()`) from a file or stdin and prints the
//! dependency-cycle findings and proposed read promotions.
//!
//! ```text
//! skew_analyze history.jsonl
//! some-tool | skew_analyze -
//! ```
//!
//! Exits 1 when dangerous structures are found, so the tool slots into
//! test pipelines the way the paper describes ("corrected applications
//! never showed inconsistent behavior even after extensive testing"),
//! 0 on a clean history, and 2 on a usage error or an unreadable
//! history.

use std::io::Read;
use std::process::ExitCode;

const USAGE: &str = "usage: skew_analyze [HISTORY.jsonl | -]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let arg = args.next().unwrap_or_else(|| "-".to_string());
    if let Some(extra) = args.next() {
        eprintln!("error: unexpected argument {extra:?}\n{USAGE}");
        return ExitCode::from(2);
    }
    let text = if arg == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("error: reading stdin: {e}");
            return ExitCode::from(2);
        }
        buf
    } else {
        match std::fs::read_to_string(&arg) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {arg}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let history = match sitm_obs::History::from_jsonl(&text) {
        Ok(history) => history,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if history.dropped() > 0 {
        eprintln!(
            "warning: the history dropped {} record(s); skews among them go unreported",
            history.dropped()
        );
    }
    let report = sitm_check::skew::analyze(&history);
    println!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
