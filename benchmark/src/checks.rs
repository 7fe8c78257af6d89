//! The correctness checks a run ends with. Each returns the problem
//! it found as a line of text; any problem makes the run incorrect
//! and its exit code nonzero. A failed *operation* is not a problem
//! here: it is counted in `failed` and the run stays correct.

use std::time::{Duration, Instant};

use sitm_check::{check, Discipline};
use sitm_obs::History;

/// How long the certified pass loads the program for.
pub const CERTIFIED_PASS: Duration = Duration::from_millis(100);

/// Records history for the certified pass must not run out of.
pub const HISTORY_CAPACITY: usize = 1 << 22;

/// The digest a lane folded over the operations it issued against the
/// one its `(seed, workload, lane)` must produce.
pub fn stream_digest(what: &str, got: Option<u64>, want: u64) -> Result<(), String> {
    match got {
        Some(got) if got == want => Ok(()),
        Some(got) => Err(format!("{what}: digest {got:016x}, expected {want:016x}")),
        None => Err(format!(
            "{what}: the run issued too few operations to digest"
        )),
    }
}

/// Transfers move money and never make it.
pub fn conserved(total: i64, funded: i64) -> Result<(), String> {
    if total == funded {
        Ok(())
    } else {
        Err(format!(
            "bank total {total} after the run, {funded} was funded"
        ))
    }
}

/// Every snapshot is released once the load threads and the server
/// are gone.
pub fn no_live_snapshots(live: usize) -> Result<(), String> {
    if live == 0 {
        Ok(())
    } else {
        Err(format!("{live} snapshot(s) still live after shutdown"))
    }
}

/// What the oracle said about one recorded history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    pub txns: usize,
    pub violations: usize,
    pub ns_per_txn: f64,
}

/// Checks `history` against the snapshot-isolation axioms.
///
/// # Errors
///
/// A truncated history or any violated axiom, with the oracle's
/// report.
pub fn certify(what: &str, history: &History) -> Result<Certificate, String> {
    let started = Instant::now();
    let report = check(Discipline::SnapshotIsolation, history);
    let elapsed = started.elapsed();
    if !report.is_ok() {
        return Err(format!("{what}: history not certified: {report}"));
    }
    if history.is_empty() {
        return Err(format!("{what}: the certified pass recorded nothing"));
    }
    Ok(Certificate {
        txns: history.len(),
        violations: report.violations.len(),
        ns_per_txn: elapsed.as_nanos() as f64 / history.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_obs::{OpKind, TxnBuilder};

    #[test]
    fn a_perturbed_digest_is_a_problem() {
        assert!(stream_digest("lane 0", Some(0xabc), 0xabc).is_ok());
        let err = stream_digest("lane 0", Some(0xabd), 0xabc).unwrap_err();
        assert!(err.contains("0000000000000abd") && err.contains("0000000000000abc"));
        assert!(stream_digest("lane 0", None, 0xabc).is_err());
    }

    #[test]
    fn an_unconserved_total_is_a_problem() {
        assert!(conserved(4_096_000, 4_096_000).is_ok());
        assert!(conserved(4_095_999, 4_096_000).is_err());
    }

    #[test]
    fn a_leaked_snapshot_is_a_problem() {
        assert!(no_live_snapshots(0).is_ok());
        assert!(no_live_snapshots(1).is_err());
    }

    fn writer(txn: u64, begin_ts: u64, commit_ts: u64) -> sitm_obs::TxnRecord {
        let mut t = TxnBuilder::new(txn, 0, 0, txn * 10, Some(begin_ts));
        t.op(txn * 10 + 1, OpKind::Write { line: 7 });
        t.commit(txn * 10 + 2, Some(commit_ts))
    }

    #[test]
    fn the_oracle_accepts_si_and_rejects_overlapping_writers() {
        let mut ok = History::default();
        ok.push(writer(1, 0, 1));
        ok.push(writer(2, 1, 2));
        let cert = certify("ok", &ok).unwrap();
        assert_eq!((cert.txns, cert.violations), (2, 0));

        let mut overlapping = History::default();
        overlapping.push(writer(1, 0, 2));
        overlapping.push(writer(2, 1, 3));
        let err = certify("bad", &overlapping).unwrap_err();
        assert!(err.contains("first-committer-wins"), "{err}");

        let mut truncated = History::with_capacity(1);
        truncated.push(writer(1, 0, 1));
        truncated.push(writer(2, 1, 2));
        assert!(certify("cut", &truncated)
            .unwrap_err()
            .contains("dropped-records"));
        assert!(certify("empty", &History::default()).is_err());
    }
}
