//! Run statistics: commit/abort accounting, cycle counts, and the
//! derived metrics (abort rate, throughput, speedup) reported by the
//! paper's figures.

use crate::config::Cycles;
use crate::protocol::AbortCause;
use sitm_obs::{History, PhaseCycles};

/// Statistics of one logical thread across a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Transactions that committed.
    pub commits: u64,
    /// Aborts by cause, indexed by [`AbortCause::index`].
    pub aborts: [u64; AbortCause::ALL.len()],
    /// Transactional reads issued.
    pub reads: u64,
    /// Transactional writes issued.
    pub writes: u64,
    /// Read promotions issued.
    pub promotions: u64,
    /// Cycles spent in exponential backoff.
    pub backoff_cycles: Cycles,
    /// Cycles stalled waiting to begin (commit reservation exhaustion).
    pub stall_cycles: Cycles,
    /// The thread's final virtual time.
    pub finish_cycles: Cycles,
    /// Every charged cycle attributed to its transaction phase.
    pub phase_cycles: PhaseCycles,
}

impl ThreadStats {
    /// Total aborts across causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Protocol name the run used.
    pub protocol: String,
    /// Workload name.
    pub workload: String,
    /// Number of logical threads.
    pub threads: usize,
    /// Per-thread statistics.
    pub per_thread: Vec<ThreadStats>,
    /// Virtual time at which the last thread finished.
    pub total_cycles: Cycles,
    /// Whether the safety valve (`max_cycles`) ended the run early.
    pub truncated: bool,
    /// Per-transaction execution history: the run's one record stream,
    /// read by the isolation oracle (`sitm-check`), the abort-forensics
    /// fold and the Chrome timeline. `None` unless the run was started
    /// through [`crate::Engine::record_history`]. Deliberately *not*
    /// part of any figure or report schema: recording must never change
    /// what the simulator reports.
    pub history: Option<History>,
}

impl RunStats {
    /// Total committed transactions.
    pub fn commits(&self) -> u64 {
        self.per_thread.iter().map(|t| t.commits).sum()
    }

    /// Total aborts across threads and causes.
    pub fn aborts(&self) -> u64 {
        self.per_thread.iter().map(|t| t.total_aborts()).sum()
    }

    /// Total aborts attributed to `cause`.
    pub fn aborts_by(&self, cause: AbortCause) -> u64 {
        self.per_thread
            .iter()
            .map(|t| t.aborts[cause.index()])
            .sum()
    }

    /// Abort rate: aborted execution attempts over all attempts
    /// (`aborts / (aborts + commits)`), as plotted in Figure 7. Zero when
    /// nothing ran to completion — unless the run was truncated, in
    /// which case a zero-attempt run means the protocol livelocked and
    /// the rate saturates to 1.0 rather than reporting a spuriously
    /// perfect 0.0.
    pub fn abort_rate(&self) -> f64 {
        let a = self.aborts() as f64;
        let c = self.commits() as f64;
        if a + c == 0.0 {
            if self.truncated {
                1.0
            } else {
                0.0
            }
        } else {
            a / (a + c)
        }
    }

    /// Phase-cycle profile summed over threads.
    pub fn phase_cycles(&self) -> PhaseCycles {
        let mut pc = PhaseCycles::new();
        for t in &self.per_thread {
            pc.merge(&t.phase_cycles);
        }
        pc
    }

    /// Committed transactions per kilocycle — the throughput measure from
    /// which Figure 8's speedups are derived. Zero for an empty run.
    pub fn throughput(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.commits() as f64 * 1000.0 / self.total_cycles as f64
        }
    }

    /// Total transactional reads.
    pub fn reads(&self) -> u64 {
        self.per_thread.iter().map(|t| t.reads).sum()
    }

    /// Total transactional writes.
    pub fn writes(&self) -> u64 {
        self.per_thread.iter().map(|t| t.writes).sum()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} {:<12} {:>2}T: {:>8} commits, {:>8} aborts ({:>5.1}% rate), {:>12} cycles{}",
            self.protocol,
            self.workload,
            self.threads,
            self.commits(),
            self.aborts(),
            self.abort_rate() * 100.0,
            self.total_cycles,
            if self.truncated { " [TRUNCATED]" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(commits: u64, rw: u64, ww: u64) -> RunStats {
        let mut t = ThreadStats {
            commits,
            ..Default::default()
        };
        t.aborts[AbortCause::ReadWrite.index()] = rw;
        t.aborts[AbortCause::WriteWrite.index()] = ww;
        RunStats {
            protocol: "test".into(),
            workload: "w".into(),
            threads: 1,
            per_thread: vec![t],
            total_cycles: 1000,
            truncated: false,
            history: None,
        }
    }

    #[test]
    fn abort_rate_and_counts() {
        let s = stats_with(80, 15, 5);
        assert_eq!(s.commits(), 80);
        assert_eq!(s.aborts(), 20);
        assert_eq!(s.aborts_by(AbortCause::ReadWrite), 15);
        assert!((s.abort_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_rates() {
        let s = RunStats::default();
        assert_eq!(s.abort_rate(), 0.0);
        assert_eq!(s.throughput(), 0.0);
    }

    #[test]
    fn truncated_zero_progress_run_saturates_abort_rate() {
        // A run that hit the cycle ceiling with neither commits nor
        // aborts (e.g. pure stall livelock) must not report a perfect
        // 0.0 abort rate.
        let s = RunStats {
            truncated: true,
            total_cycles: 1000,
            ..RunStats::default()
        };
        assert_eq!(s.abort_rate(), 1.0);
        // With any completed attempt, the ordinary ratio applies.
        let mut s2 = stats_with(1, 1, 0);
        s2.truncated = true;
        assert!((s2.abort_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phase_cycles_sum_over_threads() {
        use sitm_obs::Phase;
        let mut a = ThreadStats::default();
        a.phase_cycles.charge(Phase::Read, 10);
        let mut b = ThreadStats::default();
        b.phase_cycles.charge(Phase::Read, 5);
        b.phase_cycles.charge(Phase::Commit, 1);
        let s = RunStats {
            per_thread: vec![a, b],
            ..RunStats::default()
        };
        let pc = s.phase_cycles();
        assert_eq!(pc[Phase::Read], 15);
        assert_eq!(pc[Phase::Commit], 1);
        assert_eq!(pc.total(), 16);
    }

    #[test]
    fn summary_mentions_protocol_and_truncation() {
        let mut s = stats_with(1, 0, 0);
        s.truncated = true;
        let line = s.summary();
        assert!(line.contains("test"));
        assert!(line.contains("TRUNCATED"));
    }
}
