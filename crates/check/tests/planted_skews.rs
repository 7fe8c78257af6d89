//! Randomized histories with *planted* write skews: the analyzer must
//! find every planted dangerous cycle and must not flag skew-free ones.
//!
//! Every generated history is a legal SI execution (each transaction
//! reads the newest version committed before it began, and no two
//! overlapping transactions write one line), and each case asserts so
//! first: a cycle flagged in an illegal history would say nothing about
//! the analyzer. Each case is generated from a deterministic seed
//! (reported on failure).

use std::collections::HashMap;

use sitm_check::skew::analyze;
use sitm_check::{check, Discipline};
use sitm_obs::{History, OpKind, SmallRng, TxnBuilder};

/// Appends transactions to a history, handing out the global sequence
/// numbers and the commit timestamps of a snapshot-isolated run.
#[derive(Default)]
struct Recording {
    history: History,
    seq: u64,
    next_tx: u64,
    /// The last commit timestamp handed out.
    clock: u64,
    /// Each line's newest committed version.
    newest: HashMap<u64, u64>,
}

impl Recording {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Begins a transaction whose snapshot is every commit so far.
    fn begin(&mut self) -> TxnBuilder {
        self.next_tx += 1;
        let seq = self.next_seq();
        TxnBuilder::new(self.next_tx, 0, 0, seq, Some(self.clock))
    }

    /// A snapshot read: no commit lands between a transaction's begin
    /// and its reads here, so the snapshot's version is the newest one.
    fn read(&mut self, tx: &mut TxnBuilder, line: u64) {
        let observed = Some(self.newest.get(&line).copied().unwrap_or(0));
        tx.op(self.next_seq(), OpKind::Read { line, observed });
    }

    fn write(&mut self, tx: &mut TxnBuilder, line: u64) {
        tx.op(self.next_seq(), OpKind::Write { line });
    }

    fn commit(&mut self, tx: TxnBuilder) {
        let seq = self.next_seq();
        self.clock += 1;
        let record = tx.commit(seq, Some(self.clock));
        for line in record.write_lines() {
            self.newest.insert(line, self.clock);
        }
        self.history.push(record);
    }
}

/// Builds a history of `n_noise` sequential single-variable RMW
/// transactions (never skew) and `n_planted` overlapping skew pairs on
/// dedicated variable pairs.
fn build_history(seed: u64, n_noise: usize, n_planted: usize) -> History {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rec = Recording::default();
    // Noise: sequential RMWs over a pool of shared variables.
    for _ in 0..n_noise {
        let var = rng.gen_range(1..20u64);
        let mut tx = rec.begin();
        rec.read(&mut tx, var);
        rec.write(&mut tx, var);
        rec.commit(tx);
    }
    // Planted skew pairs on fresh variable ids (disjoint from noise).
    for i in 0..n_planted {
        let x = 1000 + 2 * i as u64;
        let y = x + 1;
        // Interleaved: both read {x, y}, a writes x, b writes y.
        let mut a = rec.begin();
        let mut b = rec.begin();
        for tx in [&mut a, &mut b] {
            for var in [x, y] {
                rec.read(tx, var);
            }
        }
        rec.write(&mut a, x);
        rec.write(&mut b, y);
        rec.commit(a);
        rec.commit(b);
    }
    let si = check(Discipline::SnapshotIsolation, &rec.history);
    assert!(si.is_ok(), "seed {seed}: the generator broke SI: {si}");
    rec.history
}

#[test]
fn planted_skews_are_all_found() {
    for case in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(0x534b_0000 + case);
        let seed = rng.gen_range(0u64..1000);
        let n_noise = rng.gen_range(0usize..30);
        let n_planted = rng.gen_range(0usize..8);

        let report = analyze(&build_history(seed, n_noise, n_planted));
        assert_eq!(
            report.findings.len(),
            n_planted,
            "case {case}: exactly the planted cycles are flagged"
        );
        if n_planted == 0 {
            assert!(report.is_clean(), "case {case}");
        } else {
            // Each planted pair proposes promotions on both variables.
            assert_eq!(report.promotions.len(), 2 * n_planted, "case {case}");
        }
    }
}

/// Sequential RMW traffic over shared variables is never flagged, at
/// any volume.
#[test]
fn sequential_traffic_is_clean() {
    for case in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(0x534b_1000 + case);
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(1usize..100);

        let report = analyze(&build_history(seed, n, 0));
        assert!(report.is_clean(), "case {case}");
        assert_eq!(report.transactions_analyzed, n, "case {case}");
    }
}
