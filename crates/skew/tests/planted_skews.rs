//! Randomized histories with *planted* write skews: the analyzer must
//! find every planted dangerous cycle and must not flag skew-free ones.
//!
//! Each case is generated from a deterministic seed (reported on
//! failure), replacing the previous property-testing dependency.

use sitm_obs::{History, OpKind, SmallRng, TxnBuilder};
use sitm_skew::analyze;

/// Appends transactions to a history, handing out the global sequence
/// numbers their lifetimes are measured in.
struct Recording {
    history: History,
    seq: u64,
    next_tx: u64,
}

impl Recording {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn begin(&mut self) -> TxnBuilder {
        self.next_tx += 1;
        let seq = self.next_seq();
        TxnBuilder::new(self.next_tx, 0, 0, seq, Some(0))
    }

    fn read(&mut self, tx: &mut TxnBuilder, line: u64) {
        let observed = Some(0);
        tx.op(self.next_seq(), OpKind::Read { line, observed });
    }

    fn write(&mut self, tx: &mut TxnBuilder, line: u64) {
        tx.op(self.next_seq(), OpKind::Write { line });
    }

    fn commit(&mut self, tx: TxnBuilder) {
        let seq = self.next_seq();
        self.history.push(tx.commit(seq, Some(seq)));
    }
}

/// Builds a history of `n_noise` non-overlapping single-variable RMW
/// transactions (never skew) and `n_planted` overlapping skew pairs on
/// dedicated variable pairs.
fn build_history(seed: u64, n_noise: usize, n_planted: usize) -> History {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rec = Recording {
        history: History::default(),
        seq: 0,
        next_tx: 0,
    };
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

/// Sequential (non-overlapping) RMW traffic over shared variables is
/// never flagged, at any volume.
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
