//! Section 4.2 ablation: word- vs line-granularity write-write conflict
//! detection.
//!
//! SI-TM can compare conflicting lines against the snapshot at word
//! granularity, dismissing false-sharing and silent-store conflicts.
//! The paper's evaluation keeps line granularity for comparability and
//! calls its results "a lower bound"; this ablation quantifies what the
//! optimization buys on a deliberately false-sharing-prone workload:
//! the array microbenchmark with eight entries packed per cache line.
//!
//! Usage: `cargo run --release -p sitm-bench --bin ablate_granularity
//! [--threads N] [--jobs N] [--json PATH]`

use sitm_bench::{
    machine, report_from_stats, run_si_tm, sweep_summary, Console, HarnessOpts, ReportSink,
    SweepRunner,
};
use sitm_core::SiTmConfig;
use sitm_mvm::{Addr, MvmStore, Word};
use sitm_obs::SmallRng;
use sitm_sim::{ThreadWorkload, TxProgram, Workload};
use sitm_workloads::{Diverged, LogicTx, TxLogic, TxMemory};

/// Dense array: eight entries share each cache line, so updates to
/// *different* entries falsely share lines.
#[derive(Debug)]
struct DenseArray {
    entries: usize,
    txs_per_thread: usize,
    base: Option<Addr>,
}

#[derive(Debug)]
struct DenseUpdate {
    base: Addr,
    index: usize,
}

impl TxLogic for DenseUpdate {
    async fn run(&self, mem: &mut TxMemory) -> Result<(), Diverged> {
        let a = self.base.add(self.index as u64);
        let v = mem.read(a).await?;
        mem.write(a, v + 1);
        Ok(())
    }

    fn compute_cycles(&self) -> u64 {
        5
    }
}

#[derive(Debug)]
struct DenseThread {
    rng: SmallRng,
    remaining: usize,
    base: Addr,
    entries: usize,
}

impl ThreadWorkload for DenseThread {
    fn next_transaction(&mut self) -> Option<Box<dyn TxProgram>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(LogicTx::boxed(DenseUpdate {
            base: self.base,
            index: self.rng.gen_range(0..self.entries),
        }))
    }
}

impl Workload for DenseArray {
    fn name(&self) -> &str {
        "dense-array"
    }

    fn setup(&mut self, mem: &mut MvmStore, _n_threads: usize) {
        self.base = Some(mem.alloc_words(self.entries as u64));
    }

    fn thread_workload(&self, _tid: usize, seed: u64) -> Box<dyn ThreadWorkload> {
        Box::new(DenseThread {
            rng: SmallRng::seed_from_u64(seed),
            remaining: self.txs_per_thread,
            base: self.base.expect("setup must run first"),
            entries: self.entries,
        })
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    let threads = opts.threads_or(16);
    let runner = SweepRunner::from_opts(&opts);
    let sink = ReportSink::new(&opts);
    let con = Console::new(&opts);

    con.line(format!(
        "Ablation: write-write conflict granularity ({threads} threads)"
    ));
    con.line("workload: dense array, 8 entries per line, single-entry RMW updates");
    con.blank();
    con.row(
        "granularity",
        &["aborts".into(), "abort rate".into(), "commits/kc".into()],
    );
    let (results, wall_ms) = runner.run_timed(vec![false, true], |word_granularity| {
        let cfg = machine(threads);
        let mut w = DenseArray {
            entries: 256,
            txs_per_thread: 100,
            base: None,
        };
        let si_cfg = SiTmConfig {
            word_granularity,
            ..SiTmConfig::default()
        };
        let start = std::time::Instant::now();
        let (stats, _) = run_si_tm(si_cfg, &mut w, &cfg, 42);
        (word_granularity, stats, start.elapsed().as_secs_f64() * 1e3)
    });
    for (word_granularity, stats, cell_wall) in &results {
        let label: &str = if *word_granularity { "word" } else { "line" };
        let _check: Word = 0;
        let mut report = report_from_stats(&format!("ablate_granularity/{label}"), stats, 1);
        report.extra.insert("wall_ms".into(), *cell_wall);
        sink.push(&report);
        con.row(
            label,
            &[
                stats.aborts().to_string(),
                format!("{:.2}%", stats.abort_rate() * 100.0),
                format!("{:.3}", stats.throughput()),
            ],
        );
    }
    con.blank();
    con.line("expectation: word granularity dismisses the false-sharing conflicts");
    con.line("(most of the line-granularity aborts here are between updates of");
    con.line("different words of the same line).");
    sink.push(&sweep_summary("ablate_granularity", &runner, 2, wall_ms));
    sink.finish();
}
