//! `sitm-bench <experiment>` — regenerates one of the paper's tables or
//! figures (the rows of `sitm_bench::experiments::EXPERIMENTS`). At no
//! flags its stdout is `results/<experiment>.txt`, byte for byte.
//!
//! Usage: `cargo run --release -p sitm-bench -- <experiment> [--quick]
//! [--seeds N] [--threads N] [--jobs N] [--json PATH]`

use sitm_bench::experiments::{Ctx, Experiment, EXPERIMENTS};
use sitm_bench::{
    sweep_summary, usage_error, Console, HarnessOpts, ReportSink, SweepRunner, FLAGS,
};

/// The row the arguments [`HarnessOpts::parse`] left over name, or why
/// they name none.
fn choose(rest: &[String]) -> Result<(&'static str, Experiment), String> {
    if let Some(flag) = rest.iter().find(|arg| arg.starts_with('-')) {
        return Err(format!("unknown flag {flag:?}"));
    }
    match rest {
        [] => Err("missing experiment name".to_string()),
        [name] => EXPERIMENTS
            .into_iter()
            .find(|&(row, _)| row == name)
            .ok_or_else(|| format!("unknown experiment {name:?}")),
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

fn main() {
    let (opts, rest) = HarnessOpts::from_args();
    let (name, experiment) = choose(&rest).unwrap_or_else(|msg| {
        let names = EXPERIMENTS.map(|(name, _)| name).join(", ");
        usage_error(format!(
            "{msg}\nusage: sitm-bench <experiment> {FLAGS}\nexperiments: {names}"
        ))
    });
    let ctx = Ctx {
        name,
        runner: SweepRunner::from_opts(&opts),
        sink: ReportSink::new(&opts),
        con: Console::new(&opts),
        failures: Default::default(),
        opts,
    };
    if let Some((cells, wall_ms)) = experiment(&ctx) {
        ctx.sink
            .push(&sweep_summary(name, &ctx.runner, cells, wall_ms));
    }
    ctx.sink.finish();
    let failures = ctx
        .failures
        .into_inner()
        .expect("no experiment panics while logging a failure");
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("GATE FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
