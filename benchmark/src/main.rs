//! `sitm-benchmark` — the repository benchmark.
//!
//! One workload, as the driver runs it (the last line of standard
//! output is the result object):
//!
//! ```text
//! sitm-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload, each in a child process of its own:
//!
//! ```text
//! sitm-benchmark run    [--seed N] [--seconds S]   end-to-end metrics
//! sitm-benchmark trace  [--seed N] [--seconds S]   per-layer metrics, Chrome traces
//! sitm-benchmark repeat [N] [--seed N] [--seconds S]   spread over N runs
//! sitm-benchmark bless                              regenerate golden/digests.json
//! ```
//!
//! Run it from the repository root: traces, `result.json` and the
//! goldens are addressed relative to it. See `benchmark/README.md`.

mod checks;
mod gen;
mod golden;
mod replay;
mod run;
mod serve;
mod sim;
mod span;
mod spec;
mod stats;
mod stm;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use sitm_obs::Json;

use gen::{Mix, OpStream};
use golden::Golden;
use run::Schedule;
use spec::{MetricSet, MetricSpec, Spec};

/// Where `run` and `trace` leave their files, relative to the
/// repository root.
const OUT_DIR: &str = "benchmark/out";

/// Everything a workload needs to know about the run it is part of.
pub struct Ctx {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    golden: Golden,
}

impl Ctx {
    pub fn schedule(&self) -> Schedule {
        if self.trace {
            Schedule::traced(self.seconds)
        } else {
            Schedule::untraced(self.seconds)
        }
    }

    /// The digest lane `lane` of `workload` must produce: the pinned
    /// one for the pinned seed, a regeneration of the stream otherwise.
    pub fn expected_stream_digest(
        &self,
        workload: &str,
        lane: usize,
        mix: Mix,
    ) -> Result<u64, String> {
        Ok(self
            .golden
            .pinned(self.seed, &golden::stream_key(workload, lane))?
            .unwrap_or_else(|| OpStream::expected_digest(self.seed, workload, lane, mix)))
    }

    /// The pinned digest of the simulator grid's statistics, for the
    /// pinned seed.
    pub fn pinned_grid_digest(&self) -> Result<Option<u64>, String> {
        self.golden.pinned(self.seed, sim::NAME)
    }

    pub fn write_trace(&self, workload: &str, chrome_json: &str) -> Result<(), String> {
        write_out(&format!("trace-{workload}.json"), chrome_json)
    }
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{file}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{path}: {e}"))
}

/// What one workload run produced.
pub struct Outcome {
    pub metrics: MetricSet,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; empty on a correct run.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new(ctx: &Ctx, attempted: u64, failed: u64) -> Outcome {
        Outcome {
            metrics: if ctx.trace {
                MetricSet::per_layer(&ctx.spec)
            } else {
                MetricSet::end_to_end(&ctx.spec)
            },
            attempted,
            failed,
            problems: Vec::new(),
        }
    }

    /// Keeps the problem a check found, if it found one.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(problem) = result {
            self.problems.push(problem);
        }
    }

    /// The certified pass's verdict, and its per-layer numbers when
    /// this is the traced run.
    pub fn certified(&mut self, ctx: &Ctx, verdict: Result<checks::Certificate, String>) {
        match verdict {
            Ok(cert) if ctx.trace => {
                self.metrics.set("check.histories_certified", 1.0);
                self.metrics.set("check.violations", cert.violations as f64);
                self.metrics
                    .set("check.certify_ns_per_txn", cert.ns_per_txn);
            }
            Ok(_) => {}
            Err(problem) => self.problems.push(problem),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result object the driver reads.
    fn to_json(&self) -> Result<Json, String> {
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.finish()?),
        ]))
    }
}

pub fn workload_known(name: &str) -> bool {
    serve::find(name).is_some() || stm::find(name).is_some() || name == sim::NAME
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    if let Some(w) = serve::find(name) {
        serve::run(w, ctx)
    } else if let Some(w) = stm::find(name) {
        stm::run(w, ctx)
    } else if name == sim::NAME {
        sim::run(ctx)
    } else {
        Err(format!("unknown workload `{name}`"))
    }
}

/// Options shared by every form of the command line.
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Bare arguments: the subcommand and, for `repeat`, its count.
    words: Vec<String>,
}

fn parse_args(spec: &Spec, args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: golden::SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
        words: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{arg}` needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => opts.workload = Some(value()?.to_string()),
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` takes a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("`--seconds` takes a number in (0, 60]")?;
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            word => opts.words.push(word.to_string()),
        }
    }
    Ok(opts)
}

/// The driver's form: one workload in this process.
fn single(spec: Spec, opts: &Opts, workload: &str) -> Result<ExitCode, String> {
    let ctx = Ctx {
        spec,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        golden: Golden::embedded()?,
    };
    let outcome = run_workload(workload, &ctx)?;
    for problem in &outcome.problems {
        eprintln!("{workload}: INCORRECT: {problem}");
    }
    println!("{}", outcome.to_json()?.to_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of its own: `stm::epoch` is
/// process-global, so a snapshot left over from one workload must not
/// pin another's versions, and peak memory is then per workload.
fn child(workload: &str, opts: &Opts, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result ({})", output.status))?;
    let doc = Json::parse(line).map_err(|e| format!("{workload}: result line: {e:?}"))?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload}: result has no metrics"));
    };
    let count = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(ChildResult {
        correct: output.status.success()
            && doc.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Runs every workload once and prints `workload metric value unit`.
fn run_all(spec: &Spec, opts: &Opts, trace: bool) -> Result<BTreeMap<String, ChildResult>, String> {
    let listed = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut results = BTreeMap::new();
    for workload in spec.workload_names() {
        let result = child(workload, opts, trace)?;
        for m in listed {
            let value = result.metrics.get(&m.name).copied().unwrap_or(f64::NAN);
            println!("{workload} {} {value} {}", m.name, m.unit);
        }
        let share = result.failed as f64 / result.attempted.max(1) as f64;
        println!("{workload} ops_attempted {} count", result.attempted);
        println!("{workload} ops_failed {} count", result.failed);
        println!("{workload} fail_share {share} ratio");
        results.insert(workload.to_string(), result);
    }
    Ok(results)
}

fn results_json(opts: &Opts, results: &BTreeMap<String, ChildResult>) -> String {
    let workloads = results
        .iter()
        .map(|(name, r)| {
            let metrics = r
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect();
            let entry = Json::obj([
                ("correct", Json::Bool(r.correct)),
                ("ops_attempted", Json::Num(r.attempted as f64)),
                ("ops_failed", Json::Num(r.failed as f64)),
                (
                    "fail_share",
                    Json::Num(r.failed as f64 / r.attempted.max(1) as f64),
                ),
                ("metrics", Json::Obj(metrics)),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let doc = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    doc.to_line() + "\n"
}

fn all_correct(results: &BTreeMap<String, ChildResult>) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for (workload, result) in results {
        if !result.correct {
            eprintln!("{workload}: FAILED its correctness checks");
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn cmd_run(spec: &Spec, opts: &Opts) -> Result<ExitCode, String> {
    let results = run_all(spec, opts, false)?;
    write_out("result.json", &results_json(opts, &results))?;
    Ok(all_correct(&results))
}

/// The layers of `serve_closed`'s blocking chain beside the measured
/// median, and how much slower tracing made every workload.
fn cmd_trace(spec: &Spec, opts: &Opts) -> Result<ExitCode, String> {
    let results = run_all(spec, opts, true)?;
    write_out("trace-result.json", &results_json(opts, &results))?;
    if let Some(closed) = results.get("serve_closed") {
        let get = |name: &str| closed.metrics.get(name).copied().unwrap_or(0.0);
        let budget = get("server.budget_ns");
        let gap = get("server.unattributed_ns");
        println!(
            "budget serve_closed: layers sum to {budget:.0} ns, measured op_p50_us is {:.0} ns, \
             server.unattributed_ns {gap:.0} ns ({:.0}% accounted for)",
            budget + gap,
            100.0 * budget / (budget + gap)
        );
    }
    for (workload, result) in &results {
        let overhead = result
            .metrics
            .get("trace_overhead_pct")
            .copied()
            .unwrap_or(0.0);
        println!("{workload} trace_overhead_pct {overhead:.2} %");
    }
    Ok(all_correct(&results))
}

/// `worse` in the sense of `m.higher_is_better`, as a share of `base`.
fn worsening(m: &MetricSpec, base: f64, other: f64) -> f64 {
    if m.higher_is_better {
        (base - other) / base
    } else {
        (other - base) / base
    }
}

/// Runs the full set `n` times and judges each end-to-end metric's
/// spread (quartile distance over median, as the driver computes it)
/// against its bound.
fn cmd_repeat(spec: &Spec, opts: &Opts, n: usize) -> Result<ExitCode, String> {
    if n < 2 {
        return Err("`repeat` needs at least 2 runs".into());
    }
    let mut runs = Vec::with_capacity(n);
    let mut code = ExitCode::SUCCESS;
    for i in 0..n {
        eprintln!("repeat: run {} of {n}", i + 1);
        let results = run_all(spec, opts, false)?;
        if all_correct(&results) != ExitCode::SUCCESS {
            code = ExitCode::FAILURE;
        }
        runs.push(results);
    }
    println!("workload metric min median max spread bound verdict");
    for workload in spec.workload_names() {
        for m in &spec.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get(workload)?.metrics.get(&m.name).copied())
                .collect();
            if values.len() != n {
                return Err(format!("{workload} {}: missing from a run", m.name));
            }
            let spread = stats::quartile_spread(&values);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            // setup_s is held to its bound between sets of runs, not
            // within one, exactly as the driver holds it.
            let within = spread <= bound || m.name == "setup_s";
            println!(
                "{workload} {} {min} {} {max} {spread:.4} {bound} {}",
                m.name,
                stats::median(&values),
                if within { "ok" } else { "TOO-WIDE" }
            );
            if !within {
                code = ExitCode::FAILURE;
            }
            let first_half = stats::median(&values[..n / 2]);
            let second_half = stats::median(&values[n / 2..]);
            if worsening(m, first_half, second_half) > bound {
                println!(
                    "{workload} {} drifted: {first_half} in the first half, {second_half} in the second",
                    m.name
                );
                code = ExitCode::FAILURE;
            }
        }
    }
    Ok(code)
}

/// Regenerates `golden/digests.json` for the pinned seed.
fn cmd_bless(spec: &Spec) -> Result<ExitCode, String> {
    let mut digests = BTreeMap::new();
    for (workload, lane, mix) in serve::lane_mixes().into_iter().chain(stm::lane_mixes()) {
        digests.insert(
            golden::stream_key(workload, lane),
            OpStream::expected_digest(golden::SEED, workload, lane, mix),
        );
    }
    digests.insert(sim::NAME.to_string(), sim::grid_digest(golden::SEED));
    for workload in spec.workload_names() {
        let pinned = digests
            .keys()
            .any(|k| k == workload || k.starts_with(&format!("{workload}/")));
        if !pinned {
            return Err(format!("bless pins nothing for workload `{workload}`"));
        }
    }
    let text = Golden::new(golden::SEED, digests).render();
    std::fs::write(golden::PATH, &text).map_err(|e| format!("{}: {e}", golden::PATH))?;
    print!("{text}");
    eprintln!("wrote {}; the next build embeds it", golden::PATH);
    Ok(ExitCode::SUCCESS)
}

fn main_inner() -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&spec, &args)?;
    if let Some(workload) = &opts.workload {
        return single(spec, &opts, workload);
    }
    let words: Vec<&str> = opts.words.iter().map(String::as_str).collect();
    match words.as_slice() {
        ["run"] => cmd_run(&spec, &opts),
        ["trace"] => cmd_trace(&spec, &opts),
        ["repeat"] => cmd_repeat(&spec, &opts, 2),
        ["repeat", n] => {
            let n = n.parse().map_err(|_| "`repeat` takes a run count")?;
            cmd_repeat(&spec, &opts, n)
        }
        ["bless"] => cmd_bless(&spec),
        _ => Err(
            "usage: sitm-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
             sitm-benchmark run|trace|repeat [N]|bless [--seed N] [--seconds S]"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => code,
        Err(why) => {
            eprintln!("sitm-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: bool) -> Ctx {
        Ctx {
            spec: Spec::load().unwrap(),
            seed: golden::SEED,
            seconds: 8.0,
            trace,
            golden: Golden::embedded().unwrap(),
        }
    }

    #[test]
    fn each_failed_check_makes_the_run_incorrect() {
        let failing = [
            checks::stream_digest("lane 0", Some(1), 2),
            checks::conserved(4_095_999, 4_096_000),
            checks::no_live_snapshots(1),
        ];
        for failed_check in failing {
            let mut outcome = Outcome::new(&ctx(true), 10, 0);
            assert!(outcome.correct());
            outcome.check(Ok(()));
            assert!(outcome.correct());
            outcome.check(failed_check);
            assert!(!outcome.correct());
            let json = outcome.to_json().unwrap();
            assert_eq!(json.get("correct").unwrap().as_bool(), Some(false));
        }
    }

    #[test]
    fn a_failed_operation_is_counted_but_does_not_fail_the_run() {
        let outcome = Outcome::new(&ctx(true), 10, 3);
        let json = outcome.to_json().unwrap();
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("failed").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn the_result_object_has_exactly_the_contract_keys() {
        let Json::Obj(obj) = Outcome::new(&ctx(true), 1, 0).to_json().unwrap() else {
            panic!("object");
        };
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        // An untraced outcome with nothing measured cannot be printed.
        assert!(Outcome::new(&ctx(false), 1, 0).to_json().is_err());
    }

    #[test]
    fn the_command_line_takes_the_driver_form_and_the_subcommands() {
        let spec = Spec::load().unwrap();
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(
            &spec,
            &args("--workload stm_short --seed 7 --seconds 2 --trace 1"),
        );
        let o = o.unwrap();
        assert_eq!(o.workload.as_deref(), Some("stm_short"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 2.0, true));
        let o = parse_args(&spec, &args("repeat 5 --seed 9")).unwrap();
        assert_eq!(o.words, ["repeat", "5"]);
        assert_eq!((o.seed, o.seconds), (9, spec.run_seconds as f64));
        assert!(parse_args(&spec, &args("run --trace 2")).is_err());
        assert!(parse_args(&spec, &args("run --seconds 0")).is_err());
        assert!(parse_args(&spec, &args("run --bogus")).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let spec = Spec::load().unwrap();
        let by_name = |n: &str| {
            spec.end_to_end
                .iter()
                .find(|m| m.name == n)
                .unwrap()
                .clone()
        };
        assert!((worsening(&by_name("ops_per_s"), 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&by_name("op_p50_us"), 100.0, 90.0) + 0.1).abs() < 1e-12);
    }
}
