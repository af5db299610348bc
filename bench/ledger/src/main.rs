//! Command line of the perf ledger.
//!
//! ```text
//! bench-ledger --workload W --seed N --seconds S --trace 0|1   one run (the driver's call)
//! bench-ledger --smoke [--seed N]                              all four, tiny, schema + oracles
//! bench-ledger --record SET.json [--runs N] [--seconds S] [--seed N]
//! bench-ledger --compare A.json B.json
//! bench-ledger --self-check [--runs N] [--seconds S] [--seed N]
//! ```

use std::process::ExitCode;

use bench_ledger::alloc::CountingAlloc;
use bench_ledger::compare;
use bench_ledger::harness::{self, RunArgs};
use bench_ledger::json::Json;
use bench_ledger::metrics::{Report, WORKLOADS};
use bench_ledger::workloads;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Length of the measured phase unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: bench-ledger --workload W --seed N [--seconds S] [--trace 0|1]
       bench-ledger --smoke [--seed N]
       bench-ledger --record SET.json [--runs N] [--seconds S] [--seed N]
       bench-ledger --compare A.json B.json
       bench-ledger --self-check [--runs N] [--seconds S] [--seed N]
workloads: allpairs_dense allpairs_dist serve_read serve_mixed";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    record: Option<String>,
    compare: Option<(String, String)>,
    self_check: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { seed: 1, runs: 3, ..Default::default() };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                cli.seed =
                    value(&mut it, flag)?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut it, flag)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--runs" => {
                cli.runs =
                    value(&mut it, flag)?.parse().map_err(|_| "--runs takes a whole number")?;
                if cli.runs == 0 {
                    return Err("--runs must be positive".into());
                }
            }
            "--smoke" => cli.smoke = true,
            "--self-check" => cli.self_check = true,
            "--record" => cli.record = Some(value(&mut it, flag)?),
            "--compare" => cli.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Print a finished run: every metric by name with its unit, then the
/// one-line result object, last.
fn print_report(report: &Report) {
    print!("{}", report.render());
    println!("{}", report.result_json().write());
}

fn one_run(workload: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let report = workloads::run(workload, args)
        .ok_or_else(|| format!("unknown workload {workload}; one of {WORKLOADS:?}"))?;
    print_report(&report);
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload at smoke sizes, untraced and traced: the schema and
/// the oracles, in seconds. The timings are not comparable with anything.
fn smoke(seed: u64) -> ExitCode {
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs { seed, seconds: 1.0, trace, smoke: true };
            let report = workloads::run(workload, &args).expect("WORKLOADS names only workloads");
            print!("{}", report.render());
            all_correct &= report.correct;
            results.push(Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Num(f64::from(u8::from(trace)))),
                ("result", report.result_json()),
            ]));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("comparable", Json::Bool(false)),
            ("correct", Json::Bool(all_correct)),
            ("runs", Json::Arr(results)),
        ])
        .write()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main_inner() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let seconds = cli.seconds.unwrap_or(RUN_SECONDS);
    if let Some((a, b)) = &cli.compare {
        let comparison = compare::compare(&read_set(a)?, &read_set(b)?)?;
        print!("{}", comparison.render());
        return Ok(if comparison.agrees() { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    if cli.smoke {
        return Ok(smoke(cli.seed));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    if let Some(path) = &cli.record {
        eprintln!("recording {} run(s) per workload into {path}", cli.runs);
        let set = compare::record(&exe, cli.runs, seconds, cli.seed)?;
        std::fs::write(path, set.write() + "\n").map_err(|e| format!("{path}: {e}"))?;
        return Ok(ExitCode::SUCCESS);
    }
    if cli.self_check {
        let dir = harness::results_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut sets = Vec::new();
        for name in ["self-check-a.json", "self-check-b.json"] {
            eprintln!("self-check: recording {name} ({} run(s) per workload)", cli.runs);
            let set = compare::record(&exe, cli.runs, seconds, cli.seed)?;
            let path = dir.join(name);
            std::fs::write(&path, set.write() + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
            sets.push(set);
        }
        let comparison = compare::compare(&sets[0], &sets[1])?;
        print!("{}", comparison.render());
        return Ok(if comparison.agrees() { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    let workload = cli.workload.ok_or_else(|| format!("nothing to do\n{USAGE}"))?;
    one_run(&workload, &RunArgs { seed: cli.seed, seconds, trace: cli.trace, smoke: false })
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("bench-ledger: {e}");
        ExitCode::from(2)
    })
}
