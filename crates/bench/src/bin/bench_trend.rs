//! Bench trend gate: diff a fresh `query_throughput` JSON report against
//! the committed baseline and fail on a real regression.
//!
//! CI's query-smoke job runs the tiny `query_throughput` workload, then
//! this gate with the freshly written `results/query_throughput.json`
//! against `bench/baselines/query_throughput.tiny.json` (the committed
//! trajectory seed). Rows are matched on `(workload, signer)` and three
//! figures are held:
//!
//! * **engine_qps** — may not drop below half the baseline (>2×
//!   throughput regression fails; timing noise on tiny CI runners stays
//!   well inside 2×);
//! * **wire_bytes_p4** — the per-batch collective wire total at p = 4
//!   may not exceed 2× the baseline (>2× collective-byte regression
//!   fails);
//! * **collectives_p4** — the collectives budget: byte volumes wobble
//!   with workload shape, the *number* of collectives per batch is a
//!   design property and may not exceed the baseline at all.
//!
//! Improvements never fail the gate — refresh the baseline by copying
//! the new report over `bench/baselines/` when a PR legitimately moves
//! the numbers.
//!
//! Usage: `bench_trend [current.json] [baseline.json]` (defaults:
//! `results/query_throughput.json`,
//! `bench/baselines/query_throughput.tiny.json`).
//!
//! `bench_trend --serve [current.json] [baseline.json]` gates the
//! serving-frontend smoke report instead (defaults:
//! `results/serve_stats.json`, `bench/baselines/serve_stats.tiny.json`).
//! Rows are matched on `workload` and four figures are held:
//!
//! * **max_commit_queue_depth** — the observed commit-queue high-water
//!   mark may not exceed the baseline (the committed admission bound):
//!   admission control shedding at the door is a design property;
//! * **collectives_p4** — the per-batch collectives budget of the
//!   sharded path at p = 4 may not grow at all (the keyed exchange
//!   makes it independent of the commit history);
//! * **dist_identical** — sharded serving must stay bit-identical to
//!   single-rank serving;
//! * **sheds** — the typed-overload path must have been exercised at
//!   least once (a silent never-sheds run means the demo went dead).
//!
//! `bench_trend --obs [current.json] [baseline.json]` gates the tracing
//! overhead instead (defaults: `results/obs_overhead.json`,
//! `bench/baselines/query_throughput.tiny.json`). For each overhead row
//! matched on `(workload, signer)` against the baseline's `engine_qps`:
//!
//! * **qps_disabled** — with tracing disabled (the production default,
//!   one relaxed atomic load per span site) throughput may regress at
//!   most 5% against the committed baseline: carrying the
//!   instrumentation must be free;
//! * **qps_enabled** — with tracing on, throughput must stay within 2×
//!   of the disabled figure (a sanity bound, not a budget — tracing is
//!   a diagnosis mode).
//!
//! `bench_trend --chaos [current.json] [baseline.json]` gates the
//! fault-injection overhead the same way (defaults:
//! `results/chaos_overhead.json`,
//! `bench/baselines/query_throughput.tiny.json`): with injection
//! disabled (the production default — one relaxed atomic load per
//! storage-operation site, zero sites on the serving path) throughput
//! may regress at most 5% against the committed baseline, and with an
//! inert plan armed it must stay within 2× of disabled.
//!
//! `bench_trend --plan [current.json] [baseline.json]` gates the
//! placement sweep (defaults: `results/placement_sweep.json`,
//! `bench/baselines/placement_sweep.tiny.json`). Rows are matched on
//! `(kind, name)`; every baseline row must still exist, every current
//! row must carry `ok = 1` (the sweep computes its own acceptance —
//! planned wire bytes at or below both pure placements, answers
//! bit-identical, at least one segment replicated and one sharded), and
//! the planned placement's total wire bytes may not exceed 2× the
//! committed baseline.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use gas_bench::report::read_json_rows;

/// The gated figures of one report row.
#[derive(Debug, Clone, PartialEq)]
struct TrendRow {
    engine_qps: f64,
    wire_bytes_p4: f64,
    collectives_p4: f64,
}

/// Index a report's rows by `(workload, signer)`, pulling the gated
/// columns out of the raw `(header, value)` pairs.
fn trend_rows(path: &PathBuf) -> Result<BTreeMap<(String, String), TrendRow>, String> {
    let rows = read_json_rows(path).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let field = |name: &str| -> Result<String, String> {
            row.iter()
                .find(|(h, _)| h == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("{}: row {i} has no \"{name}\" column", path.display()))
        };
        let number = |name: &str| -> Result<f64, String> {
            let raw = field(name)?;
            raw.parse::<f64>().map_err(|_| {
                format!("{}: row {i} column \"{name}\" is not numeric: {raw:?}", path.display())
            })
        };
        let key = (field("workload")?, field("signer")?);
        let figures = TrendRow {
            engine_qps: number("engine_qps")?,
            wire_bytes_p4: number("wire_bytes_p4")?,
            collectives_p4: number("collectives_p4")?,
        };
        if out.insert(key.clone(), figures).is_some() {
            return Err(format!("{}: duplicate row for {key:?}", path.display()));
        }
    }
    Ok(out)
}

/// The gated figures of one serving-smoke report row.
#[derive(Debug, Clone, PartialEq)]
struct ServeRow {
    max_commit_queue_depth: f64,
    collectives_p4: f64,
    dist_identical: f64,
    sheds: f64,
}

/// Index a serving-smoke report's rows by `workload`.
fn serve_rows(path: &PathBuf) -> Result<BTreeMap<String, ServeRow>, String> {
    let rows = read_json_rows(path).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let field = |name: &str| -> Result<String, String> {
            row.iter()
                .find(|(h, _)| h == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("{}: row {i} has no \"{name}\" column", path.display()))
        };
        let number = |name: &str| -> Result<f64, String> {
            let raw = field(name)?;
            raw.parse::<f64>().map_err(|_| {
                format!("{}: row {i} column \"{name}\" is not numeric: {raw:?}", path.display())
            })
        };
        let key = field("workload")?;
        let figures = ServeRow {
            max_commit_queue_depth: number("max_commit_queue_depth")?,
            collectives_p4: number("collectives_p4")?,
            dist_identical: number("dist_identical")?,
            sheds: number("sheds")?,
        };
        if out.insert(key.clone(), figures).is_some() {
            return Err(format!("{}: duplicate row for workload {key:?}", path.display()));
        }
    }
    Ok(out)
}

/// Gate the serving-frontend smoke report against its committed
/// baseline: queue high-water within the admission bound, collectives
/// budget not exceeded, sharded equality intact, shedding exercised.
fn serve_gate(current: &PathBuf, baseline: &PathBuf) -> ExitCode {
    let (current_rows, baseline_rows) = match (serve_rows(current), serve_rows(baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("bench-trend: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    if baseline_rows.is_empty() {
        eprintln!("bench-trend: baseline {} holds no rows", baseline.display());
        return ExitCode::FAILURE;
    }
    let mut failures = Vec::new();
    for (workload, base) in &baseline_rows {
        let Some(now) = current_rows.get(workload) else {
            failures.push(format!("workload {workload} vanished from the current report"));
            continue;
        };
        println!(
            "[serve/{workload}] commit queue high-water {:.0} (bound {:.0}), collectives \
             {:.0} (budget {:.0}), dist identical {:.0}, sheds {:.0}",
            now.max_commit_queue_depth,
            base.max_commit_queue_depth,
            now.collectives_p4,
            base.collectives_p4,
            now.dist_identical,
            now.sheds
        );
        if now.max_commit_queue_depth > base.max_commit_queue_depth {
            failures.push(format!(
                "({workload}) commit queue high-water {:.0} exceeded the admission bound {:.0}",
                now.max_commit_queue_depth, base.max_commit_queue_depth
            ));
        }
        if now.collectives_p4 > base.collectives_p4 {
            failures.push(format!(
                "({workload}) collectives_p4 exceeded the budget: {:.0} vs baseline {:.0}",
                now.collectives_p4, base.collectives_p4
            ));
        }
        if now.dist_identical != 1.0 {
            failures
                .push(format!("({workload}) sharded serving diverged from single-rank serving"));
        }
        if now.sheds < 1.0 {
            failures.push(format!(
                "({workload}) admission control never shed — the overload demo went dead"
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "bench-trend OK: {} serving row(s) within budget of {}",
            baseline_rows.len(),
            baseline.display()
        );
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("bench-trend FAIL: {f}");
    }
    eprintln!(
        "bench-trend: {} serving regression(s) vs {} — if intentional, refresh the baseline \
         from {}",
        failures.len(),
        baseline.display(),
        current.display()
    );
    ExitCode::FAILURE
}

/// The figures of one tracing-overhead report row.
#[derive(Debug, Clone, PartialEq)]
struct ObsRow {
    qps_disabled: f64,
    qps_enabled: f64,
}

/// Index a tracing-overhead report's rows by `(workload, signer)`.
fn obs_rows(path: &PathBuf) -> Result<BTreeMap<(String, String), ObsRow>, String> {
    let rows = read_json_rows(path).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let field = |name: &str| -> Result<String, String> {
            row.iter()
                .find(|(h, _)| h == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("{}: row {i} has no \"{name}\" column", path.display()))
        };
        let number = |name: &str| -> Result<f64, String> {
            let raw = field(name)?;
            raw.parse::<f64>().map_err(|_| {
                format!("{}: row {i} column \"{name}\" is not numeric: {raw:?}", path.display())
            })
        };
        let key = (field("workload")?, field("signer")?);
        let figures =
            ObsRow { qps_disabled: number("qps_disabled")?, qps_enabled: number("qps_enabled")? };
        if out.insert(key.clone(), figures).is_some() {
            return Err(format!("{}: duplicate row for {key:?}", path.display()));
        }
    }
    Ok(out)
}

/// Gate the tracing-overhead report: disabled tracing must cost ≤ 5% of
/// the committed baseline throughput, enabled tracing must stay within
/// 2× of disabled.
fn obs_gate(current: &PathBuf, baseline: &PathBuf) -> ExitCode {
    let (current_rows, baseline_rows) = match (obs_rows(current), trend_rows(baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("bench-trend: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    if current_rows.is_empty() {
        eprintln!("bench-trend: overhead report {} holds no rows", current.display());
        return ExitCode::FAILURE;
    }
    let mut failures = Vec::new();
    for (key, now) in &current_rows {
        let (workload, signer) = key;
        let Some(base) = baseline_rows.get(key) else {
            failures.push(format!("baseline has no ({workload}, {signer}) row to gate against"));
            continue;
        };
        println!(
            "[obs/{workload}/{signer}] qps disabled {:.1} (baseline {:.1}), enabled {:.1} \
             ({:.2}× when tracing)",
            now.qps_disabled,
            base.engine_qps,
            now.qps_enabled,
            now.qps_disabled / now.qps_enabled.max(1e-9)
        );
        if now.qps_disabled < base.engine_qps * 0.95 {
            failures.push(format!(
                "({workload}, {signer}) disabled-tracing qps {:.1} regressed >5% vs baseline \
                 {:.1} — the instrumentation is no longer free when off",
                now.qps_disabled, base.engine_qps
            ));
        }
        if now.qps_enabled * 2.0 < now.qps_disabled {
            failures.push(format!(
                "({workload}, {signer}) enabled-tracing qps {:.1} fell below half the disabled \
                 figure {:.1}",
                now.qps_enabled, now.qps_disabled
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "bench-trend OK: {} overhead row(s) within budget of {}",
            current_rows.len(),
            baseline.display()
        );
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("bench-trend FAIL: {f}");
    }
    eprintln!(
        "bench-trend: {} tracing-overhead regression(s) vs {} — if intentional, refresh the \
         baseline from the fresh query_throughput report",
        failures.len(),
        baseline.display()
    );
    ExitCode::FAILURE
}

/// Gate the fault-injection overhead report: with the `gas_chaos`
/// switch off (the production default) throughput must stay within 5%
/// of the committed baseline — carrying the injection machinery must be
/// free — and with an inert plan armed it must stay within 2× of
/// disabled.
fn chaos_gate(current: &PathBuf, baseline: &PathBuf) -> ExitCode {
    let (current_rows, baseline_rows) = match (obs_rows(current), trend_rows(baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("bench-trend: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    if current_rows.is_empty() {
        eprintln!("bench-trend: injection-overhead report {} holds no rows", current.display());
        return ExitCode::FAILURE;
    }
    let mut failures = Vec::new();
    for (key, now) in &current_rows {
        let (workload, signer) = key;
        let Some(base) = baseline_rows.get(key) else {
            failures.push(format!("baseline has no ({workload}, {signer}) row to gate against"));
            continue;
        };
        println!(
            "[chaos/{workload}/{signer}] qps disabled {:.1} (baseline {:.1}), enabled {:.1} \
             ({:.2}× when armed)",
            now.qps_disabled,
            base.engine_qps,
            now.qps_enabled,
            now.qps_disabled / now.qps_enabled.max(1e-9)
        );
        if now.qps_disabled < base.engine_qps * 0.95 {
            failures.push(format!(
                "({workload}, {signer}) injection-disabled qps {:.1} regressed >5% vs baseline \
                 {:.1} — carrying gas_chaos is no longer free when off",
                now.qps_disabled, base.engine_qps
            ));
        }
        if now.qps_enabled * 2.0 < now.qps_disabled {
            failures.push(format!(
                "({workload}, {signer}) armed-injection qps {:.1} fell below half the disabled \
                 figure {:.1}",
                now.qps_enabled, now.qps_disabled
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "bench-trend OK: {} injection-overhead row(s) within budget of {}",
            current_rows.len(),
            baseline.display()
        );
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("bench-trend FAIL: {f}");
    }
    eprintln!(
        "bench-trend: {} injection-overhead regression(s) vs {} — if intentional, refresh the \
         baseline from the fresh query_throughput report",
        failures.len(),
        baseline.display()
    );
    ExitCode::FAILURE
}

/// The figures of one placement-sweep report row.
#[derive(Debug, Clone, PartialEq)]
struct PlanRow {
    value: f64,
    ok: f64,
}

/// Index a placement-sweep report's rows by `(kind, name)`.
fn plan_rows(path: &PathBuf) -> Result<BTreeMap<(String, String), PlanRow>, String> {
    let rows = read_json_rows(path).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let field = |name: &str| -> Result<String, String> {
            row.iter()
                .find(|(h, _)| h == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("{}: row {i} has no \"{name}\" column", path.display()))
        };
        let number = |name: &str| -> Result<f64, String> {
            let raw = field(name)?;
            raw.parse::<f64>().map_err(|_| {
                format!("{}: row {i} column \"{name}\" is not numeric: {raw:?}", path.display())
            })
        };
        let key = (field("kind")?, field("name")?);
        let figures = PlanRow { value: number("value")?, ok: number("ok")? };
        if out.insert(key.clone(), figures).is_some() {
            return Err(format!("{}: duplicate row for {key:?}", path.display()));
        }
    }
    Ok(out)
}

/// Gate the placement sweep: every baseline row still
/// present, every current row's own acceptance flag green, and the
/// planned placement's wire total within 2× of the committed baseline.
fn plan_gate(current: &PathBuf, baseline: &PathBuf) -> ExitCode {
    let (current_rows, baseline_rows) = match (plan_rows(current), plan_rows(baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("bench-trend: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    if baseline_rows.is_empty() {
        eprintln!("bench-trend: baseline {} holds no rows", baseline.display());
        return ExitCode::FAILURE;
    }
    let mut failures = Vec::new();
    for (key, base) in &baseline_rows {
        let (kind, name) = key;
        if !current_rows.contains_key(key) {
            failures.push(format!("row ({kind}, {name}) vanished from the current report"));
        } else if *name == "planned_total_bytes" {
            let now = &current_rows[key];
            println!("[plan/{kind}] {name} {:.0} (baseline {:.0})", now.value, base.value);
            if now.value > base.value * 2.0 {
                failures.push(format!(
                    "({kind}, {name}) regressed >2×: {:.0} vs baseline {:.0}",
                    now.value, base.value
                ));
            }
        }
    }
    for ((kind, name), now) in &current_rows {
        println!("[plan/{kind}] {name} = {} (ok {:.0})", now.value, now.ok);
        if now.ok != 1.0 {
            failures.push(format!(
                "({kind}, {name}) failed its own acceptance check (value {})",
                now.value
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "bench-trend OK: {} placement row(s) green vs {}",
            current_rows.len(),
            baseline.display()
        );
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("bench-trend FAIL: {f}");
    }
    eprintln!(
        "bench-trend: {} placement failure(s) vs {} — if intentional, refresh the \
         baseline from {}",
        failures.len(),
        baseline.display(),
        current.display()
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--plan") {
        args.next();
        let current =
            PathBuf::from(args.next().unwrap_or_else(|| "results/placement_sweep.json".into()));
        let baseline = PathBuf::from(
            args.next().unwrap_or_else(|| "bench/baselines/placement_sweep.tiny.json".into()),
        );
        return plan_gate(&current, &baseline);
    }
    if args.peek().map(String::as_str) == Some("--chaos") {
        args.next();
        let current =
            PathBuf::from(args.next().unwrap_or_else(|| "results/chaos_overhead.json".into()));
        let baseline = PathBuf::from(
            args.next().unwrap_or_else(|| "bench/baselines/query_throughput.tiny.json".into()),
        );
        return chaos_gate(&current, &baseline);
    }
    if args.peek().map(String::as_str) == Some("--obs") {
        args.next();
        let current =
            PathBuf::from(args.next().unwrap_or_else(|| "results/obs_overhead.json".into()));
        let baseline = PathBuf::from(
            args.next().unwrap_or_else(|| "bench/baselines/query_throughput.tiny.json".into()),
        );
        return obs_gate(&current, &baseline);
    }
    if args.peek().map(String::as_str) == Some("--serve") {
        args.next();
        let current =
            PathBuf::from(args.next().unwrap_or_else(|| "results/serve_stats.json".into()));
        let baseline = PathBuf::from(
            args.next().unwrap_or_else(|| "bench/baselines/serve_stats.tiny.json".into()),
        );
        return serve_gate(&current, &baseline);
    }
    let current =
        PathBuf::from(args.next().unwrap_or_else(|| "results/query_throughput.json".into()));
    let baseline = PathBuf::from(
        args.next().unwrap_or_else(|| "bench/baselines/query_throughput.tiny.json".into()),
    );

    let (current_rows, baseline_rows) = match (trend_rows(&current), trend_rows(&baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("bench-trend: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    if baseline_rows.is_empty() {
        eprintln!("bench-trend: baseline {} holds no rows", baseline.display());
        return ExitCode::FAILURE;
    }

    // Every baseline row must still exist and hold its figures. Extra
    // current rows (a new workload or signer) are fine — they become
    // gated once the baseline is refreshed.
    let mut failures = Vec::new();
    for ((workload, signer), base) in &baseline_rows {
        let Some(now) = current_rows.get(&(workload.clone(), signer.clone())) else {
            failures.push(format!("row ({workload}, {signer}) vanished from the current report"));
            continue;
        };
        println!(
            "[{workload}/{signer}] qps {:.1} (baseline {:.1}), wire bytes {:.0} \
             (baseline {:.0}), collectives {:.0} (baseline {:.0})",
            now.engine_qps,
            base.engine_qps,
            now.wire_bytes_p4,
            base.wire_bytes_p4,
            now.collectives_p4,
            base.collectives_p4
        );
        if now.engine_qps * 2.0 < base.engine_qps {
            failures.push(format!(
                "({workload}, {signer}) engine_qps regressed >2×: {:.1} vs baseline {:.1}",
                now.engine_qps, base.engine_qps
            ));
        }
        if now.wire_bytes_p4 > base.wire_bytes_p4 * 2.0 {
            failures.push(format!(
                "({workload}, {signer}) wire_bytes_p4 regressed >2×: {:.0} vs baseline {:.0}",
                now.wire_bytes_p4, base.wire_bytes_p4
            ));
        }
        if now.collectives_p4 > base.collectives_p4 {
            failures.push(format!(
                "({workload}, {signer}) collectives_p4 exceeded the budget: {:.0} vs \
                 baseline {:.0}",
                now.collectives_p4, base.collectives_p4
            ));
        }
    }

    if failures.is_empty() {
        println!(
            "bench-trend OK: {} row(s) within budget of {}",
            baseline_rows.len(),
            baseline.display()
        );
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("bench-trend FAIL: {f}");
    }
    eprintln!(
        "bench-trend: {} regression(s) vs {} — if intentional, refresh the baseline from {}",
        failures.len(),
        baseline.display(),
        current.display()
    );
    ExitCode::FAILURE
}
