//! Sets of runs: recording one, comparing two.
//!
//! A *set* is every workload run several times untraced (one fresh
//! process per run, so peak RSS is the run's own) plus one traced run
//! per workload. `--compare` holds two sets against the benchmark's own
//! bounds, the way the driver holds a change against its parent; with
//! both sets from the same code (`--self-check`) it shows whether those
//! bounds can be trusted on this host.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

const SCHEMA: &str = "bench-ledger-set/1";

/// Run this binary once as the driver would and parse the result line.
fn run_once(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Json, String> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| {
        format!("{workload} seed {seed}: no result line ({e}); exit status {}", output.status)
    })?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: exit status {}: {last}", output.status));
    }
    Ok(result)
}

/// Record a set: `runs` untraced runs of every workload at seeds
/// `first_seed..`, workloads interleaved so a slow phase of the host
/// does not land on one of them alone, then one traced run each at
/// `first_seed`.
pub fn record(exe: &Path, runs: usize, seconds: f64, first_seed: u64) -> Result<Json, String> {
    let mut recorded = Vec::new();
    let mut push = |workload: &str, seed: u64, trace: bool| -> Result<(), String> {
        eprintln!("  {workload} seed {seed} trace {}", u8::from(trace));
        let result = run_once(exe, workload, seed, seconds, trace)?;
        recorded.push(Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(trace)))),
            ("result", result),
        ]));
        Ok(())
    };
    for run in 0..runs as u64 {
        for workload in WORKLOADS {
            push(workload, first_seed + run, false)?;
        }
    }
    for workload in WORKLOADS {
        push(workload, first_seed, true)?;
    }
    Ok(Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("run_seconds", Json::Num(seconds)),
        ("runs", Json::Arr(recorded)),
    ]))
}

/// Values of `metric` over the runs of `workload` in a set; an error
/// when one of those runs was not correct.
fn values(set: &Json, workload: &str, trace: bool, metric: &str) -> Result<Vec<f64>, String> {
    if set.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} file"));
    }
    let runs = set.get("runs").and_then(Json::as_arr).ok_or("a set needs a `runs` array")?;
    let mut out = Vec::new();
    for run in runs {
        let is = |key: &str, want: &Json| run.get(key) == Some(want);
        if !is("workload", &Json::str(workload))
            || !is("trace", &Json::Num(f64::from(u8::from(trace))))
        {
            continue;
        }
        let result = run.get("result").ok_or("a run needs a `result`")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{workload}: a recorded run is not correct"));
        }
        let value = result
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: a run lacks {metric}"))?;
        out.push(value);
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of a side is wider than the bound: the
    /// metric can be called neither changed nor unchanged.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let sorted = stats::sorted(values.to_vec());
        let median = stats::median(&sorted);
        // One run has no quartiles; it is its own.
        let (q1, q3) = if sorted.len() >= 2 { stats::quartiles(&sorted) } else { (median, median) };
        Side { median, q1, q3 }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// One workload × end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Side,
    pub b: Side,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative when B is better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric from the values of both sides.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Side, Side, f64, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let worse_by = match better {
        Better::Lower => (sb.median - sa.median) / sa.median,
        Better::Higher => (sa.median - sb.median) / sa.median,
    };
    let verdict = if sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (sa, sb, worse_by, verdict)
}

/// The outcome of comparing two sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Exact per-layer counts that differ, one line each.
    pub exact_mismatches: Vec<String>,
}

impl Comparison {
    pub fn agrees(&self) -> bool {
        self.exact_mismatches.is_empty() && self.rows.iter().all(|r| r.verdict == Verdict::Ok)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<15} {:<12} {:>30} {:>30} {:>8} {:>6}  verdict\n",
            "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
        );
        for r in &self.rows {
            let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            out.push_str(&format!(
                "{:<15} {:<12} {:>30} {:>30} {:>+7.2}% {:>5.0}%  {}\n",
                r.workload,
                format!("{} ({})", r.metric, r.unit),
                side(&r.a),
                side(&r.b),
                r.worse_by * 100.0,
                r.bound * 100.0,
                r.verdict.as_str()
            ));
        }
        if self.exact_mismatches.is_empty() {
            out.push_str("exact per-layer counts: identical\n");
        }
        for line in &self.exact_mismatches {
            out.push_str(&format!("exact count differs: {line}\n"));
        }
        out
    }
}

/// Compare set B (the change) against set A (the parent).
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut rows = Vec::new();
    let mut exact_mismatches = Vec::new();
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) =
                (values(a, workload, false, m.name)?, values(b, workload, false, m.name)?);
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: a set has no untraced run"));
            }
            let (sa, sb, worse_by, verdict) = judge(&va, &vb, m.better, m.bound);
            rows.push(Row {
                workload,
                metric: m.name,
                unit: m.unit,
                a: sa,
                b: sb,
                worse_by,
                bound: m.bound,
                verdict,
            });
        }
        for layer in PER_LAYER.iter().filter(|l| l.exact) {
            let mut all = values(a, workload, true, layer.name)?;
            all.extend(values(b, workload, true, layer.name)?);
            if all.windows(2).any(|w| w[0] != w[1]) {
                exact_mismatches.push(format!("{workload} {}: {all:?}", layer.name));
            }
        }
    }
    Ok(Comparison { rows, exact_mismatches })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(op_ms: &[f64], wire_bytes: f64) -> Json {
        let mut runs = Vec::new();
        for workload in WORKLOADS {
            for (i, &ms) in op_ms.iter().enumerate() {
                let metrics = Json::obj(END_TO_END.iter().map(|m| {
                    let value = if m.name == "op_ms" { ms } else { 1.0 };
                    (m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]))
                }));
                runs.push(Json::obj([
                    ("workload", Json::str(workload)),
                    ("seed", Json::Num(i as f64)),
                    ("trace", Json::Num(0.0)),
                    ("result", Json::obj([("correct", Json::Bool(true)), ("metrics", metrics)])),
                ]));
            }
            let layers = Json::obj(PER_LAYER.iter().map(|l| {
                let value = if l.name == "dstsim.wire_bytes" { wire_bytes } else { 2.0 };
                (l.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(l.unit))]))
            }));
            runs.push(Json::obj([
                ("workload", Json::str(workload)),
                ("seed", Json::Num(0.0)),
                ("trace", Json::Num(1.0)),
                ("result", Json::obj([("correct", Json::Bool(true)), ("metrics", layers)])),
            ]));
        }
        Json::obj([("schema", Json::str(SCHEMA)), ("runs", Json::Arr(runs))])
    }

    #[test]
    fn same_numbers_agree() {
        let a = set(&[10.0, 10.1, 10.2], 5.0);
        let c = compare(&a, &a).unwrap();
        assert!(c.agrees(), "{}", c.render());
        assert_eq!(c.rows.len(), WORKLOADS.len() * END_TO_END.len());
    }

    #[test]
    fn a_slower_change_regresses_and_a_faster_one_does_not() {
        let a = set(&[10.0, 10.1, 10.2], 5.0);
        let slower = compare(&a, &set(&[14.0, 14.1, 14.2], 5.0)).unwrap();
        let row = slower.rows.iter().find(|r| r.metric == "op_ms").unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!((row.worse_by - 4.0 / 10.1).abs() < 1e-12);
        assert!(!slower.agrees());
        let faster = compare(&a, &set(&[8.0, 8.1, 8.2], 5.0)).unwrap();
        assert!(faster.agrees());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = set(&[10.0, 10.1, 10.2], 5.0);
        let noisy = compare(&a, &set(&[8.0, 10.0, 13.0], 5.0)).unwrap();
        let row = noisy.rows.iter().find(|r| r.metric == "op_ms").unwrap();
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn exact_counts_must_be_identical() {
        let a = set(&[10.0, 10.1], 5.0);
        let c = compare(&a, &set(&[10.0, 10.1], 6.0)).unwrap();
        assert_eq!(c.exact_mismatches.len(), WORKLOADS.len());
        assert!(c.exact_mismatches[0].contains("dstsim.wire_bytes"));
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(!c.agrees());
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let (_, _, worse_by, verdict) = judge(&[100.0, 101.0], &[80.0, 81.0], Better::Higher, 0.1);
        assert!(worse_by > 0.19);
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn malformed_sets_are_refused() {
        assert!(compare(&Json::obj([("schema", Json::str("other"))]), &set(&[1.0], 1.0)).is_err());
        let mut incorrect = set(&[1.0, 1.1], 1.0);
        if let Json::Obj(pairs) = &mut incorrect {
            if let Some((_, Json::Arr(runs))) = pairs.iter_mut().find(|(k, _)| k == "runs") {
                if let Json::Obj(run) = &mut runs[0] {
                    run.retain(|(k, _)| k != "result");
                    run.push(("result".into(), Json::obj([("correct", Json::Bool(false))])));
                }
            }
        }
        assert!(compare(&incorrect, &incorrect).is_err());
    }
}
