//! The metric tables and the report a run prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test holds the two together.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; gated by `bound`, the share
/// of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer, from the traced run; never gated. `exact`
/// marks counts that must repeat bit for bit between runs of one seed.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

pub const WORKLOADS: [&str; 4] = ["allpairs_dense", "allpairs_dist", "serve_read", "serve_mixed"];

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_heap_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
];

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: true }
}

const fn higher(name: &'static str, unit: &'static str, exact: bool) -> Layer {
    Layer { name, unit, better: Better::Higher, exact }
}

/// Every per-layer metric, grouped as in the README's prediction table.
pub const PER_LAYER: [Layer; 79] = [
    // set-up of the all-pairs workloads
    time("core.indicator.build_ms", "ms"),
    time("genomics.sample.read_sorted_ms", "ms"),
    // shared driver, outside the kernel
    time("core.indicator.batch_columns_ms", "ms"),
    time("core.mask.prepare_ms", "ms"),
    time("sparse.bitmat.to_csr_ms", "ms"),
    time("sparse.dense.accumulate_ms", "ms"),
    time("core.jaccard.finalize_ms", "ms"),
    exact("core.mask.rows_kept_ratio", "ratio"),
    exact("sparse.bitmat.words", "count"),
    // the popcount-AND kernel
    time("sparse.spgemm.kernel_ms", "ms"),
    time("sparse.spgemm.kernel_1t_ms", "ms"),
    higher("sparse.spgemm.parallel_speedup", "ratio", false),
    exact("sparse.spgemm.word_pairs", "count"),
    higher("sparse.spgemm.gpairs_per_s", "Gpairs/s", false),
    exact("sparse.spgemm.bytes_computed", "bytes"),
    time("allpairs.unattributed_ratio", "ratio"),
    // distributed driver, per phase (max over ranks)
    time("sparse.dist.filter_ms", "ms"),
    time("core.filter.apply_ms", "ms"),
    time("sparse.bitmat.pack_ms", "ms"),
    time("sparse.dist.summa_ms", "ms"),
    time("sparse.dist.reduce_ms", "ms"),
    time("sparse.dist.kernel_ms", "ms"),
    time("sparse.dist.kernel_share", "ratio"),
    higher("sparse.dist.cache_hit_ratio", "ratio", true),
    time("dstsim.spawn_ms", "ms"),
    // simulated network: the paper's own claim
    exact("dstsim.wire_bytes", "bytes"),
    exact("dstsim.max_rank_bytes", "bytes"),
    exact("dstsim.msgs", "count"),
    exact("dstsim.collectives", "count"),
    exact("dstsim.supersteps", "count"),
    exact("dstsim.max_rank_bytes_p8c2", "bytes"),
    time("dstsim.modeled_ms", "ms"),
    time("dstsim.modeled_over_wall", "ratio"),
    exact("dstsim.rank_imbalance", "ratio"),
    // read path of the index
    time("core.minhash.sign_us", "us"),
    time("index.query.presigned_us", "us"),
    time("index.query.rerank_us", "us"),
    time("index.query.compacted_us", "us"),
    exact("index.query.candidates_per_query", "count"),
    higher("index.query.recall_at_10", "ratio", true),
    time("obs.metrics.counter_ns", "ns"),
    time("obs.metrics.counter_contended_ns", "ns"),
    time("rayon.par_call_us", "us"),
    time("index.query.p50_us", "us"),
    time("index.query.tail_us", "us"),
    higher("index.query.client_scaling", "ratio", false),
    // build and open
    time("index.lifecycle.build_s", "s"),
    time("index.container.open_ms", "ms"),
    exact("index.container.file_bytes", "bytes"),
    exact("index.container.bytes_per_row", "bytes"),
    // write path of the service
    time("index.lifecycle.add_us", "us"),
    time("index.service.commit_ms", "ms"),
    time("index.service.commit_tail_ms", "ms"),
    time("index.service.maintain_ms", "ms"),
    time("index.service.write_share", "ratio"),
    exact("index.service.compaction_passes", "count"),
    exact("index.service.segments_end", "count"),
    exact("index.service.shed", "count"),
    exact("index.service.stale_cursors", "count"),
    exact("index.lifecycle.rewrite_amp", "ratio"),
    exact("index.container.space_amp", "ratio"),
    // sharded serving: exact counts only
    exact("index.dist.wire_bytes", "bytes"),
    exact("index.dist.collectives", "count"),
    exact("index.dist.collectives_rerank", "count"),
    exact("index.dist.bcast_bytes", "bytes"),
    exact("index.dist.request_bytes", "bytes"),
    exact("index.dist.fetch_bytes", "bytes"),
    exact("index.dist.merge_bytes", "bytes"),
    exact("index.dist.fetched_row_ratio", "ratio"),
    exact("index.dist.shard_bytes_max_rank", "bytes"),
    // the run itself
    time("bench.op_p10_ms", "ms"),
    time("bench.op_p50_ms", "ms"),
    time("bench.op_tail_ms", "ms"),
    higher("bench.ops_per_s", "1/s", false),
    time("bench.cpu_ms_per_op", "ms"),
    higher("bench.samples", "count", false),
    time("bench.noise_ratio", "ratio"),
    time("bench.peak_rss_mb", "MB"),
    time("trace.overhead_ratio", "ratio"),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// False for `--smoke` sizes: the schema and the oracles hold, the
    /// timings mean nothing.
    pub comparable: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is incorrect, one line per finding.
    pub findings: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool, comparable: bool) -> Self {
        Report {
            workload,
            seed,
            traced,
            comparable,
            correct: true,
            attempted: 0,
            failed: 0,
            findings: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Record a metric value.
    ///
    /// # Panics
    /// On a name outside the tables, or a per-layer name in an untraced
    /// report (and the reverse): either is a bug in a workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = if self.traced {
            layer(name).is_some()
        } else {
            END_TO_END.iter().any(|m| m.name == name)
        };
        assert!(known, "metric {name} is not in the table of this kind of run");
        assert!(value.is_finite(), "metric {name} is not finite");
        self.values.insert(name, value);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record an oracle or invariant violation.
    pub fn fail(&mut self, finding: String) {
        self.correct = false;
        self.findings.push(finding);
    }

    /// The `(name, unit, value)` rows this run prints: every end-to-end
    /// metric untraced, every per-layer metric traced. A layer that is
    /// not on this workload's path reads 0.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.traced {
            PER_LAYER.iter().map(|l| (l.name, l.unit, self.value(l.name).unwrap_or(0.0))).collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self.value(m.name).unwrap_or_else(|| {
                        panic!("workload {} did not report {}", self.workload, m.name)
                    });
                    (m.name, m.unit, value)
                })
                .collect()
        }
    }

    /// The one-line result object of the driver's contract.
    pub fn result_json(&self) -> Json {
        let metrics = self.rows().into_iter().map(|(name, unit, value)| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, for a human.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} seed {} {}{}\n",
            self.workload,
            self.seed,
            if self.traced { "traced (per-layer)" } else { "untraced (end-to-end)" },
            if self.comparable { "" } else { " — smoke sizes, timings NOT comparable" },
        );
        // The result line lists every per-layer metric; a human reads
        // only the layers this workload runs through.
        let rows = self.rows();
        let on_path = rows.iter().filter(|(name, ..)| !self.traced || self.value(name).is_some());
        for (name, unit, value) in on_path.clone() {
            out.push_str(&format!("  {name:<40} {value:>16.6} {unit}\n"));
        }
        let off_path = rows.len() - on_path.count();
        if off_path > 0 {
            out.push_str(&format!(
                "  ({off_path} metrics of layers off this workload's path read 0)\n"
            ));
        }
        out.push_str(&format!(
            "  attempted {} failed {} correct {}\n",
            self.attempted, self.failed, self.correct
        ));
        for finding in &self.findings {
            out.push_str(&format!("  FINDING: {finding}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|l| l.name)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128);
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses strictly");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed_e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (field(m, "name"), field(m, "unit"), field(m, "better"), bound)
            })
            .collect();
        let ours_e2e: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), m.bound))
            .collect();
        assert_eq!(listed_e2e, ours_e2e);
        let listed_layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours_layers: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|l| (l.name.into(), l.unit.into(), l.better.as_str().into()))
            .collect();
        assert_eq!(listed_layers, ours_layers);
        let listed_workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(listed_workloads, WORKLOADS);
    }

    #[test]
    fn report_prints_the_contract_shape() {
        let mut r = Report::new("serve_read", 1, false, true);
        r.attempted = 10;
        r.set("setup_s", 0.5);
        r.set("op_ms", 1.25);
        r.set("peak_heap_mb", 300.0);
        let doc = r.result_json();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("metrics").unwrap().as_obj().unwrap().len(), END_TO_END.len());
        let traced = Report::new("serve_read", 1, true, true);
        assert_eq!(
            traced.result_json().get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
