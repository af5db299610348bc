//! Placement sweep — the `gas-plan` acceptance experiment.
//!
//! A skewed serving fixture — two large, hot segments that every query
//! targets plus a tail of small fresh segments nothing probes — is
//! served once on the single-rank engine, and the [`PlacementPlanner`]
//! plans from the probe heat that batch left in `segment_stats()`
//! (machine parameters: the measured `results/machine_params.json` when
//! present, the paper preset otherwise). The fixture is then served at
//! p = 4 over a window of batches under three placements: all segments
//! sharded (the keyed exchange fetches hot candidates every batch), all
//! segments replicated (the install ships the cold tail too), and the
//! planner's mixed plan. Total wire bytes (install + every batch, summed
//! over ranks) must come out lowest for the planned placement, and its
//! answers must stay bit-identical to the single-rank engine.
//!
//! The report (`results/placement_sweep.{json,csv}`) is written *before*
//! any assertion fires, so CI always uploads the artifact.
//! `GAS_PLAN_TINY=1` selects the seconds-scale smoke configuration gated
//! by `bench_trend --plan` against
//! `bench/baselines/placement_sweep.tiny.json`.

use gas_bench::report::Table;
use gas_core::indicator::SampleCollection;
use gas_dstsim::runtime::Runtime;
use gas_index::dist::{dist_query_reader_batch_planned, install_placement, SegmentPlacement};
use gas_index::{IndexConfig, IndexOptions, IndexWriter, Neighbor, QueryEngine, QueryOptions};
use gas_plan::{MachineParams, PlacementPlanner, PlannerConfig, SegmentObservation};

fn tiny() -> bool {
    std::env::var("GAS_PLAN_TINY").is_ok_and(|v| v == "1")
}

/// The skewed serving fixture: `hot_families` large families (one
/// committed segment each) that every query targets, then `fresh_families`
/// small ones (one commit each) that no query touches.
struct Fixture {
    hot_families: usize,
    hot_members: usize,
    fresh_families: usize,
    fresh_members: usize,
    queries: usize,
    window: usize,
    signature_len: usize,
}

impl Fixture {
    fn new() -> Self {
        if tiny() {
            Fixture {
                hot_families: 2,
                hot_members: 20,
                fresh_families: 8,
                fresh_members: 4,
                queries: 6,
                window: 6,
                signature_len: 64,
            }
        } else {
            Fixture {
                hot_families: 2,
                hot_members: 40,
                fresh_families: 8,
                fresh_members: 6,
                queries: 8,
                window: 8,
                signature_len: 64,
            }
        }
    }

    /// Family `f`, member `m`: a 400-element core shared by the family
    /// plus a 50-element private extension — sibling Jaccard exactly
    /// 400 / 500 = 0.8, cross-family 0.
    fn member(f: usize, m: usize) -> Vec<u64> {
        let base = f as u64 * 100_000;
        let mut s: Vec<u64> = (base..base + 400).collect();
        s.extend(base + 50_000 + m as u64 * 60..base + 50_000 + m as u64 * 60 + 50);
        s
    }

    /// All samples in commit order: hot families first, fresh after.
    fn collection(&self) -> SampleCollection {
        let mut samples = Vec::new();
        for f in 0..self.hot_families {
            for m in 0..self.hot_members {
                samples.push(Self::member(f, m));
            }
        }
        for f in 0..self.fresh_families {
            for m in 0..self.fresh_members {
                samples.push(Self::member(self.hot_families + f, m));
            }
        }
        SampleCollection::from_sets(samples).expect("valid fixture sets")
    }

    /// One committed segment per family, in collection order.
    fn writer(&self, collection: &SampleCollection, config: &IndexConfig) -> IndexWriter {
        let mut writer = IndexOptions::from_config(*config).open_writer().expect("open writer");
        let mut next = 0usize;
        let sizes = std::iter::repeat(self.hot_members)
            .take(self.hot_families)
            .chain(std::iter::repeat(self.fresh_members).take(self.fresh_families));
        for size in sizes {
            for _ in 0..size {
                writer
                    .add(format!("s{next}"), collection.sample(next).to_vec())
                    .expect("add sample");
                next += 1;
            }
            writer.commit().expect("commit segment");
        }
        writer
    }

    /// Queries drawn from the hot families only — the skew.
    fn queries(&self, collection: &SampleCollection) -> Vec<Vec<u64>> {
        let hot = self.hot_families * self.hot_members;
        (0..self.queries).map(|i| collection.sample((i * 7) % hot).to_vec()).collect()
    }
}

/// Serve `window` batches at `p` ranks under one placement: install,
/// then batch after batch through the planned path. Returns the wire
/// bytes summed over every rank (install + all batches) and whether
/// every rank's answers matched the single-rank reference throughout.
#[allow(clippy::too_many_arguments)]
fn run_placement(
    p: usize,
    reader: &gas_index::IndexReader,
    collection: &SampleCollection,
    queries: &[Vec<u64>],
    opts: &QueryOptions,
    window: usize,
    placements: &[SegmentPlacement],
    reference: &[Vec<Neighbor>],
) -> (u64, bool) {
    let out = Runtime::new(p)
        .run(|ctx| {
            let (planned, install) =
                ctx.expect_ok("install", install_placement(ctx.world(), reader, placements, None));
            let mut wire = install.install_bytes;
            let mut identical = true;
            for _ in 0..window {
                let q = if ctx.rank() == 0 { Some(queries) } else { None };
                let (answers, _, stats) = ctx.expect_ok(
                    "planned batch",
                    dist_query_reader_batch_planned(
                        ctx.world(),
                        reader,
                        Some(collection),
                        q,
                        opts,
                        &planned,
                    ),
                );
                wire += stats.wire_bytes();
                identical &= answers == reference;
            }
            (wire, identical)
        })
        .expect("placement run");
    let total: u64 = out.results.iter().map(|(wire, _)| *wire as u64).sum();
    let identical = out.results.iter().all(|(_, ok)| *ok);
    (total, identical)
}

fn main() {
    let fx = Fixture::new();
    let params = MachineParams::from_report_or_paper("results/machine_params.json");
    println!("machine parameters from: {}", params.source);

    let collection = fx.collection();
    let config = IndexConfig::default().with_signature_len(fx.signature_len).with_threshold(0.4);
    let writer = fx.writer(&collection, &config);
    let reader = writer.reader();
    let queries = fx.queries(&collection);
    let opts = QueryOptions { top_k: 5, rerank_exact: false, ..Default::default() };
    let engine = QueryEngine::snapshot_with_collection(reader.clone(), &collection);
    let reference = engine.query_batch(&queries, &opts).expect("single-rank reference");

    // The reference batch is the heat the planner sees: every segment
    // counts the probes served from it, and `segment_stats` reports them.
    let batches_observed = 1;
    let stats = reader.segment_stats();
    let observations: Vec<SegmentObservation> = stats
        .iter()
        .map(|s| {
            let obs = SegmentObservation::from_stats(s, batches_observed);
            if s.rows >= fx.hot_members {
                // Settled segments: the planner's default horizon.
                obs
            } else {
                // Fresh segments churn within the serving window.
                obs.with_residency(2.0)
            }
        })
        .collect();
    let p = 4usize;
    let planner = PlacementPlanner::new(params, PlannerConfig::new(p, fx.signature_len))
        .expect("valid planner");
    let plan = planner.plan(&observations).expect("plan");
    println!(
        "plan: {} replicated, {} sharded (predicted {:.3e} s/batch/rank)",
        plan.replicated(),
        plan.sharded(),
        plan.predicted_batch_seconds()
    );

    let segments = stats.len();
    let [(shard_total, shard_ok), (repl_total, repl_ok), (planned_total, planned_ok)] = [
        vec![SegmentPlacement::Sharded; segments],
        vec![SegmentPlacement::Replicated; segments],
        plan.placements(),
    ]
    .map(|placements| {
        run_placement(p, &reader, &collection, &queries, &opts, fx.window, &placements, &reference)
    });
    let planned_beats_both = planned_total <= shard_total && planned_total <= repl_total;
    let all_identical = shard_ok && repl_ok && planned_ok;

    // ---- report first, assertions after ----

    let ok = |b: bool| if b { "1" } else { "0" }.to_string();
    let mut table =
        Table::new("Placement sweep (gas-plan acceptance)", &["kind", "name", "value", "ok"]);
    for (name, value, accepted) in [
        ("all_shard_total_bytes", shard_total.to_string(), true),
        ("all_replicate_total_bytes", repl_total.to_string(), true),
        ("planned_total_bytes", planned_total.to_string(), planned_beats_both),
        ("planned_identical", ok(all_identical), all_identical),
        ("replicated_segments", plan.replicated().to_string(), plan.replicated() >= 1),
        ("sharded_segments", plan.sharded().to_string(), plan.sharded() >= 1),
    ] {
        table.push_row(vec!["placement".into(), name.into(), value, ok(accepted)]);
    }
    table.print();
    let dir = gas_bench::report::results_dir();
    table.write_json(&dir, "placement_sweep").expect("write placement_sweep.json");
    table.write_csv(&dir, "placement_sweep").expect("write placement_sweep.csv");

    assert!(all_identical, "a distributed placement diverged from the single-rank engine");
    assert!(
        planned_beats_both,
        "planned placement moved {planned_total} wire bytes vs all-shard {shard_total} / \
         all-replicate {repl_total}"
    );
    assert!(plan.replicated() >= 1, "the planner replicated no hot segment");
    assert!(plan.sharded() >= 1, "the planner sharded no fresh segment");
    println!(
        "\nplacement_sweep OK: planned {planned_total} B ≤ shard {shard_total} B, \
         replicate {repl_total} B"
    );
}
