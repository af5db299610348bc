//! Placement & autotuning sweep — the `gas-plan` acceptance experiment.
//!
//! Two halves, one report (`results/placement_sweep.{json,csv}`):
//!
//! **Placement.** A skewed serving fixture — two large, hot segments
//! that every query targets plus a tail of small fresh segments nothing
//! probes — is served at p = 4 over a window of batches under three
//! placements: all segments sharded (the keyed exchange fetches hot
//! candidates every batch), all segments replicated (the install ships
//! the cold tail too), and the [`PlacementPlanner`]'s mixed plan fed
//! from the live `gas_plan_segment_*` probe-heat counters. Total wire
//! bytes (install + every batch, summed over ranks) must come out
//! lowest for the planned placement, and its answers must stay
//! bit-identical to the single-rank engine.
//!
//! **Autotuning.** The [`Autotuner`] picks the SUMMA replication factor
//! and the LSH signature length/split from machine parameters
//! (measured `results/machine_params.json` when present, the paper
//! preset otherwise). Both choices are held against brute force: the
//! grid choice's model-priced cost must stay within 2× of the best
//! replication factor found by running the distributed product at every
//! divisor, and the tuned LSH config's measured throughput must reach
//! at least half of the best recall-feasible configuration found by
//! grid-searching `(length, split)`.
//!
//! The report is written *before* any assertion fires, so CI always
//! uploads the artifact. `GAS_PLAN_TINY=1` selects the seconds-scale
//! smoke configuration gated by `bench_trend --plan` against
//! `bench/baselines/placement_sweep.tiny.json`.

use std::time::Instant;

use gas_bench::report::Table;
use gas_bench::workloads::synthetic_collection;
use gas_core::algorithm::similarity_at_scale_distributed;
use gas_core::config::SimilarityConfig;
use gas_core::costmodel::ProjectionInput;
use gas_core::indicator::SampleCollection;
use gas_dstsim::machine::Machine;
use gas_dstsim::runtime::Runtime;
use gas_index::dist::{dist_query_reader_batch_planned, install_placement, SegmentPlacement};
use gas_index::{
    exact_top_k, IndexConfig, IndexOptions, IndexWriter, Neighbor, QueryEngine, QueryOptions,
};
use gas_plan::{
    Autotuner, MachineParams, PlacementPlanner, PlannerConfig, SegmentObservation, WorkloadProfile,
};

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

/// Repetition-averaged seconds per call of `f` (at least ~0.2 s of work
/// or the rep cap, whichever comes first).
fn time_averaged<F: FnMut()>(mut f: F) -> f64 {
    let mut reps = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= 0.2 || reps >= 256 {
            return elapsed / reps as f64;
        }
        reps *= 4;
    }
}

/// Score-weighted recall of `got` against the exact answers: the sum of
/// true similarities the approximate list captured over the sum the
/// exact list holds — robust to ties (a family of equal-similarity
/// siblings can satisfy a slot with any member).
fn scored_recall(
    collection: &SampleCollection,
    queries: &[Vec<u64>],
    got: &[Vec<Neighbor>],
    top_k: usize,
) -> f64 {
    let mut captured = 0.0;
    let mut ideal = 0.0;
    for (q, hits) in queries.iter().zip(got) {
        let full = exact_top_k(collection, q, collection.n());
        ideal += full.iter().take(top_k).map(|n| n.score).sum::<f64>();
        for hit in hits {
            captured += full.iter().find(|n| n.id == hit.id).map_or(0.0, |n| n.score);
        }
    }
    if ideal == 0.0 {
        return 1.0;
    }
    (captured / ideal).min(1.0)
}

/// Measured queries/second of one engine configuration over the batch.
fn measure_qps(engine: &QueryEngine, queries: &[Vec<u64>], opts: &QueryOptions) -> f64 {
    let per_call = time_averaged(|| {
        std::hint::black_box(engine.query_batch(queries, opts).expect("query batch"));
    });
    queries.len() as f64 / per_call
}

fn main() {
    let fx = Fixture::new();
    let params = MachineParams::from_report_or_paper("results/machine_params.json");
    println!("machine parameters from: {}", params.source);

    // ---- placement: skewed fixture, three strategies at p = 4 ----

    let collection = fx.collection();
    let config = IndexConfig::default().with_signature_len(fx.signature_len).with_threshold(0.4);
    let writer = fx.writer(&collection, &config);
    let reader = writer.reader();
    let queries = fx.queries(&collection);
    let opts = QueryOptions { top_k: 5, rerank_exact: false, ..Default::default() };
    let engine = QueryEngine::snapshot_with_collection(reader.clone(), &collection);
    let reference = engine.query_batch(&queries, &opts).expect("single-rank reference");

    // Observe serving heat on the single-rank engine, then plan from the
    // per-segment counters exactly as a serving frontend would.
    gas_obs::reset_metrics();
    engine.query_batch(&queries, &opts).expect("heat warmup");
    let snap = gas_obs::snapshot();
    let stats = reader.segment_stats();
    let hot_floor = fx.hot_members;
    let observations: Vec<SegmentObservation> = stats
        .iter()
        .map(|s| {
            let obs = SegmentObservation::from_stats(s, &snap, 1);
            if s.rows >= hot_floor {
                // Settled segments: the planner's default horizon.
                obs
            } else {
                // Fresh segments churn within the serving window.
                obs.with_residency(2.0)
            }
        })
        .collect();
    let p = 4usize;
    let planner = PlacementPlanner::new(params.clone(), PlannerConfig::new(p, fx.signature_len))
        .expect("valid planner");
    let plan = planner.plan(&observations).expect("plan");
    let planned_placements = plan.placements();
    println!(
        "plan: {} replicated, {} sharded (predicted {:.3e} s/batch/rank)",
        plan.replicated(),
        plan.sharded(),
        plan.predicted_batch_seconds()
    );

    let segments = stats.len();
    let (shard_total, shard_ok) = run_placement(
        p,
        &reader,
        &collection,
        &queries,
        &opts,
        fx.window,
        &vec![SegmentPlacement::Sharded; segments],
        &reference,
    );
    let (repl_total, repl_ok) = run_placement(
        p,
        &reader,
        &collection,
        &queries,
        &opts,
        fx.window,
        &vec![SegmentPlacement::Replicated; segments],
        &reference,
    );
    let (planned_total, planned_ok) = run_placement(
        p,
        &reader,
        &collection,
        &queries,
        &opts,
        fx.window,
        &planned_placements,
        &reference,
    );
    let planned_beats_both = planned_total <= shard_total && planned_total <= repl_total;
    let all_identical = shard_ok && repl_ok && planned_ok;

    // ---- autotune: grid replication vs the measured divisor sweep ----

    let grid_p = if tiny() { 4usize } else { 8 };
    let grid_coll = if tiny() {
        synthetic_collection(8_000, 32, 0.05, 11)
    } else {
        synthetic_collection(20_000, 48, 0.05, 11)
    };
    let machine = Machine::stampede2_knl();
    let cost_model = params.to_cost_model();
    let mut measured: Vec<(usize, f64, u64)> = Vec::new();
    for c in 1..=grid_p {
        if grid_p % c != 0 {
            continue;
        }
        let sim_config = SimilarityConfig::with_batches(2).with_replication(c);
        match similarity_at_scale_distributed(&grid_coll, &sim_config, grid_p, &machine) {
            Ok(summary) => {
                let priced = summary
                    .reports
                    .iter()
                    .map(|r| cost_model.predicted_seconds(r))
                    .fold(0.0f64, f64::max);
                let flops: u64 = summary.reports.iter().map(|r| r.flops).sum();
                measured.push((c, priced, flops));
            }
            Err(e) => println!("replication c={c} infeasible on this grid: {e}"),
        }
    }
    assert!(!measured.is_empty(), "no feasible replication factor ran");
    let tuner = Autotuner::new(params.clone()).expect("valid tuner");
    let total_flops = measured[0].2 as f64;
    let grid_input = ProjectionInput {
        n_samples: grid_coll.n(),
        total_nonzeros: grid_coll.nnz() as f64,
        total_flops,
        ranks: grid_p,
        mem_words_per_rank: (params.mem_per_rank / 8) as f64,
        replication: 1,
    };
    let grid_choice = tuner.tune_grid(&grid_input).expect("grid choice");
    let best_priced = measured.iter().map(|&(_, priced, _)| priced).fold(f64::INFINITY, f64::min);
    let auto_priced = measured
        .iter()
        .find(|&&(c, _, _)| c == grid_choice.replication)
        .map(|&(_, priced, _)| priced)
        .unwrap_or(f64::INFINITY);
    let grid_ratio = auto_priced / best_priced;
    println!(
        "grid: auto c={} priced {:.3e} s, best measured {:.3e} s (ratio {:.3})",
        grid_choice.replication, auto_priced, best_priced, grid_ratio
    );

    // ---- autotune: LSH (length, split) vs the measured grid search ----

    let lsh_lens: &[usize] = if tiny() { &[32, 64] } else { &[32, 64, 128] };
    let lsh_opts = QueryOptions { top_k: 5, rerank_exact: true, ..Default::default() };
    let recall_floor = 0.8;
    let mut best_feasible_qps = 0.0f64;
    let mut best_any_qps = 0.0f64;
    for &len in lsh_lens {
        for split in gas_index::LshParams::divisor_splits(len).expect("splits") {
            // Degenerate splits (one band or one row) have a threshold
            // pinned to an endpoint and no realizable config — skip.
            let threshold = split.threshold();
            if !(threshold > 0.0 && threshold < 1.0) {
                continue;
            }
            let cfg = IndexConfig::default().with_signature_len(len).with_threshold(threshold);
            let index =
                IndexOptions::from_config(cfg).build_index(&collection).expect("grid-search index");
            let engine = QueryEngine::snapshot_with_collection(index, &collection);
            let answers = engine.query_batch(&queries, &lsh_opts).expect("grid-search batch");
            let rec = scored_recall(&collection, &queries, &answers, lsh_opts.top_k);
            let qps = measure_qps(&engine, &queries, &lsh_opts);
            best_any_qps = best_any_qps.max(qps);
            if rec >= recall_floor {
                best_feasible_qps = best_feasible_qps.max(qps);
            }
        }
    }
    let best_qps = if best_feasible_qps > 0.0 { best_feasible_qps } else { best_any_qps };

    // The tuner prices the same workload: profile from the bench reports
    // when present, with the sample count pinned to this fixture.
    let profile =
        WorkloadProfile::from_reports("results/query_throughput.json", "results/comm_volume.json")
            .unwrap_or_default();
    let profile = WorkloadProfile { n_samples: collection.n(), ..profile };
    let lsh_choice = tuner.tune_lsh(&profile, lsh_lens).expect("lsh choice");
    let auto_cfg = IndexConfig::default()
        .with_signature_len(lsh_choice.signature_len)
        .with_threshold(lsh_choice.params.threshold());
    let auto_index =
        IndexOptions::from_config(auto_cfg).build_index(&collection).expect("auto index");
    let auto_engine = QueryEngine::snapshot_with_collection(auto_index, &collection);
    let auto_answers = auto_engine.query_batch(&queries, &lsh_opts).expect("auto batch");
    let auto_recall = scored_recall(&collection, &queries, &auto_answers, lsh_opts.top_k);
    let auto_qps = measure_qps(&auto_engine, &queries, &lsh_opts);
    let lsh_ratio = auto_qps / best_qps.max(1e-9);
    println!(
        "lsh: auto len={} split=({}, {}) qps {:.0} recall {:.3}, best grid-searched {:.0} \
         (ratio {:.3})",
        lsh_choice.signature_len,
        lsh_choice.params.bands(),
        lsh_choice.params.rows(),
        auto_qps,
        auto_recall,
        best_qps,
        lsh_ratio
    );

    let tier_factor = tuner
        .tune_tier_factor(collection.n(), fx.fresh_members, fx.queries as f64)
        .expect("tier factor");

    // ---- report first, assertions after ----

    let ok = |b: bool| if b { "1" } else { "0" }.to_string();
    let mut table = Table::new(
        "Placement & autotuning sweep (gas-plan acceptance)",
        &["kind", "name", "value", "ok"],
    );
    table.push_row(vec![
        "placement".into(),
        "all_shard_total_bytes".into(),
        shard_total.to_string(),
        "1".into(),
    ]);
    table.push_row(vec![
        "placement".into(),
        "all_replicate_total_bytes".into(),
        repl_total.to_string(),
        "1".into(),
    ]);
    table.push_row(vec![
        "placement".into(),
        "planned_total_bytes".into(),
        planned_total.to_string(),
        ok(planned_beats_both),
    ]);
    table.push_row(vec![
        "placement".into(),
        "planned_identical".into(),
        ok(all_identical),
        ok(all_identical),
    ]);
    table.push_row(vec![
        "placement".into(),
        "replicated_segments".into(),
        plan.replicated().to_string(),
        ok(plan.replicated() >= 1),
    ]);
    table.push_row(vec![
        "placement".into(),
        "sharded_segments".into(),
        plan.sharded().to_string(),
        ok(plan.sharded() >= 1),
    ]);
    table.push_row(vec![
        "autotune".into(),
        "grid_cost_ratio".into(),
        format!("{grid_ratio:.4}"),
        ok(grid_ratio <= 2.0),
    ]);
    table.push_row(vec![
        "autotune".into(),
        "grid_replication".into(),
        grid_choice.replication.to_string(),
        "1".into(),
    ]);
    table.push_row(vec![
        "autotune".into(),
        "lsh_throughput_ratio".into(),
        format!("{lsh_ratio:.4}"),
        ok(lsh_ratio >= 0.5),
    ]);
    table.push_row(vec![
        "autotune".into(),
        "lsh_signature_len".into(),
        lsh_choice.signature_len.to_string(),
        "1".into(),
    ]);
    table.push_row(vec![
        "autotune".into(),
        "lsh_recall".into(),
        format!("{auto_recall:.4}"),
        "1".into(),
    ]);
    table.push_row(vec![
        "autotune".into(),
        "tier_factor".into(),
        tier_factor.to_string(),
        ok((2..=8).contains(&tier_factor)),
    ]);
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
    assert!(
        grid_ratio <= 2.0,
        "tuned replication c={} priced {grid_ratio:.3}× the best measured divisor",
        grid_choice.replication
    );
    assert!(
        lsh_ratio >= 0.5,
        "tuned LSH config reached only {lsh_ratio:.3}× the best grid-searched throughput"
    );
    println!(
        "\nplacement_sweep OK: planned {planned_total} B ≤ shard {shard_total} B, \
         replicate {repl_total} B; grid ratio {grid_ratio:.3} ≤ 2, lsh ratio {lsh_ratio:.3} ≥ 0.5"
    );
}
