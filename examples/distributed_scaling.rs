//! Distributed execution on the simulated runtime: correctness and
//! scaling behaviour at a glance.
//!
//! A synthetic workload is processed by the simulated-distributed driver
//! at several rank counts; every run is checked bit-exactly against the
//! exact reference, and the per-rank communication volume, superstep
//! count and BSP-projected time on a Stampede2-like machine are printed.
//! One more run at p = 4 is traced, and its span tree is written as a
//! folded-stacks flamegraph input to `results/paper_trace.folded`.
//!
//! Run with: `cargo run --release --example distributed_scaling`

use genomeatscale::core::algorithm::similarity_at_scale_distributed;
use genomeatscale::genomics::datasets::DatasetSpec;
use genomeatscale::obs;
use genomeatscale::prelude::*;

fn main() {
    let spec = DatasetSpec::explicit(30_000, 40, 0.01, 11);
    let samples = spec.generate().expect("valid spec");
    let collection = SampleCollection::from_sorted_sets(samples).expect("sorted samples");
    println!(
        "Workload: n = {} samples, m = {} attributes, nnz = {}",
        collection.n(),
        collection.m(),
        collection.nnz()
    );

    let exact = jaccard_exact_pairwise(&collection);
    let machine = Machine::stampede2_knl();
    let cost_model = machine.cost_model().expect("valid machine");
    let batches = 4;
    let config = SimilarityConfig::with_batches(batches).with_replication(2);

    println!(
        "\n{:>6} {:>10} {:>14} {:>12} {:>14} {:>14}",
        "ranks", "batches", "bytes/rank", "supersteps", "measured", "BSP-projected"
    );
    for ranks in [1usize, 2, 4, 8, 16] {
        let summary = similarity_at_scale_distributed(&collection, &config, ranks, &machine)
            .expect("simulated run succeeds");
        // Bit-exact agreement with the reference regardless of rank count.
        assert_eq!(summary.result.intersections(), exact.intersections());
        let agg = &summary.aggregate;
        println!(
            "{ranks:>6} {:>10} {:>14} {:>12} {:>13.3}s {:>13.6}s",
            batches,
            agg.total_bytes_sent / ranks as u64,
            agg.max_supersteps,
            agg.max_measured_seconds,
            summary.projected_time(&cost_model)
        );
    }

    println!(
        "\nEvery rank count produced the identical exact similarity matrix. The counters make \
         the cost structure visible: on this deliberately tiny workload the replicated filter \
         vector dominates and is a constant per-rank overhead, while the 2.5D product traffic — \
         the term that dominates at the paper's scales — shrinks per rank as the grid grows \
         (tests/paper_evaluation.rs covers that regime)."
    );

    // Where the time goes: one traced run at p = 4, its spans folded per
    // stack (rank threads root at `setup`, `batch`, `reduce` and `gather`).
    obs::set_enabled(true);
    let traced = similarity_at_scale_distributed(&collection, &config, 4, &machine)
        .expect("traced run succeeds");
    obs::set_enabled(false);
    assert_eq!(traced.result.intersections(), exact.intersections());
    let folded = folded_stacks(&obs::take_events());
    assert!(
        folded.lines().any(|line| line.starts_with("batch;summa;summa_step ")),
        "the traced run must record SUMMA steps inside each batch"
    );
    std::fs::create_dir_all("results").expect("create the results directory");
    std::fs::write("results/paper_trace.folded", &folded).expect("write folded stacks");
    println!("wrote results/paper_trace.folded ({} stacks)", folded.lines().count());
}
