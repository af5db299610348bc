//! Communication-volume comparison (the "communication-efficient" claim).
//!
//! Two experiments, both writing CSV and JSON reports under `results/`:
//!
//! 1. **Product volume.** The paper's central argument against
//!    MapReduce-style schemes is their asymptotically larger
//!    communication: allreducing the `n × n` partial result every batch
//!    moves `Θ(r · n²)` words per rank, while the 2.5D product moves
//!    `O(z/√(cp) + c·n²/p)` per batch. Both implementations run on
//!    identical workloads and rank counts; measured bytes per rank are
//!    reported.
//! 2. **Filter volume.** The distributed zero-row filter used to
//!    allgather raw 8-byte row indices; the paper's bitmap formulation
//!    OR-allreduces one *bit* per batch row. Both formulations run on the
//!    same per-rank row sets; the bitmap must move ≥ 8× fewer bytes
//!    (`tests/filter_properties.rs` holds the same bound on a smaller
//!    input).

use gas_bench::report::Table;
use gas_bench::workloads::synthetic_collection;
use gas_core::algorithm::similarity_at_scale_distributed;
use gas_core::baselines::allreduce_jaccard_distributed;
use gas_core::config::SimilarityConfig;
use gas_core::indicator::SampleCollection;
use gas_dstsim::machine::Machine;
use gas_dstsim::runtime::Runtime;
use gas_sparse::dist::filter::{dist_row_filter, dist_row_filter_indexed};

/// Total bytes moved by one collective filter construction over `ranks`
/// simulated ranks, where rank `r` observes `per_rank_rows[r]`.
fn filter_bytes(
    ranks: usize,
    batch_rows: usize,
    per_rank_rows: &[Vec<usize>],
    bitmap: bool,
) -> u64 {
    let out = Runtime::new(ranks)
        .run(|ctx| {
            let rows = &per_rank_rows[ctx.rank()];
            let filter = if bitmap {
                dist_row_filter(ctx.world(), batch_rows, rows).unwrap()
            } else {
                dist_row_filter_indexed(ctx.world(), batch_rows, rows).unwrap()
            };
            filter.num_nonzero_rows()
        })
        .unwrap();
    let kept = out.results[0];
    assert!(out.results.iter().all(|&k| k == kept), "all ranks must agree on the filter");
    out.aggregate().total_bytes_sent
}

fn product_volume(collection: &SampleCollection, rank_counts: &[usize], batches: usize) {
    let machine = Machine::stampede2_knl();
    let mut table = Table::new(
        "Communication volume: SimilarityAtScale vs allreduce baseline",
        &["ranks", "ours_bytes_per_rank", "allreduce_bytes_per_rank", "ratio"],
    );
    for &ranks in rank_counts {
        let config = SimilarityConfig::with_batches(batches);
        let ours = similarity_at_scale_distributed(collection, &config, ranks, &machine).unwrap();
        let baseline = allreduce_jaccard_distributed(collection, &config, ranks, &machine).unwrap();
        assert_eq!(
            ours.result.intersections(),
            baseline.result.intersections(),
            "both schemes must agree exactly"
        );
        assert_eq!(ours.active_ranks, ranks, "rectangular grids use every rank");
        let ours_b = ours.aggregate.total_bytes_sent / ranks as u64;
        let base_b = baseline.aggregate.total_bytes_sent / ranks as u64;
        table.push_row(vec![
            ranks.to_string(),
            ours_b.to_string(),
            base_b.to_string(),
            format!("{:.2}x", base_b as f64 / ours_b.max(1) as f64),
        ]);
    }
    table.print();
    let dir = gas_bench::report::results_dir();
    let csv = table.write_csv(&dir, "comm_volume").expect("write CSV");
    let json = table.write_json(&dir, "comm_volume").expect("write JSON");
    println!("Reports written to {} and {}", csv.display(), json.display());
}

fn filter_volume(collection: &SampleCollection, rank_counts: &[usize]) {
    let batch_rows = collection.m() as usize;
    let columns = collection.batch_columns_all(0, collection.m());
    let mut table = Table::new(
        "Filter volume: bitmap OR-allreduce vs index allgather",
        &["ranks", "bitmap_bytes_per_rank", "indexed_bytes_per_rank", "ratio"],
    );
    let mut min_ratio = f64::INFINITY;
    for &ranks in rank_counts {
        // Rank r observes the rows of its block of the sample columns —
        // the same reading discipline as the distributed driver.
        let per_rank_rows: Vec<Vec<usize>> = (0..ranks)
            .map(|r| {
                let lo = r * collection.n() / ranks;
                let hi = (r + 1) * collection.n() / ranks;
                columns[lo..hi].iter().flatten().copied().collect()
            })
            .collect();
        let bitmap = filter_bytes(ranks, batch_rows, &per_rank_rows, true);
        let indexed = filter_bytes(ranks, batch_rows, &per_rank_rows, false);
        let ratio = indexed as f64 / bitmap.max(1) as f64;
        min_ratio = min_ratio.min(ratio);
        table.push_row(vec![
            ranks.to_string(),
            (bitmap / ranks as u64).to_string(),
            (indexed / ranks as u64).to_string(),
            format!("{ratio:.2}x"),
        ]);
    }
    table.print();
    let dir = gas_bench::report::results_dir();
    let csv = table.write_csv(&dir, "filter_volume").expect("write CSV");
    let json = table.write_json(&dir, "filter_volume").expect("write JSON");
    println!("Reports written to {} and {}", csv.display(), json.display());
    assert!(
        min_ratio >= 8.0,
        "bitmap filter must move ≥ 8× fewer bytes than the index allgather (worst ratio {min_ratio:.2}x)"
    );
}

fn main() {
    let collection = synthetic_collection(20_000, 200, 0.02, 77);
    let rank_counts = [2, 4, 8, 16];
    let batches = 6;
    println!(
        "Workload: n = {} samples, nnz = {}, {} batches\n",
        collection.n(),
        collection.nnz(),
        batches
    );

    product_volume(&collection, &rank_counts, batches);
    println!();
    filter_volume(&collection, &rank_counts);
    println!(
        "\nExpected shape: the allreduce baseline moves a growing multiple of SimilarityAtScale's \
         traffic as ranks and batch counts grow, and the bitmap filter collapses the per-batch \
         filter exchange to one bit per row (the paper's motivation for the algebraic formulation)."
    );
}
