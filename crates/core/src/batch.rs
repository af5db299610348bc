//! Batch planning (Eq. 3 — splitting the indicator matrix into row
//! batches).
//!
//! The indicator matrix of a genomic workload does not fit in memory —
//! the k-mer universe extends to `m = 4³¹` — so SimilarityAtScale
//! processes it in row batches `A^(1) … A^(r)` and accumulates each
//! batch's contribution to `B` and `ĉ`. The batch size is normally chosen
//! to "use all available memory" (Section III-C); the batch-sensitivity
//! experiments (Fig. 2c/2d) sweep it explicitly.

use serde::{Deserialize, Serialize};

use crate::config::{BatchPolicy, SimilarityConfig};
use crate::error::{CoreError, CoreResult};
use crate::indicator::SampleCollection;

/// A concrete batching of the row range `0..m` into contiguous batches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPlan {
    m: u64,
    batch_rows: u64,
}

impl BatchPlan {
    /// Plan batches of exactly `batch_rows` rows each (the last batch may
    /// be shorter).
    pub fn with_rows(m: u64, batch_rows: u64) -> CoreResult<Self> {
        if batch_rows == 0 {
            return Err(CoreError::InvalidConfig("batch rows must be positive".to_string()));
        }
        Ok(BatchPlan { m, batch_rows })
    }

    /// Plan `batch_count` equal batches covering `0..m`.
    pub fn with_count(m: u64, batch_count: usize) -> CoreResult<Self> {
        if batch_count == 0 {
            return Err(CoreError::InvalidConfig("batch count must be positive".to_string()));
        }
        let rows = m.div_ceil(batch_count as u64).max(1);
        BatchPlan::with_rows(m, rows)
    }

    /// Derive a plan from a [`SimilarityConfig`] and the collection it will
    /// process. `ranks` is the number of processes sharing the work (used
    /// by the memory-budget policy: the batch's nonzeros are spread over
    /// all ranks, so more ranks allow proportionally larger batches —
    /// "as we double the number of nodes, we also double the batch size").
    pub fn from_config(
        config: &SimilarityConfig,
        collection: &SampleCollection,
        ranks: usize,
    ) -> CoreResult<Self> {
        config.validate()?;
        let m = collection.m();
        match config.batch_policy {
            BatchPolicy::FixedCount(count) => BatchPlan::with_count(m, count),
            BatchPolicy::FixedRows(rows) => BatchPlan::with_rows(m, rows),
            BatchPolicy::MemoryBudget(bytes) => {
                let ranks = ranks.max(1);
                // Memory per batch ≈ packed nonzeros (≤ 16 bytes per
                // nonzero: word + row index) spread over ranks, plus the
                // resident dense blocks which do not depend on the batch
                // size. Estimate rows per batch from the average density.
                let nnz_per_row = (collection.nnz() as f64 / m.max(1) as f64).max(1e-12);
                let bytes_per_row = nnz_per_row * 16.0;
                let budget_rows = (bytes as f64 * ranks as f64 * 0.5 / bytes_per_row).floor();
                let rows = budget_rows.clamp(1.0, m.max(1) as f64) as u64;
                BatchPlan::with_rows(m, rows)
            }
        }
    }

    /// Number of rows of the full indicator matrix.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Rows per batch (`m̃`).
    pub fn batch_rows(&self) -> u64 {
        self.batch_rows
    }

    /// Number of batches `r = ⌈m / m̃⌉`.
    pub fn batch_count(&self) -> usize {
        if self.m == 0 {
            return 1;
        }
        self.m.div_ceil(self.batch_rows) as usize
    }

    /// The half-open row range of batch `l`; the last ends at `m` (without
    /// forming `lo + batch_rows`, which can pass `u64::MAX`).
    pub fn range(&self, l: usize) -> (u64, u64) {
        let lo = (l as u64) * self.batch_rows;
        let hi = lo + self.batch_rows.min(self.m.max(1).saturating_sub(lo));
        (lo, hi)
    }

    /// Iterate over all batch ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.batch_count()).map(move |l| self.range(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection(m_hint: u64) -> SampleCollection {
        SampleCollection::from_sorted_sets(vec![vec![0, 1, 2], vec![m_hint - 1]]).unwrap()
    }

    #[test]
    fn fixed_count_tiles_rows_exactly() {
        let plan = BatchPlan::with_count(100, 3).unwrap();
        assert_eq!(plan.batch_count(), 3);
        let ranges: Vec<_> = plan.iter().collect();
        assert_eq!(ranges, vec![(0, 34), (34, 68), (68, 100)]);
        // Coverage: contiguous and complete.
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 100);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn fixed_rows_computes_count() {
        let plan = BatchPlan::with_rows(1000, 256).unwrap();
        assert_eq!(plan.batch_count(), 4);
        assert_eq!(plan.range(3), (768, 1000));
        assert_eq!(plan.batch_rows(), 256);
        assert_eq!(plan.m(), 1000);
    }

    #[test]
    fn degenerate_plans_rejected() {
        assert!(BatchPlan::with_rows(10, 0).is_err());
        assert!(BatchPlan::with_count(10, 0).is_err());
    }

    #[test]
    fn single_batch_covers_everything() {
        let plan = BatchPlan::with_count(37, 1).unwrap();
        assert_eq!(plan.batch_count(), 1);
        assert_eq!(plan.range(0), (0, 37));
    }

    #[test]
    fn from_config_fixed_policies() {
        let c = collection(1000);
        let plan = BatchPlan::from_config(&SimilarityConfig::with_batches(4), &c, 1).unwrap();
        assert_eq!(plan.batch_count(), 4);
        let plan = BatchPlan::from_config(&SimilarityConfig::with_batch_rows(100), &c, 1).unwrap();
        assert_eq!(plan.batch_rows(), 100);
    }

    #[test]
    fn memory_budget_scales_with_ranks() {
        let c = collection(1_000_000);
        let small =
            BatchPlan::from_config(&SimilarityConfig::with_memory_budget(1 << 10), &c, 1).unwrap();
        let large =
            BatchPlan::from_config(&SimilarityConfig::with_memory_budget(1 << 10), &c, 16).unwrap();
        assert!(large.batch_rows() >= small.batch_rows());
        assert!(small.batch_count() >= large.batch_count());
        // A huge budget collapses to a single batch.
        let one =
            BatchPlan::from_config(&SimilarityConfig::with_memory_budget(1 << 40), &c, 1).unwrap();
        assert_eq!(one.batch_count(), 1);
    }

    #[test]
    fn the_last_batch_of_a_universe_near_u64_max_ends_at_m() {
        // m = u64::MAX in 1000 batches of ⌈m / 1000⌉ rows: the last one
        // starts 0.1 % below m, and `lo + batch_rows` would pass 2⁶⁴.
        let plan = BatchPlan::with_count(u64::MAX, 1000).unwrap();
        let rows = plan.batch_rows();
        assert_eq!(rows, 18_446_744_073_709_552);
        assert_eq!(plan.batch_count(), 1000);
        assert!((999 * rows).checked_add(rows).is_none(), "the old sum wraps");
        let ranges: Vec<_> = plan.iter().collect();
        assert_eq!(ranges[0], (0, rows));
        assert_eq!(ranges[999], (999 * rows, u64::MAX));
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // One batch of every row, and batches of one row at the top.
        assert_eq!(BatchPlan::with_count(u64::MAX, 1).unwrap().range(0), (0, u64::MAX));
        let ones = BatchPlan::with_rows(u64::MAX, 1).unwrap();
        assert_eq!(ones.range(usize::MAX - 1), (u64::MAX - 1, u64::MAX));
        // Half-full last batch of rows 2⁶³ + 1: no overflow either.
        let halves = BatchPlan::with_rows(u64::MAX, 1 << 63).unwrap();
        assert_eq!(halves.batch_count(), 2);
        assert_eq!(halves.range(1), (1 << 63, u64::MAX));
    }

    #[test]
    fn zero_m_still_produces_one_batch() {
        // A collection always has m >= 1, but the plan itself tolerates 0.
        let plan = BatchPlan::with_rows(0, 10).unwrap();
        assert_eq!(plan.batch_count(), 1);
        assert_eq!(plan.range(0), (0, 1));
    }
}
