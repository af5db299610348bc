//! Configuration of the SimilarityAtScale pipeline.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};

/// How the indicator matrix is split into batches (Eq. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatchPolicy {
    /// Use exactly this many batches.
    FixedCount(usize),
    /// Use batches of (at most) this many attribute rows each.
    FixedRows(u64),
    /// Choose the batch size so one batch's filtered + packed block plus
    /// the output matrices fit in the given per-rank memory budget
    /// (bytes) — "we pick the batch size to use all available memory"
    /// (Section III-C).
    MemoryBudget(usize),
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::FixedCount(1)
    }
}

/// Configuration of a SimilarityAtScale run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Batch policy (how many row batches the indicator matrix is split
    /// into).
    pub batch_policy: BatchPolicy,
    /// Replication factor `c` of the 2.5D distributed product (clamped to
    /// a divisor of the rank count: 1 on one rank).
    pub replication: usize,
    /// Whether to compress filtered batches into 64-bit masks before the
    /// product. Read only by [`crate::mask::prepare_batch`]: the allreduce
    /// baseline's unmasked ablation takes its boolean views from there.
    /// The driver does not read it: like the paper, it always masks.
    pub use_bitmask: bool,
    /// Whether to remove all-zero rows per batch before compression.
    /// Disabling this is only useful for ablation experiments.
    pub use_zero_row_filter: bool,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            batch_policy: BatchPolicy::default(),
            replication: 1,
            use_bitmask: true,
            use_zero_row_filter: true,
        }
    }
}

impl SimilarityConfig {
    /// Configuration with a fixed number of batches.
    pub fn with_batches(batch_count: usize) -> Self {
        SimilarityConfig {
            batch_policy: BatchPolicy::FixedCount(batch_count),
            ..Default::default()
        }
    }

    /// Configuration with a fixed batch size in rows.
    pub fn with_batch_rows(rows: u64) -> Self {
        SimilarityConfig { batch_policy: BatchPolicy::FixedRows(rows), ..Default::default() }
    }

    /// Configuration that sizes batches from a per-rank memory budget.
    pub fn with_memory_budget(bytes: usize) -> Self {
        SimilarityConfig { batch_policy: BatchPolicy::MemoryBudget(bytes), ..Default::default() }
    }

    /// Set the 2.5D replication factor.
    pub fn with_replication(mut self, c: usize) -> Self {
        self.replication = c;
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> CoreResult<()> {
        match self.batch_policy {
            BatchPolicy::FixedCount(0) => {
                return Err(CoreError::InvalidConfig("batch count must be positive".to_string()))
            }
            BatchPolicy::FixedRows(0) => {
                return Err(CoreError::InvalidConfig("batch rows must be positive".to_string()))
            }
            BatchPolicy::MemoryBudget(0) => {
                return Err(CoreError::InvalidConfig("memory budget must be positive".to_string()))
            }
            _ => {}
        }
        if self.replication == 0 {
            return Err(CoreError::InvalidConfig("replication must be at least 1".to_string()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_single_batch() {
        let c = SimilarityConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.batch_policy, BatchPolicy::FixedCount(1));
        assert!(c.use_bitmask);
        assert!(c.use_zero_row_filter);
    }

    #[test]
    fn constructors_set_policy() {
        assert_eq!(SimilarityConfig::with_batches(8).batch_policy, BatchPolicy::FixedCount(8));
        assert_eq!(
            SimilarityConfig::with_batch_rows(1024).batch_policy,
            BatchPolicy::FixedRows(1024)
        );
        assert_eq!(
            SimilarityConfig::with_memory_budget(1 << 20).batch_policy,
            BatchPolicy::MemoryBudget(1 << 20)
        );
        assert_eq!(SimilarityConfig::default().with_replication(4).replication, 4);
    }

    #[test]
    fn degenerate_configs_rejected() {
        assert!(SimilarityConfig::with_batches(0).validate().is_err());
        assert!(SimilarityConfig::with_batch_rows(0).validate().is_err());
        assert!(SimilarityConfig::with_memory_budget(0).validate().is_err());
        assert!(SimilarityConfig::default().with_replication(0).validate().is_err());
    }
}
