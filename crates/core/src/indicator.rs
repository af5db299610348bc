//! The indicator matrix `A` and the sample collection behind it.
//!
//! A [`SampleCollection`] holds `n` data samples, each a sorted set of
//! attribute values (for genomics: k-mer codes). Conceptually this *is*
//! the indicator matrix `A ∈ {0,1}^{m×n}` of Section III-A, stored by
//! column; the batching machinery extracts row ranges of `A` on demand
//! (Eq. 3) without ever materializing the hypersparse full matrix.

use gas_genomics::sample::KmerSample;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};

/// A collection of data samples — the column-wise view of the indicator
/// matrix `A`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleCollection {
    /// Per-sample sorted distinct attribute values.
    samples: Vec<Vec<u64>>,
    /// Optional sample names (same length as `samples` when present).
    names: Vec<String>,
    /// Attribute universe size `m` (one plus the maximum value, or a
    /// user-specified larger bound).
    m: u64,
}

impl SampleCollection {
    /// Build from per-sample sorted, strictly-increasing value lists.
    pub fn from_sorted_sets(samples: Vec<Vec<u64>>) -> CoreResult<Self> {
        for (i, s) in samples.iter().enumerate() {
            // Branch-free over the sample (one exit per sample, not per
            // pair): the early-exit scan's speed moved 45 % with where
            // the linker placed it.
            if !s.windows(2).fold(true, |ok, w| ok & (w[0] < w[1])) {
                return Err(CoreError::InvalidInput(format!(
                    "sample {i} is not strictly increasing"
                )));
            }
        }
        if samples.is_empty() {
            return Err(CoreError::InvalidInput("collection has no samples".to_string()));
        }
        let m = samples.iter().filter_map(|s| s.last()).max().map(|&v| v + 1).unwrap_or(1);
        let names = (0..samples.len()).map(|i| format!("sample_{i}")).collect();
        Ok(SampleCollection { samples, names, m })
    }

    /// Build from unsorted value lists (sorted and deduplicated here).
    pub fn from_sets(samples: Vec<Vec<u64>>) -> CoreResult<Self> {
        let samples = samples
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        SampleCollection::from_sorted_sets(samples)
    }

    /// Build from k-mer samples produced by `gas-genomics`.
    pub fn from_kmer_samples(samples: &[KmerSample]) -> CoreResult<Self> {
        let mut c = SampleCollection::from_sorted_sets(
            samples.iter().map(|s| s.kmers().to_vec()).collect(),
        )?;
        c.names = samples.iter().map(|s| s.name().to_string()).collect();
        Ok(c)
    }

    /// Override the attribute-universe size `m` (must cover every stored
    /// value). Useful when samples come from a known universe such as
    /// `4^k` k-mer codes.
    pub fn with_universe(mut self, m: u64) -> CoreResult<Self> {
        if m < self.m {
            return Err(CoreError::InvalidInput(format!(
                "universe {m} smaller than the largest stored value requires {}",
                self.m
            )));
        }
        self.m = m;
        Ok(self)
    }

    /// Override the sample names.
    pub fn with_names(mut self, names: Vec<String>) -> CoreResult<Self> {
        if names.len() != self.samples.len() {
            return Err(CoreError::InvalidInput(format!(
                "{} names for {} samples",
                names.len(),
                self.samples.len()
            )));
        }
        self.names = names;
        Ok(self)
    }

    /// Number of data samples `n`.
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// Attribute-universe size `m` (number of rows of the indicator).
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Total number of nonzeros of the indicator matrix.
    pub fn nnz(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }

    /// Density `nnz / (m · n)` of the indicator matrix.
    pub fn density(&self) -> f64 {
        if self.m == 0 || self.samples.is_empty() {
            return 0.0;
        }
        self.nnz() as f64 / (self.m as f64 * self.samples.len() as f64)
    }

    /// Sample names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The sorted values of sample `i` (`X_i`).
    pub fn sample(&self, i: usize) -> &[u64] {
        &self.samples[i]
    }

    /// Per-sample cardinalities `|X_i|`.
    pub fn cardinalities(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.len() as u64).collect()
    }

    /// The sorted values of sample `i` that fall in the batch `[lo, hi)`:
    /// column `i` of `A^(l)` in Eq. (3), borrowed, not renumbered.
    pub fn batch_values(&self, i: usize, lo: u64, hi: u64) -> &[u64] {
        let s = &self.samples[i];
        let start = s.partition_point(|&v| v < lo);
        let end = start + s[start..].partition_point(|&v| v < hi);
        &s[start..end]
    }

    /// Extract the rows of a batch `[lo, hi)` for the given samples: for
    /// each selected sample, the sorted list of *batch-local* row indices
    /// (`value − lo`). This is the column view of `A^(l)` in Eq. (3).
    pub fn batch_columns(&self, lo: u64, hi: u64, sample_indices: &[usize]) -> Vec<Vec<usize>> {
        sample_indices
            .iter()
            .map(|&i| {
                let s = &self.samples[i];
                let start = s.partition_point(|&v| v < lo);
                let end = s.partition_point(|&v| v < hi);
                s[start..end].iter().map(|&v| (v - lo) as usize).collect()
            })
            .collect()
    }

    /// Extract the rows of a batch `[lo, hi)` for *all* samples.
    pub fn batch_columns_all(&self, lo: u64, hi: u64) -> Vec<Vec<usize>> {
        let all: Vec<usize> = (0..self.n()).collect();
        self.batch_columns(lo, hi, &all)
    }

    /// Number of nonzeros falling into the batch `[lo, hi)`.
    pub fn batch_nnz(&self, lo: u64, hi: u64) -> u64 {
        self.samples
            .iter()
            .map(|s| (s.partition_point(|&v| v < hi) - s.partition_point(|&v| v < lo)) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gas_genomics::kmer::KmerExtractor;

    fn collection() -> SampleCollection {
        SampleCollection::from_sorted_sets(vec![
            vec![0, 5, 9, 120],
            vec![5, 9],
            vec![],
            vec![119, 121],
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_stats() {
        let c = collection();
        assert_eq!(c.n(), 4);
        assert_eq!(c.m(), 122);
        assert_eq!(c.nnz(), 8);
        assert_eq!(c.cardinalities(), vec![4, 2, 0, 2]);
        assert!((c.density() - 8.0 / (122.0 * 4.0)).abs() < 1e-12);
        assert_eq!(c.names().len(), 4);
        assert_eq!(c.sample(1), &[5, 9]);
    }

    #[test]
    fn unsorted_inputs_are_rejected_or_fixed() {
        assert!(SampleCollection::from_sorted_sets(vec![vec![3, 1]]).is_err());
        assert!(SampleCollection::from_sorted_sets(vec![vec![1, 1]]).is_err());
        // A violation in the middle of a later sample names that sample.
        let err = SampleCollection::from_sorted_sets(vec![vec![1, 2], vec![1, 5, 5, 9, 12]]);
        assert!(err.unwrap_err().to_string().contains("sample 1 is not strictly increasing"));
        assert!(SampleCollection::from_sorted_sets(vec![]).is_err());
        let fixed = SampleCollection::from_sets(vec![vec![3, 1, 3]]).unwrap();
        assert_eq!(fixed.sample(0), &[1, 3]);
    }

    #[test]
    fn universe_and_names_overrides() {
        let c = collection().with_universe(1000).unwrap();
        assert_eq!(c.m(), 1000);
        assert!(collection().with_universe(10).is_err());
        let c =
            collection().with_names(vec!["a".into(), "b".into(), "c".into(), "d".into()]).unwrap();
        assert_eq!(c.names()[3], "d");
        assert!(collection().with_names(vec!["a".into()]).is_err());
    }

    #[test]
    fn batch_columns_are_local_and_sorted() {
        let c = collection();
        // Batch rows [5, 120): sample 0 contributes {5,9} -> {0,4},
        // sample 3 contributes {119} -> {114}.
        let cols = c.batch_columns_all(5, 120);
        assert_eq!(cols[0], vec![0, 4]);
        assert_eq!(cols[1], vec![0, 4]);
        assert!(cols[2].is_empty());
        assert_eq!(cols[3], vec![114]);
        assert_eq!(c.batch_nnz(5, 120), 5);
        assert_eq!(c.batch_values(0, 5, 120), &[5, 9]);
        assert_eq!(c.batch_values(3, 5, 120), &[119]);
        assert!(c.batch_values(2, 5, 120).is_empty());
        assert!(c.batch_values(0, 121, 500).is_empty());
        // Selecting a subset of samples keeps the order of the request.
        let subset = c.batch_columns(5, 120, &[3, 0]);
        assert_eq!(subset[0], vec![114]);
        assert_eq!(subset[1], vec![0, 4]);
    }

    #[test]
    fn batches_tile_the_universe() {
        let c = collection();
        let mut total = 0;
        for (lo, hi) in [(0u64, 50u64), (50, 100), (100, 122)] {
            total += c.batch_nnz(lo, hi);
        }
        assert_eq!(total, c.nnz());
    }

    #[test]
    fn from_kmer_samples_preserves_names() {
        let ex = KmerExtractor::new(5).unwrap();
        let samples = vec![
            KmerSample::from_sequence("human", b"ACGTACGTAA", &ex),
            KmerSample::from_sequence("mouse", b"TTTTACGTAA", &ex),
        ];
        let c = SampleCollection::from_kmer_samples(&samples).unwrap();
        assert_eq!(c.n(), 2);
        assert_eq!(c.names(), &["human".to_string(), "mouse".to_string()]);
        assert!(c.m() <= 1 << 10);
    }
}
