//! The family-structured corpus of the serving workloads: every row is
//! a family's shared core plus a private stretch (600 + 70 values, the
//! shape of `examples/serve_index.rs`), but with values drawn from the
//! seed instead of contiguous ranges, so two seeds share nothing.

use crate::harness::splitmix64;

pub const CORE_LEN: usize = 600;
pub const PRIVATE_LEN: usize = 70;
/// Private values a query swaps for fresh ones: J(query, its row) =
/// 650 / 690, J(query, a sibling) = 600 / 740.
const PERTURBED: usize = 20;

/// Generator of rows and queries by id.
#[derive(Debug, Clone)]
pub struct Corpus {
    seed: u64,
    /// Sorted core of every family.
    cores: Vec<Vec<u64>>,
}

fn stream(seed: u64, a: u64, b: u64, len: usize) -> Vec<u64> {
    let base = splitmix64(splitmix64(seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ b);
    let mut out: Vec<u64> = (0..len as u64).map(|j| splitmix64(base.wrapping_add(j))).collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn merge(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            if a[i] == b[j] {
                i += 1;
            }
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl Corpus {
    pub fn new(seed: u64, families: u64) -> Self {
        Corpus { seed, cores: (0..families).map(|f| stream(seed, 1, f, CORE_LEN)).collect() }
    }

    fn family(&self, id: u64) -> usize {
        (id % self.cores.len() as u64) as usize
    }

    /// Row `id`, sorted and duplicate-free. Consecutive ids cycle
    /// through the families, so every stretch of ids holds them all.
    pub fn row(&self, id: u64) -> Vec<u64> {
        merge(&self.cores[self.family(id)], &stream(self.seed, 2, id, PRIVATE_LEN))
    }

    /// A query near row `id`: the row with some private values swapped
    /// for fresh ones drawn from `salt`.
    pub fn query(&self, id: u64, salt: u64) -> Vec<u64> {
        let private = stream(self.seed, 2, id, PRIVATE_LEN);
        let kept = &private[..private.len().saturating_sub(PERTURBED)];
        let fresh = stream(self.seed, 3, splitmix64(id) ^ salt, PERTURBED);
        merge(&merge(&self.cores[self.family(id)], kept), &fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jaccard(a: &[u64], b: &[u64]) -> f64 {
        let both = merge(a, b).len();
        (a.len() + b.len() - both) as f64 / both as f64
    }

    #[test]
    fn rows_are_sorted_sets_with_family_structure() {
        let c = Corpus::new(1, 5);
        let (r0, r5, r1) = (c.row(0), c.row(5), c.row(1));
        assert_eq!(r0.len(), CORE_LEN + PRIVATE_LEN);
        assert!(r0.windows(2).all(|w| w[0] < w[1]));
        assert!((jaccard(&r0, &r5) - 600.0 / 740.0).abs() < 1e-12, "siblings share the core");
        assert_eq!(jaccard(&r0, &r1), 0.0, "families share nothing");
        assert_eq!(c.row(0), r0, "rows are a function of (seed, id)");
        assert_ne!(Corpus::new(2, 5).row(0), r0);
    }

    #[test]
    fn queries_sit_nearest_their_own_row() {
        let c = Corpus::new(1, 5);
        let q = c.query(5, 9);
        assert!(q.windows(2).all(|w| w[0] < w[1]));
        assert!((jaccard(&q, &c.row(5)) - 650.0 / 690.0).abs() < 1e-12);
        assert!((jaccard(&q, &c.row(0)) - 600.0 / 740.0).abs() < 1e-12);
        assert_ne!(c.query(5, 10), q);
    }

    #[test]
    fn merge_unions_sorted_slices() {
        assert_eq!(merge(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merge(&[], &[4]), vec![4]);
    }
}
