//! Jaccard similarity/distance matrices and the exact reference
//! implementation.
//!
//! Given the intersection-cardinality matrix `B = AᵀA` and the per-sample
//! cardinalities `ĉ`, the similarity matrix follows Eq. (2):
//! `c_ij = ĉ_i + ĉ_j − b_ij`, `s_ij = b_ij / c_ij`, `d_ij = 1 − s_ij`,
//! with the convention `J = 1` when both samples are empty.

use gas_sparse::dense::DenseMatrix;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};
use crate::indicator::SampleCollection;

/// The output of a SimilarityAtScale run: intersection counts, sample
/// cardinalities, and the derived similarity/distance matrices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityResult {
    b: DenseMatrix<u64>,
    cardinalities: Vec<u64>,
    similarity: DenseMatrix<f64>,
}

impl SimilarityResult {
    /// Derive the similarity matrix from `B` and `ĉ` (Eq. 2).
    ///
    /// An entry `b_ij` above `ĉ_i` or `ĉ_j` is no intersection of two sets
    /// of those sizes, and is refused with [`CoreError::InvalidInput`]. The
    /// union `ĉ_i + ĉ_j − b_ij` does not wrap for cardinalities near
    /// `u64::MAX`.
    pub fn from_intersections(b: DenseMatrix<u64>, cardinalities: Vec<u64>) -> CoreResult<Self> {
        let n = cardinalities.len();
        if b.nrows() != n || b.ncols() != n {
            return Err(CoreError::InvalidInput(format!(
                "B is {}x{} but there are {} cardinalities",
                b.nrows(),
                b.ncols(),
                n
            )));
        }
        let mut s = DenseMatrix::<f64>::zeros(n, n);
        // Cardinalities up to 2⁵³ are exact as floats, so the common case
        // checks every entry in the float pass that divides. The exact
        // pass below finds an offending entry, and takes the rest.
        if cardinalities.iter().all(|&c| c <= 1 << 53)
            && similarities_within_cardinalities(&b, &cardinalities, &mut s)
        {
            return Ok(SimilarityResult { b, cardinalities, similarity: s });
        }
        for i in 0..n {
            for j in 0..n {
                let (inter, ci, cj) = (b.get(i, j), cardinalities[i], cardinalities[j]);
                if inter > ci.min(cj) {
                    return Err(CoreError::InvalidInput(format!(
                        "B[{i}][{j}] = {inter} exceeds the cardinalities {ci} and {cj}"
                    )));
                }
                // `ĉ_i + (ĉ_j − b_ij)` passes `u64::MAX` only for two sets
                // of over 2⁶³ elements; their float sum stands in there.
                let v = match ci.checked_add(cj - inter) {
                    Some(union) => similarity(inter, union),
                    None => inter as f64 / (ci as f64 + (cj - inter) as f64),
                };
                s.set(i, j, v);
            }
        }
        Ok(SimilarityResult { b, cardinalities, similarity: s })
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.cardinalities.len()
    }

    /// The intersection-cardinality matrix `B`.
    pub fn intersections(&self) -> &DenseMatrix<u64> {
        &self.b
    }

    /// The per-sample cardinalities `ĉ`.
    pub fn cardinalities(&self) -> &[u64] {
        &self.cardinalities
    }

    /// The Jaccard similarity matrix `S`.
    pub fn similarity(&self) -> &DenseMatrix<f64> {
        &self.similarity
    }

    /// The Jaccard distance matrix `D = 1 − S`.
    pub fn distance(&self) -> DenseMatrix<f64> {
        self.similarity.map(|v| 1.0 - v)
    }

    /// Maximum absolute element-wise difference of the similarity matrices.
    pub fn max_similarity_diff(&self, other: &SimilarityResult) -> CoreResult<f64> {
        Ok(self.similarity.max_abs_diff(other.similarity())?)
    }
}

/// `b / union`, with `J = 1` when both samples are empty.
#[inline(always)]
fn similarity(inter: u64, union: u64) -> f64 {
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Fill `s` with the similarities of `B` and `ĉ`, every cardinality at
/// most 2⁵³; returns whether every `b_ij` is at most `ĉ_i` and `ĉ_j`. The
/// check compares floats, exact here, so the loop stays branch-free.
fn similarities_within_cardinalities(
    b: &DenseMatrix<u64>,
    cardinalities: &[u64],
    s: &mut DenseMatrix<f64>,
) -> bool {
    let mut within = true;
    for (i, &ci) in cardinalities.iter().enumerate() {
        let pairs = b.row(i).iter().zip(cardinalities);
        for (out, (&inter, &cj)) in s.row_mut(i).iter_mut().zip(pairs) {
            let inter_f = inter as f64;
            within &= (inter_f <= ci as f64) & (inter_f <= cj as f64);
            *out = similarity(inter, ci.wrapping_add(cj).wrapping_sub(inter));
        }
    }
    within
}

/// Exact all-pairs Jaccard similarity computed directly from the sorted
/// sample sets (no matrix formulation). This is the correctness reference
/// every other path is validated against, and also serves as the
/// single-node "exact tool" comparison point of Table II.
pub fn jaccard_exact_pairwise(collection: &SampleCollection) -> SimilarityResult {
    let n = collection.n();
    let mut b = DenseMatrix::<u64>::zeros(n, n);
    for i in 0..n {
        b.set(i, i, collection.sample(i).len() as u64);
        for j in (i + 1)..n {
            let inter = sorted_intersection_size(collection.sample(i), collection.sample(j));
            b.set(i, j, inter);
            b.set(j, i, inter);
        }
    }
    SimilarityResult::from_intersections(b, collection.cardinalities())
        .expect("dimensions agree by construction")
}

/// Size of the intersection of two strictly-increasing slices.
pub fn sorted_intersection_size(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection() -> SampleCollection {
        SampleCollection::from_sorted_sets(vec![
            vec![1, 2, 3, 4, 5],
            vec![3, 4, 5, 6, 7],
            vec![100, 200],
            vec![],
        ])
        .unwrap()
    }

    #[test]
    fn exact_pairwise_matches_hand_computed_values() {
        let r = jaccard_exact_pairwise(&collection());
        let s = r.similarity();
        assert!((s.get(0, 1) - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.get(0, 2), 0.0);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(2, 2), 1.0);
        // Empty vs non-empty -> 0; empty vs empty -> 1.
        assert_eq!(s.get(3, 0), 0.0);
        assert_eq!(s.get(3, 3), 1.0);
        assert!(s.is_symmetric(0.0));
    }

    #[test]
    fn distance_is_one_minus_similarity() {
        let r = jaccard_exact_pairwise(&collection());
        let d = r.distance();
        let s = r.similarity();
        for i in 0..r.n() {
            for j in 0..r.n() {
                assert!((d.get(i, j) + s.get(i, j) - 1.0).abs() < 1e-12);
            }
        }
        assert_eq!(d.get(0, 0), 0.0);
    }

    #[test]
    fn from_intersections_validates_shapes() {
        let b = DenseMatrix::<u64>::zeros(3, 3);
        assert!(SimilarityResult::from_intersections(b, vec![1, 2]).is_err());
        let b = DenseMatrix::<u64>::zeros(2, 3);
        assert!(SimilarityResult::from_intersections(b, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn from_intersections_refuses_an_intersection_above_a_cardinality() {
        // 4 shared elements between sets of 5 and 3 elements.
        let b = DenseMatrix::from_vec(2, 2, vec![5u64, 4, 4, 3]).unwrap();
        let err = SimilarityResult::from_intersections(b, vec![5, 3]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err}");
        // Above both, and on the diagonal.
        let b = DenseMatrix::from_vec(2, 2, vec![5u64, 9, 9, 3]).unwrap();
        assert!(SimilarityResult::from_intersections(b, vec![5, 3]).is_err());
        let b = DenseMatrix::from_vec(1, 1, vec![2u64]).unwrap();
        assert!(SimilarityResult::from_intersections(b, vec![1]).is_err());
    }

    #[test]
    fn from_intersections_does_not_wrap_near_u64_max() {
        let max = u64::MAX;
        // Consistent counts whose sum ĉ_i + ĉ_j overflows 64 bits.
        let b = DenseMatrix::from_vec(2, 2, vec![max, max - 1, max - 1, max - 1]).unwrap();
        let r = SimilarityResult::from_intersections(b, vec![max, max - 1]).unwrap();
        assert_eq!(r.similarity().get(0, 1), (max - 1) as f64 / max as f64);
        assert_eq!(r.similarity().get(0, 0), 1.0);
        // Disjoint sets of that size: a union past 64 bits, J = 0.
        let b = DenseMatrix::from_vec(2, 2, vec![max, 0, 0, max]).unwrap();
        let r = SimilarityResult::from_intersections(b, vec![max, max]).unwrap();
        assert_eq!(r.similarity().get(1, 0), 0.0);
        // And one past a cardinality there is still refused.
        let b = DenseMatrix::from_vec(2, 2, vec![max, max, max, max - 1]).unwrap();
        assert!(SimilarityResult::from_intersections(b, vec![max, max - 1]).is_err());
    }

    #[test]
    fn triangle_inequality_of_jaccard_distance() {
        // d_J is a proper metric; check the triangle inequality on a few
        // concrete sets.
        let c = SampleCollection::from_sorted_sets(vec![
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![3, 4, 5],
            vec![10, 20],
        ])
        .unwrap();
        let d = jaccard_exact_pairwise(&c).distance();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    assert!(d.get(i, j) <= d.get(i, k) + d.get(k, j) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn sorted_intersection_size_edge_cases() {
        assert_eq!(sorted_intersection_size(&[], &[]), 0);
        assert_eq!(sorted_intersection_size(&[1, 2], &[]), 0);
        assert_eq!(sorted_intersection_size(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(sorted_intersection_size(&[1, 3, 5], &[2, 4, 6]), 0);
    }

    #[test]
    fn max_similarity_diff_detects_differences() {
        let a = jaccard_exact_pairwise(&collection());
        let b = jaccard_exact_pairwise(&collection());
        assert_eq!(a.max_similarity_diff(&b).unwrap(), 0.0);
    }
}
