//! Compressed Sparse Row (CSR) matrices.
//!
//! CSR is the row-major compute format: the `AᵀA` kernels iterate over the
//! rows of a batch (k-mer rows, or bit-packed word rows after masking) and
//! combine the samples appearing in each row. The paper's hypersparsity
//! discussion (Section III-B) notes that per-row metadata is what the
//! bitmask compression reduces — a CSR row pointer costs as much as a
//! nonzero, so shrinking the number of rows by `b` matters.

use std::mem::take;

use serde::{Deserialize, Serialize};

use crate::csc::{drop_slack, Parts};
use crate::error::{SparseError, SparseResult};

/// A sparse matrix in CSR form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy> CsrMatrix<T> {
    /// Construct from raw CSR arrays, validating their consistency: every
    /// row lists its column indices in bounds and strictly ascending, the
    /// order the `AᵀA` kernels walk them in.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<T>,
    ) -> SparseResult<Self> {
        check_parts(nrows, ncols, &indptr, &indices, data.len())?;
        Ok(CsrMatrix { nrows, ncols, indptr, indices, data })
    }

    /// Replace this matrix by the `nrows × ncols` one whose arrays `fill`
    /// returns, built in this matrix's own buffers, which `fill` is handed
    /// emptied with their capacity kept; the arrays are checked as
    /// [`CsrMatrix::from_raw_parts`] checks them. An array left holding
    /// more than twice what it stores gives the excess back
    /// ([`drop_slack`]), so a matrix refilled again and again holds at most
    /// twice its last fill. On an error from `fill` or the check the matrix
    /// is left empty, `0 × 0`. Always inlined, so that a packing loop
    /// passed as `fill` compiles into its caller; the arrays are handed
    /// over by value, so the loop writes to its own locals.
    #[inline(always)]
    pub(crate) fn refill(
        &mut self,
        nrows: usize,
        ncols: usize,
        fill: impl FnOnce(Vec<usize>, Vec<usize>, Vec<T>) -> SparseResult<Parts<T>>,
    ) -> SparseResult<()> {
        let (mut indptr, mut indices) = (take(&mut self.indptr), take(&mut self.indices));
        let mut data = take(&mut self.data);
        indptr.clear();
        indices.clear();
        data.clear();
        let filled = fill(indptr, indices, data).and_then(|(indptr, indices, data)| {
            CsrMatrix::from_raw_parts(nrows, ncols, indptr, indices, data)
        });
        match filled {
            Ok(matrix) => {
                *self = matrix;
                drop_slack(&mut self.indptr);
                drop_slack(&mut self.indices);
                drop_slack(&mut self.data);
                Ok(())
            }
            Err(e) => {
                *self = CsrMatrix::empty(0, 0);
                Err(e)
            }
        }
    }

    /// Check this matrix's arrays as [`CsrMatrix::from_raw_parts`] does:
    /// for a matrix that reached its reader some other way than through a
    /// checked constructor, such as a SUMMA block another rank cut.
    pub(crate) fn check(&self) -> SparseResult<()> {
        check_parts(self.nrows, self.ncols, &self.indptr, &self.indices, self.data.len())
    }

    /// The arrays, unchecked, for tests that corrupt them.
    #[cfg(test)]
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<usize>, &mut Vec<usize>, &mut Vec<T>) {
        (&mut self.indptr, &mut self.indices, &mut self.data)
    }

    /// An empty matrix with no stored entries.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointers (length `nrows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices of stored entries.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Values of stored entries.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Iterate over `(column, value)` pairs of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let start = self.indptr[i];
        let end = self.indptr[i + 1];
        self.indices[start..end].iter().zip(self.data[start..end].iter()).map(|(&c, &v)| (c, v))
    }

    /// Iterate over all `(row, column, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |i| self.row(i).map(move |(c, v)| (i, c, v)))
    }

    /// Density `nnz / (nrows * ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Number of rows that contain at least one stored entry. The paper's
    /// zero-row filter exists precisely because for genomic data this is a
    /// tiny fraction of `nrows`.
    pub fn num_nonzero_rows(&self) -> usize {
        (0..self.nrows).filter(|&i| self.row_nnz(i) > 0).count()
    }

    /// Transpose into a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut out = CsrMatrix::empty(0, 0);
        out.refill_transposed(self.ncols, &self.indptr, &self.indices, &self.data);
        out
    }

    /// Replace this matrix by the CSR matrix whose rows are the *minor*
    /// axis of a compressed layout (`indptr` over the major axis,
    /// `indices` < `minor_len`) — a CSR's transpose, or the CSR view of a
    /// CSC matrix — built in this matrix's own arrays, which keep their
    /// capacity up to twice the fill ([`drop_slack`]). A counting
    /// transpose: count per minor index, prefix-sum, then scatter while
    /// walking the major axis in order, each row's offset serving as its
    /// cursor. `O(nnz + minor_len)`, nothing allocated beyond the arrays,
    /// and every output row lists its column indices ascending.
    pub(crate) fn refill_transposed(
        &mut self,
        minor_len: usize,
        indptr: &[usize],
        indices: &[usize],
        data: &[T],
    ) {
        let out_ptr = &mut self.indptr;
        out_ptr.clear();
        out_ptr.resize(minor_len + 1, 0);
        for &r in indices {
            out_ptr[r + 1] += 1;
        }
        for r in 0..minor_len {
            out_ptr[r + 1] += out_ptr[r];
        }
        // Every slot is overwritten; each cursor ends on the next row's start.
        self.indices.clear();
        self.indices.resize(indices.len(), 0);
        self.data.clear();
        self.data.extend_from_slice(data);
        for (major, span) in indptr.windows(2).enumerate() {
            for t in span[0]..span[1] {
                let slot = &mut out_ptr[indices[t]];
                self.indices[*slot] = major;
                self.data[*slot] = data[t];
                *slot += 1;
            }
        }
        out_ptr.copy_within(0..minor_len, 1);
        out_ptr[0] = 0;
        self.nrows = minor_len;
        self.ncols = indptr.len() - 1;
        drop_slack(&mut self.indptr);
        drop_slack(&mut self.indices);
        drop_slack(&mut self.data);
    }
}

impl<T: Copy + Default + PartialEq> CsrMatrix<T> {
    /// Convert to a dense matrix (for tests and small examples).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix<T> {
        let mut d = crate::dense::DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }
}

/// The checks of [`CsrMatrix::from_raw_parts`]: `indptr` has one offset per row
/// plus one, from 0 non-decreasing to the `indices.len()` entries that
/// `data_len` matches, and every row lists its indices in bounds and
/// strictly ascending.
fn check_parts(
    nrows: usize,
    ncols: usize,
    indptr: &[usize],
    indices: &[usize],
    data_len: usize,
) -> SparseResult<()> {
    if indptr.len() != nrows + 1 {
        return Err(SparseError::ShapeMismatch {
            context: format!("indptr has length {} for {} rows", indptr.len(), nrows),
        });
    }
    if indices.len() != data_len {
        return Err(SparseError::ShapeMismatch {
            context: "indices and data lengths differ".to_string(),
        });
    }
    if *indptr.last().unwrap_or(&0) != indices.len() {
        return Err(SparseError::ShapeMismatch {
            context: "indptr does not terminate at nnz".to_string(),
        });
    }
    if indptr[0] != 0 || indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(SparseError::ShapeMismatch {
            context: "indptr must start at 0 and be non-decreasing".to_string(),
        });
    }
    // One pass over the entries; the first offending one is reported.
    for (i, span) in indptr.windows(2).enumerate() {
        let mut next_min = 0;
        for &c in &indices[span[0]..span[1]] {
            if c >= ncols {
                return Err(SparseError::IndexOutOfBounds { row: i, col: c, nrows, ncols });
            }
            if c < next_min {
                return Err(SparseError::ShapeMismatch {
                    context: format!(
                        "row {i} column indices must be strictly increasing ({} then {c})",
                        next_min - 1
                    ),
                });
            }
            next_min = c + 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::testutil::Rng;

    fn sample() -> CsrMatrix<u64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CooMatrix::from_triples(3, 3, vec![(0, 0, 1u64), (0, 2, 2), (2, 0, 3), (2, 1, 4)])
            .unwrap()
            .to_csr()
    }

    #[test]
    fn raw_parts_validation() {
        assert!(CsrMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1]).is_err());
        assert!(CsrMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 1], vec![0, 1], vec![1]).is_err());
        assert!(
            CsrMatrix::<u8>::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1, 1]).is_err()
        );
        assert!(
            CsrMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 5], vec![1, 1]).is_err()
        );
        assert!(
            CsrMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1, 1]).is_ok()
        );
        assert!(CsrMatrix::<u8>::from_raw_parts(1, 2, vec![1, 2], vec![0, 1], vec![1, 1]).is_err());
        // Column indices must strictly ascend within a row.
        let parts = |indices: Vec<usize>| {
            let nnz = indices.len();
            let built = CsrMatrix::<u8>::from_raw_parts(
                2,
                4,
                vec![0, 1, nnz],
                indices.clone(),
                vec![1; nnz],
            );
            // Refilling a matrix in use checks the same arrays alike, and
            // an error leaves it empty.
            let mut held = CsrMatrix::from_raw_parts(1, 3, vec![0, 1], vec![2], vec![7u8]).unwrap();
            let refilled = held.refill(2, 4, |mut indptr, mut held_indices, mut data| {
                indptr.extend([0, 1, nnz]);
                held_indices.extend_from_slice(&indices);
                data.resize(nnz, 1);
                Ok((indptr, held_indices, data))
            });
            match &built {
                Ok(matrix) => assert_eq!((refilled, &held), (Ok(()), matrix)),
                Err(e) => assert_eq!((refilled, held), (Err(e.clone()), CsrMatrix::empty(0, 0))),
            }
            built
        };
        assert!(parts(vec![3, 0, 1, 2]).is_ok());
        assert_eq!(
            parts(vec![3, 2, 2]).unwrap_err(),
            SparseError::ShapeMismatch {
                context: "row 1 column indices must be strictly increasing (2 then 2)".into()
            }
        );
        assert_eq!(
            parts(vec![0, 3, 1]).unwrap_err(),
            SparseError::ShapeMismatch {
                context: "row 1 column indices must be strictly increasing (3 then 1)".into()
            }
        );
        assert_eq!(
            parts(vec![0, 1, 9]).unwrap_err(),
            SparseError::IndexOutOfBounds { row: 1, col: 9, nrows: 2, ncols: 4 }
        );
    }

    #[test]
    fn row_access_and_counts() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.num_nonzero_rows(), 2);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 3), (1, 4)]);
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.row(0).collect::<Vec<_>>(), vec![(0, 1), (2, 3)]);
        assert_eq!(t.row(1).collect::<Vec<_>>(), vec![(2, 4)]);
        let tt = t.transpose();
        assert_eq!(tt.to_dense(), m.to_dense());
    }

    #[test]
    fn counting_transposes_round_trip_with_ascending_minor_indices() {
        let mut rng = Rng(3);
        // Shapes include no entries at all, empty rows and columns, and
        // far more rows than entries.
        for (nrows, ncols, entries) in
            [(0usize, 0usize, 0usize), (5, 3, 0), (1, 1, 1), (6, 9, 20), (9, 6, 20), (5000, 4, 12)]
        {
            let mut coo = CooMatrix::<u64>::new(nrows, ncols);
            let mut taken = std::collections::BTreeSet::new();
            for _ in 0..entries {
                let (r, c) = (rng.below(nrows), rng.below(ncols));
                if taken.insert((r, c)) {
                    coo.push(r, c, 1 + rng.next() % 9).unwrap();
                }
            }
            let csr = coo.to_csr();
            let ascending = |m: &CsrMatrix<u64>| {
                (0..m.nrows()).all(|i| {
                    m.indices()[m.indptr()[i]..m.indptr()[i + 1]].windows(2).all(|w| w[0] < w[1])
                })
            };
            let t = csr.transpose();
            assert_eq!((t.nrows(), t.ncols(), t.nnz()), (ncols, nrows, csr.nnz()));
            assert!(ascending(&t), "{nrows}x{ncols}");
            assert_eq!(t.to_dense(), csr.to_dense().transpose(), "{nrows}x{ncols}");
            assert_eq!(t.transpose(), csr, "{nrows}x{ncols}");
            let via_csc = coo.to_csc().to_csr();
            assert!(ascending(&via_csc), "{nrows}x{ncols}");
            assert_eq!(via_csc, csr, "{nrows}x{ncols}");
        }
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CsrMatrix::<u64>::empty(3, 2);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.num_nonzero_rows(), 0);
        assert_eq!(m.transpose().nrows(), 2);
        assert_eq!(m.density(), 0.0);
        assert_eq!(CsrMatrix::<u64>::empty(0, 0).density(), 0.0);
    }

    #[test]
    fn to_dense_matches_entries() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 2), 2);
        assert_eq!(d.get(1, 1), 0);
        assert_eq!(d.get(2, 1), 4);
    }
}
