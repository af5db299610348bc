//! Compressed Sparse Column (CSC) matrices.
//!
//! The indicator matrix `A` has one column per data sample, and several
//! stages of the algorithm are naturally column-oriented: reading each
//! sample's k-mers, bit-packing the column segments, and the
//! column-against-row kernel inside the distributed `AᵀA`. CSC stores the
//! entries of each column contiguously with row indices in increasing
//! order.

use std::mem::take;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// A sparse matrix in CSC form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy> CscMatrix<T> {
    /// Construct from raw CSC arrays, validating their consistency: every
    /// column lists its row indices in bounds and strictly ascending, the
    /// order the `AᵀA` kernels walk them in.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<T>,
    ) -> SparseResult<Self> {
        check_parts(nrows, ncols, &indptr, &indices, data.len())?;
        Ok(CscMatrix { nrows, ncols, indptr, indices, data })
    }

    /// Replace this matrix by the `nrows × ncols` one whose arrays `fill`
    /// returns, built in this matrix's own buffers, which `fill` is handed
    /// emptied with their capacity kept; the arrays are checked as
    /// [`CscMatrix::from_raw_parts`] checks them. An array left holding
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
            CscMatrix::from_raw_parts(nrows, ncols, indptr, indices, data)
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
                *self = CscMatrix::empty(0, 0);
                Err(e)
            }
        }
    }

    /// Check this matrix's arrays as [`CscMatrix::from_raw_parts`] does:
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
        CscMatrix {
            nrows,
            ncols,
            indptr: vec![0; ncols + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Interpret a CSR matrix as the CSC representation of its transpose
    /// stored untransposed — i.e. reuse the arrays of `csr(Aᵀ)` as
    /// `csc(A)`.
    pub fn from_transposed_csr(csr_of_transpose: CsrMatrix<T>) -> Self {
        let ncols = csr_of_transpose.nrows();
        let nrows = csr_of_transpose.ncols();
        CscMatrix {
            nrows,
            ncols,
            indptr: csr_of_transpose.indptr().to_vec(),
            indices: csr_of_transpose.indices().to_vec(),
            data: csr_of_transpose.data().to_vec(),
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

    /// Column pointers (length `ncols + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Row indices of stored entries.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Values of stored entries.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.indptr[j + 1] - self.indptr[j]
    }

    /// Where column `j`'s entries of the rows in `rows` are stored: two
    /// binary searches (rows ascend), or none for all the rows.
    #[inline]
    pub(crate) fn col_span(&self, j: usize, rows: &Range<usize>) -> Range<usize> {
        let (lo, col) = (self.indptr[j], &self.indices[self.indptr[j]..self.indptr[j + 1]]);
        if rows.start == 0 && rows.end >= self.nrows {
            return lo..lo + col.len();
        }
        let start = col.partition_point(|&r| r < rows.start);
        lo + start..lo + start + col[start..].partition_point(|&r| r < rows.end)
    }

    /// Iterate over `(row, value)` pairs of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let start = self.indptr[j];
        let end = self.indptr[j + 1];
        self.indices[start..end].iter().zip(self.data[start..end].iter()).map(|(&r, &v)| (r, v))
    }

    /// Iterate over all `(row, column, value)` triples in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.ncols).flat_map(move |j| self.col(j).map(move |(r, v)| (r, j, v)))
    }

    /// Convert to CSR.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut csr = CsrMatrix::empty(0, 0);
        csr.refill_transposed(self.nrows, &self.indptr, &self.indices, &self.data);
        csr
    }

    /// Restrict to the columns listed in `keep` (in order), producing a
    /// matrix with `keep.len()` columns.
    pub fn select_cols(&self, keep: &[usize]) -> SparseResult<CscMatrix<T>> {
        let mut indptr = Vec::with_capacity(keep.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for &j in keep {
            if j >= self.ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: 0,
                    col: j,
                    nrows: self.nrows,
                    ncols: self.ncols,
                });
            }
            for (r, v) in self.col(j) {
                indices.push(r);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        Ok(CscMatrix { nrows: self.nrows, ncols: keep.len(), indptr, indices, data })
    }
}

impl<T: Copy + Default + PartialEq> CscMatrix<T> {
    /// Convert to a dense matrix (for tests and small examples).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix<T> {
        let mut d = crate::dense::DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }
}

/// The arrays of a compressed matrix: offsets, indices and values.
pub(crate) type Parts<T> = (Vec<usize>, Vec<usize>, Vec<T>);

/// Give back the capacity of a kept buffer beyond twice what it holds —
/// the most a growing `Vec` keeps unused — so that a buffer refilled
/// batch after batch holds at most twice its last fill, whatever an
/// earlier, larger fill reserved.
pub(crate) fn drop_slack<T>(v: &mut Vec<T>) {
    if v.capacity() > v.len().saturating_mul(2) {
        v.shrink_to_fit();
    }
}

/// The checks of [`CscMatrix::from_raw_parts`]: `indptr` has one offset per column
/// plus one, from 0 non-decreasing to the `indices.len()` entries that
/// `data_len` matches, and every column lists its indices in bounds and
/// strictly ascending.
fn check_parts(
    nrows: usize,
    ncols: usize,
    indptr: &[usize],
    indices: &[usize],
    data_len: usize,
) -> SparseResult<()> {
    if indptr.len() != ncols + 1 {
        return Err(SparseError::ShapeMismatch {
            context: format!("indptr has length {} for {} columns", indptr.len(), ncols),
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
    for (j, span) in indptr.windows(2).enumerate() {
        let mut next_min = 0;
        for &r in &indices[span[0]..span[1]] {
            if r >= nrows {
                return Err(SparseError::IndexOutOfBounds { row: r, col: j, nrows, ncols });
            }
            if r < next_min {
                return Err(SparseError::ShapeMismatch {
                    context: format!(
                        "column {j} row indices must be strictly increasing ({} then {r})",
                        next_min - 1
                    ),
                });
            }
            next_min = r + 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CscMatrix<u64> {
        // [ 1 0 ]
        // [ 2 3 ]
        // [ 0 4 ]
        CooMatrix::from_triples(3, 2, vec![(0, 0, 1u64), (1, 0, 2), (1, 1, 3), (2, 1, 4)])
            .unwrap()
            .to_csc()
    }

    #[test]
    fn raw_parts_validation() {
        assert!(CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1]).is_err());
        assert!(
            CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 1], vec![0, 1], vec![1, 1]).is_err()
        );
        assert!(
            CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 9], vec![1, 1]).is_err()
        );
        assert!(
            CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1, 1]).is_err()
        );
        assert!(
            CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1, 1]).is_ok()
        );
        // Entries before the first column belong to none.
        assert!(CscMatrix::<u8>::from_raw_parts(2, 1, vec![1, 2], vec![0, 1], vec![1, 1]).is_err());
        // Row indices must strictly ascend within a column.
        let parts = |indices: Vec<usize>| {
            let nnz = indices.len();
            let built = CscMatrix::<u8>::from_raw_parts(
                4,
                2,
                vec![0, 1, nnz],
                indices.clone(),
                vec![1; nnz],
            );
            // Refilling a matrix in use checks the same arrays alike, and
            // an error leaves it empty.
            let mut held = CscMatrix::from_raw_parts(3, 1, vec![0, 1], vec![2], vec![7u8]).unwrap();
            let refilled = held.refill(4, 2, |mut indptr, mut held_indices, mut data| {
                indptr.extend([0, 1, nnz]);
                held_indices.extend_from_slice(&indices);
                data.resize(nnz, 1);
                Ok((indptr, held_indices, data))
            });
            match &built {
                Ok(matrix) => assert_eq!((refilled, &held), (Ok(()), matrix)),
                Err(e) => assert_eq!((refilled, held), (Err(e.clone()), CscMatrix::empty(0, 0))),
            }
            built
        };
        assert!(parts(vec![3, 0, 1, 2]).is_ok());
        // Column 1 may start below where column 0 ended.
        assert!(parts(vec![3, 0]).is_ok());
        assert_eq!(
            parts(vec![3, 1, 1]).unwrap_err(),
            SparseError::ShapeMismatch {
                context: "column 1 row indices must be strictly increasing (1 then 1)".into()
            }
        );
        assert_eq!(
            parts(vec![0, 2, 1]).unwrap_err(),
            SparseError::ShapeMismatch {
                context: "column 1 row indices must be strictly increasing (2 then 1)".into()
            }
        );
        // The first offending entry decides the error.
        assert_eq!(
            parts(vec![0, 4, 1]).unwrap_err(),
            SparseError::IndexOutOfBounds { row: 4, col: 1, nrows: 4, ncols: 2 }
        );
    }

    #[test]
    fn column_access() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(1, 3), (2, 4)]);
        assert_eq!((0..m.ncols()).map(|j| m.col_nnz(j)).collect::<Vec<_>>(), vec![2, 2]);
    }

    #[test]
    fn csr_roundtrip_preserves_entries() {
        let m = sample();
        let csr = m.to_csr();
        assert_eq!(csr.to_dense(), m.to_dense());
    }

    #[test]
    fn select_cols_picks_subset() {
        let m = sample();
        let s = m.select_cols(&[1]).unwrap();
        assert_eq!(s.ncols(), 1);
        assert_eq!(s.col(0).collect::<Vec<_>>(), vec![(1, 3), (2, 4)]);
        assert!(m.select_cols(&[5]).is_err());
    }

    #[test]
    fn from_transposed_csr_reuses_layout() {
        let csr = CooMatrix::from_triples(2, 3, vec![(0, 1, 5u32), (1, 2, 6)]).unwrap().to_csr();
        // csr is a 2x3 matrix; reinterpreting it as CSC of its transpose
        // gives a 3x2 matrix whose column j is csr's row j.
        let csc = CscMatrix::from_transposed_csr(csr);
        assert_eq!(csc.nrows(), 3);
        assert_eq!(csc.ncols(), 2);
        assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(1, 5)]);
        assert_eq!(csc.col(1).collect::<Vec<_>>(), vec![(2, 6)]);
    }

    #[test]
    fn empty_matrix() {
        let m = CscMatrix::<u16>::empty(3, 4);
        assert_eq!(m.nnz(), 0);
        assert!((0..m.ncols()).all(|j| m.col_nnz(j) == 0));
        assert_eq!(m.to_csr().nnz(), 0);
    }
}
