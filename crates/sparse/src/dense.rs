//! Dense row-major matrices.
//!
//! The output of SimilarityAtScale's sparse product is *dense*: the `n×n`
//! matrices `B` (intersection cardinalities), `C` (union cardinalities)
//! and `S` (similarities) are generally fully populated. This module
//! provides the dense accumulator used by the local and distributed
//! kernels, plus the small amount of element-wise arithmetic the algorithm
//! needs (`C −= B`, `S = B ⊘ C`).

use serde::{Deserialize, Serialize};

use crate::error::{SparseError, SparseResult};

/// A dense row-major matrix of `Copy` elements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> DenseMatrix<T> {
    /// Create an `nrows × ncols` matrix filled with `T::default()`.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix { nrows, ncols, data: vec![T::default(); nrows * ncols] }
    }

    /// Create a matrix from a row-major vector of length `nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<T>) -> SparseResult<Self> {
        if data.len() != nrows * ncols {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "dense data length {} does not match {}x{}",
                    data.len(),
                    nrows,
                    ncols
                ),
            });
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Element at `(i, j)` (panics if out of bounds, like indexing).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Apply `f` to every element, producing a new matrix of another type.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> DenseMatrix<U> {
        DenseMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Copy the upper triangle of a square matrix onto the lower one,
    /// `self[j][i] = self[i][j]` for every `j > i`: the full symmetric
    /// matrix from a product that computed only `j ≥ i`.
    pub fn mirror_upper(&mut self) -> SparseResult<()> {
        let n = self.nrows;
        if self.ncols != n {
            return Err(SparseError::ShapeMismatch {
                context: format!("mirror_upper of a {}x{} matrix", n, self.ncols),
            });
        }
        for i in 0..n {
            for j in i + 1..n {
                self.data[j * n + i] = self.data[i * n + j];
            }
        }
        Ok(())
    }

    /// Transpose the matrix.
    pub fn transpose(&self) -> DenseMatrix<T> {
        let mut out = DenseMatrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }
}

impl<T: Copy + Default + std::ops::AddAssign> DenseMatrix<T> {
    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &DenseMatrix<T>) -> SparseResult<()> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "add_assign of {}x{} with {}x{}",
                    self.nrows, self.ncols, other.nrows, other.ncols
                ),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }
}

impl<T: Copy + Default + PartialEq> DenseMatrix<T> {
    /// Number of entries different from `T::default()` (used in tests and
    /// density diagnostics).
    pub fn count_nonzero(&self) -> usize {
        let zero = T::default();
        self.data.iter().filter(|&&v| v != zero).count()
    }
}

impl DenseMatrix<f64> {
    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &DenseMatrix<f64>) -> SparseResult<f64> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::ShapeMismatch {
                context: "max_abs_diff on different shapes".to_string(),
            });
        }
        Ok(self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max))
    }

    /// Check symmetry within a tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_get_set_roundtrip() {
        let mut m = DenseMatrix::<u64>::zeros(2, 3);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(1, 2), 0);
        m.set(1, 2, 42);
        assert_eq!(m.get(1, 2), 42);
        assert_eq!(m.row(1), &[0, 0, 42]);
        assert_eq!(m.count_nonzero(), 1);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1u8, 2, 3]).is_err());
        let m = DenseMatrix::from_vec(2, 2, vec![1u8, 2, 3, 4]).unwrap();
        assert_eq!(m.get(1, 0), 3);
    }

    #[test]
    fn map_converts_every_element() {
        let a = DenseMatrix::from_vec(2, 2, vec![1u64, 2, 3, 4]).unwrap();
        let b = a.map(|v| v as f64 * 0.5);
        assert_eq!(b.get(1, 1), 2.0);
        assert_eq!(b.get(0, 1), 1.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = DenseMatrix::from_vec(2, 2, vec![1u64, 2, 3, 4]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![10u64, 20, 30, 40]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[11, 22, 33, 44]);
        let wrong = DenseMatrix::<u64>::zeros(1, 4);
        assert!(a.add_assign(&wrong).is_err());
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = DenseMatrix::from_vec(2, 3, vec![1u8, 2, 3, 4, 5, 6]).unwrap();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), 3);
        assert_eq!(t.get(0, 1), 4);
    }

    #[test]
    fn mirror_upper_copies_the_upper_triangle_down() {
        let mut a = DenseMatrix::from_vec(3, 3, vec![1u8, 2, 3, 9, 4, 5, 9, 9, 6]).unwrap();
        a.mirror_upper().unwrap();
        assert_eq!(a.as_slice(), &[1, 2, 3, 2, 4, 5, 3, 5, 6]);
        assert!(DenseMatrix::<u8>::zeros(2, 3).mirror_upper().is_err());
        DenseMatrix::<u8>::zeros(0, 0).mirror_upper().unwrap();
    }

    #[test]
    fn symmetry_and_diff_checks() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 0.5, 0.5, 1.0]).unwrap();
        assert!(a.is_symmetric(1e-12));
        let b = DenseMatrix::from_vec(2, 2, vec![1.0, 0.6, 0.5, 1.0]).unwrap();
        assert!(!b.is_symmetric(1e-3));
        assert!((a.max_abs_diff(&b).unwrap() - 0.1).abs() < 1e-12);
        let c = DenseMatrix::<f64>::zeros(3, 3);
        assert!(a.max_abs_diff(&c).is_err());
        assert!(!DenseMatrix::<f64>::zeros(2, 3).is_symmetric(1e-9));
    }
}
