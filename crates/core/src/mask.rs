//! Bit-mask compression of a filtered batch (Section III-B, Eq. 7 input).
//!
//! After zero-row filtering, the surviving rows of a batch are packed `b`
//! at a time into machine words: the resulting matrix `Â^(l)` has
//! `⌈rows/b⌉` word rows and one column per sample, and the matrix product
//! runs over the popcount-AND semiring. We use `b = 64` (the paper
//! discusses `b = 32` or `64`).
//!
//! On the masked path [`prepare_batch`] renumbers while it packs:
//! [`BitMatrix::from_filtered_columns`] takes each row's compacted index
//! from the filter and ORs it straight into its word, so the filtered
//! column lists are never built. The unmasked ablation renumbers through
//! [`apply_filter`] first.

use gas_sparse::bitmat::BitMatrix;
use gas_sparse::csc::CscMatrix;
use gas_sparse::csr::CsrMatrix;

use crate::error::CoreResult;
use crate::filter::{apply_filter, batch_row_filter, RowFilter};

/// A batch of the indicator matrix after filtering and (optionally)
/// masking, ready for the `AᵀA` kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedBatch {
    /// Bit-packed representation (the paper's default path).
    Masked(BitMatrix),
    /// Unpacked boolean representation (ablation path: filter only).
    Unmasked {
        /// Column-major view (samples are columns).
        csc: CscMatrix<u64>,
        /// Row-major view of the same matrix.
        csr: CsrMatrix<u64>,
    },
}

impl PreparedBatch {
    /// Number of stored entries (words when masked, booleans otherwise).
    pub fn stored_entries(&self) -> usize {
        match self {
            PreparedBatch::Masked(b) => b.nnz_words(),
            PreparedBatch::Unmasked { csc, .. } => csc.nnz(),
        }
    }

    /// Number of matrix rows the `AᵀA` kernel will iterate over.
    pub fn kernel_rows(&self) -> usize {
        match self {
            PreparedBatch::Masked(b) => b.word_rows(),
            PreparedBatch::Unmasked { csc, .. } => csc.nrows(),
        }
    }

    /// Per-sample cardinality contributions of this batch.
    pub fn col_cardinalities(&self) -> Vec<u64> {
        match self {
            PreparedBatch::Masked(b) => b.col_popcounts(),
            PreparedBatch::Unmasked { csc, .. } => {
                (0..csc.ncols()).map(|j| csc.col_nnz(j) as u64).collect()
            }
        }
    }
}

/// Filter and pack one batch given its per-sample column lists
/// (batch-local row indices). Returns the prepared batch together with the
/// filter that was applied (for diagnostics).
///
/// Every column must list rows below `batch_rows` in strictly increasing
/// order, whatever the settings: a column that does not is refused with
/// the same [`gas_sparse::SparseError`] under all four.
pub fn prepare_batch(
    batch_rows: usize,
    columns: &[Vec<usize>],
    use_filter: bool,
    use_bitmask: bool,
) -> CoreResult<(PreparedBatch, RowFilter)> {
    let filter = if use_filter {
        batch_row_filter(batch_rows, columns)
    } else {
        RowFilter::from_local(batch_rows, (0..batch_rows).collect())
    };
    if use_bitmask {
        let bm = BitMatrix::from_filtered_columns(columns, &filter)?;
        return Ok((PreparedBatch::Masked(bm), filter));
    }
    // The packer's column check, on the source columns before the filter
    // may drop an out-of-range row. Only a column that fails it pays for
    // the packer, whose error is the one returned.
    let valid = |col: &Vec<usize>| {
        col.windows(2).all(|w| w[0] < w[1]) && col.last().is_none_or(|&r| r < batch_rows)
    };
    if !columns.iter().all(valid) {
        BitMatrix::from_columns(batch_rows, columns)?;
    }
    let renumbered;
    let (nrows, rows) = if use_filter {
        renumbered = apply_filter(columns, &filter);
        (filter.num_nonzero_rows(), renumbered.as_slice())
    } else {
        (batch_rows, columns)
    };
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(rows.iter().map(Vec::len).sum());
    for col in rows {
        indices.extend_from_slice(col);
        indptr.push(indices.len());
    }
    let data = vec![1u64; indices.len()];
    let csc = CscMatrix::from_raw_parts(nrows, rows.len(), indptr, indices, data)?;
    let csr = csc.to_csr();
    Ok((PreparedBatch::Unmasked { csc, csr }, filter))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> Vec<Vec<usize>> {
        vec![vec![3, 500, 900], vec![3, 901], vec![]]
    }

    #[test]
    fn masked_batch_compresses_rows() {
        let (batch, filter) = prepare_batch(1000, &columns(), true, true).unwrap();
        assert_eq!(filter.num_nonzero_rows(), 4);
        // 4 surviving rows pack into a single 64-bit word row.
        assert_eq!(batch.kernel_rows(), 1);
        assert_eq!(batch.col_cardinalities(), vec![3, 2, 0]);
        match &batch {
            PreparedBatch::Masked(b) => {
                assert_eq!(b.orig_rows(), 4);
                assert_eq!(b.ncols(), 3);
            }
            _ => panic!("expected masked batch"),
        }
    }

    #[test]
    fn unmasked_batch_keeps_boolean_rows() {
        let (batch, filter) = prepare_batch(1000, &columns(), true, false).unwrap();
        assert_eq!(filter.num_nonzero_rows(), 4);
        assert_eq!(batch.kernel_rows(), 4);
        assert_eq!(batch.stored_entries(), 5);
        assert_eq!(batch.col_cardinalities(), vec![3, 2, 0]);
    }

    #[test]
    fn disabling_filter_keeps_all_rows() {
        let (masked, filter) = prepare_batch(1000, &columns(), false, true).unwrap();
        assert_eq!(filter.num_nonzero_rows(), 1000);
        assert_eq!(masked.kernel_rows(), 1000usize.div_ceil(64));
        let (unmasked, _) = prepare_batch(1000, &columns(), false, false).unwrap();
        assert_eq!(unmasked.kernel_rows(), 1000);
        // Cardinalities are invariant under filtering/masking choices.
        assert_eq!(masked.col_cardinalities(), unmasked.col_cardinalities());
    }

    #[test]
    fn filter_off_equals_filter_on_when_no_row_is_empty() {
        // Rows 0..70 all occur, so the filter keeps every row and both
        // settings must prepare the same batch under the same filter.
        let columns: Vec<Vec<usize>> = vec![(0..70).step_by(2).collect(), (1..70).collect()];
        for use_bitmask in [true, false] {
            let (on, on_filter) = prepare_batch(70, &columns, true, use_bitmask).unwrap();
            let (off, off_filter) = prepare_batch(70, &columns, false, use_bitmask).unwrap();
            assert_eq!(on, off, "bitmask = {use_bitmask}");
            assert_eq!(on_filter, off_filter);
            assert_eq!(off_filter.nonzero_rows(), (0..70).collect::<Vec<_>>());
        }
    }

    #[test]
    fn filtering_plus_masking_reduces_storage() {
        let (masked, _) = prepare_batch(100_000, &columns(), true, true).unwrap();
        let (unfiltered, _) = prepare_batch(100_000, &columns(), false, false).unwrap();
        assert!(masked.kernel_rows() < unfiltered.kernel_rows());
        assert!(masked.stored_entries() <= unfiltered.stored_entries());
    }

    #[test]
    fn every_setting_refuses_a_bad_column_with_the_same_error() {
        use crate::error::CoreError;
        use gas_sparse::SparseError;
        // A row past the batch (the filter would have clipped it), and a
        // column that does not ascend (the filter would have sorted it).
        let out_of_range = SparseError::IndexOutOfBounds { row: 12, col: 1, nrows: 10, ncols: 2 };
        let descending = SparseError::ShapeMismatch {
            context: "column 1 row indices must be strictly increasing (8 then 4)".into(),
        };
        for (columns, expected) in
            [(vec![vec![1], vec![3, 12]], out_of_range), (vec![vec![1], vec![8, 4]], descending)]
        {
            for (use_filter, use_bitmask) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                match prepare_batch(10, &columns, use_filter, use_bitmask) {
                    Err(CoreError::Sparse(e)) => {
                        assert_eq!(e, expected, "{use_filter}, {use_bitmask}")
                    }
                    other => panic!("{use_filter}, {use_bitmask}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_handled() {
        let (batch, filter) = prepare_batch(64, &[vec![], vec![]], true, true).unwrap();
        assert_eq!(filter.num_nonzero_rows(), 0);
        assert_eq!(batch.kernel_rows(), 0);
        assert_eq!(batch.col_cardinalities(), vec![0, 0]);
    }
}
