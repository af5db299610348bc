//! Local sparse matrix–matrix multiplication kernels.
//!
//! The computational core of SimilarityAtScale is `B = AᵀA` where `A` is a
//! hypersparse batch of the indicator matrix and the output is dense
//! (Section III-A). After masking, the product runs over the popcount-AND
//! semiring on 64-bit words (Eq. 7). This module provides:
//!
//! * [`ata_dense`] — row-wise (Gustavson) `AᵀA` with a dense accumulator;
//! * [`ata_dense_parallel`] — the same product parallelized over output
//!   rows with Rayon (the on-node parallelism of a rank);
//! * [`atb_block_dense`] — the `C += AᵀB` block kernel used by the
//!   distributed SUMMA/2.5D algorithm;
//! * [`spgemm_csr`] — a general-purpose Gustavson SpGEMM with sparse
//!   output, used by the graph-framing applications and as a reference.
//!
//! # Symmetry
//!
//! `AᵀA` of one matrix under a commutative `mul` is symmetric, so
//! [`ata_dense_parallel`] multiplies only the word pairs of the upper
//! triangle (`j ≥ i`) and mirrors them in its epilogue: half the
//! products, the same full matrix out. [`atb_block_dense`] multiplies two
//! different blocks and has no such structure.
//!
//! # Hardware popcount by runtime dispatch
//!
//! The paper's case for bit-masking is that the product becomes a
//! hardware `popcount` of AND-ed words, but the x86-64 baseline this
//! workspace compiles for has no `POPCNT`, and `u64::count_ones` lowers
//! to a dozen shift-and-mask instructions there. [`ata_dense_parallel`]
//! and [`atb_block_dense`] therefore share one `#[inline(always)]` row
//! body, `accumulate_row`, reached through `dispatch::accumulate_row`:
//! on a CPU that reports POPCNT (asked once per output row, outside the
//! word-pair loop) the body runs inside a
//! `#[target_feature(enable = "popcnt")]` wrapper, anywhere else it runs
//! as compiled. The `#[inline(always)]` is
//! load-bearing: instruction selection follows the features of the
//! function the code ends up *in*, so the body and the `S::mul` it calls
//! must be inlined into the wrapper for `(a & b).count_ones()` to become
//! one instruction there — and that is also why no [`Semiring`] needs to
//! know about any of this. The wrapper and its call are the one place
//! this crate steps outside safe Rust. Only an optimised build shows the
//! difference, hence `cargo test -p gas-sparse --release` in `make test`.

use rayon::prelude::*;

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::semiring::Semiring;

/// Compute the dense matrix `B = AᵀA` over semiring `S`, where `A` is
/// given in CSR form with `m` rows (attributes) and `n` columns (samples).
///
/// Gustavson-style: for every row `k` of `A`, every pair of entries
/// `(i, a_ki)`, `(j, a_kj)` contributes `mul(a_ki, a_kj)` to `B[i][j]`.
/// The cost is `Σ_k nnz(row k)²` multiplications, matching the paper's
/// observation that dense rows are what make the product expensive.
pub fn ata_dense<S>(a: &CsrMatrix<S::Left>) -> DenseMatrix<S::Out>
where
    S: Semiring,
    S::Left: Copy,
    S::Right: Copy + From<S::Left>,
    S::Out: Copy + Default,
{
    let n = a.ncols();
    let mut out = DenseMatrix::<S::Out>::zeros(n, n);
    let mut row_entries: Vec<(usize, S::Left)> = Vec::new();
    for k in 0..a.nrows() {
        row_entries.clear();
        row_entries.extend(a.row(k));
        for &(i, vi) in &row_entries {
            let out_row = out.row_mut(i);
            for &(j, vj) in &row_entries {
                out_row[j] = S::add(out_row[j], S::mul(vi, S::Right::from(vj)));
            }
        }
    }
    out
}

/// Parallel `B = AᵀA` over semiring `S`.
///
/// Requires both the CSC view (to enumerate the rows present in each
/// sample/column) and the CSR view (to enumerate the samples present in
/// each row) **of the same matrix**, and a `mul` that commutes across
/// them: `mul(a_ki, a_kj) == mul(a_kj, a_ki)` — true of `PlusTimes`,
/// `PopcountAnd` and every caller in this workspace. Only the upper
/// triangle `j ≥ i` is multiplied (`Σ_k nnz(row k)·(nnz(row k)+1)/2`
/// products); the lower one is its mirror, and the returned matrix is the
/// full symmetric `B`. Shapes and stored-entry counts of the two views
/// are checked here; that they hold the same entries is the caller's to
/// guarantee (views of two different matrices would come back as a
/// symmetrised half of `AᵀB`).
///
/// Output row `i` costs about `n − i` entries, so the rows are handed out
/// as the `⌈n/2⌉` pairs `(p, n−1−p)` of constant size: each thread owns a
/// contiguous run of pairs, free of write conflicts.
pub fn ata_dense_parallel<S>(
    a_csc: &CscMatrix<S::Left>,
    a_csr: &CsrMatrix<S::Right>,
) -> SparseResult<DenseMatrix<S::Out>>
where
    S: Semiring,
    S::Left: Copy + Sync + Send,
    S::Right: Copy + Sync + Send,
    S::Out: Copy + Default + Sync + Send,
{
    if a_csc.nrows() != a_csr.nrows()
        || a_csc.ncols() != a_csr.ncols()
        || a_csc.nnz() != a_csr.nnz()
    {
        return Err(SparseError::ShapeMismatch {
            context: format!(
                "CSC view is {}x{} with {} entries but CSR view is {}x{} with {}",
                a_csc.nrows(),
                a_csc.ncols(),
                a_csc.nnz(),
                a_csr.nrows(),
                a_csr.ncols(),
                a_csr.nnz()
            ),
        });
    }
    let n = a_csc.ncols();
    let mut flat = vec![S::zero(); n * n];
    if n > 0 {
        // Rows 0..⌈n/2⌉ ascending, each beside its partner from the
        // bottom (the middle row of an odd `n` has none).
        let (top, bottom) = flat.split_at_mut(n.div_ceil(2) * n);
        let mut pairs: Vec<_> = top
            .chunks_mut(n)
            .zip(bottom.chunks_mut(n).rev().map(Some).chain(std::iter::repeat_with(|| None)))
            .collect();
        pairs.par_chunks_mut(1).enumerate().for_each(|(p, pair)| {
            let (upper, lower) = &mut pair[0];
            dispatch::accumulate_row::<S>(a_csc, a_csr, p, p, upper);
            if let Some(lower) = lower {
                dispatch::accumulate_row::<S>(a_csc, a_csr, n - 1 - p, n - 1 - p, lower);
            }
        });
        for i in 0..n {
            for j in i + 1..n {
                flat[j * n + i] = flat[i * n + j];
            }
        }
    }
    DenseMatrix::from_vec(n, n, flat)
}

/// Accumulate `out += AᵀB` over semiring `S`, where `A` (CSC, `m × na`)
/// and `B` (CSR, `m × nb`) share the same row dimension and `out` is the
/// dense `na × nb` block. This is the local kernel executed at every step
/// of the distributed SUMMA/2.5D product. Returns the number of products
/// multiplied, `Σ_k nnz_A(row k) · nnz_B(row k)`.
pub fn atb_block_dense<S>(
    a_csc: &CscMatrix<S::Left>,
    b_csr: &CsrMatrix<S::Right>,
    out: &mut DenseMatrix<S::Out>,
) -> SparseResult<u64>
where
    S: Semiring,
    S::Left: Copy,
    S::Right: Copy,
    S::Out: Copy + Default,
{
    if a_csc.nrows() != b_csr.nrows() {
        return Err(SparseError::ShapeMismatch {
            context: format!(
                "AᵀB with A having {} rows and B having {} rows",
                a_csc.nrows(),
                b_csr.nrows()
            ),
        });
    }
    if out.nrows() != a_csc.ncols() || out.ncols() != b_csr.ncols() {
        return Err(SparseError::ShapeMismatch {
            context: format!(
                "output block is {}x{} but AᵀB is {}x{}",
                out.nrows(),
                out.ncols(),
                a_csc.ncols(),
                b_csr.ncols()
            ),
        });
    }
    Ok((0..a_csc.ncols())
        .map(|i| dispatch::accumulate_row::<S>(a_csc, b_csr, i, 0, out.row_mut(i)))
        .sum())
}

/// The row body of [`ata_dense_parallel`] and [`atb_block_dense`]:
/// `out_row[j] ⊕= a_ki ⊗ b_kj` for every stored `a_ki` of column `i` of
/// `A` and every stored `b_kj` of row `k` of `B` with `j ≥ first_col`;
/// returns the number of products.
///
/// `#[inline(always)]` so that it (and the `S::mul` inside) is compiled
/// with the target features of whichever caller it lands in — see the
/// module header. Plain slice loops, no closures: a closure is a separate
/// function and would keep the baseline features if it were not inlined.
#[inline(always)]
fn accumulate_row<S: Semiring>(
    a_csc: &CscMatrix<S::Left>,
    b_csr: &CsrMatrix<S::Right>,
    i: usize,
    first_col: usize,
    out_row: &mut [S::Out],
) -> u64 {
    let (a_ptr, a_rows, a_vals) = (a_csc.indptr(), a_csc.indices(), a_csc.data());
    let (b_ptr, b_cols, b_vals) = (b_csr.indptr(), b_csr.indices(), b_csr.data());
    let mut ops = 0u64;
    for t in a_ptr[i]..a_ptr[i + 1] {
        let (k, va) = (a_rows[t], a_vals[t]);
        let cols = &b_cols[b_ptr[k]..b_ptr[k + 1]];
        let vals = &b_vals[b_ptr[k]..b_ptr[k + 1]];
        // `atb_block_dense` takes whole rows of many small blocks: spare
        // it a binary search per stored word that can only answer 0.
        let skip = if first_col == 0 { 0 } else { cols.partition_point(|&j| j < first_col) };
        for (&j, &vb) in cols[skip..].iter().zip(&vals[skip..]) {
            out_row[j] = S::add(out_row[j], S::mul(va, vb));
        }
        ops += (cols.len() - skip) as u64;
    }
    ops
}

/// Where [`accumulate_row`] picks up hardware `popcount`: the one place
/// this crate steps outside safe Rust.
#[allow(unsafe_code)]
mod dispatch {
    use super::{CscMatrix, CsrMatrix, Semiring};

    /// [`super::accumulate_row`], compiled for POPCNT when this CPU has it.
    #[inline]
    pub(super) fn accumulate_row<S: Semiring>(
        a_csc: &CscMatrix<S::Left>,
        b_csr: &CsrMatrix<S::Right>,
        i: usize,
        first_col: usize,
        out_row: &mut [S::Out],
    ) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("popcnt") {
                // SAFETY: `is_x86_feature_detected!` just reported POPCNT
                // on the running CPU, the wrapper's only requirement.
                return unsafe { accumulate_row_popcnt::<S>(a_csc, b_csr, i, first_col, out_row) };
            }
        }
        super::accumulate_row::<S>(a_csc, b_csr, i, first_col, out_row)
    }

    /// # Safety
    ///
    /// The running CPU must support the POPCNT instruction.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn accumulate_row_popcnt<S: Semiring>(
        a_csc: &CscMatrix<S::Left>,
        b_csr: &CsrMatrix<S::Right>,
        i: usize,
        first_col: usize,
        out_row: &mut [S::Out],
    ) -> u64 {
        super::accumulate_row::<S>(a_csc, b_csr, i, first_col, out_row)
    }
}

/// General sparse × sparse multiplication `C = A · B` over semiring `S`
/// with sparse (CSR) output, using Gustavson's algorithm with a dense
/// accumulator per row.
///
/// Entries whose accumulated value equals `S::zero()` are dropped when
/// `S::Out: PartialEq`.
pub fn spgemm_csr<S>(
    a: &CsrMatrix<S::Left>,
    b: &CsrMatrix<S::Right>,
) -> SparseResult<CsrMatrix<S::Out>>
where
    S: Semiring,
    S::Left: Copy,
    S::Right: Copy,
    S::Out: Copy + Default + PartialEq,
{
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            context: format!(
                "A is {}x{} but B is {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    let n_out = b.ncols();
    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut data = Vec::new();
    let mut acc: Vec<S::Out> = vec![S::zero(); n_out];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..a.nrows() {
        touched.clear();
        for (k, va) in a.row(i) {
            for (j, vb) in b.row(k) {
                if acc[j] == S::zero() && !touched.contains(&j) {
                    touched.push(j);
                }
                acc[j] = S::add(acc[j], S::mul(va, vb));
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            if acc[j] != S::zero() {
                indices.push(j);
                data.push(acc[j]);
            }
            acc[j] = S::zero();
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts(a.nrows(), n_out, indptr, indices, data)
}

/// Number of scalar multiply-accumulate operations `AᵀA` performs, i.e.
/// `Σ_k nnz(row k)²`. Used by the cost model to charge γ-flops.
pub fn ata_flops<T: Copy>(a: &CsrMatrix<T>) -> u64 {
    (0..a.nrows()).map(|k| (a.row_nnz(k) as u64).pow(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmat::BitMatrix;
    use crate::coo::CooMatrix;
    use crate::semiring::{PlusTimes, PopcountAnd};
    use crate::testutil::Rng;

    /// Indicator matrix for samples {0,1,2}, {1,2,3}, {5} over 6 attributes.
    fn indicator() -> CooMatrix<u64> {
        let mut m = CooMatrix::new(6, 3);
        for r in [0usize, 1, 2] {
            m.push(r, 0, 1).unwrap();
        }
        for r in [1usize, 2, 3] {
            m.push(r, 1, 1).unwrap();
        }
        m.push(5, 2, 1).unwrap();
        m
    }

    #[test]
    fn ata_dense_counts_intersections() {
        let b = ata_dense::<PlusTimes<u64>>(&indicator().to_csr());
        assert_eq!(b.get(0, 0), 3);
        assert_eq!(b.get(1, 1), 3);
        assert_eq!(b.get(2, 2), 1);
        assert_eq!(b.get(0, 1), 2);
        assert_eq!(b.get(1, 0), 2);
        assert_eq!(b.get(0, 2), 0);
    }

    #[test]
    fn parallel_ata_matches_sequential() {
        let coo = indicator();
        let seq = ata_dense::<PlusTimes<u64>>(&coo.to_csr());
        let par = ata_dense_parallel::<PlusTimes<u64>>(&coo.to_csc(), &coo.to_csr()).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_ata_rejects_mismatched_views() {
        let coo = indicator();
        let other = CooMatrix::<u64>::new(4, 3).to_csr();
        assert!(ata_dense_parallel::<PlusTimes<u64>>(&coo.to_csc(), &other).is_err());
        // Same shape, one entry fewer: views of two different matrices.
        let mut fewer = CooMatrix::<u64>::new(6, 3);
        fewer.push(0, 0, 1).unwrap();
        let err = ata_dense_parallel::<PlusTimes<u64>>(&coo.to_csc(), &fewer.to_csr());
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
    }

    /// The unpacked 0/1 matrix of per-column row lists.
    fn unpacked(nrows: usize, columns: &[Vec<usize>]) -> CooMatrix<u64> {
        let mut coo = CooMatrix::new(nrows, columns.len());
        for (j, col) in columns.iter().enumerate() {
            for &r in col {
                coo.push(r, j, 1).unwrap();
            }
        }
        coo
    }

    #[test]
    fn popcount_triangle_kernel_equals_the_plus_times_oracle_and_is_symmetric() {
        let mut rng = Rng(0x5eed);
        for n in [0usize, 1, 2, 7, 10, 33] {
            for (nrows, percent) in [(0usize, 0usize), (1, 50), (64, 30), (200, 0), (200, 10)] {
                let mut columns = rng.columns(nrows, n, percent);
                if nrows >= 128 {
                    // One fully dense word row, and an empty column.
                    for col in &mut columns {
                        col.extend(64..128);
                        col.sort_unstable();
                        col.dedup();
                    }
                    if let Some(last) = columns.last_mut() {
                        last.clear();
                    }
                }
                let bm = BitMatrix::from_columns(nrows, &columns).unwrap();
                let got = ata_dense_parallel::<PopcountAnd>(bm.as_csc(), &bm.to_csr()).unwrap();
                let want = ata_dense::<PlusTimes<u64>>(&unpacked(nrows, &columns).to_csr());
                assert_eq!(got, want, "n = {n}, {nrows} rows at {percent} %");
                assert_eq!(got, got.transpose(), "n = {n}, {nrows} rows at {percent} %");
            }
        }
    }

    #[test]
    fn popcnt_and_portable_row_bodies_agree() {
        #[cfg(target_arch = "x86_64")]
        let hardware = std::is_x86_feature_detected!("popcnt");
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        if !hardware {
            eprintln!("no POPCNT on this CPU: comparing the portable body with itself");
        }
        let mut rng = Rng(7);
        for n in [1usize, 2, 9, 16] {
            let bm = BitMatrix::from_columns(300, &rng.columns(300, n, 20)).unwrap();
            let (csc, csr) = (bm.as_csc(), bm.to_csr());
            for i in 0..n {
                for first_col in [0, i] {
                    let (mut portable, mut dispatched) = (vec![3u64; n], vec![3u64; n]);
                    let ops = accumulate_row::<PopcountAnd>(csc, &csr, i, first_col, &mut portable);
                    let dispatched_ops = dispatch::accumulate_row::<PopcountAnd>(
                        csc,
                        &csr,
                        i,
                        first_col,
                        &mut dispatched,
                    );
                    assert_eq!(portable, dispatched, "n = {n}, row {i} from {first_col}");
                    assert_eq!(ops, dispatched_ops, "n = {n}, row {i} from {first_col}");
                }
            }
        }
    }

    #[test]
    fn atb_block_adds_to_a_prefilled_block_and_counts_every_product() {
        let mut rng = Rng(11);
        for (na, nb) in [(1usize, 1usize), (3, 8), (8, 3), (5, 0)] {
            let a = unpacked(40, &rng.columns(40, na, 25));
            let b = unpacked(40, &rng.columns(40, nb, 40));
            let prefill: Vec<u64> = (0..na * nb).map(|x| 100 + x as u64).collect();
            let mut out = DenseMatrix::from_vec(na, nb, prefill.clone()).unwrap();
            let ops =
                atb_block_dense::<PlusTimes<u64>>(&a.to_csc(), &b.to_csr(), &mut out).unwrap();
            let (a_rows, b_rows) = (a.to_csr(), b.to_csr());
            let products: u64 =
                (0..40).map(|k| (a_rows.row_nnz(k) * b_rows.row_nnz(k)) as u64).sum();
            assert_eq!(ops, products, "{na} x {nb}");
            let (a_dense, b_dense) = (a_rows.to_dense(), b_rows.to_dense());
            for i in 0..na {
                for j in 0..nb {
                    let dot: u64 = (0..40).map(|k| a_dense.get(k, i) * b_dense.get(k, j)).sum();
                    assert_eq!(out.get(i, j), prefill[i * nb + j] + dot, "{na} x {nb}");
                }
            }
        }
    }

    #[test]
    fn popcount_ata_on_bitpacked_matches_boolean_ata() {
        // Pack the same indicator matrix and verify the popcount-AND
        // product equals the plus-times product on the unpacked matrix.
        let coo = indicator();
        let expected = ata_dense::<PlusTimes<u64>>(&coo.to_csr());
        let bm = BitMatrix::from_columns(6, &[vec![0, 1, 2], vec![1, 2, 3], vec![5]]).unwrap();
        let packed = ata_dense_parallel::<PopcountAnd>(bm.as_csc(), &bm.to_csr()).unwrap();
        assert_eq!(expected, packed);
    }

    #[test]
    fn atb_block_accumulates_and_counts_ops() {
        let coo = indicator();
        let csc = coo.to_csc();
        let csr = coo.to_csr();
        let mut out = DenseMatrix::<u64>::zeros(3, 3);
        let ops1 = atb_block_dense::<PlusTimes<u64>>(&csc, &csr, &mut out).unwrap();
        assert!(ops1 > 0);
        let expected = ata_dense::<PlusTimes<u64>>(&csr);
        assert_eq!(out, expected);
        // Accumulating again doubles every entry.
        atb_block_dense::<PlusTimes<u64>>(&csc, &csr, &mut out).unwrap();
        assert_eq!(out.get(0, 1), 2 * expected.get(0, 1));
    }

    #[test]
    fn atb_block_validates_shapes() {
        let coo = indicator();
        let csc = coo.to_csc();
        let csr = coo.to_csr();
        let mut wrong_out = DenseMatrix::<u64>::zeros(2, 3);
        assert!(atb_block_dense::<PlusTimes<u64>>(&csc, &csr, &mut wrong_out).is_err());
        let short = CooMatrix::<u64>::new(4, 3).to_csr();
        let mut out = DenseMatrix::<u64>::zeros(3, 3);
        assert!(atb_block_dense::<PlusTimes<u64>>(&csc, &short, &mut out).is_err());
    }

    #[test]
    fn spgemm_csr_matches_dense_reference() {
        // A = [[1,2],[0,3]], B = [[4,0],[5,6]] -> C = [[14,12],[15,18]]
        let a = CooMatrix::from_triples(2, 2, vec![(0, 0, 1u64), (0, 1, 2), (1, 1, 3)])
            .unwrap()
            .to_csr();
        let b = CooMatrix::from_triples(2, 2, vec![(0, 0, 4u64), (1, 0, 5), (1, 1, 6)])
            .unwrap()
            .to_csr();
        let c = spgemm_csr::<PlusTimes<u64>>(&a, &b).unwrap();
        let d = c.to_dense();
        assert_eq!(d.get(0, 0), 14);
        assert_eq!(d.get(0, 1), 12);
        assert_eq!(d.get(1, 0), 15);
        assert_eq!(d.get(1, 1), 18);
    }

    #[test]
    fn spgemm_csr_rejects_mismatched_inner_dims() {
        let a = CooMatrix::<u64>::new(2, 3).to_csr();
        let b = CooMatrix::<u64>::new(2, 2).to_csr();
        assert!(spgemm_csr::<PlusTimes<u64>>(&a, &b).is_err());
    }

    #[test]
    fn spgemm_drops_explicit_zero_results() {
        // Over i64, 1*1 + (-1)*1 = 0 should not be stored.
        let a = CooMatrix::from_triples(1, 2, vec![(0, 0, 1i64), (0, 1, -1)]).unwrap().to_csr();
        let b = CooMatrix::from_triples(2, 1, vec![(0, 0, 1i64), (1, 0, 1)]).unwrap().to_csr();
        let c = spgemm_csr::<PlusTimes<i64>>(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn ata_flops_is_sum_of_squared_row_counts() {
        let csr = indicator().to_csr();
        // Row nnz: row0:1, row1:2, row2:2, row3:1, row4:0, row5:1.
        assert_eq!(ata_flops(&csr), 11); // 1 + 4 + 4 + 1 + 0 + 1
    }

    #[test]
    fn empty_inputs_produce_zero_outputs() {
        let empty = CooMatrix::<u64>::new(5, 3);
        let b = ata_dense::<PlusTimes<u64>>(&empty.to_csr());
        assert_eq!(b.count_nonzero(), 0);
        let par = ata_dense_parallel::<PlusTimes<u64>>(&empty.to_csc(), &empty.to_csr()).unwrap();
        assert_eq!(par.count_nonzero(), 0);
        assert_eq!(ata_flops(&empty.to_csr()), 0);
    }
}
