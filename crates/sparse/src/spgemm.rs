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
//! # Two row bodies
//!
//! [`ata_dense_parallel`] and [`atb_block_dense`] fill output row `i`
//! (from column `first_col` on) with `Σ_k a_ki ⊗ b_kj`, through one of two
//! bodies picked once per call:
//!
//! * `accumulate_row` (Gustavson) walks, for every stored `a_ki`, the
//!   stored entries of row `k` of `B`. It touches only stored pairs, but
//!   pays for each with a column-index load, a word load and an indirect
//!   load-add-store into the output row.
//! * `accumulate_tiled` cuts `B` into tiles of consecutive word rows
//!   holding at most 32 KiB (`TILE_BYTES`; a single wider row is its own
//!   tile), densifies each tile once, row-major, with the semiring's
//!   absent value ([`Semiring::absent_operands`]) in the gaps, and adds
//!   `a_ki ⊗ tile[k][j]` to the contiguous run `out[i][first_col..]` for
//!   every stored `a_ki` of the tile: no index indirection, so the loop
//!   vectorises. Each output row keeps a cursor into column `i` of `A`
//!   from one tile to the next, which — like `accumulate_row`'s
//!   `partition_point` skip — needs indices strictly ascending within a
//!   column or row, an invariant `from_raw_parts` checks.
//!
//! The tiled body multiplies each stored word of `A` by the whole row
//! width, absent partners included, so it is picked by a cost ratio of
//! two counts known before the call: its product count (stored words of
//! `A` × row width) must be at most `TILE_COST_RATIO` = 8 times the
//! Gustavson count `Σ_k nnz_A(k)·nnz_B(k)` — for the triangle, both in
//! their upper-triangle forms `Σ_i nnz_A(col i)·(n − i)` and
//! `Σ_k nnz(k)·(nnz(k)+1)/2`. On evenly filled word rows the ratio is the
//! inverse of the fill, so the bound sits near 1/8 full: the lanes of one
//! 512-bit `vpopcntq`, which multiplies eight word pairs with no index
//! traffic. Measured on one thread of an AVX-512 VPOPCNTDQ Xeon over
//! random blocks 30 to 352 columns wide, the bodies break even at a ratio
//! between ≈ 5.5 and ≈ 9 depending on the width, so just under the bound
//! the tiled body can run up to ≈ 2× slower on narrow or wide blocks. The
//! perf ledger's workloads sit well inside it: ≈ 1.0 on `allpairs_dense`
//! (kernel ≈ 6× faster) and ≈ 4.4 on `allpairs_dist`'s 128 × 128 blocks
//! (≈ 1.8×). Whichever body runs, [`atb_block_dense`] returns the
//! Gustavson count: it is the γ-flop charge of the distributed product.
//!
//! The tile bound is a heap bound: each worker holds one tile at a time,
//! so a call adds at most 32 KiB per thread. Densifying the whole right
//! operand instead grows the distributed workload's peak heap by ≈ 13 %,
//! and fixed 64-row tiles grow the shared-memory workload's by ≈ 4 %.
//!
//! # Hardware popcount by runtime dispatch
//!
//! The paper's case for bit-masking is that the product becomes a
//! hardware `popcount` of AND-ed words, but the x86-64 baseline this
//! workspace compiles for has no `POPCNT`, and `u64::count_ones` lowers
//! to a dozen shift-and-mask instructions there. Both bodies are
//! `#[inline(always)]` and reached through `mod dispatch`, which runs
//! them inside `#[target_feature]` wrappers on a CPU that reports the
//! features (asked outside the word-pair loops), in two tiers:
//!
//! * the Gustavson body under `popcnt`, where `(a & b).count_ones()`
//!   becomes one instruction;
//! * the tiled body under `avx512f,avx512vpopcntdq,popcnt`, where its
//!   contiguous loop autovectorises to `vpopcntq` — no intrinsics.
//!
//! The tiled body is picked only where the second tier runs; everywhere
//! else the Gustavson body runs, and it stays the hypersparse body and
//! the tests' reference. An AVX2-only tier waits until a host without
//! VPOPCNTDQ can measure it. The `#[inline(always)]` is load-bearing:
//! instruction selection follows the features of the function the code
//! ends up *in*, so each body and the `S::mul` it calls must be inlined
//! into its wrapper — and that is also why no [`Semiring`] needs to know
//! about any of this. `mod dispatch`, the wrappers and their calls, is
//! the one `#[allow(unsafe_code)]` of this crate. Only an optimised build
//! shows the difference, hence `cargo test -p gas-sparse --release` in
//! `make test`.

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
/// as the `⌈n/2⌉` pairs `(p, n−1−p)` of constant size, and each thread
/// owns one contiguous run of pairs, free of write conflicts: the tiled
/// body densifies every tile once per run, not once per pair.
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
    let dense: u64 = (0..n).map(|i| (a_csc.col_nnz(i) * (n - i)) as u64).sum();
    let gustavson: u64 = (0..a_csr.nrows())
        .map(|k| {
            let r = a_csr.row_nnz(k) as u64;
            r * (r + 1) / 2
        })
        .sum();
    let flat = ata_upper::<S>(a_csc, a_csr, tiles_pay::<S>(dense, gustavson));
    DenseMatrix::from_vec(n, n, flat)
}

/// The row-major `AᵀA` of [`ata_dense_parallel`]'s checked views, through
/// the tiled body when `tiles` holds the absent value, else through the
/// Gustavson one.
fn ata_upper<S>(
    a_csc: &CscMatrix<S::Left>,
    a_csr: &CsrMatrix<S::Right>,
    tiles: Option<S::Right>,
) -> Vec<S::Out>
where
    S: Semiring,
    S::Left: Copy + Sync + Send,
    S::Right: Copy + Sync + Send,
    S::Out: Copy + Sync + Send,
{
    let n = a_csc.ncols();
    let mut flat = vec![S::zero(); n * n];
    if n == 0 {
        return flat;
    }
    // Rows 0..⌈n/2⌉ ascending, each beside its partner from the bottom
    // (the middle row of an odd `n` has none).
    let (top, bottom) = flat.split_at_mut(n.div_ceil(2) * n);
    let mut pairs: Vec<_> = top
        .chunks_mut(n)
        .zip(bottom.chunks_mut(n).rev().map(Some).chain(std::iter::repeat_with(|| None)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let run = pairs.len().div_ceil(threads);
    pairs.par_chunks_mut(run).enumerate().for_each(|(c, run_pairs)| {
        let mut rows = Vec::with_capacity(2 * run_pairs.len());
        for (p, (upper, lower)) in (c * run..).zip(run_pairs.iter_mut()) {
            rows.push(OutRow { col: p, first_col: p, out: upper });
            if let Some(lower) = lower {
                let i = n - 1 - p;
                rows.push(OutRow { col: i, first_col: i, out: lower });
            }
        }
        accumulate_rows::<S>(a_csc, a_csr, &mut rows, tiles);
    });
    for i in 0..n {
        for j in i + 1..n {
            flat[j * n + i] = flat[i * n + j];
        }
    }
    flat
}

/// Accumulate `out += AᵀB` over semiring `S`, where `A` (CSC, `m × na`)
/// and `B` (CSR, `m × nb`) share the same row dimension and `out` is the
/// dense `na × nb` block. This is the local kernel executed at every step
/// of the distributed SUMMA/2.5D product. Returns the number of products
/// a Gustavson kernel multiplies, `Σ_k nnz_A(row k) · nnz_B(row k)`,
/// whichever body ran.
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
    let products: u64 = a_csc.indices().iter().map(|&k| b_csr.row_nnz(k) as u64).sum();
    let dense = (a_csc.nnz() * b_csr.ncols()) as u64;
    atb_rows::<S>(a_csc, b_csr, out.as_mut_slice(), tiles_pay::<S>(dense, products));
    Ok(products)
}

/// [`atb_block_dense`]'s product into the row-major `out`, through the
/// tiled body when `tiles` holds the absent value, else through the
/// Gustavson one.
fn atb_rows<S: Semiring>(
    a_csc: &CscMatrix<S::Left>,
    b_csr: &CsrMatrix<S::Right>,
    out: &mut [S::Out],
    tiles: Option<S::Right>,
) {
    if b_csr.ncols() == 0 {
        return;
    }
    let mut rows: Vec<_> = out
        .chunks_mut(b_csr.ncols())
        .enumerate()
        .map(|(i, out)| OutRow { col: i, first_col: 0, out })
        .collect();
    accumulate_rows::<S>(a_csc, b_csr, &mut rows, tiles);
}

/// Bytes of the right operand one tile of `accumulate_tiled` densifies.
const TILE_BYTES: usize = 32 * 1024;

/// How many more products than the Gustavson body the tiled body may
/// multiply and still be picked: the lanes of one 512-bit `vpopcntq`.
const TILE_COST_RATIO: u64 = 8;

/// The value absent entries of the right operand are densified to, if
/// the tiled body is to run: `S` has one, this CPU runs the body with
/// vector popcount, and its `dense` product count is at most
/// [`TILE_COST_RATIO`] times the `gustavson` one.
fn tiles_pay<S: Semiring>(dense: u64, gustavson: u64) -> Option<S::Right> {
    let (_, absent) = S::absent_operands()?;
    (dispatch::vector_popcount() && dense <= gustavson.saturating_mul(TILE_COST_RATIO))
        .then_some(absent)
}

/// Word rows of a tile over rows `width` entries wide: as many as fit in
/// [`TILE_BYTES`], and at least one.
fn tile_height<T>(width: usize) -> usize {
    (TILE_BYTES / (width * std::mem::size_of::<T>()).max(1)).max(1)
}

/// One output row of a kernel call: `out[j] ⊕= Σ_k a_k,col ⊗ b_kj` for
/// every `j ≥ first_col`.
struct OutRow<'o, T> {
    col: usize,
    first_col: usize,
    out: &'o mut [T],
}

/// Every row of `rows` through the tiled body when `tiles` holds the
/// absent value, else through the Gustavson one.
fn accumulate_rows<S: Semiring>(
    a_csc: &CscMatrix<S::Left>,
    b_csr: &CsrMatrix<S::Right>,
    rows: &mut [OutRow<'_, S::Out>],
    tiles: Option<S::Right>,
) {
    match tiles {
        Some(absent) => dispatch::accumulate_tiled::<S>(a_csc, b_csr, absent, rows),
        None => {
            for row in rows {
                dispatch::accumulate_row::<S>(a_csc, b_csr, row.col, row.first_col, row.out);
            }
        }
    }
}

/// The Gustavson row body: `out_row[j] ⊕= a_ki ⊗ b_kj` for every stored
/// `a_ki` of column `i` of `A` and every stored `b_kj` of row `k` of `B`
/// with `j ≥ first_col`.
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
) {
    let (a_ptr, a_rows, a_vals) = (a_csc.indptr(), a_csc.indices(), a_csc.data());
    let (b_ptr, b_cols, b_vals) = (b_csr.indptr(), b_csr.indices(), b_csr.data());
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
    }
}

/// The tiled row body: the sums of [`accumulate_row`] for every row of
/// `rows`, one tile of `B`'s word rows at a time (see the module header).
/// `absent` is what a gap in `B` is densified to, and must annihilate
/// ([`Semiring::absent_operands`]).
///
/// `#[inline(always)]` and closure-free in its loops for the same reason
/// as [`accumulate_row`].
#[inline(always)]
fn accumulate_tiled<S: Semiring>(
    a_csc: &CscMatrix<S::Left>,
    b_csr: &CsrMatrix<S::Right>,
    absent: S::Right,
    rows: &mut [OutRow<'_, S::Out>],
) {
    let (a_ptr, a_rows, a_vals) = (a_csc.indptr(), a_csc.indices(), a_csc.data());
    let (b_ptr, b_cols, b_vals) = (b_csr.indptr(), b_csr.indices(), b_csr.data());
    let (m, width) = (b_csr.nrows(), b_csr.ncols());
    if width == 0 {
        return;
    }
    let height = tile_height::<S::Right>(width);
    // Where each row's column of `A` continues: word rows ascend, so
    // every tile picks up where the last one stopped.
    let mut next = Vec::with_capacity(rows.len());
    for row in rows.iter() {
        next.push(a_ptr[row.col]);
    }
    let mut tile = Vec::with_capacity(height.min(m) * width);
    for k0 in (0..m).step_by(height) {
        let k1 = (k0 + height).min(m);
        tile.clear();
        tile.resize((k1 - k0) * width, absent);
        for (k, dense) in (k0..k1).zip(tile.chunks_exact_mut(width)) {
            for t in b_ptr[k]..b_ptr[k + 1] {
                dense[b_cols[t]] = b_vals[t];
            }
        }
        for (row, t) in rows.iter_mut().zip(next.iter_mut()) {
            let end = a_ptr[row.col + 1];
            while *t < end && a_rows[*t] < k1 {
                let va = a_vals[*t];
                let dense = &tile[(a_rows[*t] - k0) * width..][row.first_col..width];
                for (o, &vb) in row.out[row.first_col..].iter_mut().zip(dense) {
                    *o = S::add(*o, S::mul(va, vb));
                }
                *t += 1;
            }
        }
    }
}

/// Where the row bodies pick up hardware popcount: the one place this
/// crate steps outside safe Rust.
#[allow(unsafe_code)]
mod dispatch {
    use super::{CscMatrix, CsrMatrix, OutRow, Semiring};

    /// Whether this CPU runs [`accumulate_tiled`] with vector popcount.
    pub(super) fn vector_popcount() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::is_x86_feature_detected!("avx512f")
                && std::is_x86_feature_detected!("avx512vpopcntdq")
                && std::is_x86_feature_detected!("popcnt")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// [`super::accumulate_row`], compiled for POPCNT when this CPU has it.
    #[inline]
    pub(super) fn accumulate_row<S: Semiring>(
        a_csc: &CscMatrix<S::Left>,
        b_csr: &CsrMatrix<S::Right>,
        i: usize,
        first_col: usize,
        out_row: &mut [S::Out],
    ) {
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
    ) {
        super::accumulate_row::<S>(a_csc, b_csr, i, first_col, out_row)
    }

    /// [`super::accumulate_tiled`], compiled for AVX-512 VPOPCNTDQ when
    /// this CPU has it.
    #[inline]
    pub(super) fn accumulate_tiled<S: Semiring>(
        a_csc: &CscMatrix<S::Left>,
        b_csr: &CsrMatrix<S::Right>,
        absent: S::Right,
        rows: &mut [OutRow<'_, S::Out>],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if vector_popcount() {
                // SAFETY: `vector_popcount` just reported AVX-512F,
                // AVX-512 VPOPCNTDQ and POPCNT on the running CPU, the
                // wrapper's only requirement.
                return unsafe { accumulate_tiled_avx512::<S>(a_csc, b_csr, absent, rows) };
            }
        }
        super::accumulate_tiled::<S>(a_csc, b_csr, absent, rows)
    }

    /// # Safety
    ///
    /// The running CPU must support AVX-512F, AVX-512 VPOPCNTDQ and
    /// POPCNT.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn accumulate_tiled_avx512<S: Semiring>(
        a_csc: &CscMatrix<S::Left>,
        b_csr: &CsrMatrix<S::Right>,
        absent: S::Right,
        rows: &mut [OutRow<'_, S::Out>],
    ) {
        super::accumulate_tiled::<S>(a_csc, b_csr, absent, rows)
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

/// Number of products in the full square `AᵀA`, `Σ_k nnz(row k)²`.
///
/// A size measure, not a charge: nothing in this workspace bills γ-flops
/// with it (the distributed product charges what [`atb_block_dense`]
/// returns), and [`ata_dense_parallel`] multiplies only the upper
/// triangle, `Σ_k nnz(row k)·(nnz(row k)+1)/2` Gustavson products — or,
/// on its tiled body, `Σ_i nnz(col i)·(n − i)` dense ones.
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

    #[test]
    fn a_csr_view_listing_a_row_descending_is_refused() {
        // One attribute shared by all four samples, listed 3, 2, 1, 0.
        // Accepted, this view sent the triangle kernel's `partition_point`
        // skip past every entry of output rows 2 and 3, leaving (2, 2),
        // (2, 3) and (3, 3) at zero.
        let mut coo = CooMatrix::<u64>::new(2, 4);
        for j in 0..4 {
            coo.push(0, j, 1).unwrap();
        }
        coo.push(1, 1, 1).unwrap();
        let csr = coo.to_csr();
        let mut indices = csr.indices().to_vec();
        indices[..4].reverse();
        let view =
            CsrMatrix::from_raw_parts(2, 4, csr.indptr().to_vec(), indices, csr.data().to_vec());
        assert_eq!(
            view.unwrap_err(),
            SparseError::ShapeMismatch {
                context: "row 0 column indices must be strictly increasing (3 then 2)".into()
            }
        );
    }

    /// The unpacked 0/1 matrix of per-column row lists.
    fn unpacked(nrows: usize, columns: &[Vec<usize>]) -> CscMatrix<u64> {
        let mut indptr = vec![0];
        indptr.extend(columns.iter().scan(0, |end, col| {
            *end += col.len();
            Some(*end)
        }));
        let nnz = indptr[columns.len()];
        CscMatrix::from_raw_parts(nrows, columns.len(), indptr, columns.concat(), vec![1; nnz])
            .unwrap()
    }

    /// Boolean row lists of `ncols` columns over `word_rows` words: each
    /// (word row, column) slot holds a word with probability
    /// `permille / 1000`, a random nonzero mask of about 4 bits.
    fn word_columns(
        rng: &mut Rng,
        word_rows: usize,
        ncols: usize,
        permille: usize,
    ) -> Vec<Vec<usize>> {
        (0..ncols)
            .map(|_| {
                let mut rows = Vec::new();
                for k in 0..word_rows {
                    if rng.below(1000) < permille {
                        let mask = rng.next() & rng.next() & rng.next() & rng.next();
                        let mask = if mask == 0 { 1 << (k % 64) } else { mask };
                        rows.extend((0..64).filter(|b| (mask >> b) & 1 == 1).map(|b| k * 64 + b));
                    }
                }
                rows
            })
            .collect()
    }

    /// Word rows of 1, around one tile of `width`-wide rows, and three
    /// tiles and then some.
    fn word_row_counts(width: usize) -> [usize; 5] {
        let h = tile_height::<u64>(width);
        [1, h - 1, h, h + 1, 3 * h + 5]
    }

    /// Word-row fills in per mille: empty, sparse, either side of the
    /// 1-in-[`TILE_COST_RATIO`] guard, and dense.
    const FILLS: [usize; 6] = [0, 20, 120, 130, 600, 1000];

    /// The tiled body computes the right answer on any CPU; the dispatch
    /// picks it only where it runs with vector popcount.
    const TILED: Option<u64> = Some(0);

    #[test]
    fn popcount_triangle_kernel_equals_the_plus_times_oracle_and_is_symmetric() {
        let mut rng = Rng(0x5eed);
        let (mut tiled_side, mut gustavson_side) = (0, 0);
        let n0 = BitMatrix::from_columns(0, &[]).unwrap();
        let empty = ata_dense_parallel::<PopcountAnd>(n0.as_csc(), &n0.to_csr()).unwrap();
        assert_eq!((empty.nrows(), empty.ncols()), (0, 0));
        for n in [1usize, 3, 8, 9, 33, 130] {
            for word_rows in word_row_counts(n) {
                for permille in FILLS {
                    let ctx = format!("n = {n}, {word_rows} word rows at {permille} ‰");
                    let nrows = 64 * word_rows;
                    let mut columns = word_columns(&mut rng, word_rows, n, permille);
                    if n > 2 {
                        columns[n / 2].clear();
                    }
                    let bm = BitMatrix::from_columns(nrows, &columns).unwrap();
                    let (csc, csr) = (bm.as_csc(), bm.to_csr());
                    let want = ata_dense::<PlusTimes<u64>>(&unpacked(nrows, &columns).to_csr());
                    let got = ata_dense_parallel::<PopcountAnd>(csc, &csr).unwrap();
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(got, got.transpose(), "{ctx}");
                    for tiles in [None, TILED] {
                        let body = ata_upper::<PopcountAnd>(csc, &csr, tiles);
                        assert_eq!(body, want.as_slice(), "{ctx}, tiles: {tiles:?}");
                    }
                    let dense: usize = (0..n).map(|i| csc.col_nnz(i) * (n - i)).sum();
                    let pairs: usize =
                        (0..word_rows).map(|k| csr.row_nnz(k) * (csr.row_nnz(k) + 1) / 2).sum();
                    if dense <= 8 * pairs {
                        tiled_side += 1;
                    } else {
                        gustavson_side += 1;
                    }
                }
            }
        }
        assert!(tiled_side > 0 && gustavson_side > 0, "{tiled_side} / {gustavson_side}");
    }

    #[test]
    fn popcnt_and_portable_row_bodies_agree() {
        #[cfg(target_arch = "x86_64")]
        let popcnt = std::is_x86_feature_detected!("popcnt");
        #[cfg(not(target_arch = "x86_64"))]
        let popcnt = false;
        if !popcnt {
            eprintln!("no POPCNT on this CPU: comparing the portable Gustavson body with itself");
        }
        if !dispatch::vector_popcount() {
            eprintln!(
                "no AVX-512 VPOPCNTDQ on this CPU: comparing the portable tiled body with itself"
            );
        }
        fn out_rows(
            out: &mut [u64],
            n: usize,
            start: fn(usize, usize) -> usize,
        ) -> Vec<OutRow<'_, u64>> {
            let rows = out.chunks_mut(n).enumerate();
            rows.map(|(i, out)| OutRow { col: i, first_col: start(i, n), out }).collect()
        }
        // Whole rows, the triangle, and a fixed start mid-row.
        let starts: [fn(usize, usize) -> usize; 3] = [|_, _| 0, |i, _| i, |_, n| n / 2];
        let mut rng = Rng(7);
        for n in [1usize, 2, 9, 16, 130] {
            // Every tile-boundary case of this width, at two fills.
            for word_rows in word_row_counts(n) {
                for permille in [130, 1000] {
                    let ctx = format!("n = {n}, {word_rows} word rows at {permille} ‰");
                    let columns = word_columns(&mut rng, word_rows, n, permille);
                    let bm = BitMatrix::from_columns(64 * word_rows, &columns).unwrap();
                    let (csc, csr) = (bm.as_csc(), bm.to_csr());
                    for start in starts {
                        let mut outs = [(); 4].map(|_| vec![3u64; n * n]);
                        let [portable, dispatched, tiled, tiled_dispatched] = &mut outs;
                        for (i, out) in portable.chunks_mut(n).enumerate() {
                            accumulate_row::<PopcountAnd>(csc, &csr, i, start(i, n), out);
                        }
                        for (i, out) in dispatched.chunks_mut(n).enumerate() {
                            dispatch::accumulate_row::<PopcountAnd>(csc, &csr, i, start(i, n), out);
                        }
                        let mut rows = out_rows(tiled, n, start);
                        accumulate_tiled::<PopcountAnd>(csc, &csr, 0, &mut rows);
                        let mut rows = out_rows(tiled_dispatched, n, start);
                        dispatch::accumulate_tiled::<PopcountAnd>(csc, &csr, 0, &mut rows);
                        assert_eq!(portable, dispatched, "{ctx}");
                        assert_eq!(portable, tiled, "{ctx}");
                        assert_eq!(tiled, tiled_dispatched, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn atb_block_adds_to_a_prefilled_block_and_counts_every_product() {
        let mut rng = Rng(11);
        let shapes = [(1usize, 1usize), (3, 8), (8, 3), (5, 0), (0, 4), (9, 33), (33, 130)];
        let (mut tiled_side, mut gustavson_side) = (0, 0);
        for (na, nb) in shapes {
            // A block without rows or columns skips the long inputs.
            let counts = if na * nb == 0 { vec![1, 70] } else { word_row_counts(nb).to_vec() };
            for word_rows in counts {
                for (f, permille) in FILLS.into_iter().enumerate() {
                    // `B`'s fill sets the guard's ratio; `A`'s varies apart.
                    let a_permille = FILLS[(f + word_rows) % FILLS.len()].max(20);
                    let ctx = format!("{na} x {nb}, {word_rows} word rows at {permille} ‰");
                    let nrows = 64 * word_rows;
                    let mut columns = word_columns(&mut rng, word_rows, na, a_permille);
                    columns.extend(word_columns(&mut rng, word_rows, nb, permille));
                    if nb > 2 {
                        columns[na + nb / 2].clear();
                    }
                    let a = BitMatrix::from_columns(nrows, &columns[..na]).unwrap();
                    let b = BitMatrix::from_columns(nrows, &columns[na..]).unwrap();
                    let (a_csc, b_csr) = (a.as_csc(), b.to_csr());
                    // The oracle: the off-diagonal block of `[A B]ᵀ[A B]`.
                    let joint = ata_dense::<PlusTimes<u64>>(&unpacked(nrows, &columns).to_csr());
                    let prefill: Vec<u64> = (0..na * nb).map(|x| 100 + x as u64).collect();
                    let want: Vec<u64> =
                        (0..na * nb).map(|x| prefill[x] + joint.get(x / nb, na + x % nb)).collect();
                    let mut out = DenseMatrix::from_vec(na, nb, prefill.clone()).unwrap();
                    let ops = atb_block_dense::<PopcountAnd>(a_csc, &b_csr, &mut out).unwrap();
                    let a_csr = a.to_csr();
                    let products: usize =
                        (0..word_rows).map(|k| a_csr.row_nnz(k) * b_csr.row_nnz(k)).sum();
                    assert_eq!(ops, products as u64, "{ctx}");
                    assert_eq!(out.as_slice(), want, "{ctx}");
                    for tiles in [None, TILED] {
                        let mut body = prefill.clone();
                        atb_rows::<PopcountAnd>(a_csc, &b_csr, &mut body, tiles);
                        assert_eq!(body, want, "{ctx}, tiles: {tiles:?}");
                    }
                    if a.nnz_words() * nb <= 8 * products {
                        tiled_side += 1;
                    } else {
                        gustavson_side += 1;
                    }
                }
            }
        }
        assert!(tiled_side > 0 && gustavson_side > 0, "{tiled_side} / {gustavson_side}");
        // `PlusTimes` has no absent value: the Gustavson body, always.
        let columns = rng.columns(40, 11, 30);
        let joint = ata_dense::<PlusTimes<u64>>(&unpacked(40, &columns).to_csr());
        let (a, b) = (unpacked(40, &columns[..3]), unpacked(40, &columns[3..]).to_csr());
        let mut out = DenseMatrix::<u64>::zeros(3, 8);
        let ops = atb_block_dense::<PlusTimes<u64>>(&a, &b, &mut out).unwrap();
        let a_rows = a.to_csr();
        let products: usize = (0..40).map(|k| a_rows.row_nnz(k) * b.row_nnz(k)).sum();
        assert_eq!(ops, products as u64);
        assert!((0..24).all(|x| out.get(x / 8, x % 8) == joint.get(x / 8, 3 + x % 8)));
    }

    #[test]
    fn tiles_hold_at_most_32_kib_unless_one_row_is_wider() {
        for width in [1usize, 3, 130, 352, 4096, 4097, 100_000] {
            let h = tile_height::<u64>(width);
            assert!(h >= 1);
            assert!(h == 1 || h * width * 8 <= TILE_BYTES, "width {width}");
            assert!((h + 1) * width * 8 > TILE_BYTES, "width {width}");
        }
        assert_eq!(tile_height::<u64>(352), 11);
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
