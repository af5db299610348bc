//! Local sparse matrix–matrix multiplication kernels.
//!
//! The computational core of SimilarityAtScale is `B = AᵀA` where `A` is a
//! hypersparse batch of the indicator matrix and the output is dense
//! (Section III-A). After masking, the product runs over the popcount-AND
//! semiring on 64-bit words (Eq. 7). This module provides:
//!
//! * [`ata_dense`] — row-wise (Gustavson) `AᵀA` with a dense accumulator;
//! * [`ata_upper_accumulate`] — the upper triangle of `AᵀA`, parallelized
//!   over output rows with Rayon and added into the caller's matrix: the
//!   kernel of a one-rank (`1 × 1`) SUMMA layer;
//! * [`ata_dense_parallel`] — the full `AᵀA` through the same body;
//! * [`atb_block_dense`] — the `C += AᵀB` kernel of every other SUMMA
//!   step.
//!
//! # Symmetry
//!
//! `AᵀA` of one matrix under a commutative `mul` is symmetric, so the
//! triangle body multiplies only the word pairs of the upper triangle
//! (`j ≥ i`): half the products. It adds them into the caller's matrix
//! and leaves its lower triangle alone, so a caller summing many batches
//! mirrors once, at the end ([`DenseMatrix::mirror_upper`]). Every entry
//! point returns the full square's Gustavson count, the γ charge of a
//! SUMMA step whichever body multiplies the block.
//!
//! # Three row bodies
//!
//! Every kernel fills output row `i` (from column `first_col` on) with
//! `Σ_k a_ki ⊗ b_kj`, through one of three bodies picked once per call:
//!
//! * `accumulate_row` (Gustavson) walks, for every stored `a_ki`, the
//!   stored entries of row `k` of `B`. It touches only stored pairs, but
//!   pays for each with a column-index load, a word load and an indirect
//!   load-add-store into the output row. It reads the CSR view of `B`, so
//!   [`ata_upper_accumulate`] transposes its CSC input, into a CSR matrix
//!   the caller keeps, when this body is picked.
//! * `accumulate_tiled` cuts `B` into tiles of consecutive word rows
//!   holding at most 32 KiB (`TILE_BYTES`; a single wider row is its own
//!   tile), densifies each tile once, row-major, with the semiring's
//!   absent value ([`Semiring::absent_operands`]) in the gaps, and adds
//!   `a_ki ⊗ tile[k][j]` to the contiguous run `out[i][first_col..]` for
//!   every stored `a_ki` of the tile: no index indirection, so the loop
//!   vectorises. The triangle of [`ata_upper_accumulate`] densifies its
//!   tiles from the CSC view of `A` itself, with one cursor per column;
//!   [`atb_block_dense`] and [`ata_dense_parallel`] densify from the CSR
//!   view they are handed. Each output row keeps a cursor into column `i`
//!   of `A` from one tile to the next, which — like the column cursors
//!   and `accumulate_row`'s `partition_point` skip — needs indices
//!   strictly ascending within a column or row, an invariant
//!   `from_raw_parts` checks. So a row's stored `a_ki` in a tile are one
//!   contiguous run of column `i`, and for popcount words
//!   ([`Semiring::popcount_words`]) the body walks that run with the
//!   row's sums in registers (register rows, after the GEMM micro-kernels
//!   below): for a strip of up to 16 vectors (128 columns) from
//!   `first_col`, one broadcast of each `a_ki`, then the strip's loads,
//!   AND, `vpopcntq` and add, and the sums added into `out` once per
//!   (row, tile, strip). Only a strip's last vector is masked; wider rows
//!   take more strips, each re-walking the run. The generic loop, which
//!   reads a tile row and reads and writes an output row for every 8 word
//!   pairs, runs every other semiring and stays the reference.
//! * `accumulate_blocked`, the triangle's alone, densifies the same
//!   tiles, and since `A` is both operands there it takes every `a_ki`
//!   from the tile as well. It is a GEMM micro-kernel (Goto & van de
//!   Geijn, TOMS 2008; BLIS, TOMS 2015): for a block of 6 output rows and
//!   a strip of 32 columns it keeps the 6 × 32 sums in 24 `zmm` registers
//!   across every word row of the tile, loading the strip's 4 vectors once
//!   per word row and broadcasting the 6 `a_ki` beside them, and adds the
//!   sums into `out` once per tile, where a register row of the tiled
//!   body goes to memory once per run of one row's `a_ki`. Each thread's
//!   two runs of rows (see `accumulate_upper`) are cut into blocks of 6;
//!   masked loads and stores keep out the columns from `n` on and the
//!   strictly lower triangle. It runs on `u64` words only,
//!   which [`Semiring::popcount_words`] hands over for
//!   [`PopcountAnd`](crate::semiring::PopcountAnd).
//!
//! The tiled body multiplies each stored word of `A` by the whole row
//! width, absent partners included, and the blocked body every word pair
//! of the triangle, so the body is picked by ratios of three counts known
//! before the call. The tiled body's product count (stored words of `A`
//! × row width) must be at most `TILE_COST_RATIO` = 21/4 times the
//! Gustavson count `Σ_k nnz_A(k)·nnz_B(k)` — for the triangle, both in
//! their upper-triangle forms `Σ_i nnz_A(col i)·(n − i)` and
//! `Σ_k nnz(k)·(nnz(k)+1)/2`, the row counts `nnz(k)` taken in one pass
//! over the CSC view's row indices. On evenly filled word rows the ratio
//! is the inverse of the fill. Measured with register rows on one thread
//! (pinned with `taskset`) of an AVX-512 VPOPCNTDQ Xeon over random
//! blocks of 780 word rows, 30 to 352 columns wide, the two break even at
//! a ratio of ≈ 7.5–9 (30 columns), ≈ 9–12 (48 to 160), ≈ 6.5–7 (200
//! and 256) and ≈ 5.4–5.9 (300 and 352, whose tiles are 11 to 13 word
//! rows tall, so a row's run in a tile holds one or two `a_ki` and its
//! sums go to memory about as often as the generic loop's).
//! `TILE_COST_RATIO` = 21/4 sits under the lowest of them, so the tiled
//! body runs only where it is the faster at every width; between 21/4
//! and ≈ 10 it would take 0.65–0.85 of the Gustavson body's time on
//! blocks 48 to 160 wide. Triangles break even higher: at a ratio of
//! ≈ 5.8 the tiled body takes 0.77 (352 columns) to 0.95 (512) of the
//! Gustavson body's time. `allpairs_dist`'s 128 × 128 blocks sit at
//! ≈ 4.4.
//!
//! Where the blocked body can run, it is picked first if its count
//! (word rows × `n(n+1)/2`) is at most `BLOCKED_COST_RATIO` = 3/2 times
//! the tiled count: on even fills, word rows at least 2/3 full. Measured
//! on one thread (pinned with `taskset`) of the same Xeon over random
//! triangles 8 to 1024 columns wide, the blocked body breaks even with
//! the tiled one at a count ratio of ≈ 1.6 for 1024 columns (whose tiles
//! are 4 word rows tall, so its sums go to memory every 4 word rows),
//! ≈ 1.8 for 352 and over 2.5 for 128 or fewer; at the bound it takes
//! 0.6 (narrow) to 0.98 (1024 columns) of the tiled body's time, and at
//! the ≈ 1.04 of `allpairs_dense`'s batches ≈ 0.66. Mid-fill batches
//! (the paper's after its filter) stay on tiles and hypersparse ones on
//! Gustavson. Whichever body runs, [`atb_block_dense`] returns the
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
//! to a dozen shift-and-mask instructions there. Every body is reached
//! through `mod dispatch`, which runs it inside `#[target_feature]`
//! functions on a CPU that reports the features (asked outside the
//! word-pair loops), in two tiers:
//!
//! * the Gustavson body under `popcnt`, where `(a & b).count_ones()`
//!   becomes one instruction;
//! * under `avx512f,avx512vpopcntdq`: two micro-kernels written with
//!   `core::arch` AVX-512 intrinsics so that their sums stay in
//!   registers, the tiled body's register rows (up to 16 sums; its row
//!   loop runs inside the wrapper, under `popcnt` too) and the blocked
//!   body's 6 × 32 block (24 sums). The tiled body's generic loop, for
//!   other semirings, autovectorises under the same features.
//!
//! The tiled and blocked bodies are picked only where the second tier
//! runs; everywhere else the Gustavson body runs, and it stays the
//! hypersparse body and the tests' reference (the blocked body's plain
//! loops, `triangle_block`, are its reference where the tier is
//! missing). An AVX2-only tier waits until a host without VPOPCNTDQ can
//! measure it. The Gustavson and tiled bodies are `#[inline(always)]`, and
//! that is load-bearing: instruction selection follows the features of
//! the function the code ends up *in*, so each body and the `S::mul` it
//! calls must be inlined into its wrapper — and that is also why no
//! [`Semiring`] needs to know about them. `mod dispatch`, the wrappers,
//! their calls and the micro-kernels' loads and stores, is the one
//! `#[allow(unsafe_code)]` of this crate. Only an optimised build shows
//! the difference, hence `cargo test -p gas-sparse --release` in
//! `make test`.

use std::ops::Range;

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
/// triangle `j ≥ i` is multiplied, by the body of
/// [`ata_upper_accumulate`] into a zeroed matrix, and
/// [`DenseMatrix::mirror_upper`] copies it onto the lower one: the
/// returned matrix is the full symmetric `B`. Here the tiled body
/// densifies its tiles from the CSR view, the one of the right operand's
/// element type. Shapes and stored-entry counts of the two views are
/// checked here; that they hold the same entries is the caller's to
/// guarantee (views of two different matrices would come back as a
/// symmetrised half of `AᵀB`).
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
    check_views(a_csc, a_csr)?;
    let n = a_csc.ncols();
    let rows = 0..a_csc.nrows();
    let upper = (gustavson_products(a_csc, a_csr) + a_csc.nnz() as u64) / 2;
    let dense = upper_dense_products(a_csc, &rows);
    let pick = pick_body(tile_absent::<S>(), blocked_products::<S>(&rows, n), dense, || upper);
    let body = pick.body(Tiles::Rows(a_csr), || a_csr);
    let mut out = DenseMatrix::from_vec(n, n, vec![S::zero(); n * n])?;
    accumulate_upper::<S>(a_csc, &rows, body, out.as_mut_slice());
    out.mirror_upper()?;
    Ok(out)
}

/// Accumulate the upper triangle of `A[rows, :]ᵀ A[rows, :]` over
/// semiring `S` into `out`: `out[i][j] ⊕= Σ_{k ∈ rows} a_ki ⊗ a_kj` for
/// every `j ≥ i` (rows past `A`'s own are empty), leaving the strictly
/// lower triangle as it is. A caller that sums many products mirrors
/// once, at the end ([`DenseMatrix::mirror_upper`]). This is the kernel
/// of a rank on a `1 × 1` SUMMA layer, which contracts its packed batch
/// in place.
///
/// `A` comes as its CSC view. The tiled and blocked bodies densify their
/// tiles from it; the CSR view the Gustavson body reads is built only
/// when that body is picked, in `transpose`'s arrays, which a caller that
/// keeps the matrix refills from call to call. `mul` must commute, as for
/// [`ata_dense_parallel`], whose row pairs and threads this shares.
/// Returns the full square's Gustavson count `Σ_{k ∈ rows} nnz(row k)²`,
/// the γ charge [`atb_block_dense`] would return for the two views.
pub fn ata_upper_accumulate<S>(
    a_csc: &CscMatrix<S::Left>,
    rows: Range<usize>,
    out: &mut DenseMatrix<S::Out>,
    transpose: &mut CsrMatrix<S::Left>,
) -> SparseResult<u64>
where
    S: Semiring<Right = <S as Semiring>::Left>,
    S::Left: Copy + Sync + Send,
    S::Out: Copy + Default + Sync + Send,
{
    let n = a_csc.ncols();
    if (out.nrows(), out.ncols()) != (n, n) {
        let context = format!("output is {}x{} but AᵀA is {n}x{n}", out.nrows(), out.ncols());
        return Err(SparseError::ShapeMismatch { context });
    }
    // Stored entries per row of `rows`, in one pass over the row indices.
    let mut row_nnz = vec![0u64; rows.len()];
    for k in a_csc.indices().iter().filter(|k| rows.contains(k)) {
        row_nnz[k - rows.start] += 1;
    }
    let square: u64 = row_nnz.iter().map(|&r| r * r).sum();
    let upper = (square + row_nnz.iter().sum::<u64>()) / 2;
    let dense = upper_dense_products(a_csc, &rows);
    let pick = pick_body(tile_absent::<S>(), blocked_products::<S>(&rows, n), dense, || upper);
    let body = pick.body(Tiles::Cols(a_csc), move || {
        let (indptr, indices, data) = (a_csc.indptr(), a_csc.indices(), a_csc.data());
        transpose.refill_transposed(a_csc.nrows(), indptr, indices, data);
        transpose
    });
    accumulate_upper::<S>(a_csc, &rows, body, out.as_mut_slice());
    Ok(square)
}

/// Refuse CSC and CSR views of `A` that differ in shape or stored-entry
/// count; that they hold the same entries is the caller's to guarantee.
fn check_views<L: Copy, R: Copy>(a_csc: &CscMatrix<L>, a_csr: &CsrMatrix<R>) -> SparseResult<()> {
    let csc = (a_csc.nrows(), a_csc.ncols(), a_csc.nnz());
    let csr = (a_csr.nrows(), a_csr.ncols(), a_csr.nnz());
    let context = || format!("CSC view (rows, columns, entries) {csc:?} but CSR view {csr:?}");
    (csc == csr).then_some(()).ok_or_else(|| SparseError::ShapeMismatch { context: context() })
}

/// The Gustavson count of `AᵀB`, `Σ_k nnz_A(row k) · nnz_B(row k)`.
fn gustavson_products<L: Copy, R: Copy>(a_csc: &CscMatrix<L>, b_csr: &CsrMatrix<R>) -> u64 {
    a_csc.indices().iter().map(|&k| b_csr.row_nnz(k) as u64).sum()
}

/// The tiled body's product count over the triangle, `Σ_i nnz_rows(col i)·(n − i)`.
fn upper_dense_products<T: Copy>(a: &CscMatrix<T>, rows: &Range<usize>) -> u64 {
    let n = a.ncols();
    (0..n).map(|i| (a.col_span(i, rows).len() * (n - i)) as u64).sum()
}

/// The register-blocked body's product count over the triangle, every
/// word pair of it (`word rows × n(n+1)/2`), if `S` hands its products
/// over as popcount words ([`Semiring::popcount_words`]).
fn blocked_products<S: Semiring>(rows: &Range<usize>, n: usize) -> Option<u64> {
    let triangle = (n as u64).saturating_mul(n as u64 + 1) / 2;
    S::popcount_words(&[], &[], &mut []).map(|_| (rows.len() as u64).saturating_mul(triangle))
}

/// The upper triangle of `A[rows, :]ᵀ A[rows, :]` added into the
/// row-major `out` through `body`, whose right operand holds the same
/// entries as `a_csc`.
///
/// Output row `i` costs about `n − i` entries, so the rows are handed out
/// as the `⌈n/2⌉` pairs `(p, n−1−p)` of constant size, and each thread
/// owns one contiguous run of pairs, free of write conflicts: two
/// contiguous runs of rows, `p` ascending from the top and their partners
/// at the bottom (the middle row of an odd `n` has none). The tiled and
/// blocked bodies densify every tile once per thread, not once per pair.
fn accumulate_upper<S>(
    a_csc: &CscMatrix<S::Left>,
    rows: &Range<usize>,
    body: Body<'_, S::Right>,
    out: &mut [S::Out],
) where
    S: Semiring,
    S::Left: Copy + Sync + Send,
    S::Right: Copy + Sync + Send,
    S::Out: Copy + Sync + Send,
{
    let n = a_csc.ncols();
    if n == 0 {
        return;
    }
    let half = n.div_ceil(2);
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let run = half.div_ceil(threads);
    // Thread `c` owns the top rows `c·run..` and, from the bottom, rows
    // `..n − c·run`.
    let (top, bottom) = out.split_at_mut(half * n);
    let bottoms = bottom.rchunks_mut(run * n).chain(std::iter::repeat_with(|| &mut [][..]));
    let mut runs: Vec<_> = top.chunks_mut(run * n).zip(bottoms).collect();
    runs.par_chunks_mut(1).enumerate().for_each(|(c, thread_runs)| {
        let (upper, lower) = &mut thread_runs[0];
        let lower_first = n - c * run - lower.len() / n;
        let mut runs = [(c * run, &mut **upper), (lower_first, &mut **lower)];
        if let Body::Blocked(tiles, absent) = body {
            return accumulate_blocked::<S>(tiles, rows.clone(), absent, &mut runs);
        }
        let mut out_rows = Vec::with_capacity(2 * run);
        for (first, run_rows) in runs {
            for (i, out) in (first..).zip(run_rows.chunks_mut(n)) {
                out_rows.push(OutRow { stored: a_csc.col_span(i, rows), first_col: i, out });
            }
        }
        accumulate_rows::<S>(a_csc, body, rows.clone(), &mut out_rows);
    });
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
    let products = gustavson_products(a_csc, b_csr);
    let dense = (a_csc.nnz() * b_csr.ncols()) as u64;
    let pick = pick_body(tile_absent::<S>(), None, dense, || products);
    atb_rows::<S>(a_csc, b_csr, out.as_mut_slice(), pick);
    Ok(products)
}

/// [`atb_block_dense`]'s product into the row-major `out`, through the
/// body `pick` names (the tiled one for [`Pick::Blocked`]: blocks are
/// not triangles).
fn atb_rows<S: Semiring>(
    a_csc: &CscMatrix<S::Left>,
    b_csr: &CsrMatrix<S::Right>,
    out: &mut [S::Out],
    pick: Pick<S::Right>,
) {
    if b_csr.ncols() == 0 {
        return;
    }
    let a_ptr = a_csc.indptr();
    let mut rows: Vec<_> = out
        .chunks_mut(b_csr.ncols())
        .enumerate()
        .map(|(i, out)| OutRow { stored: a_ptr[i]..a_ptr[i + 1], first_col: 0, out })
        .collect();
    let body = pick.body(Tiles::Rows(b_csr), || b_csr);
    accumulate_rows::<S>(a_csc, body, 0..b_csr.nrows(), &mut rows);
}

/// Bytes of the right operand one tile of `accumulate_tiled` densifies.
const TILE_BYTES: usize = 32 * 1024;

/// How many more products than the Gustavson body the tiled body may
/// multiply and still be picked, as `(numerator, denominator)`: 21/4,
/// under the lowest break-even of the two measured in the module header.
const TILE_COST_RATIO: (u64, u64) = (21, 4);

/// How many more products than the tiled body the register-blocked body
/// may multiply and still be picked, as `(numerator, denominator)`: 3/2,
/// under the crossover measured in the module header.
const BLOCKED_COST_RATIO: (u64, u64) = (3, 2);

/// The body a kernel call runs, and the value absent entries of the
/// right operand are densified to if it runs on tiles.
#[derive(Clone, Copy, Debug)]
enum Pick<T> {
    Gustavson,
    Tiled(T),
    Blocked(T),
}

impl<T: Copy> Pick<T> {
    /// The body over `tiles`, or over the CSR view `gustavson` returns
    /// (made only for [`Pick::Gustavson`]).
    fn body<'b>(
        self,
        tiles: Tiles<'b, T>,
        gustavson: impl FnOnce() -> &'b CsrMatrix<T>,
    ) -> Body<'b, T> {
        match self {
            Pick::Gustavson => Body::Gustavson(gustavson()),
            Pick::Tiled(absent) => Body::Tiled(tiles, absent),
            Pick::Blocked(absent) => Body::Blocked(tiles, absent),
        }
    }
}

/// The value absent entries of the right operand are densified to, if
/// tiles run here: `S` has one, and this CPU runs them with vector
/// popcount.
fn tile_absent<S: Semiring>() -> Option<S::Right> {
    S::absent_operands().filter(|_| dispatch::vector_popcount()).map(|(_, absent)| absent)
}

/// The body a call runs, by product counts known before it: the
/// Gustavson body unless tiles run (`absent`, from [`tile_absent`]); then
/// the register-blocked body if there is one (`blocked`, the triangle's
/// count) and its count is at most [`BLOCKED_COST_RATIO`] times the tiled
/// body's `dense` one, else the tiled body if `dense` is at most
/// [`TILE_COST_RATIO`] times the `gustavson` count (counted only then),
/// else the Gustavson body.
fn pick_body<T>(
    absent: Option<T>,
    blocked: Option<u64>,
    dense: u64,
    gustavson: impl FnOnce() -> u64,
) -> Pick<T> {
    let Some(absent) = absent else {
        return Pick::Gustavson;
    };
    let (num, den) = BLOCKED_COST_RATIO;
    let (tile_num, tile_den) = TILE_COST_RATIO;
    if blocked.is_some_and(|b| b.saturating_mul(den) <= dense.saturating_mul(num)) {
        Pick::Blocked(absent)
    } else if dense.saturating_mul(tile_den) <= gustavson().saturating_mul(tile_num) {
        Pick::Tiled(absent)
    } else {
        Pick::Gustavson
    }
}

/// Word rows of a tile over rows `width` entries wide: as many as fit in
/// [`TILE_BYTES`], and at least one.
fn tile_height<T>(width: usize) -> usize {
    (TILE_BYTES / (width * std::mem::size_of::<T>()).max(1)).max(1)
}

/// One output row `i` of a kernel call: `out[j] ⊕= Σ_k a_ki ⊗ b_kj` for
/// every `j ≥ first_col`, over the stored `a_ki` at `stored` in the CSC
/// arrays of `A` (column `i`, or its part in the word rows contracted).
struct OutRow<'o, T> {
    stored: Range<usize>,
    first_col: usize,
    out: &'o mut [T],
}

/// The right operand of a kernel call, in the view its row body reads.
#[derive(Clone, Copy)]
enum Body<'b, T> {
    /// The Gustavson body, over the stored entries of each row.
    Gustavson(&'b CsrMatrix<T>),
    /// The tiled body, with the absent value in the tiles' gaps.
    Tiled(Tiles<'b, T>, T),
    /// The register-blocked body of the triangle, with the absent value
    /// in the tiles' gaps; for rows that are not the triangle's runs, the
    /// tiled body.
    Blocked(Tiles<'b, T>, T),
}

/// What the tiled body densifies its tiles from.
#[derive(Clone, Copy)]
enum Tiles<'b, T> {
    /// Row `k` of a CSR view, for word row `k`.
    Rows(&'b CsrMatrix<T>),
    /// A CSC view, walked with one cursor per column.
    Cols(&'b CscMatrix<T>),
}

impl<T: Copy> Tiles<'_, T> {
    /// Columns of the operand: the width of a tile.
    fn width(&self) -> usize {
        match self {
            Tiles::Rows(b) => b.ncols(),
            Tiles::Cols(b) => b.ncols(),
        }
    }
}

/// Every row of `rows` through the body `body` names, contracting the
/// word rows `word_rows` (every row a row's `stored` entries lie in).
fn accumulate_rows<S: Semiring>(
    a_csc: &CscMatrix<S::Left>,
    body: Body<'_, S::Right>,
    word_rows: Range<usize>,
    rows: &mut [OutRow<'_, S::Out>],
) {
    match body {
        Body::Tiled(tiles, absent) | Body::Blocked(tiles, absent) => {
            dispatch::accumulate_tiled::<S>(a_csc, tiles, word_rows, absent, rows)
        }
        Body::Gustavson(b_csr) => {
            for row in rows {
                let (stored, first_col) = (row.stored.clone(), row.first_col);
                dispatch::accumulate_row::<S>(a_csc, b_csr, stored, first_col, row.out);
            }
        }
    }
}

/// The Gustavson row body: `out_row[j] ⊕= a_ki ⊗ b_kj` for every stored
/// `a_ki` at `stored` (entries of column `i` of `A`) and every stored
/// `b_kj` of row `k` of `B` with `j ≥ first_col`.
///
/// `#[inline(always)]` so that it (and the `S::mul` inside) is compiled
/// with the target features of whichever caller it lands in — see the
/// module header. Plain slice loops, no closures: a closure is a separate
/// function and would keep the baseline features if it were not inlined.
#[inline(always)]
fn accumulate_row<S: Semiring>(
    a_csc: &CscMatrix<S::Left>,
    b_csr: &CsrMatrix<S::Right>,
    stored: Range<usize>,
    first_col: usize,
    out_row: &mut [S::Out],
) {
    let (a_rows, a_vals) = (a_csc.indices(), a_csc.data());
    let (b_ptr, b_cols, b_vals) = (b_csr.indptr(), b_csr.indices(), b_csr.data());
    for t in stored {
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
/// `rows`, one tile of the right operand's word rows `word_rows` at a
/// time (see the module header), densified from `tiles`. `absent` is what
/// a gap is densified to, and must annihilate
/// ([`Semiring::absent_operands`]).
///
/// `#[inline(always)]` and closure-free in its loops for the same reason
/// as [`accumulate_row`].
#[inline(always)]
fn accumulate_tiled<S: Semiring>(
    a_csc: &CscMatrix<S::Left>,
    tiles: Tiles<'_, S::Right>,
    word_rows: Range<usize>,
    absent: S::Right,
    rows: &mut [OutRow<'_, S::Out>],
) {
    let (a_rows, a_vals) = (a_csc.indices(), a_csc.data());
    let width = tiles.width();
    if width == 0 {
        return;
    }
    // Where each row's column of `A` continues: word rows ascend, so
    // every tile picks up where the last one stopped.
    let mut next = Vec::with_capacity(rows.len());
    for row in rows.iter() {
        next.push(row.stored.start);
    }
    let mut tiler = Tiler::new(tiles, &word_rows, absent);
    while let Some((k0, k1, tile)) = tiler.next_tile() {
        for (row, t) in rows.iter_mut().zip(next.iter_mut()) {
            for s in tile_run(a_rows, t, row.stored.end, k1) {
                let va = a_vals[s];
                let dense = &tile[(a_rows[s] - k0) * width..][row.first_col..width];
                for (o, &vb) in row.out[row.first_col..].iter_mut().zip(dense) {
                    *o = S::add(*o, S::mul(va, vb));
                }
            }
        }
    }
}

/// The stored `a_ki` of an output row that fall in a tile ending before
/// word row `k1`: from the row's cursor `t` (its column of `A` ends at
/// `end`) up to the first one at or past `k1`, where `t` moves to. Word
/// rows ascend within a column, so these are one contiguous run.
#[inline(always)]
fn tile_run(a_rows: &[usize], t: &mut usize, end: usize, k1: usize) -> Range<usize> {
    let start = *t;
    while *t < end && a_rows[*t] < k1 {
        *t += 1;
    }
    start..*t
}

/// The tiles of a right operand's word rows, densified one at a time,
/// row-major, into one buffer of at most [`TILE_BYTES`] (a single wider
/// row is its own tile), with the absent value in the gaps.
struct Tiler<'b, T> {
    tiles: Tiles<'b, T>,
    absent: T,
    /// The word rows not densified yet.
    rest: Range<usize>,
    /// Where each column of a CSC source continues: word rows ascend, so
    /// every tile picks up where the last one stopped.
    cursors: Vec<usize>,
    tile: Vec<T>,
}

impl<'b, T: Copy> Tiler<'b, T> {
    fn new(tiles: Tiles<'b, T>, word_rows: &Range<usize>, absent: T) -> Self {
        let width = tiles.width();
        let cursors = match tiles {
            Tiles::Cols(b) => (0..width).map(|j| b.col_span(j, word_rows).start).collect(),
            Tiles::Rows(_) => Vec::new(),
        };
        let tile = Vec::with_capacity(tile_height::<T>(width).min(word_rows.len()) * width);
        Tiler { tiles, absent, rest: word_rows.clone(), cursors, tile }
    }

    /// The next tile: its word rows `k0..k1` and its `(k1 − k0) × width`
    /// words.
    fn next_tile(&mut self) -> Option<(usize, usize, &[T])> {
        let width = self.tiles.width();
        if self.rest.is_empty() || width == 0 {
            return None;
        }
        let (k0, k1) =
            (self.rest.start, (self.rest.start + tile_height::<T>(width)).min(self.rest.end));
        self.rest.start = k1;
        let tile = &mut self.tile;
        tile.clear();
        tile.resize((k1 - k0) * width, self.absent);
        match self.tiles {
            Tiles::Rows(b) => {
                let (b_ptr, b_cols, b_vals) = (b.indptr(), b.indices(), b.data());
                for (k, dense) in (k0..k1).zip(tile.chunks_exact_mut(width)) {
                    for t in b_ptr[k]..b_ptr[k + 1] {
                        dense[b_cols[t]] = b_vals[t];
                    }
                }
            }
            Tiles::Cols(b) => {
                let (b_ptr, b_rows, b_vals) = (b.indptr(), b.indices(), b.data());
                for (j, t) in self.cursors.iter_mut().enumerate() {
                    let end = b_ptr[j + 1];
                    while *t < end && b_rows[*t] < k1 {
                        tile[(b_rows[*t] - k0) * width + j] = b_vals[*t];
                        *t += 1;
                    }
                }
            }
        }
        Some((k0, k1, tile))
    }
}

/// The register-blocked triangle body: for each run `(first, out)` of
/// whole output rows, `first` the row of `out`'s first,
/// `out[i][j] ⊕= Σ_k a_ki ⊗ a_kj` for every `j ≥ i`, over the word rows
/// `word_rows` of the operand `tiles` densifies — `A` itself, so the
/// `a_ki` come from the same tile (see the module header). `S` must hand
/// its products over as popcount words ([`Semiring::popcount_words`]);
/// the blocked body is picked only then.
fn accumulate_blocked<S: Semiring>(
    tiles: Tiles<'_, S::Right>,
    word_rows: Range<usize>,
    absent: S::Right,
    runs: &mut [(usize, &mut [S::Out])],
) {
    let width = tiles.width();
    let mut tiler = Tiler::new(tiles, &word_rows, absent);
    while let Some((_, _, tile)) = tiler.next_tile() {
        for (first, out) in runs.iter_mut() {
            let words = S::popcount_words(&[], tile, out);
            let (_, tile, out) = words.expect("the blocked body is picked only for popcount words");
            dispatch::triangle_block(tile, width, *first, out);
        }
    }
}

/// The sums of the register-blocked body ([`dispatch::triangle_block`])
/// in plain loops: `out[i − first][j] += popcnt(tile[k][i] & tile[k][j])`
/// for every word row `k` of `tile` (`width` words each), every row `i`
/// of the run `out` (whole rows `width` wide, from row `first` on) and
/// every `j ≥ i`.
fn triangle_block(tile: &[u64], width: usize, first: usize, out: &mut [u64]) {
    for (i, row) in (first..).zip(out.chunks_exact_mut(width)) {
        for words in tile.chunks_exact(width) {
            for (o, &b) in row[i..].iter_mut().zip(&words[i..]) {
                *o += u64::from((words[i] & b).count_ones());
            }
        }
    }
}

/// Where the row bodies pick up hardware popcount: the one place this
/// crate steps outside safe Rust.
#[allow(unsafe_code)]
mod dispatch {
    use super::{tile_run, CscMatrix, CsrMatrix, OutRow, Range, Semiring, Tiler, Tiles};

    /// Whether this CPU runs [`accumulate_tiled`] and [`triangle_block`]
    /// with vector popcount.
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
        stored: Range<usize>,
        first_col: usize,
        out_row: &mut [S::Out],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("popcnt") {
                // SAFETY: `is_x86_feature_detected!` just reported POPCNT
                // on the running CPU, the wrapper's only requirement.
                return unsafe {
                    accumulate_row_popcnt::<S>(a_csc, b_csr, stored, first_col, out_row)
                };
            }
        }
        super::accumulate_row::<S>(a_csc, b_csr, stored, first_col, out_row)
    }

    /// # Safety
    ///
    /// The running CPU must support the POPCNT instruction.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn accumulate_row_popcnt<S: Semiring>(
        a_csc: &CscMatrix<S::Left>,
        b_csr: &CsrMatrix<S::Right>,
        stored: Range<usize>,
        first_col: usize,
        out_row: &mut [S::Out],
    ) {
        super::accumulate_row::<S>(a_csc, b_csr, stored, first_col, out_row)
    }

    /// [`super::accumulate_tiled`], compiled for AVX-512 VPOPCNTDQ when
    /// this CPU has it.
    #[inline]
    pub(super) fn accumulate_tiled<S: Semiring>(
        a_csc: &CscMatrix<S::Left>,
        tiles: Tiles<'_, S::Right>,
        word_rows: Range<usize>,
        absent: S::Right,
        rows: &mut [OutRow<'_, S::Out>],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if vector_popcount() {
                // SAFETY: `vector_popcount` just reported AVX-512F,
                // AVX-512 VPOPCNTDQ and POPCNT on the running CPU, the
                // wrapper's only requirement.
                return unsafe {
                    accumulate_tiled_avx512::<S>(a_csc, tiles, word_rows, absent, rows)
                };
            }
        }
        super::accumulate_tiled::<S>(a_csc, tiles, word_rows, absent, rows)
    }

    /// The tiled body with register rows: for popcount words
    /// ([`Semiring::popcount_words`]) each output row's run of stored
    /// `a_ki` in a tile goes through [`register_row`], its sums held in
    /// `zmm` registers; any other semiring runs the generic loop of
    /// [`super::accumulate_tiled`], compiled for these features. The row
    /// loop stays in this function, so each (row, tile) pays no call into
    /// a function of other features.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX-512F, AVX-512 VPOPCNTDQ and
    /// POPCNT.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn accumulate_tiled_avx512<S: Semiring>(
        a_csc: &CscMatrix<S::Left>,
        tiles: Tiles<'_, S::Right>,
        word_rows: Range<usize>,
        absent: S::Right,
        rows: &mut [OutRow<'_, S::Out>],
    ) {
        if S::popcount_words(&[], &[], &mut []).is_none() {
            return super::accumulate_tiled::<S>(a_csc, tiles, word_rows, absent, rows);
        }
        let (a_rows, a_vals) = (a_csc.indices(), a_csc.data());
        let width = tiles.width();
        let mut next = Vec::with_capacity(rows.len());
        for row in rows.iter() {
            next.push(row.stored.start);
        }
        let mut tiler = Tiler::new(tiles, &word_rows, absent);
        while let Some((k0, k1, tile)) = tiler.next_tile() {
            for (row, t) in rows.iter_mut().zip(next.iter_mut()) {
                let run = tile_run(a_rows, t, row.stored.end, k1);
                if run.is_empty() {
                    continue;
                }
                let first = row.first_col;
                let words = S::popcount_words(&a_vals[run.clone()], tile, &mut row.out[first..]);
                let (a, tile, out) = words.expect("`S` hands over popcount words (checked above)");
                register_row(&a_rows[run], a, k0, tile, width, first, out);
            }
        }
    }

    /// 8-word vectors per strip of a register row: 128 columns, whose 16
    /// sums stay in `zmm` registers.
    const ROW_VECTORS: usize = 16;

    /// One output row's share of a tile, `out` its columns `first..width`:
    /// `out[j − first] += Σ_s popcnt(a[s] & tile[k[s] − k0][j])` over the
    /// row's run of stored `a_ki` in the tile (word rows `k`, words `a`),
    /// whose word rows start at `k0`, `width` words each. The row is cut
    /// into strips of [`ROW_VECTORS`] vectors from `first` on, the last
    /// only as wide as the row ([`row_strip`]); each strip re-walks the
    /// run.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn register_row(
        k: &[usize],
        a: &[u64],
        k0: usize,
        tile: &[u64],
        width: usize,
        first: usize,
        out: &mut [u64],
    ) {
        for j0 in (first..width).step_by(8 * ROW_VECTORS) {
            let out = &mut out[j0 - first..];
            // The vectors that hold a column below `width`, as a constant.
            macro_rules! strip {
                ($($v:literal)*) => {
                    match (width - j0).div_ceil(8) {
                        $($v => row_strip::<$v>(k, a, k0, tile, width, j0, out),)*
                        _ => row_strip::<ROW_VECTORS>(k, a, k0, tile, width, j0, out),
                    }
                };
            }
            strip!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        }
    }

    /// Columns `j0 .. j0 + 8V` (those below `width`) of a register row,
    /// `out` holding the row's columns from `j0` on. The strip's `V` sums
    /// stay in registers across the whole run: per `a_ki`, one broadcast,
    /// then the strip's loads from its tile row, AND, `vpopcntq` and add.
    /// Only then are they added into `out`. Only the last vector is
    /// masked, to the columns below `width`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn row_strip<const V: usize>(
        k: &[usize],
        a: &[u64],
        k0: usize,
        tile: &[u64],
        width: usize,
        j0: usize,
        out: &mut [u64],
    ) {
        use std::arch::x86_64::{
            _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_mask_storeu_epi64,
            _mm512_maskz_loadu_epi64, _mm512_popcnt_epi64, _mm512_set1_epi64, _mm512_setzero_si512,
        };
        // The shapes every address below rests on: the strip's first
        // `V − 1` vectors lie inside the row, and its last holds at least
        // one column of it.
        let len = width.saturating_sub(j0);
        assert!(
            V > 0 && 8 * (V - 1) < len && out.len() == len && k.len() == a.len(),
            "a {V}-vector strip from column {j0} of {width} into {} words",
            out.len()
        );
        let last = lanes_below(len, 8 * (V - 1));
        let mut acc = [_mm512_setzero_si512(); V];
        for (&k, &a) in k.iter().zip(a) {
            let words = &tile[(k - k0) * width + j0..(k - k0 + 1) * width];
            let at = words.as_ptr();
            let a = _mm512_set1_epi64(a as i64);
            for (v, acc) in acc.iter_mut().enumerate() {
                let strip = at.wrapping_add(8 * v);
                let b = if v + 1 < V {
                    // SAFETY: `8v + 8 ≤ 8(V − 1) < len = words.len()`, so
                    // all 8 words are inside the row.
                    unsafe { _mm512_loadu_si512(strip.cast()) }
                } else {
                    // SAFETY: `last` keeps the lanes `l` with
                    // `8v + l < len = words.len()`, and a masked-off lane
                    // is not read.
                    unsafe { _mm512_maskz_loadu_epi64(last, strip.cast()) }
                };
                *acc = _mm512_add_epi64(*acc, _mm512_popcnt_epi64(_mm512_and_si512(a, b)));
            }
        }
        for (v, &acc) in acc.iter().enumerate() {
            let lanes = if v + 1 < V { 0xff } else { last };
            let at = out.as_mut_ptr().wrapping_add(8 * v).cast();
            // SAFETY: `lanes` keeps only the lanes `l` with
            // `8v + l < len = out.len()`, and a masked-off lane is neither
            // read nor written.
            unsafe {
                let sum = _mm512_add_epi64(_mm512_maskz_loadu_epi64(lanes, at), acc);
                _mm512_mask_storeu_epi64(at, lanes, sum);
            }
        }
    }

    /// Output rows per block of the register-blocked body.
    const BLOCK_ROWS: usize = 6;

    /// 8-word vectors per column strip of a block: 32 columns, so a block
    /// keeps 6 × 4 = 24 sums in `zmm` registers.
    const STRIP_VECTORS: usize = 4;

    /// [`super::triangle_block`], by the register-blocked body of the
    /// module header on a CPU with AVX-512 VPOPCNTDQ.
    pub(super) fn triangle_block(tile: &[u64], width: usize, first: usize, out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        {
            if vector_popcount() {
                // SAFETY: `vector_popcount` just reported AVX-512F and
                // AVX-512 VPOPCNTDQ on the running CPU, the features the
                // function is compiled for.
                return unsafe { triangle_block_avx512(tile, width, first, out) };
            }
        }
        super::triangle_block(tile, width, first, out)
    }

    /// The lanes `l` of an 8-word vector at column `j` with `j + l < n`.
    fn lanes_below(n: usize, j: usize) -> u8 {
        ((1u16 << n.saturating_sub(j).min(8)) - 1) as u8
    }

    /// The lanes `l` of an 8-word vector at column `j` with `j + l ≥ i`.
    fn lanes_from(i: usize, j: usize) -> u8 {
        (0xffu16 << i.saturating_sub(j).min(8)) as u8
    }

    /// [`super::triangle_block`] in blocks of [`BLOCK_ROWS`] rows, each
    /// cut into strips of [`STRIP_VECTORS`] vectors from its first row's
    /// diagonal on, the last strip only as wide as the row
    /// ([`triangle_strip`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn triangle_block_avx512(tile: &[u64], width: usize, first: usize, out: &mut [u64]) {
        let n = width;
        for (r0, block) in (0..).step_by(BLOCK_ROWS).zip(out.chunks_mut(BLOCK_ROWS * n)) {
            let (i0, live) = (first + r0, block.len() / n);
            // The column of each row's `a_ki` in the tile, the row itself;
            // a short block repeats its last row.
            let mut cols = [0; BLOCK_ROWS];
            for (r, col) in cols.iter_mut().enumerate() {
                *col = i0 + r.min(live - 1);
            }
            for j0 in (i0..n).step_by(8 * STRIP_VECTORS) {
                // The vectors that hold a column below `n`.
                match (n - j0).div_ceil(8) {
                    1 => triangle_strip::<1>(tile, n, &cols, j0, block),
                    2 => triangle_strip::<2>(tile, n, &cols, j0, block),
                    3 => triangle_strip::<3>(tile, n, &cols, j0, block),
                    _ => triangle_strip::<STRIP_VECTORS>(tile, n, &cols, j0, block),
                }
            }
        }
    }

    /// Columns `j0 .. j0 + 8V` (those below `n`) of a block: the whole
    /// rows `block` of `out`, `n` words each, where `cols[r]` is block row
    /// `r`'s row, and so the tile column of its `a_ki`. The block's
    /// `6 × V` sums stay in registers across every word row of `tile`,
    /// which loads the strip's words once per word row and broadcasts each
    /// row's `a_ki` beside them; only then are they added into `block`.
    /// Masks keep every load and store inside its row (`j < n`), every
    /// store off the strictly lower triangle (`j ≥ cols[r]`) and off the
    /// rows `block` lacks.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn triangle_strip<const V: usize>(
        tile: &[u64],
        n: usize,
        cols: &[usize; BLOCK_ROWS],
        j0: usize,
        block: &mut [u64],
    ) {
        use std::arch::x86_64::{
            _mm512_add_epi64, _mm512_and_si512, _mm512_mask_storeu_epi64, _mm512_maskz_loadu_epi64,
            _mm512_popcnt_epi64, _mm512_set1_epi64, _mm512_setzero_si512,
        };
        // The shapes every address below rests on.
        assert!(
            n > 0
                && tile.len().is_multiple_of(n)
                && block.len().is_multiple_of(n)
                && cols.iter().all(|&c| c < n),
            "a strip of rows {cols:?} over {} and {} words, {n} wide",
            tile.len(),
            block.len()
        );
        let mut inside = [0; V];
        for (v, lanes) in inside.iter_mut().enumerate() {
            *lanes = lanes_below(n, j0 + 8 * v);
        }
        let mut acc = [[_mm512_setzero_si512(); V]; BLOCK_ROWS];
        for words in tile.chunks_exact(n) {
            let at = words.as_ptr();
            let mut b = [_mm512_setzero_si512(); V];
            for (v, (b, &lanes)) in b.iter_mut().zip(&inside).enumerate() {
                let strip = at.wrapping_add(j0 + 8 * v).cast();
                // SAFETY: `lanes` keeps the lanes `l` with
                // `j0 + 8v + l < n = words.len()`, and a masked-off lane is
                // not read.
                *b = unsafe { _mm512_maskz_loadu_epi64(lanes, strip) };
            }
            for (acc, &col) in acc.iter_mut().zip(cols) {
                // SAFETY: `col < n = words.len()` (asserted above).
                let a = _mm512_set1_epi64(unsafe { *at.add(col) } as i64);
                for (acc, &b) in acc.iter_mut().zip(&b) {
                    let pairs = _mm512_popcnt_epi64(_mm512_and_si512(a, b));
                    *acc = _mm512_add_epi64(*acc, pairs);
                }
            }
        }
        let rows = block.len() / n;
        for (r, (acc, &i)) in acc.iter().zip(cols).enumerate() {
            let row_lanes = if r < rows { 0xff } else { 0 };
            let row = block.as_mut_ptr().wrapping_add(r * n);
            for (v, (&acc, &lanes)) in acc.iter().zip(&inside).enumerate() {
                let j = j0 + 8 * v;
                let lanes = lanes & row_lanes & lanes_from(i, j);
                let at = row.wrapping_add(j).cast();
                // SAFETY: `lanes` keeps only the lanes `l` with `j + l < n`
                // of a row `r < rows` of `block`, `n` words long, and a
                // masked-off lane is neither read nor written.
                unsafe {
                    let sum = _mm512_add_epi64(_mm512_maskz_loadu_epi64(lanes, at), acc);
                    _mm512_mask_storeu_epi64(at, lanes, sum);
                }
            }
        }
    }
}

/// Number of products in the full square `AᵀA`, `Σ_k nnz(row k)²`: the
/// γ charge every kernel returns, though the triangle multiplies half.
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
    /// 4-in-21 of [`TILE_COST_RATIO`], either side of the 2-in-3 of
    /// [`BLOCKED_COST_RATIO`], and dense.
    const FILLS: [usize; 7] = [0, 20, 170, 210, 600, 700, 1000];

    /// Widths at which blocks of 6 rows, 8-lane vectors, 32-column strips
    /// and the `(p, n−1−p)` pair split all meet their edges.
    const WIDTHS: [usize; 11] = [1, 5, 6, 7, 8, 9, 31, 32, 33, 130, 352];

    /// Widths at which register rows meet their edges: one vector, one
    /// either side of it and of 8, a full 16-vector strip and one either
    /// side of it, a strip and a whole or a masked vector more, and two
    /// or three strips and a remainder.
    const ROW_WIDTHS: [usize; 14] = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 136, 200, 257, 352];

    /// The side of the body guard the triangle of `A[rows, :]` falls on,
    /// wherever tiles run: 0 Gustavson, 1 tiled, 2 blocked.
    fn guard_side(csc: &CscMatrix<u64>, csr: &CsrMatrix<u64>, rows: Range<usize>) -> usize {
        let upper = rows.clone().map(|k| csr.row_nnz(k) * (csr.row_nnz(k) + 1) / 2).sum::<usize>();
        let blocked = blocked_products::<PopcountAnd>(&rows, csc.ncols());
        match pick_body(Some(()), blocked, upper_dense_products(csc, &rows), || upper as u64) {
            Pick::Gustavson => 0,
            Pick::Tiled(()) => 1,
            Pick::Blocked(()) => 2,
        }
    }

    /// Every body the triangle can run, whatever this CPU would pick:
    /// Gustavson, and the tiled and blocked bodies on tiles densified from
    /// either view (the blocked one in its portable form without AVX-512
    /// VPOPCNTDQ).
    fn bodies<'b>(csc: &'b CscMatrix<u64>, csr: &'b CsrMatrix<u64>) -> [Body<'b, u64>; 5] {
        let (rows, cols) = (Tiles::Rows(csr), Tiles::Cols(csc));
        let tiled = [Body::Tiled(rows, 0), Body::Tiled(cols, 0)];
        let blocked = [Body::Blocked(rows, 0), Body::Blocked(cols, 0)];
        [Body::Gustavson(csr), tiled[0], tiled[1], blocked[0], blocked[1]]
    }

    fn name<T>(body: Body<'_, T>) -> &'static str {
        match body {
            Body::Gustavson(_) => "Gustavson",
            Body::Tiled(Tiles::Rows(_), _) => "tiles from the CSR",
            Body::Tiled(Tiles::Cols(_), _) => "tiles from the CSC",
            Body::Blocked(Tiles::Rows(_), _) => "blocks on tiles from the CSR",
            Body::Blocked(Tiles::Cols(_), _) => "blocks on tiles from the CSC",
        }
    }

    #[test]
    fn popcount_triangle_kernel_equals_the_plus_times_oracle_and_is_symmetric() {
        let mut rng = Rng(0x5eed);
        let mut sides = [0; 3];
        let n0 = BitMatrix::from_columns(0, &[]).unwrap();
        let empty = ata_dense_parallel::<PopcountAnd>(n0.as_csc(), &n0.to_csr()).unwrap();
        assert_eq!((empty.nrows(), empty.ncols()), (0, 0));
        for n in WIDTHS {
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
                    for body in bodies(csc, &csr) {
                        let mut out = DenseMatrix::zeros(n, n);
                        let all = 0..word_rows;
                        accumulate_upper::<PopcountAnd>(csc, &all, body, out.as_mut_slice());
                        out.mirror_upper().unwrap();
                        assert_eq!(out, want, "{ctx}, {}", name(body));
                    }
                    sides[guard_side(csc, &csr, 0..word_rows)] += 1;
                }
            }
        }
        assert!(sides.iter().all(|&side| side > 0), "Gustavson / tiled / blocked: {sides:?}");
    }

    #[test]
    fn upper_triangle_accumulates_into_the_callers_matrix_like_the_oracle() {
        let mut rng = Rng(0x7a1);
        // One kept transpose, refilled by every call that picks Gustavson.
        let mut transpose = CsrMatrix::empty(0, 0);
        let mut sides = [0; 3];
        for n in std::iter::once(0).chain(WIDTHS) {
            let counts = if n == 0 { vec![0, 1, 3] } else { word_row_counts(n).to_vec() };
            for word_rows in counts {
                for permille in [0, 20, 210, 600, 700, 1000] {
                    let ctx = format!("n = {n}, {word_rows} word rows at {permille} ‰");
                    let nrows = 64 * word_rows;
                    let mut columns = word_columns(&mut rng, word_rows, n, permille);
                    // An empty column, and an empty word row at every fill.
                    if n > 2 {
                        columns[n / 2].clear();
                    }
                    for col in &mut columns {
                        col.retain(|&r| r / 64 != word_rows / 2);
                    }
                    let bm = BitMatrix::from_columns(nrows, &columns).unwrap();
                    let (csc, csr) = (bm.as_csc(), bm.to_csr());
                    let oracle = ata_dense::<PopcountAnd>(&csr);
                    // Two calls into a prefilled matrix: the upper triangle
                    // gains twice the product, the lower one is untouched.
                    let prefill: Vec<u64> = (0..n * n).map(|x| 100 + x as u64).collect();
                    let want: Vec<u64> = (0..n * n)
                        .map(|x| {
                            let (i, j) = (x / n, x % n);
                            prefill[x] + if j >= i { 2 * oracle.get(i, j) } else { 0 }
                        })
                        .collect();
                    let mut mirrored = oracle.clone();
                    for i in 0..n {
                        for j in i..n {
                            mirrored.set(i, j, want[i * n + j]);
                        }
                    }
                    mirrored.mirror_upper().unwrap();
                    let all = 0..word_rows;
                    for body in bodies(csc, &csr) {
                        let mut out = prefill.clone();
                        accumulate_upper::<PopcountAnd>(csc, &all, body, &mut out);
                        accumulate_upper::<PopcountAnd>(csc, &all, body, &mut out);
                        assert_eq!(out, want, "{ctx}, {}", name(body));
                    }
                    // The entry point charges the full square's Gustavson
                    // count, as `atb_block_dense` does for the two views.
                    let square: usize = (0..word_rows).map(|k| csr.row_nnz(k).pow(2)).sum();
                    let mut scratch = DenseMatrix::zeros(n, n);
                    let charged = atb_block_dense::<PopcountAnd>(csc, &csr, &mut scratch).unwrap();
                    assert_eq!(charged, square as u64, "{ctx}");
                    let mut out = DenseMatrix::from_vec(n, n, prefill.clone()).unwrap();
                    for _ in 0..2 {
                        let charge = ata_upper_accumulate::<PopcountAnd>(
                            csc,
                            all.clone(),
                            &mut out,
                            &mut transpose,
                        );
                        assert_eq!(charge.unwrap(), charged, "{ctx}");
                    }
                    assert_eq!(out.as_slice(), want, "{ctx}");
                    out.mirror_upper().unwrap();
                    assert_eq!(out, mirrored, "{ctx}");
                    sides[guard_side(csc, &csr, all)] += 1;
                    // `PlusTimes` has no absent value: Gustavson over the
                    // unpacked matrix.
                    let boolean = unpacked(nrows, &columns);
                    let plus = ata_dense::<PlusTimes<u64>>(&boolean.to_csr());
                    let mut out = DenseMatrix::zeros(n, n);
                    let rows = 0..nrows;
                    ata_upper_accumulate::<PlusTimes<u64>>(
                        &boolean,
                        rows,
                        &mut out,
                        &mut transpose,
                    )
                    .unwrap();
                    out.mirror_upper().unwrap();
                    assert_eq!(out, plus, "{ctx}, plus-times");
                }
            }
        }
        assert!(sides.iter().all(|&side| side > 0), "Gustavson / tiled / blocked: {sides:?}");
        // A wrong output shape.
        let bm = BitMatrix::from_columns(70, &[vec![1, 65], vec![65]]).unwrap();
        let mut three = DenseMatrix::<u64>::zeros(3, 3);
        let err =
            ata_upper_accumulate::<PopcountAnd>(bm.as_csc(), 0..2, &mut three, &mut transpose);
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
        // Word rows past the operand's hold nothing.
        let (mut two, mut again) = (DenseMatrix::zeros(2, 2), DenseMatrix::zeros(2, 2));
        ata_upper_accumulate::<PopcountAnd>(bm.as_csc(), 1..2, &mut two, &mut transpose).unwrap();
        ata_upper_accumulate::<PopcountAnd>(bm.as_csc(), 1..9, &mut again, &mut transpose).unwrap();
        assert_eq!(two, again);
    }

    #[test]
    fn the_in_place_triangle_of_some_word_rows_is_the_triangle_of_those_rows_cut_out() {
        let mut rng = Rng(0x1a7e);
        let mut transpose = CsrMatrix::empty(0, 0);
        for n in WIDTHS {
            for word_rows in word_row_counts(n) {
                for permille in [20, 210, 1000] {
                    let columns = word_columns(&mut rng, word_rows, n, permille);
                    let bm = BitMatrix::from_columns(64 * word_rows, &columns).unwrap();
                    for parts in [1usize, 2, 3] {
                        for idx in 0..parts {
                            let rows = idx * word_rows / parts..(idx + 1) * word_rows / parts;
                            let ctx = format!("n = {n}, word rows {rows:?} of {word_rows}");
                            let cut = bm.select_word_rows(rows.clone()).unwrap();
                            let want = ata_dense::<PopcountAnd>(&cut.to_csr());
                            let mut out = DenseMatrix::zeros(n, n);
                            let csc = bm.as_csc();
                            let charged = ata_upper_accumulate::<PopcountAnd>(
                                csc,
                                rows,
                                &mut out,
                                &mut transpose,
                            )
                            .unwrap();
                            out.mirror_upper().unwrap();
                            assert_eq!(out, want, "{ctx}");
                            assert_eq!(charged, ata_flops(&cut.to_csr()), "{ctx}");
                            for body in bodies(cut.as_csc(), &cut.to_csr()) {
                                // The bodies, on the cut, agree with it.
                                let mut out = DenseMatrix::zeros(n, n);
                                let all = 0..cut.word_rows();
                                let slice = out.as_mut_slice();
                                accumulate_upper::<PopcountAnd>(cut.as_csc(), &all, body, slice);
                                out.mirror_upper().unwrap();
                                assert_eq!(out, want, "{ctx}, {}", name(body));
                            }
                        }
                    }
                }
            }
        }
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
        fn out_rows<'o>(
            out: &'o mut [u64],
            csc: &CscMatrix<u64>,
            start: fn(usize, usize) -> usize,
        ) -> Vec<OutRow<'o, u64>> {
            let (n, ptr) = (csc.ncols(), csc.indptr());
            let rows = out.chunks_mut(n).enumerate();
            rows.map(|(i, out)| OutRow { stored: ptr[i]..ptr[i + 1], first_col: start(i, n), out })
                .collect()
        }
        // Whole rows, the triangle, and a fixed start mid-row.
        let starts: [fn(usize, usize) -> usize; 3] = [|_, _| 0, |i, _| i, |_, n| n / 2];
        let mut rng = Rng(7);
        for n in [2, 16].into_iter().chain(ROW_WIDTHS) {
            // Every tile-boundary case of this width, at three fills: most
            // rows without an `a_ki` in most tiles, mid fill, and full.
            for word_rows in word_row_counts(n) {
                for permille in [20, 210, 1000] {
                    let ctx = format!("n = {n}, {word_rows} word rows at {permille} ‰");
                    let mut columns = word_columns(&mut rng, word_rows, n, permille);
                    // A row with no `a_ki` in any tile.
                    if n > 2 {
                        columns[n / 2].clear();
                    }
                    let bm = BitMatrix::from_columns(64 * word_rows, &columns).unwrap();
                    let (csc, csr) = (bm.as_csc(), bm.to_csr());
                    for start in starts {
                        let mut outs = [(); 2].map(|_| vec![3u64; n * n]);
                        let [portable, dispatched] = &mut outs;
                        let ptr = csc.indptr();
                        for (i, out) in portable.chunks_mut(n).enumerate() {
                            let stored = ptr[i]..ptr[i + 1];
                            accumulate_row::<PopcountAnd>(csc, &csr, stored, start(i, n), out);
                        }
                        for (i, out) in dispatched.chunks_mut(n).enumerate() {
                            let (stored, first) = (ptr[i]..ptr[i + 1], start(i, n));
                            dispatch::accumulate_row::<PopcountAnd>(csc, &csr, stored, first, out);
                        }
                        for tiles in [Tiles::Rows(&csr), Tiles::Cols(csc)] {
                            let mut tiled = vec![3u64; n * n];
                            let all = 0..word_rows;
                            let mut rows = out_rows(&mut tiled, csc, start);
                            accumulate_tiled::<PopcountAnd>(csc, tiles, all.clone(), 0, &mut rows);
                            let mut tiled_dispatched = vec![3u64; n * n];
                            let mut rows = out_rows(&mut tiled_dispatched, csc, start);
                            dispatch::accumulate_tiled::<PopcountAnd>(
                                csc, tiles, all, 0, &mut rows,
                            );
                            let ctx = format!("{ctx}, {}", name(Body::Tiled(tiles, 0)));
                            assert_eq!(*portable, tiled, "{ctx}");
                            assert_eq!(tiled, tiled_dispatched, "{ctx}");
                        }
                        assert_eq!(portable, dispatched, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn vector_and_portable_triangle_blocks_agree() {
        if !dispatch::vector_popcount() {
            eprintln!(
                "no AVX-512 VPOPCNTDQ on this CPU: comparing the portable blocks with themselves"
            );
        }
        let mut rng = Rng(0xb10c);
        for n in WIDTHS {
            for height in [1, 3, 11] {
                // Random words, a quarter of them absent.
                let tile: Vec<u64> = (0..height * n)
                    .map(|_| if rng.below(4) == 0 { 0 } else { rng.next() })
                    .collect();
                // The whole triangle, two runs like a thread's, a run of one
                // row, and an empty one.
                let half = n.div_ceil(2);
                for (first, rows) in [(0, n), (0, half), (half, n - half), (n - 1, 1), (n, 0)] {
                    let ctx = format!("n = {n}, {height} word rows, rows {first}..+{rows}");
                    let prefill: Vec<u64> = (0..rows * n).map(|x| x as u64).collect();
                    let (mut portable, mut dispatched) = (prefill.clone(), prefill.clone());
                    triangle_block(&tile, n, first, &mut portable);
                    dispatch::triangle_block(&tile, n, first, &mut dispatched);
                    assert_eq!(portable, dispatched, "{ctx}");
                    // The strictly lower triangle is untouched.
                    for (x, (&got, &was)) in dispatched.iter().zip(&prefill).enumerate() {
                        if x % n < first + x / n {
                            assert_eq!(got, was, "{ctx}, entry {x}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn atb_block_adds_to_a_prefilled_block_and_counts_every_product() {
        let mut rng = Rng(11);
        let shapes = [(1usize, 1usize), (3, 8), (8, 3), (5, 0), (0, 4), (9, 33), (33, 130)];
        // Register rows at every edge of their strips, a few rows each.
        let row_shapes = ROW_WIDTHS.map(|nb| (2 + nb % 3, nb));
        let shapes = shapes.into_iter().chain(row_shapes);
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
                    for pick in [Pick::Gustavson, Pick::Tiled(0)] {
                        let mut body = prefill.clone();
                        atb_rows::<PopcountAnd>(a_csc, &b_csr, &mut body, pick);
                        assert_eq!(body, want, "{ctx}, {pick:?}");
                    }
                    // The generic loop the register rows replace, portable.
                    let mut generic = prefill.clone();
                    let a_ptr = a_csc.indptr();
                    let mut rows: Vec<_> = (0..na)
                        .zip(generic.chunks_mut(nb.max(1)))
                        .map(|(i, out)| OutRow {
                            stored: a_ptr[i]..a_ptr[i + 1],
                            first_col: 0,
                            out,
                        })
                        .collect();
                    let all = 0..word_rows;
                    accumulate_tiled::<PopcountAnd>(a_csc, Tiles::Rows(&b_csr), all, 0, &mut rows);
                    assert_eq!(generic, want, "{ctx}, the generic tiled loop");
                    let (num, den) = TILE_COST_RATIO;
                    if (a.nnz_words() * nb) as u64 * den <= num * products as u64 {
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
