//! Processor grids and grid sub-communicators.
//!
//! Section III-C of the paper distributes the sparse product over a
//! `√(p/c) × √(p/c) × c` processor grid: each of the `c` layers computes a
//! share of the contributions to `B = AᵀA`, and the layers are reduced at
//! the end (a 2.5D / communication-avoiding matrix-multiplication layout).
//! [`ProcessorGrid::rect_3d`] relaxes the square layers to the
//! most-balanced `r × q` rectangle so every rank count is used in full.
//! [`ProcessorGrid`] maps ranks to grid coordinates and builds the row,
//! column and fiber (layer-crossing) communicators needed by the
//! distributed kernels in `gas-sparse`.

use crate::comm::Communicator;
use crate::error::{SimError, SimResult};
use serde::{Deserialize, Serialize};

/// The paper's `r × q × c` processor grid.
///
/// Ranks are laid out with the row index fastest:
/// `rank = i + r·(j + q·k)` for coordinates `(i, j, k)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorGrid {
    dims: [usize; 3],
}

impl ProcessorGrid {
    /// The most-balanced rectangle `r × q = n` with `r ≤ q`: `r` is the
    /// largest divisor of `n` not exceeding `√n`. Every rank count has
    /// such a factorization (worst case `1 × n`), so rectangular grids
    /// never idle ranks the way square-only grids do.
    fn balanced_rect(n: usize) -> (usize, usize) {
        let mut r = (n as f64).sqrt().floor() as usize;
        // Guard against floating-point rounding at perfect squares.
        while r > 1 && (r * r > n || !n.is_multiple_of(r)) {
            r -= 1;
        }
        let r = r.max(1);
        (r, n / r)
    }

    /// The rectangular 2.5D grid `r × q × c` with `r · q = p / c`: the
    /// replication factor is clamped down to the largest divisor of `p`
    /// not exceeding the request, and each layer is the most-balanced
    /// rectangle of `p / c` ranks, so the grid covers *all* `p` ranks for
    /// every rank count.
    pub fn rect_3d(p: usize, c: usize) -> SimResult<Self> {
        if p == 0 {
            return Err(SimError::InvalidGrid("grid must have at least one rank".to_string()));
        }
        let mut c = c.clamp(1, p);
        while c > 1 && !p.is_multiple_of(c) {
            c -= 1;
        }
        let (r, q) = Self::balanced_rect(p / c);
        Ok(ProcessorGrid { dims: [r, q, c] })
    }

    /// Grid dimensions `[rows, cols, layers]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of ranks covered by the grid.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Number of rows (dimension 0).
    pub fn rows(&self) -> usize {
        self.dims[0]
    }

    /// Number of columns (dimension 1).
    pub fn cols(&self) -> usize {
        self.dims[1]
    }

    /// Number of layers (dimension 2).
    pub fn layers(&self) -> usize {
        self.dims[2]
    }

    /// Map a rank to its grid coordinates `[i, j, k]`.
    pub fn coords_of(&self, rank: usize) -> SimResult<[usize; 3]> {
        if rank >= self.size() {
            return Err(SimError::InvalidRank { rank, size: self.size() });
        }
        let [rows, cols, _] = self.dims;
        Ok([rank % rows, (rank / rows) % cols, rank / (rows * cols)])
    }

    /// Split `comm` into per-row communicators: all ranks that share the
    /// same (row, layer) — i.e. vary only along the column dimension.
    pub fn row_comm(&self, comm: &Communicator) -> SimResult<Communicator> {
        let c = self.coords_of(comm.rank())?;
        comm.split((c[0] + c[2] * self.rows()) as u64)
    }

    /// Split `comm` into per-column communicators: all ranks that share
    /// the same (column, layer) — i.e. vary only along the row dimension.
    pub fn col_comm(&self, comm: &Communicator) -> SimResult<Communicator> {
        let c = self.coords_of(comm.rank())?;
        comm.split((c[1] + c[2] * self.cols()) as u64)
    }

    /// Split `comm` into fiber communicators: ranks that share (row,
    /// column) and differ only in the layer index. Used for the final
    /// reduction across replicas in the 2.5D algorithm.
    pub fn fiber_comm(&self, comm: &Communicator) -> SimResult<Communicator> {
        let c = self.coords_of(comm.rank())?;
        comm.split((c[0] * self.cols() + c[1]) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn balanced_rect_is_the_most_square_factorization() {
        assert_eq!(ProcessorGrid::balanced_rect(1), (1, 1));
        assert_eq!(ProcessorGrid::balanced_rect(4), (2, 2));
        assert_eq!(ProcessorGrid::balanced_rect(6), (2, 3));
        assert_eq!(ProcessorGrid::balanced_rect(8), (2, 4));
        assert_eq!(ProcessorGrid::balanced_rect(12), (3, 4));
        assert_eq!(ProcessorGrid::balanced_rect(16), (4, 4));
        assert_eq!(ProcessorGrid::balanced_rect(7), (1, 7));
    }

    #[test]
    fn rect_3d_covers_every_rank() {
        for p in 1..=32 {
            for c in 1..=4 {
                let g = ProcessorGrid::rect_3d(p, c).unwrap();
                assert_eq!(g.size(), p, "p = {p}, c = {c}: grid {:?}", g.dims());
                assert!(g.layers() <= c.max(1));
                // `coords_of` is a bijection onto rows × cols × layers in
                // the order `gather_full` and the drivers assume: it lands
                // in the grid, `rank = i + r·(j + q·k)` inverts it, and
                // the grid has exactly p cells.
                let (r, q) = (g.rows(), g.cols());
                for rank in 0..p {
                    let [i, j, k] = g.coords_of(rank).unwrap();
                    assert!(i < r && j < q && k < g.layers(), "p = {p}, c = {c}, rank {rank}");
                    assert_eq!(i + r * (j + q * k), rank, "p = {p}, c = {c}");
                }
                assert!(g.coords_of(p).is_err());
            }
        }
        // The headline cases from the roadmap: non-square rank counts.
        assert_eq!(ProcessorGrid::rect_3d(8, 1).unwrap().dims(), &[2, 4, 1]);
        assert_eq!(ProcessorGrid::rect_3d(8, 2).unwrap().dims(), &[2, 2, 2]);
        assert_eq!(ProcessorGrid::rect_3d(12, 2).unwrap().dims(), &[2, 3, 2]);
        assert_eq!(ProcessorGrid::rect_3d(6, 1).unwrap().dims(), &[2, 3, 1]);
        // Replication that does not divide p is clamped down.
        assert_eq!(ProcessorGrid::rect_3d(7, 2).unwrap().dims(), &[1, 7, 1]);
        assert!(ProcessorGrid::rect_3d(0, 1).is_err());
    }

    #[test]
    fn row_col_fiber_comms_have_expected_sizes() {
        let p = 8;
        let out = Runtime::new(p)
            .run(|ctx| {
                let grid = ProcessorGrid::rect_3d(p, 2).unwrap();
                let world = ctx.world();
                let row = grid.row_comm(world).unwrap();
                let col = grid.col_comm(world).unwrap();
                let fiber = grid.fiber_comm(world).unwrap();
                (row.size(), col.size(), fiber.size())
            })
            .unwrap();
        for (r, c, f) in out.results {
            assert_eq!(r, 2);
            assert_eq!(c, 2);
            assert_eq!(f, 2);
        }
    }

    #[test]
    fn fiber_reduction_sums_across_layers() {
        // 2 x 2 x 2 grid; each rank contributes its layer index; the fiber
        // allreduce should give 0 + 1 = 1 everywhere.
        let out = Runtime::new(8)
            .run(|ctx| {
                let grid = ProcessorGrid::rect_3d(8, 2).unwrap();
                let coords = grid.coords_of(ctx.rank()).unwrap();
                let fiber = grid.fiber_comm(ctx.world()).unwrap();
                fiber.allreduce_sum(&[coords[2] as u64]).unwrap()[0]
            })
            .unwrap();
        assert!(out.results.iter().all(|&v| v == 1));
    }
}
