//! Processor grids and grid sub-communicators.
//!
//! Section III-C of the paper distributes the sparse product over a
//! `√(p/c) × √(p/c) × c` processor grid: each of the `c` layers computes a
//! share of the contributions to `B = AᵀA`, and the layers are reduced at
//! the end (a 2.5D / communication-avoiding matrix-multiplication layout).
//! [`ProcessorGrid`] maps ranks to grid coordinates and builds the row,
//! column and fiber (layer-crossing) communicators needed by the
//! distributed kernels in `gas-sparse`.

use crate::comm::Communicator;
use crate::error::{SimError, SimResult};
use serde::{Deserialize, Serialize};

/// A logical processor grid of up to three dimensions.
///
/// Ranks are laid out in row-major order over the dimensions:
/// `rank = ((k * dims[1]) + j) * dims[0] + i` for coordinates `(i, j, k)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorGrid {
    dims: Vec<usize>,
}

impl ProcessorGrid {
    /// A 1D grid (a plain communicator ordering).
    pub fn dims_1d(p: usize) -> SimResult<Self> {
        if p == 0 {
            return Err(SimError::InvalidGrid("grid must have at least one rank".to_string()));
        }
        Ok(ProcessorGrid { dims: vec![p] })
    }

    /// The most-square 2D grid with `rows × cols = p`.
    pub fn square_2d(p: usize) -> SimResult<Self> {
        if p == 0 {
            return Err(SimError::InvalidGrid("grid must have at least one rank".to_string()));
        }
        let mut rows = (p as f64).sqrt().floor() as usize;
        while rows > 1 && !p.is_multiple_of(rows) {
            rows -= 1;
        }
        let cols = p / rows.max(1);
        Ok(ProcessorGrid { dims: vec![rows.max(1), cols] })
    }

    /// An explicit grid with the given dimensions (2 or 3 of them).
    pub fn explicit(dims: &[usize]) -> SimResult<Self> {
        if dims.is_empty() || dims.len() > 3 {
            return Err(SimError::InvalidGrid(format!(
                "grids must have 1..=3 dimensions, got {}",
                dims.len()
            )));
        }
        if dims.contains(&0) {
            return Err(SimError::InvalidGrid("grid dimensions must be positive".to_string()));
        }
        Ok(ProcessorGrid { dims: dims.to_vec() })
    }

    /// The paper's 2.5D grid: `√(p/c) × √(p/c) × c`.
    ///
    /// `c` is clamped down to the largest replication factor for which
    /// `p / c` is a perfect square and `c` divides `p`; this mirrors how
    /// the implementation "replicates B in so far as possible".
    pub fn grid_25d(p: usize, c: usize) -> SimResult<Self> {
        if p == 0 {
            return Err(SimError::InvalidGrid("grid must have at least one rank".to_string()));
        }
        let mut c = c.clamp(1, p);
        loop {
            if p.is_multiple_of(c) {
                let layer = p / c;
                let s = (layer as f64).sqrt().round() as usize;
                if s * s == layer {
                    return Ok(ProcessorGrid { dims: vec![s, s, c] });
                }
            }
            if c == 1 {
                break;
            }
            c -= 1;
        }
        // Fall back to the most-square 2D grid with a single layer.
        let g = ProcessorGrid::square_2d(p)?;
        Ok(ProcessorGrid { dims: vec![g.dims[0], g.dims[1], 1] })
    }

    /// The most-balanced rectangle `r × q = n` with `r ≤ q`: `r` is the
    /// largest divisor of `n` not exceeding `√n`. Every rank count has
    /// such a factorization (worst case `1 × n`), so rectangular grids
    /// never idle ranks the way square-only grids do.
    pub fn balanced_rect(n: usize) -> SimResult<(usize, usize)> {
        if n == 0 {
            return Err(SimError::InvalidGrid("grid must have at least one rank".to_string()));
        }
        let mut r = (n as f64).sqrt().floor() as usize;
        // Guard against floating-point rounding at perfect squares.
        while r > 1 && (r * r > n || !n.is_multiple_of(r)) {
            r -= 1;
        }
        let r = r.max(1);
        Ok((r, n / r))
    }

    /// The rectangular 2.5D grid `r × q × c` with `r · q = p / c`: the
    /// replication factor is clamped down to the largest divisor of `p`
    /// not exceeding the request, and each layer is the most-balanced
    /// rectangle of `p / c` ranks. Unlike [`ProcessorGrid::grid_25d`]
    /// (which requires square layers), this covers *all* `p` ranks for
    /// every rank count.
    pub fn rect_3d(p: usize, c: usize) -> SimResult<Self> {
        if p == 0 {
            return Err(SimError::InvalidGrid("grid must have at least one rank".to_string()));
        }
        let mut c = c.clamp(1, p);
        while c > 1 && !p.is_multiple_of(c) {
            c -= 1;
        }
        let (r, q) = Self::balanced_rect(p / c)?;
        Ok(ProcessorGrid { dims: vec![r, q, c] })
    }

    /// Grid dimensions.
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

    /// Number of columns (dimension 1, or 1 for a 1D grid).
    pub fn cols(&self) -> usize {
        *self.dims.get(1).unwrap_or(&1)
    }

    /// Number of layers (dimension 2, or 1 for 1D/2D grids).
    pub fn layers(&self) -> usize {
        *self.dims.get(2).unwrap_or(&1)
    }

    /// Map a rank to its grid coordinates (always 3 entries; missing
    /// dimensions are 0).
    pub fn coords_of(&self, rank: usize) -> SimResult<[usize; 3]> {
        if rank >= self.size() {
            return Err(SimError::InvalidRank { rank, size: self.size() });
        }
        let rows = self.rows();
        let cols = self.cols();
        let i = rank % rows;
        let j = (rank / rows) % cols;
        let k = rank / (rows * cols);
        Ok([i, j, k])
    }

    /// Map grid coordinates to a rank.
    pub fn rank_of(&self, coords: [usize; 3]) -> SimResult<usize> {
        let [i, j, k] = coords;
        if i >= self.rows() || j >= self.cols() || k >= self.layers() {
            return Err(SimError::InvalidGrid(format!(
                "coordinates ({i}, {j}, {k}) outside grid {:?}",
                self.dims
            )));
        }
        Ok((k * self.cols() + j) * self.rows() + i)
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

    /// Split `comm` into per-layer communicators: all ranks with the same
    /// layer index (a full 2D subgrid each).
    pub fn layer_comm(&self, comm: &Communicator) -> SimResult<Communicator> {
        let c = self.coords_of(comm.rank())?;
        comm.split(c[2] as u64)
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
    fn square_2d_prefers_square_factors() {
        assert_eq!(ProcessorGrid::square_2d(16).unwrap().dims(), &[4, 4]);
        assert_eq!(ProcessorGrid::square_2d(12).unwrap().dims(), &[3, 4]);
        assert_eq!(ProcessorGrid::square_2d(7).unwrap().dims(), &[1, 7]);
        assert_eq!(ProcessorGrid::square_2d(1).unwrap().dims(), &[1, 1]);
        assert!(ProcessorGrid::square_2d(0).is_err());
    }

    #[test]
    fn grid_25d_matches_paper_layout() {
        // p = 32, c = 2 -> 4 x 4 x 2
        assert_eq!(ProcessorGrid::grid_25d(32, 2).unwrap().dims(), &[4, 4, 2]);
        // p = 64, c = 4 -> 4 x 4 x 4
        assert_eq!(ProcessorGrid::grid_25d(64, 4).unwrap().dims(), &[4, 4, 4]);
        // Requested replication too large / not factorable: clamped down.
        assert_eq!(ProcessorGrid::grid_25d(16, 3).unwrap().dims(), &[4, 4, 1]);
        // Non-square p falls back to a 2D-ish grid with one layer.
        let g = ProcessorGrid::grid_25d(24, 1).unwrap();
        assert_eq!(g.size(), 24);
        assert_eq!(g.layers(), 1);
    }

    #[test]
    fn balanced_rect_is_the_most_square_factorization() {
        assert_eq!(ProcessorGrid::balanced_rect(1).unwrap(), (1, 1));
        assert_eq!(ProcessorGrid::balanced_rect(4).unwrap(), (2, 2));
        assert_eq!(ProcessorGrid::balanced_rect(6).unwrap(), (2, 3));
        assert_eq!(ProcessorGrid::balanced_rect(8).unwrap(), (2, 4));
        assert_eq!(ProcessorGrid::balanced_rect(12).unwrap(), (3, 4));
        assert_eq!(ProcessorGrid::balanced_rect(16).unwrap(), (4, 4));
        assert_eq!(ProcessorGrid::balanced_rect(7).unwrap(), (1, 7));
        assert!(ProcessorGrid::balanced_rect(0).is_err());
    }

    #[test]
    fn rect_3d_covers_every_rank() {
        for p in 1..=32 {
            for c in 1..=4 {
                let g = ProcessorGrid::rect_3d(p, c).unwrap();
                assert_eq!(g.size(), p, "p = {p}, c = {c}: grid {:?}", g.dims());
                assert!(g.layers() <= c.max(1));
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
    fn coords_roundtrip() {
        let g = ProcessorGrid::explicit(&[3, 4, 2]).unwrap();
        assert_eq!(g.size(), 24);
        for rank in 0..g.size() {
            let c = g.coords_of(rank).unwrap();
            assert_eq!(g.rank_of(c).unwrap(), rank);
        }
        assert!(g.coords_of(24).is_err());
        assert!(g.rank_of([3, 0, 0]).is_err());
    }

    #[test]
    fn explicit_rejects_bad_dims() {
        assert!(ProcessorGrid::explicit(&[]).is_err());
        assert!(ProcessorGrid::explicit(&[2, 0]).is_err());
        assert!(ProcessorGrid::explicit(&[2, 2, 2, 2]).is_err());
    }

    #[test]
    fn row_col_fiber_comms_have_expected_sizes() {
        let p = 8;
        let grid = ProcessorGrid::explicit(&[2, 2, 2]).unwrap();
        let out = Runtime::new(p)
            .run(|ctx| {
                let grid = ProcessorGrid::explicit(&[2, 2, 2]).unwrap();
                let world = ctx.world();
                let row = grid.row_comm(world).unwrap();
                let col = grid.col_comm(world).unwrap();
                let layer = grid.layer_comm(world).unwrap();
                let fiber = grid.fiber_comm(world).unwrap();
                (row.size(), col.size(), layer.size(), fiber.size())
            })
            .unwrap();
        assert_eq!(grid.size(), p);
        for (r, c, l, f) in out.results {
            assert_eq!(r, 2);
            assert_eq!(c, 2);
            assert_eq!(l, 4);
            assert_eq!(f, 2);
        }
    }

    #[test]
    fn fiber_reduction_sums_across_layers() {
        // 2 x 2 x 2 grid; each rank contributes its layer index; the fiber
        // allreduce should give 0 + 1 = 1 everywhere.
        let out = Runtime::new(8)
            .run(|ctx| {
                let grid = ProcessorGrid::explicit(&[2, 2, 2]).unwrap();
                let coords = grid.coords_of(ctx.rank()).unwrap();
                let fiber = grid.fiber_comm(ctx.world()).unwrap();
                fiber.allreduce_sum(&[coords[2] as u64]).unwrap()[0]
            })
            .unwrap();
        assert!(out.results.iter().all(|&v| v == 1));
    }
}
