//! # gas-sparse — sparse linear algebra for SimilarityAtScale
//!
//! The paper implements its algebraic Jaccard formulation on top of the
//! Cyclops Tensor Framework: distributed sparse matrices with arbitrary
//! element types, user-defined semirings (the popcount-AND kernel), and a
//! sparse × sparse product with a **dense** output. This crate provides
//! the same building blocks in pure Rust:
//!
//! * local formats — [`coo::CooMatrix`], [`csr::CsrMatrix`],
//!   [`csc::CscMatrix`], [`dense::DenseMatrix`], and the bit-packed
//!   [`bitmat::BitMatrix`] used after the paper's masking step;
//! * algebraic structures — [`semiring::Semiring`] with the popcount-AND
//!   instance used by the algorithm and the plus-times one its reference
//!   kernels are checked with;
//! * local kernels — the `AᵀA`-with-dense-output kernels in [`spgemm`],
//!   including a Rayon-parallel variant for on-node (intra-rank)
//!   parallelism;
//! * distributed objects — the zero-row filter (an OR-allreduce of
//!   packed row bitmaps) and SUMMA / 2.5D distributed `AᵀA` over a
//!   [`gas_dstsim::ProcessorGrid`] in [`dist`].
//!
//! ```
//! use gas_sparse::coo::CooMatrix;
//! use gas_sparse::semiring::PlusTimes;
//! use gas_sparse::spgemm::ata_dense;
//!
//! // A 3x2 boolean indicator matrix with samples {0,1} and {1,2}.
//! let mut a = CooMatrix::<u64>::new(3, 2);
//! a.push(0, 0, 1).unwrap();
//! a.push(1, 0, 1).unwrap();
//! a.push(1, 1, 1).unwrap();
//! a.push(2, 1, 1).unwrap();
//! let csr = a.to_csr();
//! let b = ata_dense::<PlusTimes<u64>>(&csr);
//! assert_eq!(b.get(0, 0), 2); // |X0| = 2
//! assert_eq!(b.get(0, 1), 1); // |X0 ∩ X1| = 1
//! assert_eq!(b.get(1, 1), 2); // |X1| = 2
//! ```

// The popcount dispatch in `spgemm` (POPCNT and AVX-512 VPOPCNTDQ) is the
// one exception.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bitmat;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod dist;
pub mod error;
pub mod semiring;
pub mod spgemm;
#[cfg(test)]
pub(crate) mod testutil;

pub use bitmat::BitMatrix;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{SparseError, SparseResult};
