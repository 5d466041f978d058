#![warn(missing_docs)]
//! Dense linear-algebra kernels for the `kryst` workspace.
//!
//! Everything a block/recycling Krylov solver needs on the *small* side of the
//! problem — matrices of dimension `O(m·p)` where `m` is the restart length
//! and `p` the number of right-hand sides:
//!
//! * [`DMat`]: a column-major dense matrix / multivector,
//! * [`gemm`]: general matrix–matrix multiply with (conjugate-)transpose ops,
//! * [`qr`]: Householder QR and the [`qr::IncrementalQr`] used to factorize
//!   the block Hessenberg matrix one block column per iteration (the paper's
//!   eq. (2) relies on this),
//! * [`chol`]: Cholesky, pivoted (rank-revealing) Cholesky, and CholQR — the
//!   orthogonalization scheme the paper advocates (§III-A),
//! * [`gs`]: the low-synchronization fused CholQR block orthogonalization
//!   (§III-D), the one orthogonalization step of the Arnoldi cycles,
//! * [`fused`]: fused Gram+projection products — `[CᴴW; VᴴW; WᴴW]` in one
//!   sweep, one reduction instead of `j+2`,
//! * [`lanes`]: scalars in vector lanes as planes of reals, the tile row of
//!   the banded solve and of the complex fused sweeps,
//! * [`lu`]: LU with partial pivoting (complex-capable),
//! * [`eig`]: complex Hessenberg QR eigensolver with Schur vectors, plus the
//!   generalized eigensolver used by GCRO-DR's deflation (eq. (3)),
//! * [`tri`]: triangular multi-RHS solves.
//!
//! All kernels are generic over [`kryst_scalar::Scalar`] so the same code
//! serves real (Poisson, elasticity) and complex (Maxwell) problems.

pub mod blas;
pub mod chol;
pub mod eig;
pub mod fused;
pub mod gs;
pub mod lanes;
pub mod lu;
pub mod mat;
pub mod qr;
pub mod tri;

pub use blas::{gemm, Op};
pub use mat::DMat;

/// Convenience re-export of the scalar abstraction.
pub use kryst_scalar::{Scalar, C64};
