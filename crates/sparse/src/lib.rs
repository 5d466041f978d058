#![warn(missing_docs)]
//! Sparse linear algebra for the `kryst` workspace.
//!
//! * [`coo::Coo`] — triplet builder,
//! * [`csr::Csr`] — compressed sparse row storage with SpMV and the
//!   multi-right-hand-side **SpMM** kernel the paper's §V-B2 discusses
//!   (higher arithmetic intensity as `p` grows),
//! * [`ops`] — CSR×CSR products and the Galerkin triple product `RAP`
//!   used by the smoothed-aggregation multigrid,
//! * [`order`] — reverse Cuthill–McKee bandwidth reduction,
//! * [`band`] — banded LU with partial pivoting and **blocked multi-RHS
//!   triangular solves**,
//! * [`direct`] — the sparse direct solver (RCM + banded LU), the workspace's
//!   stand-in for PARDISO (paper §V-B3, Fig. 6),
//! * [`partition`] — coordinate/graph partitioning with δ-layer overlap
//!   growth for the Schwarz preconditioners (stand-in for SCOTCH),
//! * [`workspace`] — the [`workspace::Workspace`] buffer pool that makes
//!   per-iteration kernel and preconditioner calls allocation-free.

pub mod band;
pub mod coo;
pub mod csr;
pub mod direct;
pub mod ops;
pub mod order;
pub mod partition;
pub mod workspace;

pub use coo::Coo;
pub use csr::Csr;
pub use direct::SparseDirect;
pub use workspace::Workspace;
