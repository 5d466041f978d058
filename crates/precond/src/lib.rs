#![warn(missing_docs)]
//! Preconditioners for the `kryst` solvers.
//!
//! * [`jacobi`] — point Jacobi / weighted Jacobi,
//! * [`chebyshev`] — Chebyshev polynomial smoothing (PETSc's default
//!   multigrid smoother, used in the paper's §IV-C LGMRES comparison),
//! * [`smoother`] — fixed-iteration inner Krylov smoothers (GMRES(s),
//!   CG(s)); using one of these anywhere makes the enclosing preconditioner
//!   *variable* and forces the flexible outer solvers, exactly the setup the
//!   paper engineers in §IV ("to make the multigrid cycles nonlinear"),
//! * [`amg`] — smoothed-aggregation algebraic multigrid with a strength
//!   threshold mirroring `-pc_gamg_threshold` and near-nullspace support
//!   (the GAMG stand-in),
//! * [`schwarz`] — one-level overlapping Schwarz: ASM, RAS, and the
//!   optimized ORAS variant of the paper's eq. (6) with impedance interface
//!   conditions for Maxwell.

pub mod amg;
pub mod chebyshev;
pub mod jacobi;
pub mod schwarz;
pub mod smoother;

pub use amg::{Amg, AmgOpts, SmootherKind};
pub use chebyshev::Chebyshev;
pub use jacobi::Jacobi;
pub use schwarz::{Schwarz, SchwarzOpts, SchwarzVariant};
