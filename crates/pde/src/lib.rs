#![warn(missing_docs)]
//! PDE problem generators for the paper's three experiment families.
//!
//! * [`poisson`] — 2-D Poisson with the paper's four ν-parameterized
//!   right-hand sides (the `ex32` analogue of §IV-B),
//! * [`elasticity`] — 3-D Q1 linear elasticity on the unit cube with the
//!   paper's moving spherical inclusion and rigid-body near-nullspace (the
//!   `ex56` analogue of §IV-C),
//! * [`maxwell`] — time-harmonic Maxwell curl–curl on a staggered (Yee) edge
//!   grid with complex heterogeneous media and ring-of-antenna right-hand
//!   sides (the §V imaging-chamber analogue; see DESIGN.md for the
//!   discretization substitution),
//! * [`heat`] — implicit heat stepping: one operator, a sequence of
//!   right-hand sides (the non-variable-systems workload of §III-B).

pub mod elasticity;
pub mod heat;
pub mod maxwell;
pub mod poisson;

use kryst_dense::DMat;
use kryst_scalar::Scalar;
use kryst_sparse::Csr;

/// A generated linear problem.
pub struct Problem<S: Scalar> {
    /// System matrix.
    pub a: Csr<S>,
    /// Point coordinates of each unknown (for geometric partitioning).
    pub coords: Vec<Vec<f64>>,
    /// Near-nullspace vectors for smoothed-aggregation AMG (constants,
    /// rigid-body modes, …); `None` when not applicable.
    pub near_nullspace: Option<DMat<S>>,
}
