//! Operator and preconditioner abstractions.
//!
//! The solvers in `kryst-core` are written against [`LinOp`] and
//! [`PrecondOp`] so the same GCRO-DR code runs on a plain [`Csr`], a traced
//! wrapper around one, or a shell/composite operator (the projected
//! operator `(I − C_k·C_kᴴ)·A` of Fig. 1 line 26).

use kryst_dense::DMat;
use kryst_obs::{traced, SpanKind};
use kryst_scalar::Scalar;
use kryst_sparse::Csr;

/// Storage precision of a preconditioner's internal data. There is one:
/// factors, hierarchy operators and smoother data are kept in the working
/// scalar `S`.
///
/// The enum and [`PrecondOp::precision`] survive only because the
/// repository benchmark names them (it asserts `precision() == Full` on every
/// preconditioner it measures); nothing in the library branches on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecondPrecision {
    /// Working-precision storage.
    #[default]
    Full,
}

impl PrecondPrecision {
    /// Stable lowercase name (`"full"`).
    pub fn name(self) -> &'static str {
        match self {
            PrecondPrecision::Full => "full",
        }
    }
}

/// A linear operator `y = A·x` acting on multivectors.
pub trait LinOp<S: Scalar>: Send + Sync {
    /// Number of rows (= columns; operators here are square).
    fn nrows(&self) -> usize;
    /// `y ⟵ A·x` where `x` and `y` are `n × p`. Every entry of `y` is
    /// written and none is read: solvers pass storage with stale contents.
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>);
    /// `r ⟵ b − A·x`, rounded as `−(A·x) + b`. Operators that can form it
    /// in one sweep override this; the rounding is part of the contract, so
    /// a solve does not depend on which operator type carries the matrix.
    fn residual(&self, b: &DMat<S>, x: &DMat<S>, r: &mut DMat<S>) {
        self.apply(x, r);
        r.scale(-S::one());
        r.axpy(S::one(), b);
    }
    /// Allocating convenience wrapper.
    fn apply_new(&self, x: &DMat<S>) -> DMat<S> {
        let mut y = DMat::zeros(self.nrows(), x.ncols());
        self.apply(x, &mut y);
        y
    }
    /// Bytes of *operator data* (values, indices, row pointers — not the
    /// multivectors) streamed by one apply, when the operator can account
    /// for it; `None` means unknown.
    fn bytes_per_apply(&self) -> Option<usize> {
        None
    }
}

/// A preconditioner `z = M⁻¹·r`.
pub trait PrecondOp<S: Scalar>: Send + Sync {
    /// Problem size.
    fn nrows(&self) -> usize;
    /// `z ⟵ M⁻¹·r`. Every entry of `z` is written and its old contents do
    /// not matter: solvers pass storage with stale contents.
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>);
    /// True when the preconditioner is nonlinear / nondeterministic (e.g. an
    /// inner Krylov smoother), which forces the flexible solver variants —
    /// exactly the situation of the paper's §III-C.
    fn is_variable(&self) -> bool {
        false
    }
    /// Storage precision of the preconditioner's internal data.
    fn precision(&self) -> PrecondPrecision {
        PrecondPrecision::Full
    }
    /// Bytes of preconditioner data streamed by one apply (estimate;
    /// `None` means unknown). See [`LinOp::bytes_per_apply`].
    fn bytes_per_apply(&self) -> Option<usize> {
        None
    }
    /// Allocating convenience wrapper.
    fn apply_new(&self, r: &DMat<S>) -> DMat<S> {
        let mut z = DMat::zeros(self.nrows(), r.ncols());
        self.apply(r, &mut z);
        z
    }
}

impl<S: Scalar> LinOp<S> for Csr<S> {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>) {
        let _t = traced(SpanKind::Spmv);
        self.spmm(x, y);
    }
    fn residual(&self, b: &DMat<S>, x: &DMat<S>, r: &mut DMat<S>) {
        let _t = traced(SpanKind::Spmv);
        Csr::residual(self, b, x, r);
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        Some(self.bytes_streamed())
    }
}

/// The identity preconditioner (unpreconditioned solves).
#[derive(Debug, Clone)]
pub struct IdentityPrecond {
    n: usize,
}

impl IdentityPrecond {
    /// Identity of dimension `n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl<S: Scalar> PrecondOp<S> for IdentityPrecond {
    fn nrows(&self) -> usize {
        self.n
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        z.copy_from(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precond_precision_env_and_names() {
        assert_eq!(PrecondPrecision::default(), PrecondPrecision::Full);
        assert_eq!(PrecondPrecision::Full.name(), "full");
        let m = IdentityPrecond::new(3);
        assert_eq!(
            PrecondOp::<f64>::precision(&m),
            PrecondPrecision::Full,
            "default precision is full"
        );
    }

    #[test]
    fn identity_precond_copies() {
        let m = IdentityPrecond::new(5);
        let r = DMat::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        let z = PrecondOp::<f64>::apply_new(&m, &r);
        assert_eq!(z, r);
        assert!(!PrecondOp::<f64>::is_variable(&m));
    }
}
