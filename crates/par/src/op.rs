//! Operator and preconditioner abstractions.
//!
//! The solvers in `kryst-core` are written against [`LinOp`] and
//! [`PrecondOp`] so the same GCRO-DR code runs on a plain [`Csr`] (tests),
//! an instrumented [`DistOp`] (scaling experiments), or a shell/composite
//! operator (the projected operator `(I − C_k·C_kᴴ)·A` of Fig. 1 line 26).

use crate::halo::HaloPlan;
use crate::{CommStats, Layout};
use kryst_dense::DMat;
use kryst_obs::{traced, SpanKind};
use kryst_scalar::Scalar;
use kryst_sparse::{Csr, RowSplit};
use std::sync::Arc;

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

/// An instrumented, "distributed" sparse operator.
///
/// Arithmetic is performed on the full matrix with thread-parallel kernels
/// (bit-identical to the sharded SPMD execution); every `apply` additionally
/// records the halo-exchange messages and the local flops that a real
/// distributed run over [`Layout`] would incur.
///
/// The SpMM is **overlapped**: rows whose couplings stay inside their
/// owner's range (the [`RowSplit`] interior) are computed first — in a real
/// run they proceed while the halo exchange is on the wire — and the
/// boundary rows finish after the exchange. The interior flops are reported
/// via `record_overlap_flops`, which lets the cost model charge
/// `max(interior_compute, halo_message)` instead of their sum. Both halves
/// use the same per-row kernel, so the result stays bit-identical to the
/// unsplit product.
pub struct DistOp<S> {
    a: Csr<S>,
    layout: Layout,
    plan: HaloPlan,
    split: RowSplit,
    stats: Arc<CommStats>,
}

impl<S: Scalar> DistOp<S> {
    /// Wrap `a`, distributed block-row over `nranks` ranks, reporting to
    /// `stats`.
    pub fn new(a: Csr<S>, nranks: usize, stats: Arc<CommStats>) -> Self {
        let layout = Layout::even(a.nrows(), nranks);
        let plan = HaloPlan::build(&a, &layout);
        let ranges: Vec<std::ops::Range<usize>> =
            (0..layout.nranks()).map(|r| layout.range(r)).collect();
        let split = RowSplit::build(&a, &ranges);
        Self {
            a,
            layout,
            plan,
            split,
            stats,
        }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Csr<S> {
        &self.a
    }

    /// The rank layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The halo plan (message pattern per SpMM).
    pub fn plan(&self) -> &HaloPlan {
        &self.plan
    }

    /// The interior/boundary row split driving the overlapped apply.
    pub fn split(&self) -> &RowSplit {
        &self.split
    }

    /// The counters this operator reports to.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    fn bytes_per_scalar() -> usize {
        S::real_words() * std::mem::size_of::<f64>()
    }
}

impl<S: Scalar> LinOp<S> for DistOp<S> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>) {
        let p = x.ncols();
        let bytes = self.plan.bytes_per_exchange(p, Self::bytes_per_scalar());
        // 2 flops per stored nonzero per RHS column (multiply–add); complex
        // scalars cost 4× the real multiply–add.
        let flop_scale = if S::is_complex() { 4 } else { 1 };
        self.stats.record_flops(2 * self.a.nnz() * p * flop_scale);
        if self.split.all_interior() {
            self.stats
                .record_p2p(self.plan.messages_per_exchange, bytes);
            let _t = traced(SpanKind::Spmv);
            self.a.spmm(x, y);
        } else {
            // Overlapped schedule: interior rows proceed while the halo
            // exchange is in flight, boundary rows finish afterwards. The
            // interior product is attributed to `spmv`; the exchange
            // accounting plus the post-exchange boundary rows to `halo`.
            {
                let _t = traced(SpanKind::Spmv);
                self.a.spmm_rows(x, y, &self.split.interior);
            }
            self.stats
                .record_overlap_flops(2 * self.split.interior_nnz * p * flop_scale);
            let _h = traced(SpanKind::Halo);
            self.stats
                .record_p2p(self.plan.messages_per_exchange, bytes);
            self.a.spmm_rows(x, y, &self.split.boundary);
        }
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        Some(self.a.bytes_streamed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_sparse::Coo;

    fn laplace1d(n: usize) -> Csr<f64> {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn dist_op_counts_messages_and_flops() {
        let a = laplace1d(64);
        let nnz = a.nnz();
        let stats = CommStats::new_shared();
        let op = DistOp::new(a, 4, Arc::clone(&stats));
        let x = DMat::from_fn(64, 3, |i, j| (i + j) as f64);
        let _y = op.apply_new(&x);
        let snap = stats.snapshot();
        assert_eq!(snap.p2p_messages as usize, op.plan().messages_per_exchange);
        assert_eq!(snap.flops as usize, 2 * nnz * 3);
        // Result equals the plain SpMM.
        let y2 = op.matrix().apply(&x);
        let y1 = op.apply_new(&x);
        for i in 0..64 {
            for j in 0..3 {
                assert_eq!(y1[(i, j)], y2[(i, j)]);
            }
        }
    }

    #[test]
    fn overlapped_apply_records_interior_flops_and_stays_bit_identical() {
        let a = laplace1d(64);
        let stats = CommStats::new_shared();
        let op = DistOp::new(a.clone(), 4, Arc::clone(&stats));
        assert!(!op.split().all_interior());
        let x = DMat::from_fn(64, 5, |i, j| ((i * 3 + j) % 11) as f64 - 5.0);
        let y = op.apply_new(&x);
        // Bit-identical to the unsplit SpMM.
        let y_plain = a.apply(&x);
        for i in 0..64 {
            for j in 0..5 {
                assert_eq!(y[(i, j)].to_bits(), y_plain[(i, j)].to_bits());
            }
        }
        let snap = stats.snapshot();
        // Total flops unchanged; interior portion flagged overlappable.
        assert_eq!(snap.flops as usize, 2 * a.nnz() * 5);
        assert_eq!(snap.overlap_flops as usize, 2 * op.split().interior_nnz * 5);
        assert!(snap.overlap_flops > 0 && snap.overlap_flops < snap.flops);
        // Single rank: no halo, nothing to overlap.
        let stats1 = CommStats::new_shared();
        let op1 = DistOp::new(a, 1, Arc::clone(&stats1));
        assert!(op1.split().all_interior());
        let _ = op1.apply_new(&x);
        assert_eq!(stats1.snapshot().overlap_flops, 0);
    }

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
