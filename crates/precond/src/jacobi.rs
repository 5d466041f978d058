//! Point Jacobi preconditioning / smoothing.

use kryst_dense::DMat;
use kryst_par::PrecondOp;
use kryst_scalar::Scalar;
use kryst_sparse::Csr;

/// Diagonal (Jacobi) preconditioner `M⁻¹ = ω·D⁻¹`.
pub struct Jacobi<S> {
    inv_diag: Vec<S>,
    weight: S,
}

impl<S: Scalar> Jacobi<S> {
    /// Build from the matrix diagonal with damping weight `omega`
    /// (1.0 = plain Jacobi, ≈0.67 for smoothing).
    pub fn new(a: &Csr<S>, omega: f64) -> Self {
        Self::with_diag(&a.diag(), omega)
    }

    /// Build from an already-extracted diagonal — lets callers that have
    /// scanned the matrix once (e.g. AMG setup) avoid a second `diag()`
    /// pass.
    pub fn with_diag(diag: &[S], omega: f64) -> Self {
        let inv_diag = diag
            .iter()
            .map(|&d| {
                assert!(d != S::zero(), "Jacobi: zero diagonal entry");
                S::one() / d
            })
            .collect();
        Self {
            inv_diag,
            weight: S::from_f64(omega),
        }
    }

    /// One smoothing sweep: `x ⟵ x + ω·D⁻¹·(b − A·x)` repeated `iters` times.
    pub fn smooth(&self, a: &Csr<S>, b: &DMat<S>, x: &mut DMat<S>, iters: usize) {
        let mut r = DMat::zeros(b.nrows(), b.ncols());
        self.smooth_with(a, b, x, iters, &mut r);
    }

    /// [`Jacobi::smooth`] with caller-provided residual scratch (`n × p`):
    /// performs no allocations.
    pub fn smooth_with(
        &self,
        a: &Csr<S>,
        b: &DMat<S>,
        x: &mut DMat<S>,
        iters: usize,
        r: &mut DMat<S>,
    ) {
        for _ in 0..iters {
            a.spmm(x, r);
            for j in 0..b.ncols() {
                let bj = b.col(j);
                let rj = r.col(j);
                let xj = x.col_mut(j);
                for i in 0..bj.len() {
                    xj[i] += self.weight * self.inv_diag[i] * (bj[i] - rj[i]);
                }
            }
        }
    }
}

impl<S: Scalar> PrecondOp<S> for Jacobi<S> {
    fn nrows(&self) -> usize {
        self.inv_diag.len()
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let _sp = kryst_obs::traced(kryst_obs::SpanKind::PrecondApply);
        // `r` and `z` are distinct borrows — scale straight across, no
        // per-column clone.
        for j in 0..r.ncols() {
            let rj = r.col(j);
            let zj = z.col_mut(j);
            for i in 0..rj.len() {
                zj[i] = self.weight * self.inv_diag[i] * rj[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_sparse::Coo;

    fn spd(n: usize) -> Csr<f64> {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0 + i as f64 * 0.1);
            if i > 0 {
                c.push(i, i - 1, -1.0);
                c.push(i - 1, i, -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn apply_scales_by_inverse_diagonal() {
        let a = spd(5);
        let m = Jacobi::new(&a, 1.0);
        let r = DMat::from_fn(5, 1, |i, _| (i + 1) as f64);
        let z = m.apply_new(&r);
        for i in 0..5 {
            assert!((z[(i, 0)] - (i + 1) as f64 / (4.0 + i as f64 * 0.1)).abs() < 1e-14);
        }
    }

    #[test]
    fn smoothing_reduces_residual() {
        let a = spd(30);
        let m = Jacobi::new(&a, 0.8);
        let b = DMat::from_fn(30, 2, |i, j| ((i + j) % 5) as f64);
        let mut x = DMat::zeros(30, 2);
        let r0 = b.fro_norm();
        m.smooth(&a, &b, &mut x, 10);
        let mut r = a.apply(&x);
        r.axpy(-1.0, &b);
        assert!(
            r.fro_norm() < 0.5 * r0,
            "residual {} vs {}",
            r.fro_norm(),
            r0
        );
    }
}
