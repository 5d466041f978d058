//! Chebyshev polynomial smoother.
//!
//! PETSc's default multigrid smoother; a *linear* (non-variable)
//! preconditioner, which is why the paper's §IV-C can use plain right
//! preconditioning with LGMRES/GCRO-DR when Chebyshev smooths the V-cycle.
//! Targets the upper part `[λ_max/ratio, 1.1·λ_max]` of the spectrum of
//! `D⁻¹·A`, with `λ_max` estimated by a few power iterations.

use kryst_dense::DMat;
use kryst_par::PrecondOp;
use kryst_scalar::Scalar;
use kryst_sparse::{Csr, Workspace};
use std::sync::Mutex;

/// Chebyshev smoother of fixed degree.
pub struct Chebyshev<S: Scalar> {
    a: Csr<S>,
    inv_diag: Vec<S>,
    degree: usize,
    /// Smoothing interval `[lo, hi]` on the spectrum of `D⁻¹A`.
    lo: f64,
    hi: f64,
    /// Scratch pool for standalone applies (`apply` takes `&self`); AMG
    /// threads its own pool through [`Chebyshev::smooth_ws`] instead.
    ws: Mutex<Workspace<S>>,
}

impl<S: Scalar> Chebyshev<S> {
    /// Build a degree-`degree` smoother; `ratio` sets the targeted interval
    /// (PETSc default ≈ 10: smooth `[λmax/10, 1.1·λmax]`).
    pub fn new(a: &Csr<S>, degree: usize, ratio: f64) -> Self {
        Self::with_diag(a, &a.diag(), degree, ratio)
    }

    /// [`Chebyshev::new`] with an already-extracted diagonal — lets callers
    /// that have scanned the matrix once (e.g. AMG setup) avoid a second
    /// `diag()` pass.
    pub fn with_diag(a: &Csr<S>, diag: &[S], degree: usize, ratio: f64) -> Self {
        let inv_diag: Vec<S> = diag
            .iter()
            .map(|&d| {
                assert!(d != S::zero(), "Chebyshev: zero diagonal");
                S::one() / d
            })
            .collect();
        let lmax = estimate_lmax(a, &inv_diag);
        Self {
            a: a.clone(),
            inv_diag,
            degree,
            lo: lmax / ratio,
            hi: 1.1 * lmax,
            ws: Mutex::new(Workspace::new()),
        }
    }

    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Run `x ⟵ x + p(D⁻¹A)·D⁻¹·(b − A·x)` via the standard three-term
    /// Chebyshev recurrence.
    pub fn smooth(&self, b: &DMat<S>, x: &mut DMat<S>) {
        let mut ws = self.ws.lock().unwrap();
        self.smooth_ws(b, x, &mut ws);
    }

    /// [`Chebyshev::smooth`] drawing its two scratch multivectors from a
    /// caller-provided pool: zero allocations in steady state, and all `p`
    /// columns stream through each matrix sweep.
    pub fn smooth_ws(&self, b: &DMat<S>, x: &mut DMat<S>, ws: &mut Workspace<S>) {
        let n = b.nrows();
        let p = b.ncols();
        let theta = 0.5 * (self.hi + self.lo);
        let delta = 0.5 * (self.hi - self.lo);
        let mut r = ws.take(n, p);
        let mut d = ws.take(n, p);
        // r = D⁻¹(b − A x)
        let residual = |x: &DMat<S>, r: &mut DMat<S>| {
            self.a.spmm(x, r);
            for j in 0..p {
                let bj = b.col(j);
                let rj = r.col_mut(j);
                for i in 0..n {
                    rj[i] = self.inv_diag[i] * (bj[i] - rj[i]);
                }
            }
        };
        residual(x, &mut r);
        // d = r/θ; x += d
        d.copy_from(&r);
        d.scale(S::from_f64(1.0 / theta));
        x.axpy(S::one(), &d);
        let sigma = theta / delta;
        let mut rho = 1.0 / sigma;
        for _ in 1..self.degree {
            residual(x, &mut r);
            let rho_next = 1.0 / (2.0 * sigma - rho);
            // d ⟵ ρ'ρ·d + 2ρ'/δ·r
            let c1 = S::from_f64(rho_next * rho);
            let c2 = S::from_f64(2.0 * rho_next / delta);
            for j in 0..p {
                let rj = r.col(j);
                let dj = d.col_mut(j);
                for i in 0..n {
                    dj[i] = c1 * dj[i] + c2 * rj[i];
                }
            }
            x.axpy(S::one(), &d);
            rho = rho_next;
        }
        ws.put(r);
        ws.put(d);
    }
}

/// Power iteration estimate of `λ_max(D⁻¹A)`.
fn estimate_lmax<S: Scalar>(a: &Csr<S>, inv_diag: &[S]) -> f64 {
    let n = a.nrows();
    let mut v: Vec<S> = (0..n)
        .map(|i| S::from_f64(1.0 + 0.3 * ((i * 7 % 13) as f64 - 6.0) / 6.0))
        .collect();
    let mut w = vec![S::zero(); n];
    let mut lmax = 1.0f64;
    for _ in 0..12 {
        a.spmv(&v, &mut w);
        let mut norm = 0.0f64;
        for i in 0..n {
            w[i] *= inv_diag[i];
            norm += w[i].abs_sqr();
        }
        let norm = norm.sqrt();
        if norm == 0.0 {
            break;
        }
        lmax = norm;
        let inv = S::from_f64(1.0 / norm);
        for i in 0..n {
            v[i] = w[i] * inv;
        }
    }
    lmax
}

impl<S: Scalar> PrecondOp<S> for Chebyshev<S> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let _sp = kryst_obs::traced(kryst_obs::SpanKind::PrecondApply);
        z.set_zero();
        self.smooth(r, z);
    }
    // Chebyshev is a fixed polynomial in A: a LINEAR preconditioner.
    fn is_variable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_pde::poisson::laplace1d;

    #[test]
    fn lmax_estimate_close_to_two() {
        // λmax(D⁻¹A) for the 1D Laplacian tends to 2.
        let a = laplace1d(50);
        let inv_diag: Vec<f64> = a.diag().iter().map(|d| 1.0 / d).collect();
        let l = estimate_lmax(&a, &inv_diag);
        assert!(l > 1.5 && l < 2.2, "λmax estimate {l}");
    }

    #[test]
    fn smoother_damps_high_frequencies() {
        let n = 64;
        let a = laplace1d(n);
        let cheb = Chebyshev::new(&a, 4, 10.0);
        // Error = highest-frequency mode; solve A x = 0 starting from it.
        let mut x = DMat::from_fn(n, 1, |i, _| if i % 2 == 0 { 1.0 } else { -1.0 });
        let b = DMat::zeros(n, 1);
        let e0 = x.fro_norm();
        cheb.smooth(&b, &mut x);
        let e1 = x.fro_norm();
        assert!(e1 < 0.15 * e0, "high-frequency error {e0} → {e1}");
    }

    #[test]
    fn smoother_shares_the_operator() {
        let a = laplace1d::<f64>(20);
        assert!(Chebyshev::new(&a, 3, 10.0).a.shares_values(&a));
    }

    #[test]
    fn apply_is_linear() {
        // M⁻¹(αr) = α·M⁻¹r — Chebyshev is a fixed polynomial.
        let a = laplace1d::<f64>(20);
        let cheb = Chebyshev::new(&a, 3, 10.0);
        let r = DMat::from_fn(20, 1, |i, _| (i as f64).sin());
        let mut r2 = r.clone();
        r2.scale(3.0);
        let z1 = cheb.apply_new(&r);
        let z2 = cheb.apply_new(&r2);
        for i in 0..20 {
            assert!((z2[(i, 0)] - 3.0 * z1[(i, 0)]).abs() < 1e-12);
        }
        assert!(!PrecondOp::<f64>::is_variable(&cheb));
    }
}
