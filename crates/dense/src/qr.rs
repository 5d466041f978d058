//! Householder QR and the incremental QR used by (block) GMRES.
//!
//! The incremental variant maintains the QR factorization of the block
//! Hessenberg matrix `H̄` while the Arnoldi process appends `p` columns per
//! iteration (the paper, §III-A: "our implementation of (Block) GMRES
//! computes the QR factorization of H̄ₘ incrementally — i.e., p column(s) of
//! Q and R are determined per iteration"). This gives
//!
//! * per-right-hand-side residual norms for free (tail of the transformed
//!   right-hand side),
//! * the triangular solve for the least-squares coefficients `Yₘ`,
//! * the cheap harmonic-Ritz left-hand side of the paper's eq. (2).

use crate::tri;
use crate::DMat;
use kryst_scalar::Scalar;

/// Generate an elementary (complex-capable) Householder reflector.
///
/// Given `x`, computes `tau` and overwrites `x` with `[beta, v₁, …]` such that
/// `H = I − tau·v·vᴴ` (with `v₀ = 1`) maps the original `x` to `beta·e₁`,
/// `beta` real. Returns `tau` (zero means "no reflection needed").
pub fn householder_reflector<S: Scalar>(x: &mut [S]) -> S {
    let n = x.len();
    if n == 0 {
        return S::zero();
    }
    let alpha = x[0];
    let mut xnorm_sqr = 0.0;
    for &v in &x[1..] {
        xnorm_sqr += v.abs_sqr();
    }
    if xnorm_sqr == 0.0 && alpha.im() == 0.0 {
        return S::zero(); // already of the form beta·e₁ with beta real
    }
    let beta_mag = (alpha.abs_sqr() + xnorm_sqr).sqrt();
    // beta takes the opposite sign of Re(alpha) for stability.
    let beta = if alpha.re() >= 0.0 {
        -beta_mag
    } else {
        beta_mag
    };
    let beta_s = S::from_f64(beta);
    let tau = (beta_s - alpha) / beta_s;
    let scale = S::one() / (alpha - beta_s);
    for v in &mut x[1..] {
        *v *= scale;
    }
    x[0] = beta_s;
    tau
}

/// Apply `H = I − t·v·vᴴ` to rows `r0..` of one column; `v` has an implicit
/// leading 1 followed by `vtail`.
fn reflect_col<S: Scalar>(col: &mut [S], r0: usize, vtail: &[S], t: S) {
    // w = vᴴ·col = col[r0] + Σ conj(vtail)·col[r0+1..]
    let mut w = col[r0];
    for (i, &vi) in vtail.iter().enumerate() {
        w += vi.conj() * col[r0 + 1 + i];
    }
    w *= t;
    col[r0] -= w;
    for (i, &vi) in vtail.iter().enumerate() {
        col[r0 + 1 + i] -= vi * w;
    }
}

/// Apply `H = I − tau·v·vᴴ` (or its adjoint) to rows `r0..r0+len` of the
/// columns `cols` of `m`. `v` has implicit leading 1 followed by `vtail`.
fn apply_reflector<S: Scalar>(
    m: &mut DMat<S>,
    r0: usize,
    vtail: &[S],
    tau: S,
    adjoint: bool,
    col_range: std::ops::Range<usize>,
) {
    if tau == S::zero() {
        return;
    }
    let t = if adjoint { tau.conj() } else { tau };
    for j in col_range {
        reflect_col(m.col_mut(j), r0, vtail, t);
    }
}

/// Apply the adjoint of the reflector stored in column `k` of `m` (rows
/// `k+1..row_end` hold its tail) to other columns `cols` of `m` itself.
fn apply_stored_reflector<S: Scalar>(
    m: &mut DMat<S>,
    k: usize,
    row_end: usize,
    tau: S,
    cols: std::ops::Range<usize>,
) {
    if tau == S::zero() {
        return;
    }
    for j in cols {
        let (col, refl) = m.two_cols_mut(j, k);
        reflect_col(col, k, &refl[k + 1..row_end], tau.conj());
    }
}

/// Compact Householder QR factorization `A = Q·R`.
///
/// Reflector vectors are stored below the diagonal of `qr`, `R` on and above
/// it, LAPACK-style.
pub struct HouseholderQr<S> {
    qr: DMat<S>,
    tau: Vec<S>,
}

impl<S: Scalar> HouseholderQr<S> {
    /// Factor `a` (consumed). Requires `nrows ≥ ncols`.
    pub fn factor(mut a: DMat<S>) -> Self {
        let _t = kryst_obs::traced(kryst_obs::SpanKind::SmallDense);
        let m = a.nrows();
        let n = a.ncols();
        assert!(m >= n, "HouseholderQr requires a tall (or square) matrix");
        let mut tau = Vec::with_capacity(n);
        for k in 0..n {
            let t = {
                let col = &mut a.col_mut(k)[k..m];
                householder_reflector(col)
            };
            tau.push(t);
            let vtail = a.col(k)[k + 1..m].to_vec();
            apply_reflector(&mut a, k, &vtail, t, true, k + 1..n);
        }
        Self { qr: a, tau }
    }

    /// Number of rows of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.qr.nrows()
    }

    /// Number of columns (= number of reflectors).
    pub fn ncols(&self) -> usize {
        self.qr.ncols()
    }

    /// The upper-triangular factor `R` (`n × n`).
    pub fn r(&self) -> DMat<S> {
        let n = self.ncols();
        DMat::from_fn(
            n,
            n,
            |i, j| if i <= j { self.qr[(i, j)] } else { S::zero() },
        )
    }

    /// Apply `Qᴴ` to `b` in place (`b` must have `nrows` rows).
    pub fn apply_qh(&self, b: &mut DMat<S>) {
        assert_eq!(b.nrows(), self.nrows());
        let m = self.nrows();
        for k in 0..self.ncols() {
            let vtail = self.qr.col(k)[k + 1..m].to_vec();
            apply_reflector(b, k, &vtail, self.tau[k], true, 0..b.ncols());
        }
    }

    /// Apply `Q` to `b` in place.
    pub fn apply_q(&self, b: &mut DMat<S>) {
        assert_eq!(b.nrows(), self.nrows());
        let m = self.nrows();
        for k in (0..self.ncols()).rev() {
            let vtail = self.qr.col(k)[k + 1..m].to_vec();
            apply_reflector(b, k, &vtail, self.tau[k], false, 0..b.ncols());
        }
    }

    /// Thin `Q` factor (`m × n`).
    pub fn q_thin(&self) -> DMat<S> {
        let m = self.nrows();
        let n = self.ncols();
        let mut q = DMat::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = S::one();
        }
        self.apply_q(&mut q);
        q
    }

    /// Least-squares solution of `min ‖A·x − b‖` for each column of `b`.
    pub fn solve_ls(&self, b: &DMat<S>) -> DMat<S> {
        let n = self.ncols();
        let mut work = b.clone();
        self.apply_qh(&mut work);
        let mut x = work.block(0, 0, n, b.ncols());
        tri::solve_upper_in_place(&self.r(), n, &mut x);
        x
    }
}

/// Incrementally updated QR factorization for (block) Hessenberg systems.
///
/// Columns arrive `p` at a time; each new column is reduced by the previously
/// stored reflectors, then a fresh reflector annihilates its subdiagonal
/// entries. The transformed least-squares right-hand side `g = Qᴴ·[S₁; 0]` is
/// maintained alongside, so the current residual norm of right-hand side `l`
/// is the norm of the tail of `g`'s column `l`.
pub struct IncrementalQr<S> {
    /// Reflectors (below diagonal) and `R` (upper triangle); `max_rows × max_cols`.
    fac: DMat<S>,
    tau: Vec<S>,
    /// Row extent of each reflector: reflector `k` acts on rows `k..row_end[k]`.
    row_end: Vec<usize>,
    /// Transformed right-hand side `Qᴴ·[S₁; 0]`, `max_rows × p`.
    g: DMat<S>,
    ncols: usize,
    nrows: usize,
    p: usize,
}

impl<S: Scalar> IncrementalQr<S> {
    /// Workspace for at most `max_block_cols` block columns of width `p`.
    pub fn new(max_block_cols: usize, p: usize) -> Self {
        let max_cols = max_block_cols * p;
        let max_rows = (max_block_cols + 1) * p;
        Self {
            fac: DMat::zeros(max_rows, max_cols),
            tau: Vec::with_capacity(max_cols),
            row_end: Vec::with_capacity(max_cols),
            g: DMat::zeros(max_rows, p),
            ncols: 0,
            nrows: p,
            p,
        }
    }

    /// Reset for a new cycle with initial right-hand-side block `s1` (`p × p`;
    /// for `p = 1`, the scalar `‖r₀‖`).
    pub fn reset(&mut self, s1: &DMat<S>) {
        assert_eq!(s1.nrows(), self.p);
        assert_eq!(s1.ncols(), self.p);
        self.fac.set_zero();
        self.g.set_zero();
        self.tau.clear();
        self.row_end.clear();
        self.ncols = 0;
        self.nrows = self.p;
        self.g.set_block(0, 0, s1);
    }

    /// Number of scalar columns factored so far.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Block width `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Append one block column of the block Hessenberg matrix.
    ///
    /// `cols` is `(j+2)p × p` where `j` is the number of block columns already
    /// absorbed — i.e. the new Hessenberg block column including its
    /// subdiagonal block.
    pub fn push_block(&mut self, cols: &DMat<S>) {
        let j = self.ncols / self.p;
        let new_rows = (j + 2) * self.p;
        assert_eq!(cols.nrows(), new_rows, "Hessenberg column height mismatch");
        assert_eq!(cols.ncols(), self.p);
        let c0 = self.ncols;
        // Stage the new columns into the factor storage.
        self.fac.set_block(0, c0, cols);
        // Reduce by existing reflectors.
        for k in 0..c0 {
            apply_stored_reflector(
                &mut self.fac,
                k,
                self.row_end[k],
                self.tau[k],
                c0..c0 + self.p,
            );
        }
        // Create new reflectors for the p new columns.
        for t in 0..self.p {
            let k = c0 + t;
            let tau = {
                let col = &mut self.fac.col_mut(k)[k..new_rows];
                householder_reflector(col)
            };
            self.tau.push(tau);
            self.row_end.push(new_rows);
            // Reduce the remaining new columns …
            apply_stored_reflector(&mut self.fac, k, new_rows, tau, k + 1..c0 + self.p);
            // … and the transformed right-hand side.
            let vtail = &self.fac.col(k)[k + 1..new_rows];
            apply_reflector(&mut self.g, k, vtail, tau, true, 0..self.p);
        }
        self.ncols += self.p;
        self.nrows = new_rows;
    }

    /// Residual norm of right-hand side `l`: `‖g[ncols.., l]‖`.
    pub fn residual_norm(&self, l: usize) -> f64 {
        let mut acc = 0.0;
        let col = self.g.col(l);
        for &v in &col[self.ncols..self.nrows] {
            acc += v.abs_sqr();
        }
        acc.sqrt()
    }

    /// All residual norms.
    pub fn residual_norms(&self) -> Vec<f64> {
        (0..self.p).map(|l| self.residual_norm(l)).collect()
    }

    /// Solve for the least-squares coefficients `Y` (`ncols × p`).
    pub fn solve_y(&self) -> DMat<S> {
        let mut y = DMat::zeros(self.ncols, self.p);
        self.solve_y_into(&mut y);
        y
    }

    /// [`IncrementalQr::solve_y`] into the leading `ncols` rows of `y`
    /// (`≥ ncols` rows, `p` columns); allocates nothing.
    pub fn solve_y_into(&self, y: &mut DMat<S>) {
        assert!(y.nrows() >= self.ncols && y.ncols() == self.p);
        for l in 0..self.p {
            y.col_mut(l)[..self.ncols].copy_from_slice(&self.g.col(l)[..self.ncols]);
        }
        tri::solve_upper_in_place(&self.fac, self.ncols, y);
    }

    /// The current `R` factor (`ncols × ncols` upper triangle).
    pub fn r(&self) -> DMat<S> {
        DMat::from_fn(self.ncols, self.ncols, |i, j| {
            if i <= j {
                self.fac[(i, j)]
            } else {
                S::zero()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, Op};
    use kryst_scalar::C64;

    fn check_qr<S: Scalar>(a: &DMat<S>, tol: f64) {
        let f = HouseholderQr::factor(a.clone());
        let q = f.q_thin();
        let r = f.r();
        // A ≈ Q·R
        let qr = matmul(&q, Op::None, &r, Op::None);
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                assert!(
                    (qr[(i, j)] - a[(i, j)]).abs() < tol,
                    "QR reconstruction failed at ({i},{j})"
                );
            }
        }
        // QᴴQ ≈ I
        let qtq = matmul(&q, Op::ConjTrans, &q, Op::None);
        for i in 0..a.ncols() {
            for j in 0..a.ncols() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)].re() - expect).abs() < tol);
                assert!(qtq[(i, j)].im().abs() < tol);
            }
        }
    }

    #[test]
    fn qr_real_tall() {
        let a = DMat::<f64>::from_fn(9, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        check_qr(&a, 1e-12);
    }

    #[test]
    fn qr_complex_tall() {
        let a = DMat::<C64>::from_fn(8, 5, |i, j| {
            C64::from_parts(
                ((i * 5 + j) % 7) as f64 - 3.0,
                ((i + j * 3) % 5) as f64 - 2.0,
            )
        });
        check_qr(&a, 1e-12);
    }

    #[test]
    fn qr_least_squares_matches_normal_equations() {
        let a = DMat::<f64>::from_fn(10, 3, |i, j| ((i + 1) as f64).powi(j as i32));
        let b = DMat::<f64>::from_fn(10, 2, |i, j| (i as f64) * 0.5 + j as f64);
        let f = HouseholderQr::factor(a.clone());
        let x = f.solve_ls(&b);
        // Normal equations residual AᴴA x = Aᴴ b
        let ata = matmul(&a, Op::ConjTrans, &a, Op::None);
        let atb = matmul(&a, Op::ConjTrans, &b, Op::None);
        let atax = matmul(&ata, Op::None, &x, Op::None);
        for i in 0..3 {
            for j in 0..2 {
                assert!((atax[(i, j)] - atb[(i, j)]).abs() < 1e-9);
            }
        }
    }

    /// Build a random block Hessenberg matrix with block width p and jmax
    /// block columns and validate the incremental QR against a one-shot QR.
    fn check_incremental(p: usize, jmax: usize) {
        let rows = (jmax + 1) * p;
        let cols = jmax * p;
        // Block Hessenberg: entry (i,q) nonzero iff i < (q/p + 2) * p.
        let h = DMat::<f64>::from_fn(rows, cols, |i, q| {
            if i < (q / p + 2) * p {
                (((i * 13 + q * 7) % 17) as f64) - 8.0
            } else {
                0.0
            }
        });
        let s1 = DMat::<f64>::from_fn(p, p, |i, j| if i <= j { (i + j + 1) as f64 } else { 0.0 });
        let mut rhs = DMat::<f64>::zeros(rows, p);
        rhs.set_block(0, 0, &s1);

        let mut inc = IncrementalQr::new(jmax, p);
        inc.reset(&s1);
        for j in 0..jmax {
            let block = h.block(0, j * p, (j + 2) * p, p);
            inc.push_block(&block);

            // Reference: full QR of the leading (j+2)p × (j+1)p Hessenberg panel.
            let sub = h.block(0, 0, (j + 2) * p, (j + 1) * p);
            let f = HouseholderQr::factor(sub.clone());
            let ls = f.solve_ls(&rhs.block(0, 0, (j + 2) * p, p));
            let y = inc.solve_y();
            for i in 0..(j + 1) * p {
                for l in 0..p {
                    assert!(
                        (y[(i, l)] - ls[(i, l)]).abs() < 1e-9,
                        "LS mismatch at iter {j}, ({i},{l})"
                    );
                }
            }
            // Residual norms must match the true LS residual.
            let ax = matmul(&sub, Op::None, &y, Op::None);
            for l in 0..p {
                let mut acc = 0.0;
                for i in 0..(j + 2) * p {
                    let d = ax[(i, l)] - rhs[(i, l)];
                    acc += d * d;
                }
                let true_res = acc.sqrt();
                assert!(
                    (inc.residual_norm(l) - true_res).abs() < 1e-9,
                    "residual mismatch at iter {j}, rhs {l}: {} vs {}",
                    inc.residual_norm(l),
                    true_res
                );
            }
        }
    }

    #[test]
    fn incremental_qr_scalar() {
        check_incremental(1, 6);
    }

    #[test]
    fn incremental_qr_block() {
        check_incremental(3, 4);
    }

    #[test]
    fn reflector_annihilates() {
        let mut x = vec![3.0f64, 4.0, 0.0, 12.0];
        let orig = x.clone();
        let tau = householder_reflector(&mut x);
        // |beta| = ‖x‖ = 13
        assert!((x[0].abs() - 13.0).abs() < 1e-12);
        // Verify H·orig = beta·e1 by applying the reflector to orig.
        let mut m = DMat::from_col_major(4, 1, orig);
        let vtail = x[1..].to_vec();
        apply_reflector(&mut m, 0, &vtail, tau, true, 0..1);
        assert!((m[(0, 0)] - x[0]).abs() < 1e-12);
        for i in 1..4 {
            assert!(m[(i, 0)].abs() < 1e-12);
        }
    }
}
