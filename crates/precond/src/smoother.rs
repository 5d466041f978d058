//! Fixed-iteration inner Krylov smoothers.
//!
//! The paper deliberately uses `-mg_levels_ksp_type gmres` / `cg` "to make
//! the multigrid cycles nonlinear" (§IV-B/C): an inner Krylov iteration is a
//! *different* linear operator for every input, so the outer method must be
//! flexible (FGMRES / FGCRO-DR). These smoothers are compact, fixed-step,
//! unrestarted implementations — deliberately separate from the full solvers
//! in `kryst-core`, mirroring how PETSc's smoothers are distinct KSP objects.

use kryst_dense::{qr::IncrementalQr, DMat};
use kryst_scalar::{Real, Scalar};
use kryst_sparse::Csr;

/// Everything the smoothers need besides their arguments, sized when the
/// hierarchy is set up. All levels share one: a level's smoothing is finished
/// before the cycle descends, so no two levels use it at the same time.
pub struct KrylovScratch<S> {
    /// Column-major `n`-vectors: Arnoldi vectors `v_1..v_s` (GMRES; `v_0`
    /// lives in the caller's residual) or direction, `A·d` and the correction
    /// (CG). Zero pages until the first smoothing touches them.
    vecs: Vec<S>,
    qr: IncrementalQr<S>,
    /// `‖r‖` as the `1 × 1` block [`IncrementalQr::reset`] takes.
    s1: DMat<S>,
    /// Hessenberg column `j`, `(j + 2) × 1`.
    hcols: Vec<DMat<S>>,
    y: DMat<S>,
}

impl<S: Scalar> KrylovScratch<S> {
    /// Scratch for [`gmres_smooth`] with at most `iters` steps on operators
    /// of at most `n` rows.
    pub fn gmres(n: usize, iters: usize) -> Self {
        Self {
            vecs: vec![S::zero(); n * iters],
            qr: IncrementalQr::new(iters, 1),
            s1: DMat::zeros(1, 1),
            hcols: (0..iters).map(|j| DMat::zeros(j + 2, 1)).collect(),
            y: DMat::zeros(iters, 1),
        }
    }

    /// Scratch for [`cg_smooth`] on operators of at most `n` rows.
    pub fn cg(n: usize) -> Self {
        Self {
            vecs: vec![S::zero(); 3 * n],
            ..Self::gmres(0, 0)
        }
    }
}

/// Euclidean norm, summed in index order.
fn norm<S: Scalar>(v: &[S]) -> S::Real {
    let mut acc = S::Real::zero();
    for &x in v {
        acc += x.abs_sqr();
    }
    acc.sqrt()
}

/// `x ⟵ x + z`, where `z` is `iters` unpreconditioned GMRES steps on
/// `A·z = r` from zero, per column. No restarts, no convergence test — a
/// smoother, not a solver. `r` is consumed: its column becomes the first
/// Arnoldi vector; `A·v_j` is written straight into the next basis column
/// in `ks` and orthogonalized there, so nothing is allocated. A column with
/// `‖r‖ ≤ ε` is left as it is. `ks` must come from
/// [`KrylovScratch::gmres`] for at least this many rows and steps.
pub fn gmres_smooth<S: Scalar>(
    a: &Csr<S>,
    r: &mut DMat<S>,
    x: &mut DMat<S>,
    iters: usize,
    ks: &mut KrylovScratch<S>,
) {
    let n = a.nrows();
    if iters == 0 {
        return;
    }
    let later = &mut ks.vecs[..n * iters];
    // Column-at-a-time: smoother iteration counts are tiny (1–4).
    for col in 0..r.ncols() {
        let (v0, xc) = (r.col_mut(col), x.col_mut(col));
        let beta = norm(v0);
        if beta <= S::Real::epsilon() {
            continue;
        }
        let inv = S::one() / S::from_real(beta);
        v0.iter_mut().for_each(|v| *v *= inv);
        ks.s1[(0, 0)] = S::from_real(beta);
        ks.qr.reset(&ks.s1);
        let mut actual = 0;
        for j in 0..iters {
            // v_1..v_j are done; w becomes v_{j+1}.
            let (done, w) = later.split_at_mut(j * n);
            let w = &mut w[..n];
            a.spmv(if j == 0 { v0 } else { &done[(j - 1) * n..] }, w);
            // Modified Gram–Schmidt against v_0..v_j, then normalize.
            let h = &mut ks.hcols[j];
            for (i, vi) in std::iter::once(&*v0)
                .chain(done.chunks_exact(n))
                .enumerate()
            {
                let mut dot = S::zero();
                for (vk, wk) in vi.iter().zip(w.iter()) {
                    dot += vk.conj() * *wk;
                }
                for (vk, wk) in vi.iter().zip(w.iter_mut()) {
                    *wk -= dot * *vk;
                }
                h[(i, 0)] = dot;
            }
            let nrm = norm(w);
            let breakdown = nrm <= S::Real::epsilon();
            h[(j + 1, 0)] = if breakdown {
                S::zero()
            } else {
                let inv = S::one() / S::from_real(nrm);
                w.iter_mut().for_each(|x| *x *= inv);
                S::from_real(nrm)
            };
            ks.qr.push_block(h);
            actual = j + 1;
            if breakdown {
                break; // lucky breakdown: exact solution in the space
            }
        }
        ks.qr.solve_y_into(&mut ks.y);
        // x += V·y, each entry of V·y summed over the basis columns in order
        // with zero coefficients skipped (the order of the dense product it
        // replaces).
        let y = &mut ks.y.col_mut(0)[..actual];
        y.iter_mut().for_each(|yl| *yl = S::one() * *yl);
        for (i, xi) in xc.iter_mut().enumerate() {
            let mut acc = S::zero();
            if y[0] != S::zero() {
                acc += v0[i] * y[0];
            }
            for (l, &yl) in y.iter().enumerate().skip(1) {
                if yl != S::zero() {
                    acc += later[(l - 1) * n + i] * yl;
                }
            }
            *xi += S::one() * acc;
        }
    }
}

/// `x ⟵ x + z`, where `z` is `iters` CG steps on `A·z = r` from zero, per
/// column (SPD `A`). `r` is consumed: it is the running residual. Allocates
/// nothing; `ks` must come from [`KrylovScratch::cg`] for at least this many
/// rows.
pub fn cg_smooth<S: Scalar>(
    a: &Csr<S>,
    r: &mut DMat<S>,
    x: &mut DMat<S>,
    iters: usize,
    ks: &mut KrylovScratch<S>,
) {
    let n = a.nrows();
    let (d, rest) = ks.vecs.split_at_mut(n);
    let (ad, rest) = rest.split_at_mut(n);
    let z = &mut rest[..n];
    for col in 0..r.ncols() {
        let res = r.col_mut(col);
        z.fill(S::zero());
        d.copy_from_slice(res);
        let mut rr: S = res.iter().map(|&v| v.conj() * v).sum();
        for _ in 0..iters {
            if rr.abs() <= S::Real::epsilon() {
                break;
            }
            a.spmv(d, ad);
            let dad: S = d
                .iter()
                .zip(ad.iter())
                .map(|(&di, &adi)| di.conj() * adi)
                .sum();
            if dad == S::zero() {
                break;
            }
            let alpha = rr / dad;
            // One sweep updates the correction and the residual and sums the
            // new ‖res‖² in index order.
            let mut rr_new = S::zero();
            for i in 0..n {
                z[i] += alpha * d[i];
                res[i] -= alpha * ad[i];
                rr_new += res[i].conj() * res[i];
            }
            let beta = rr_new / rr;
            for i in 0..n {
                d[i] = res[i] + beta * d[i];
            }
            rr = rr_new;
        }
        for (xi, &zi) in x.col_mut(col).iter_mut().zip(z.iter()) {
            *xi += S::one() * zi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_dense::{blas, gs::OrthScheme};
    use kryst_scalar::C64;
    use kryst_sparse::Coo;

    /// The column-at-a-time GMRES smoother the in-place one replaced, kept
    /// as the reference its bits are compared against.
    fn gmres_smooth_ref<S: Scalar>(a: &Csr<S>, r: &DMat<S>, z: &mut DMat<S>, iters: usize) {
        let n = a.nrows();
        let p = r.ncols();
        z.set_zero();
        if iters == 0 {
            return;
        }
        for col in 0..p {
            let r0 = DMat::from_col_major(n, 1, r.col(col).to_vec());
            let beta = r0.col_norm(0);
            if beta <= S::Real::epsilon() {
                continue;
            }
            let mut v = DMat::zeros(n, iters + 1);
            let inv = S::one() / S::from_real(beta);
            for (d, s) in v.col_mut(0).iter_mut().zip(r0.col(0)) {
                *d = *s * inv;
            }
            let mut qr = IncrementalQr::new(iters, 1);
            let mut s1 = DMat::zeros(1, 1);
            s1[(0, 0)] = S::from_real(beta);
            qr.reset(&s1);
            let mut actual = 0;
            for j in 0..iters {
                let vj = DMat::from_col_major(n, 1, v.col(j).to_vec());
                let mut w = a.apply(&vj);
                let coeffs =
                    kryst_dense::gs::orthogonalize_block(&v, j + 1, &mut w, OrthScheme::Mgs);
                let mut hcol = DMat::zeros(j + 2, 1);
                for i in 0..=j {
                    hcol[(i, 0)] = coeffs.coeffs[(i, 0)];
                }
                hcol[(j + 1, 0)] = coeffs.r[(0, 0)];
                qr.push_block(&hcol);
                actual = j + 1;
                if coeffs.r[(0, 0)].abs() <= S::Real::epsilon() {
                    break;
                }
                v.col_mut(j + 1).copy_from_slice(w.col(0));
            }
            let y = qr.solve_y();
            let vm = v.cols(0, actual);
            let yv = y.block(0, 0, actual, 1);
            let x = blas::matmul(&vm, blas::Op::None, &yv, blas::Op::None);
            z.col_mut(col).copy_from_slice(x.col(0));
        }
    }

    /// The CG smoother the in-place one replaced (four fresh vectors per
    /// column, separate update and norm sweeps).
    fn cg_smooth_ref<S: Scalar>(a: &Csr<S>, r: &DMat<S>, z: &mut DMat<S>, iters: usize) {
        let n = a.nrows();
        let p = r.ncols();
        z.set_zero();
        for col in 0..p {
            let mut res = r.col(col).to_vec();
            let mut d = res.clone();
            let mut x = vec![S::zero(); n];
            let mut ad = vec![S::zero(); n];
            let mut rr: S = res.iter().map(|&v| v.conj() * v).sum();
            for _ in 0..iters {
                if rr.abs() <= S::Real::epsilon() {
                    break;
                }
                a.spmv(&d, &mut ad);
                let dad: S = d.iter().zip(&ad).map(|(&di, &adi)| di.conj() * adi).sum();
                if dad == S::zero() {
                    break;
                }
                let alpha = rr / dad;
                for i in 0..n {
                    x[i] += alpha * d[i];
                    res[i] -= alpha * ad[i];
                }
                let rr_new: S = res.iter().map(|&v| v.conj() * v).sum();
                let beta = rr_new / rr;
                for i in 0..n {
                    d[i] = res[i] + beta * d[i];
                }
                rr = rr_new;
            }
            z.col_mut(col).copy_from_slice(&x);
        }
    }

    /// `z = GMRES_s(A, r)` through the in-place smoother.
    fn gmres_smooth_new<S: Scalar>(a: &Csr<S>, r: &DMat<S>, z: &mut DMat<S>, iters: usize) {
        z.set_zero();
        let mut ks = KrylovScratch::gmres(a.nrows(), iters);
        gmres_smooth(a, &mut r.clone(), z, iters, &mut ks);
    }

    fn laplace1d<S: Scalar>(n: usize) -> Csr<S> {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, S::from_f64(2.0));
            if i > 0 {
                c.push(i, i - 1, S::from_f64(-1.0));
                c.push(i - 1, i, S::from_f64(-1.0));
            }
        }
        c.to_csr()
    }

    fn residual(a: &Csr<f64>, b: &DMat<f64>, x: &DMat<f64>) -> f64 {
        let mut r = a.apply(x);
        r.axpy(-1.0, b);
        r.fro_norm()
    }

    fn bits<S: Scalar>(m: &DMat<S>) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|v| (v.re().to_f64().to_bits(), v.im().to_f64().to_bits()))
            .collect()
    }

    /// Both smoothers against `x += reference(r)`, bit for bit: every step
    /// count and width, one scratch reused (so dirty) across all of them,
    /// and a zero right-hand-side column among the others.
    fn smoothers_match_references<S: Scalar>(a: &Csr<S>, entry: impl Fn(usize, usize) -> S) {
        let n = a.nrows();
        // Sized for GMRES(6), which also covers the three vectors of CG.
        let mut ks = KrylovScratch::gmres(n, 6);
        for p in [1usize, 3, 8] {
            let zero_col = p / 2;
            let r = DMat::from_fn(n, p, |i, j| {
                if p > 1 && j == zero_col {
                    S::zero()
                } else {
                    entry(i, j)
                }
            });
            let x0 = DMat::from_fn(n, p, |i, j| entry(j + 1, i + 2));
            let mut z = DMat::zeros(n, p);
            for iters in [0usize, 1, 3, 6] {
                gmres_smooth_ref(a, &r, &mut z, iters);
                let mut want = x0.clone();
                want.axpy(S::one(), &z);
                let mut got = x0.clone();
                gmres_smooth(a, &mut r.clone(), &mut got, iters, &mut ks);
                assert_eq!(bits(&got), bits(&want), "gmres s={iters} p={p}");
            }
            for iters in [0usize, 1, 4] {
                cg_smooth_ref(a, &r, &mut z, iters);
                let mut want = x0.clone();
                want.axpy(S::one(), &z);
                let mut got = x0.clone();
                cg_smooth(a, &mut r.clone(), &mut got, iters, &mut ks);
                assert_eq!(bits(&got), bits(&want), "cg s={iters} p={p}");
            }
        }
    }

    #[test]
    fn in_place_smoothers_match_the_column_at_a_time_references() {
        let wave = |i: usize, j: usize| ((i * 5 + j * 3) % 11) as f64 - 4.5;
        smoothers_match_references(&laplace1d::<f64>(53), wave);
        smoothers_match_references(&laplace1d::<C64>(37), |i, j| {
            C64::from_parts(wave(i, j), wave(j, i + 2))
        });
        // Above the row count where the products run on the worker pool.
        smoothers_match_references(&laplace1d::<f64>(5000), wave);
        // Lucky breakdown: A·v₀ is a multiple of v₀, so the first Arnoldi
        // vector orthogonalizes to nothing and the smoother stops at once.
        let twice = Csr::from_diag(&[2.0f64; 19]);
        smoothers_match_references(&twice, wave);
        let mut z = DMat::zeros(19, 1);
        let r = DMat::from_fn(19, 1, |i, _| wave(i, 0));
        gmres_smooth_new(&twice, &r, &mut z, 3);
        for i in 0..19 {
            assert!((z[(i, 0)] - 0.5 * r[(i, 0)]).abs() < 1e-14);
        }
    }

    #[test]
    fn gmres_smoother_reduces_residual_monotonically() {
        let a = laplace1d(40);
        let b = DMat::from_fn(40, 2, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let mut prev = b.fro_norm();
        for iters in [1, 3, 6] {
            let mut z = DMat::zeros(40, 2);
            gmres_smooth_new(&a, &b, &mut z, iters);
            let r = residual(&a, &b, &z);
            assert!(r < prev, "iters={iters}: {r} !< {prev}");
            prev = r;
        }
    }

    #[test]
    fn gmres_smoother_exact_in_n_steps_for_small_system() {
        let a = laplace1d(6);
        let b = DMat::from_fn(6, 1, |i, _| 1.0 + i as f64);
        let mut z = DMat::zeros(6, 1);
        gmres_smooth_new(&a, &b, &mut z, 6);
        assert!(residual(&a, &b, &z) < 1e-10);
    }

    #[test]
    fn cg_smoother_matches_gmres_direction() {
        let a = laplace1d(25);
        let b = DMat::from_fn(25, 1, |i, _| ((i % 4) as f64) - 1.5);
        let mut zg = DMat::zeros(25, 1);
        let mut zc = DMat::zeros(25, 1);
        gmres_smooth_new(&a, &b, &mut zg, 4);
        cg_smooth(&a, &mut b.clone(), &mut zc, 4, &mut KrylovScratch::cg(25));
        // Both minimize over the same Krylov space in different norms:
        // residuals must both drop substantially.
        let rg = residual(&a, &b, &zg);
        let rc = residual(&a, &b, &zc);
        let r0 = b.fro_norm();
        assert!(rg < 0.6 * r0);
        assert!(rc < 0.6 * r0);
    }

    #[test]
    fn smoother_is_nonlinear() {
        // GMRES(s) is NOT linear: M(r1 + r2) ≠ M(r1) + M(r2) in general.
        let a = laplace1d(20);
        // Interacting right-hand sides (overlapping Krylov supports): for
        // disjoint far-apart impulses the minimizations decouple and GMRES
        // accidentally acts linearly, so use adjacent impulses.
        let r1 = DMat::from_fn(20, 1, |i, _| if i == 3 { 1.0 } else { 0.0 });
        let r2 = DMat::from_fn(20, 1, |i, _| if i == 4 { 1.0 } else { 0.0 });
        let mut sum = r1.clone();
        sum.axpy(1.0, &r2);
        let mut z1 = DMat::zeros(20, 1);
        let mut z2 = DMat::zeros(20, 1);
        let mut zs = DMat::zeros(20, 1);
        gmres_smooth_new(&a, &r1, &mut z1, 2);
        gmres_smooth_new(&a, &r2, &mut z2, 2);
        gmres_smooth_new(&a, &sum, &mut zs, 2);
        z1.axpy(1.0, &z2);
        z1.axpy(-1.0, &zs);
        assert!(z1.fro_norm() > 1e-8, "inner GMRES unexpectedly linear");
    }
}
