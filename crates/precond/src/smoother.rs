//! Fixed-iteration inner Krylov smoothers.
//!
//! The paper deliberately uses `-mg_levels_ksp_type gmres` / `cg` "to make
//! the multigrid cycles nonlinear" (§IV-B/C): an inner Krylov iteration is a
//! *different* linear operator for every input, so the outer method must be
//! flexible (FGMRES / FGCRO-DR). These smoothers are compact, fixed-step,
//! unrestarted implementations — deliberately separate from the full solvers
//! in `kryst-core`, mirroring how PETSc's smoothers are distinct KSP objects.

use kryst_dense::{fused, qr::IncrementalQr, DMat};
use kryst_scalar::Scalar;
use kryst_sparse::Csr;

/// Everything the smoothers need besides their arguments, sized when the
/// hierarchy is set up. All levels share one: a level's smoothing is finished
/// before the cycle descends, so no two levels use it at the same time.
pub struct KrylovScratch<S> {
    /// Column-major `n`-vectors: Arnoldi vectors `v_1..v_s` (GMRES; `v_0`
    /// lives in the caller's residual) or the direction and `A·d` (CG).
    /// Zero pages until the first smoothing touches them.
    vecs: Vec<S>,
    qr: IncrementalQr<S>,
    /// `‖r‖` as the `1 × 1` block [`IncrementalQr::reset`] takes.
    s1: DMat<S>,
    /// Hessenberg column `j`, `(j + 2) × 1`.
    hcols: Vec<DMat<S>>,
    y: DMat<S>,
    /// `β·e₁ − H̄·y`: the residual in the Arnoldi basis.
    g: Vec<S>,
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
            g: vec![S::zero(); iters + 1],
        }
    }

    /// Scratch for [`cg_smooth`] on operators of at most `n` rows.
    pub fn cg(n: usize) -> Self {
        Self {
            vecs: vec![S::zero(); 2 * n],
            ..Self::gmres(0, 0)
        }
    }
}

/// Rows per step of the combination sweep: the chunk of the vector being
/// formed stays in L1 while the chunks of the basis vectors stream past it.
const CHUNK: usize = 512;

/// `out ⟵ out + c·v`.
#[inline(always)]
fn axpy<S: Scalar>(out: &mut [S], c: S, v: &[S]) {
    for (o, &vi) in out.iter_mut().zip(v) {
        *o += c * vi;
    }
}

fn scale<S: Scalar>(v: &mut [S], c: S) {
    v.iter_mut().for_each(|vi| *vi *= c);
}

/// `x ⟵ x + z`, where `z` is `iters` unpreconditioned GMRES steps on
/// `A·z = r` from zero, per column. No restarts, no convergence test — a
/// smoother, not a solver. `r` is consumed: its column becomes the first
/// Arnoldi vector; `A·v_j` is written straight into the next basis column
/// in `ks` and orthogonalized there, so nothing is allocated. With
/// `hand_back`, `r` returns as `r − A·z`, the residual of the new `x`,
/// combined from the Arnoldi relation `r − A·V_s·y = V_{s+1}·(β·e₁ − H̄·y)`
/// in the sweep that updates `x` — no pass over `A`; without it `r` returns
/// as scratch. A column with `‖r‖ ≤ ε` is left as it is, `r` included. `ks`
/// must come from [`KrylovScratch::gmres`] for at least this many rows and
/// steps.
pub fn gmres_smooth<S: Scalar>(
    a: &Csr<S>,
    r: &mut DMat<S>,
    x: &mut DMat<S>,
    iters: usize,
    hand_back: bool,
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
        let beta = fused::nrm2_sqr(v0).sqrt();
        if beta <= f64::EPSILON {
            continue;
        }
        scale(v0, S::one() / S::from_f64(beta));
        ks.s1[(0, 0)] = S::from_f64(beta);
        ks.qr.reset(&ks.s1);
        let (mut steps, mut breakdown) = (0, false);
        for j in 0..iters {
            // v_1..v_j are done; w becomes v_{j+1}.
            let (done, w) = later.split_at_mut(j * n);
            let w = &mut w[..n];
            a.spmv(if j == 0 { v0 } else { &done[(j - 1) * n..] }, w);
            // Modified Gram–Schmidt against v_0..v_j, one pass per basis
            // vector: the projection along v_i leaves with the coefficient
            // along v_{i+1}, the last one with ‖w‖².
            let h = &mut ks.hcols[j];
            let mut vi = &*v0;
            let mut hi = fused::dot(vi, w);
            for (i, next) in done.chunks_exact(n).enumerate() {
                h[(i, 0)] = hi;
                hi = fused::axpy_dot(w, hi, vi, next);
                vi = next;
            }
            h[(j, 0)] = hi;
            let nrm = fused::axpy_nrm2_sqr(w, hi, vi).sqrt();
            steps = j + 1;
            breakdown = nrm <= f64::EPSILON;
            h[(j + 1, 0)] = if breakdown {
                S::zero()
            } else {
                // Only the residual reads the last vector.
                if hand_back || steps < iters {
                    scale(w, S::one() / S::from_f64(nrm));
                }
                S::from_f64(nrm)
            };
            ks.qr.push_block(h);
            if breakdown {
                break; // lucky breakdown: exact solution in the space
            }
        }
        ks.qr.solve_y_into(&mut ks.y);
        let y = &ks.y.col(0)[..steps];
        // g = β·e₁ − H̄·y over the vectors that exist: a breakdown leaves no
        // v_steps, and its coefficient is an exact zero.
        let g = &mut ks.g[..steps + usize::from(!breakdown)];
        g.fill(S::zero());
        g[0] = S::from_f64(beta);
        for (h, &yj) in ks.hcols.iter().zip(y) {
            for (gi, &hij) in g.iter_mut().zip(h.col(0)) {
                *gi -= hij * yj;
            }
        }
        // x += V_s·y and r = V_{s+1}·g, one chunk of rows at a time; v_0 is
        // r's own column, so the residual forms in place.
        let later = &*later;
        for k0 in (0..n).step_by(CHUNK) {
            let rows = k0..(k0 + CHUNK).min(n);
            let v = |l: usize| &later[(l - 1) * n..][rows.clone()];
            let (xk, v0k) = (&mut xc[rows.clone()], &mut v0[rows.clone()]);
            axpy(xk, y[0], v0k);
            for (l, &yl) in y.iter().enumerate().skip(1) {
                axpy(xk, yl, v(l));
            }
            if hand_back {
                scale(v0k, g[0]);
                for (l, &gl) in g.iter().enumerate().skip(1) {
                    axpy(v0k, gl, v(l));
                }
            }
        }
    }
}

/// `x ⟵ x + z`, where `z` is `iters` CG steps on `A·z = r` from zero, per
/// column (SPD `A`). `r` is the running residual: it returns as `r − A·z`,
/// the residual of the new `x`. Allocates nothing; `ks` must come from
/// [`KrylovScratch::cg`] for at least this many rows.
pub fn cg_smooth<S: Scalar>(
    a: &Csr<S>,
    r: &mut DMat<S>,
    x: &mut DMat<S>,
    iters: usize,
    ks: &mut KrylovScratch<S>,
) {
    let n = a.nrows();
    let (d, ad) = ks.vecs[..2 * n].split_at_mut(n);
    for col in 0..r.ncols() {
        let (res, xc) = (r.col_mut(col), x.col_mut(col));
        d.copy_from_slice(res);
        let mut rr = fused::nrm2_sqr(res);
        for _ in 0..iters {
            if rr <= f64::EPSILON {
                break;
            }
            a.spmv(d, ad);
            let dad = fused::dot(d, ad);
            if dad == S::zero() {
                break;
            }
            let alpha = S::from_f64(rr) / dad;
            let rr_new = fused::axpy_nrm2_sqr(res, alpha, ad);
            let beta = S::from_f64(rr_new / rr);
            // The step along d and the next direction, one sweep.
            for ((xi, di), &ri) in xc.iter_mut().zip(d.iter_mut()).zip(res.iter()) {
                *xi += alpha * *di;
                *di = ri + beta * *di;
            }
            rr = rr_new;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_pde::elasticity::{elasticity3d, ElasticityOpts};
    use kryst_pde::poisson::laplace1d;
    use kryst_pde::poisson::poisson2d;
    use kryst_scalar::C64;

    /// `uᴴ·w` in the summation order of `kryst_dense::fused`, written out:
    /// per chunk of 512 rows four interleaved sums over the rows in fours,
    /// `(a0 + a1) + (a2 + a3)`, the last rows in order; chunks in row order.
    fn dot_ref<S: Scalar>(u: &[S], w: &[S]) -> S {
        let mut total = S::zero();
        for (uc, wc) in u.chunks(512).zip(w.chunks(512)) {
            let t = wc.len() & !3;
            let mut acc = [S::zero(); 4];
            for i in 0..t {
                acc[i % 4] += uc[i].conj() * wc[i];
            }
            let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for i in t..wc.len() {
                sum += uc[i].conj() * wc[i];
            }
            total += sum;
        }
        total
    }

    fn norm_ref<S: Scalar>(v: &[S]) -> f64 {
        dot_ref(v, v).re().sqrt()
    }

    /// GMRES(s) on one column, every sweep on its own and nothing in place:
    /// returns `x + V·y` and the residual combined from the Arnoldi relation.
    fn gmres_smooth_ref<S: Scalar>(a: &Csr<S>, r: &[S], x: &[S], iters: usize) -> [Vec<S>; 2] {
        let n = a.nrows();
        let beta = norm_ref(r);
        if iters == 0 || beta <= f64::EPSILON {
            return [x.to_vec(), r.to_vec()];
        }
        let inv = S::one() / S::from_f64(beta);
        let mut v = vec![r.iter().map(|&ri| ri * inv).collect::<Vec<S>>()];
        let mut hcols: Vec<DMat<S>> = Vec::new();
        let mut qr = IncrementalQr::new(iters, 1);
        qr.reset(&DMat::from_fn(1, 1, |_, _| S::from_f64(beta)));
        for j in 0..iters {
            let mut w = vec![S::zero(); n];
            a.spmv(&v[j], &mut w);
            let mut h = DMat::zeros(j + 2, 1);
            for (i, vi) in v.iter().enumerate() {
                h[(i, 0)] = dot_ref(vi, &w);
                for (wk, &vk) in w.iter_mut().zip(vi) {
                    *wk -= h[(i, 0)] * vk;
                }
            }
            let nrm = norm_ref(&w);
            if nrm > f64::EPSILON {
                h[(j + 1, 0)] = S::from_f64(nrm);
                let inv = S::one() / S::from_f64(nrm);
                v.push(w.iter().map(|&wk| wk * inv).collect());
            }
            qr.push_block(&h);
            hcols.push(h);
            if nrm <= f64::EPSILON {
                break;
            }
        }
        let y = qr.solve_y();
        let mut g = vec![S::zero(); v.len()];
        g[0] = S::from_f64(beta);
        for (j, h) in hcols.iter().enumerate() {
            for (gi, &hij) in g.iter_mut().zip(h.col(0)) {
                *gi -= hij * y[(j, 0)];
            }
        }
        let mut x = x.to_vec();
        let mut res = vec![S::zero(); n];
        for k in 0..n {
            for j in 0..hcols.len() {
                x[k] += y[(j, 0)] * v[j][k];
            }
            res[k] = v[0][k] * g[0];
            for l in 1..v.len() {
                res[k] += g[l] * v[l][k];
            }
        }
        [x, res]
    }

    /// CG(s) on one column, every sweep on its own: returns the new `x` and
    /// the running residual.
    fn cg_smooth_ref<S: Scalar>(a: &Csr<S>, r: &[S], x: &[S], iters: usize) -> [Vec<S>; 2] {
        let (mut x, mut res, mut d) = (x.to_vec(), r.to_vec(), r.to_vec());
        let mut ad = vec![S::zero(); a.nrows()];
        let mut rr = dot_ref(&res, &res).re();
        for _ in 0..iters {
            if rr <= f64::EPSILON {
                break;
            }
            a.spmv(&d, &mut ad);
            let dad = dot_ref(&d, &ad);
            if dad == S::zero() {
                break;
            }
            let alpha = S::from_f64(rr) / dad;
            for (ri, &adi) in res.iter_mut().zip(&ad) {
                *ri -= alpha * adi;
            }
            let rr_new = dot_ref(&res, &res).re();
            for (xi, &di) in x.iter_mut().zip(&d) {
                *xi += alpha * di;
            }
            let beta = S::from_f64(rr_new / rr);
            for (di, &ri) in d.iter_mut().zip(&res) {
                *di = ri + beta * *di;
            }
            rr = rr_new;
        }
        [x, res]
    }

    /// `z = GMRES_s(A, r)` through the in-place smoother.
    fn gmres_smooth_new<S: Scalar>(a: &Csr<S>, r: &DMat<S>, z: &mut DMat<S>, iters: usize) {
        z.set_zero();
        let mut ks = KrylovScratch::gmres(a.nrows(), iters);
        gmres_smooth(a, &mut r.clone(), z, iters, false, &mut ks);
    }

    fn residual(a: &Csr<f64>, b: &DMat<f64>, x: &DMat<f64>) -> f64 {
        let mut r = a.apply(x);
        r.axpy(-1.0, b);
        r.fro_norm()
    }

    fn bits<S: Scalar>(v: &[S]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|v| (v.re().to_bits(), v.im().to_bits()))
            .collect()
    }

    /// Both smoothers against the references, bit for bit, `x` and the
    /// residual handed back: every step count and width, one scratch reused
    /// (so dirty) across all of them, a zero right-hand-side column among
    /// the others (skipped: its residual must come back untouched), and the
    /// post-smoothing call, whose `x` must not depend on `hand_back`.
    fn smoothers_match_references<S: Scalar>(a: &Csr<S>, entry: impl Fn(usize, usize) -> S) {
        let n = a.nrows();
        // Sized for GMRES(6), which also covers the two vectors of CG.
        let mut ks = KrylovScratch::gmres(n, 6);
        for p in [1usize, 2, 3] {
            let zero_col = p / 2;
            let r = DMat::from_fn(n, p, |i, j| {
                if p > 1 && j == zero_col {
                    S::zero()
                } else {
                    entry(i, j)
                }
            });
            let x0 = DMat::from_fn(n, p, |i, j| entry(j + 1, i + 2));
            for iters in [0usize, 1, 2, 3, 4, 6] {
                let (mut x, mut res) = (x0.clone(), r.clone());
                gmres_smooth(a, &mut res, &mut x, iters, true, &mut ks);
                let mut x_only = x0.clone();
                gmres_smooth(a, &mut r.clone(), &mut x_only, iters, false, &mut ks);
                for col in 0..p {
                    let [want_x, want_r] = gmres_smooth_ref(a, r.col(col), x0.col(col), iters);
                    let case = format!("gmres n={n} s={iters} p={p} col={col}");
                    assert_eq!(bits(x.col(col)), bits(&want_x), "x {case}");
                    assert_eq!(bits(res.col(col)), bits(&want_r), "r {case}");
                    assert_eq!(bits(x_only.col(col)), bits(&want_x), "x alone {case}");
                }
            }
            for iters in 0usize..=4 {
                let (mut x, mut res) = (x0.clone(), r.clone());
                cg_smooth(a, &mut res, &mut x, iters, &mut ks);
                for col in 0..p {
                    let [want_x, want_r] = cg_smooth_ref(a, r.col(col), x0.col(col), iters);
                    let case = format!("cg n={n} s={iters} p={p} col={col}");
                    assert_eq!(bits(x.col(col)), bits(&want_x), "x {case}");
                    assert_eq!(bits(res.col(col)), bits(&want_r), "r {case}");
                }
            }
        }
    }

    #[test]
    fn in_place_smoothers_match_the_column_at_a_time_references() {
        let wave = |i: usize, j: usize| ((i * 5 + j * 3) % 11) as f64 - 4.5;
        // Around the four-row lanes and the 512-row chunks of the reductions.
        for n in [1usize, 3, 4, 511, 512, 513, 1100] {
            smoothers_match_references(&laplace1d::<f64>(n), wave);
            smoothers_match_references(&laplace1d::<C64>(n), |i, j| {
                C64::from_parts(wave(i, j), wave(j, i + 2))
            });
        }
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

    /// `‖r − (b − A·x)‖` over `‖b‖`, column by column, at its largest.
    fn hand_back_error(a: &Csr<f64>, b: &DMat<f64>, x: &DMat<f64>, r: &DMat<f64>) -> f64 {
        let mut want = DMat::zeros(b.nrows(), b.ncols());
        a.residual(b, x, &mut want);
        want.axpy(-1.0, r);
        (0..b.ncols())
            .map(|j| want.col_norm(j) / b.col_norm(j).max(f64::MIN_POSITIVE))
            .fold(0.0, f64::max)
    }

    #[test]
    fn handed_back_residual_is_the_true_residual() {
        let poisson = poisson2d::<f64>(24, 24).a;
        let elasticity = elasticity3d::<f64>(&ElasticityOpts {
            ne: 4,
            ..Default::default()
        })
        .problem
        .a;
        for a in [&poisson, &elasticity] {
            let n = a.nrows();
            let b = DMat::from_fn(n, 2, |i, j| ((i * 7 + j * 5) % 13) as f64 - 6.0);
            for iters in 1..=4 {
                // From the zero iterate, as the cycle pre-smooths.
                let (mut x, mut r) = (DMat::zeros(n, 2), b.clone());
                gmres_smooth(
                    a,
                    &mut r,
                    &mut x,
                    iters,
                    true,
                    &mut KrylovScratch::gmres(n, iters),
                );
                let err = hand_back_error(a, &b, &x, &r);
                assert!(err <= 1e-12, "gmres({iters}) n={n}: {err:e}");
                let (mut x, mut r) = (DMat::zeros(n, 2), b.clone());
                cg_smooth(a, &mut r, &mut x, iters, &mut KrylovScratch::cg(n));
                let err = hand_back_error(a, &b, &x, &r);
                assert!(err <= 1e-12, "cg({iters}) n={n}: {err:e}");
            }
        }
    }

    #[test]
    fn hand_back_combines_only_the_vectors_that_exist() {
        // A = I: the Krylov space of any r has grade 1, so GMRES(3) breaks
        // down in its first step with x = r exactly and nothing left over —
        // and must not read the two basis vectors it never built (poisoned
        // here). The zero column of p = 2 is skipped whole.
        let n = 600;
        let eye = Csr::from_diag(&vec![1.0f64; n]);
        let mut ks = KrylovScratch::gmres(n, 3);
        ks.vecs.fill(f64::NAN);
        let b = DMat::from_fn(n, 2, |i, j| if j == 0 { (i % 7) as f64 - 3.0 } else { 0.0 });
        let (mut x, mut r) = (DMat::zeros(n, 2), b.clone());
        gmres_smooth(&eye, &mut r, &mut x, 3, true, &mut ks);
        assert!(hand_back_error(&eye, &b, &x, &r) <= 1e-15);
        for i in 0..n {
            assert!((x[(i, 0)] - b[(i, 0)]).abs() <= 1e-15 * b[(i, 0)].abs());
            assert_eq!(x[(i, 1)].to_bits(), 0.0f64.to_bits());
            assert_eq!(r[(i, 1)].to_bits(), 0.0f64.to_bits());
        }
        // Grade 2 under GMRES(4): two eigenvalues.
        let two = Csr::from_diag(&(0..n).map(|i| 1.0 + (i % 2) as f64).collect::<Vec<_>>());
        let mut ks = KrylovScratch::gmres(n, 4);
        ks.vecs[2 * n..].fill(f64::NAN);
        let (mut x, mut r) = (DMat::zeros(n, 2), b.clone());
        gmres_smooth(&two, &mut r, &mut x, 4, true, &mut ks);
        assert!(hand_back_error(&two, &b, &x, &r) <= 1e-14);
        assert!(r.col_norm(0) <= 1e-13 * b.col_norm(0));
    }

    #[test]
    fn post_smoothing_skips_the_residual() {
        // Without `hand_back` the smoother neither normalizes the last
        // Arnoldi vector nor touches r after scaling it: r comes back as
        // v_0 = r/‖r‖, and x is the same bits either way (checked against
        // the references above).
        let a = laplace1d::<f64>(700);
        let b = DMat::from_fn(700, 1, |i, _| ((i * 3) % 7) as f64 - 3.0);
        let x0 = DMat::from_fn(700, 1, |i, _| (i % 5) as f64);
        let mut r = DMat::zeros(700, 1);
        a.residual(&b, &x0, &mut r);
        let beta = r.col_norm(0);
        let mut ks = KrylovScratch::gmres(700, 3);
        let (mut x, mut v0) = (x0.clone(), r.clone());
        gmres_smooth(&a, &mut v0, &mut x, 3, false, &mut ks);
        for i in 0..700 {
            assert!((v0[(i, 0)] * beta - r[(i, 0)]).abs() <= 1e-14 * beta);
        }
        let last = &ks.vecs[2 * 700..3 * 700];
        let nrm = last.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            (nrm - 1.0).abs() > 1e-3,
            "last vector was normalized: {nrm}"
        );
        assert!(residual(&a, &b, &x) < residual(&a, &b, &x0));
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
