//! Dense eigensolvers for the deflation step of GCRO-DR.
//!
//! GCRO-DR needs, once per restart, the `k` eigenvectors associated with the
//! smallest-magnitude eigenvalues of either
//!
//! * a standard problem `H·z = θ·z` (first cycle, paper's eq. (2)), or
//! * a generalized problem `T·z = θ·W·z` (later cycles, eq. (3a)/(3b)),
//!
//! where the matrices have dimension `m·p ≲ a few hundred`. These are solved
//! *redundantly on every process* in the paper, so a robust serial dense
//! algorithm is exactly what is required.
//!
//! Everything runs in complex arithmetic (real inputs are promoted): complex
//! Hessenberg reduction, a shifted QR iteration to Schur form with
//! accumulated unitary transforms, and eigenvector extraction by triangular
//! back-substitution.

use crate::lu::Lu;
use crate::DMat;
use kryst_scalar::{Complex, Real, Scalar};

/// Eigendecomposition `A·V = V·diag(values)` (up to numerical accuracy).
pub struct EigDecomp<R: Real> {
    /// Eigenvalues, in Schur (quasi-arbitrary) order.
    pub values: Vec<Complex<R>>,
    /// Right eigenvectors as columns, normalized to unit 2-norm.
    pub vectors: DMat<Complex<R>>,
    /// False when the QR iteration hit its iteration cap before full
    /// deflation (results are then best-effort).
    pub converged: bool,
}

/// Copy a real or complex matrix into explicit complex storage.
pub fn to_complex<S: Scalar>(a: &DMat<S>) -> DMat<Complex<S::Real>> {
    DMat::from_fn(a.nrows(), a.ncols(), |i, j| {
        Complex::new(a[(i, j)].re(), a[(i, j)].im())
    })
}

/// Complex Givens rotation: returns `(c, s)` with `c` real so that
/// `[c, s; -conj(s), c]·[a; b] = [r; 0]`.
fn givens<R: Real>(a: Complex<R>, b: Complex<R>) -> (R, Complex<R>) {
    let an = a.abs();
    let bn = b.abs();
    if bn == R::zero() {
        return (R::one(), Complex::zero());
    }
    if an == R::zero() {
        return (R::zero(), b.conj().scale(R::one() / bn));
    }
    let t = an.hypot(bn);
    let c = an / t;
    // s = (a/|a|)·conj(b)/t
    let phase = a.scale(R::one() / an);
    let s = phase * b.conj().scale(R::one() / t);
    (c, s)
}

/// Hessenberg reduction `QᴴAQ = H` by Householder similarity transforms.
/// Returns `(h, q)`.
fn hessenberg<R: Real>(a: &DMat<Complex<R>>) -> (DMat<Complex<R>>, DMat<Complex<R>>) {
    let n = a.nrows();
    let mut h = a.clone();
    let mut q = DMat::<Complex<R>>::eye(n);
    if n < 3 {
        return (h, q);
    }
    for k in 0..n - 2 {
        // Reflector annihilating H[k+2.., k].
        let mut x: Vec<Complex<R>> = (k + 1..n).map(|i| h[(i, k)]).collect();
        let tau = crate::qr::householder_reflector(&mut x);
        if tau == Complex::zero() {
            continue;
        }
        let beta = x[0];
        let v: Vec<Complex<R>> = std::iter::once(Complex::one())
            .chain(x[1..].iter().copied())
            .collect();
        // Left: rows k+1..n of all columns k..n get Hᴴ = I − conj(tau)·v·vᴴ.
        for j in k..n {
            let mut w = Complex::zero();
            for (t, &vi) in v.iter().enumerate() {
                w += vi.conj() * h[(k + 1 + t, j)];
            }
            w *= tau.conj();
            for (t, &vi) in v.iter().enumerate() {
                let upd = vi * w;
                h[(k + 1 + t, j)] -= upd;
            }
        }
        // Right: columns k+1..n of all rows get H = I − tau·v·vᴴ.
        for i in 0..n {
            let mut w = Complex::zero();
            for (t, &vi) in v.iter().enumerate() {
                w += h[(i, k + 1 + t)] * vi;
            }
            w *= tau;
            for (t, &vi) in v.iter().enumerate() {
                let upd = w * vi.conj();
                h[(i, k + 1 + t)] -= upd;
            }
        }
        // Accumulate Q ⟵ Q·H.
        for i in 0..n {
            let mut w = Complex::zero();
            for (t, &vi) in v.iter().enumerate() {
                w += q[(i, k + 1 + t)] * vi;
            }
            w *= tau;
            for (t, &vi) in v.iter().enumerate() {
                let upd = w * vi.conj();
                q[(i, k + 1 + t)] -= upd;
            }
        }
        // Explicit zeros + the beta entry.
        h[(k + 1, k)] = beta;
        for i in k + 2..n {
            h[(i, k)] = Complex::zero();
        }
    }
    (h, q)
}

/// Wilkinson shift from the trailing 2×2 of the active block.
fn wilkinson_shift<R: Real>(h: &DMat<Complex<R>>, hi: usize) -> Complex<R> {
    let a = h[(hi - 1, hi - 1)];
    let b = h[(hi - 1, hi)];
    let c = h[(hi, hi - 1)];
    let d = h[(hi, hi)];
    let tr_half = (a + d).scale(R::from_f64(0.5));
    let det = a * d - b * c;
    let disc = (tr_half * tr_half - det).sqrt();
    let l1 = tr_half + disc;
    let l2 = tr_half - disc;
    if (l1 - d).abs() <= (l2 - d).abs() {
        l1
    } else {
        l2
    }
}

/// Shifted QR iteration on an upper Hessenberg matrix, accumulating the
/// unitary transform into `q`. On return `h` is upper triangular (Schur form)
/// when `true` is returned.
fn schur_qr<R: Real>(h: &mut DMat<Complex<R>>, q: &mut DMat<Complex<R>>) -> bool {
    let n = h.nrows();
    if n <= 1 {
        return true;
    }
    let eps = R::epsilon();
    let max_total_iters = 40 * n.max(8);
    let mut hi = n - 1;
    let mut iters = 0;
    let mut stagnation = 0usize;
    while hi > 0 {
        if iters >= max_total_iters {
            return false;
        }
        iters += 1;
        // Deflation scan within 0..=hi.
        let mut deflated = false;
        for i in (0..hi).rev() {
            let tol = eps * (h[(i, i)].abs() + h[(i + 1, i + 1)].abs());
            if h[(i + 1, i)].abs() <= tol {
                h[(i + 1, i)] = Complex::zero();
                if i + 1 == hi {
                    // Bottom 1×1 deflated.
                    hi -= 1;
                    deflated = true;
                    stagnation = 0;
                    break;
                }
            }
        }
        if deflated {
            continue;
        }
        // Find `lo`: start of the trailing unreduced block ending at hi.
        let mut lo = hi;
        while lo > 0 && h[(lo, lo - 1)] != Complex::zero() {
            lo -= 1;
        }
        if lo == hi {
            hi -= 1;
            continue;
        }
        // Exceptional shift every 12 stagnating sweeps.
        stagnation += 1;
        let mu = if stagnation % 13 == 12 {
            h[(hi, hi - 1)].scale(R::from_f64(1.5)) + h[(hi, hi)]
        } else {
            wilkinson_shift(h, hi)
        };
        // Explicit single-shift QR step on the window [lo, hi].
        for i in lo..=hi {
            h[(i, i)] -= mu;
        }
        let mut rots: Vec<(R, Complex<R>)> = Vec::with_capacity(hi - lo);
        for i in lo..hi {
            let (c, s) = givens(h[(i, i)], h[(i + 1, i)]);
            rots.push((c, s));
            // Left rotation on rows i, i+1, columns i..n.
            for j in i..n {
                let x = h[(i, j)];
                let y = h[(i + 1, j)];
                h[(i, j)] = x.scale(c) + s * y;
                h[(i + 1, j)] = -(s.conj() * x) + y.scale(c);
            }
        }
        for (idx, &(c, s)) in rots.iter().enumerate() {
            let i = lo + idx;
            // Right rotation Gᴴ on columns i, i+1, rows 0..=i+1.
            for r in 0..=(i + 1).min(n - 1) {
                let x = h[(r, i)];
                let y = h[(r, i + 1)];
                h[(r, i)] = x.scale(c) + y * s.conj();
                h[(r, i + 1)] = -(x * s) + y.scale(c);
            }
            // Accumulate into Q (all rows).
            for r in 0..n {
                let x = q[(r, i)];
                let y = q[(r, i + 1)];
                q[(r, i)] = x.scale(c) + y * s.conj();
                q[(r, i + 1)] = -(x * s) + y.scale(c);
            }
        }
        for i in lo..=hi {
            h[(i, i)] += mu;
        }
    }
    true
}

/// Eigenvectors of an upper-triangular `t`, transformed back through `q`.
fn eigvecs_from_schur<R: Real>(t: &DMat<Complex<R>>, q: &DMat<Complex<R>>) -> DMat<Complex<R>> {
    let n = t.nrows();
    let tnorm = t.max_abs().max(R::epsilon());
    let smin = R::epsilon() * tnorm;
    let mut vecs = DMat::<Complex<R>>::zeros(n, n);
    let mut y = vec![Complex::<R>::zero(); n];
    for k in 0..n {
        let lambda = t[(k, k)];
        y.iter_mut().for_each(|v| *v = Complex::zero());
        y[k] = Complex::one();
        for i in (0..k).rev() {
            let mut acc = Complex::<R>::zero();
            for (j, &yj) in y.iter().enumerate().take(k + 1).skip(i + 1) {
                acc += t[(i, j)] * yj;
            }
            let mut den = t[(i, i)] - lambda;
            if den.abs() < smin {
                den = Complex::new(smin, R::zero());
            }
            y[i] = -acc / den;
        }
        // v = Q·y, normalized.
        let mut nrm = R::zero();
        for i in 0..n {
            let mut acc = Complex::<R>::zero();
            for (j, &yj) in y.iter().enumerate().take(k + 1) {
                acc += q[(i, j)] * yj;
            }
            vecs[(i, k)] = acc;
            nrm += acc.norm_sqr();
        }
        let nrm = nrm.sqrt();
        if nrm > R::zero() {
            let inv = Complex::new(R::one() / nrm, R::zero());
            for i in 0..n {
                vecs[(i, k)] *= inv;
            }
        }
    }
    vecs
}

/// Full eigendecomposition of a general square matrix.
pub fn eig<S: Scalar>(a: &DMat<S>) -> EigDecomp<S::Real> {
    let _t = kryst_obs::traced(kryst_obs::SpanKind::SmallDense);
    let ac = to_complex(a);
    let (mut h, mut q) = hessenberg(&ac);
    let converged = schur_qr(&mut h, &mut q);
    let n = a.nrows();
    let values: Vec<Complex<S::Real>> = (0..n).map(|i| h[(i, i)]).collect();
    let vectors = eigvecs_from_schur(&h, &q);
    EigDecomp {
        values,
        vectors,
        converged,
    }
}

/// Generalized eigenproblem `T·z = θ·W·z`, reduced to the standard problem
/// `(W⁻¹T)·z = θ·z` via an LU solve (the matrices are tiny and `W` is a Gram
/// product of Krylov bases, safely invertible after the paper's column
/// scaling — a diagonal Tikhonov fallback covers the degenerate case).
pub fn eig_generalized<S: Scalar>(t: &DMat<S>, w: &DMat<S>) -> EigDecomp<S::Real> {
    let _t = kryst_obs::traced(kryst_obs::SpanKind::SmallDense);
    let n = t.nrows();
    assert_eq!(t.ncols(), n);
    assert_eq!(w.nrows(), n);
    assert_eq!(w.ncols(), n);
    let tc = to_complex(t);
    let mut wc = to_complex(w);
    let mut f = Lu::factor(wc.clone());
    if f.is_singular() {
        // Regularize: W + ε‖W‖·I.
        let shift =
            w.max_abs().max(S::Real::epsilon()) * S::Real::epsilon() * S::Real::from_f64(1e4);
        for i in 0..n {
            wc[(i, i)] += Complex::new(shift, S::Real::zero());
        }
        f = Lu::factor(wc);
    }
    let m = f.solve(&tc);
    let (mut h, mut q) = hessenberg(&m);
    let converged = schur_qr(&mut h, &mut q);
    let values: Vec<Complex<S::Real>> = (0..n).map(|i| h[(i, i)]).collect();
    let vectors = eigvecs_from_schur(&h, &q);
    EigDecomp {
        values,
        vectors,
        converged,
    }
}

impl<R: Real> EigDecomp<R> {
    /// Indices of the `k` eigenvalues of smallest magnitude.
    pub fn smallest_indices(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&a, &b| {
            self.values[a]
                .abs()
                .partial_cmp(&self.values[b].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
        idx
    }

    /// The eigenvector matrix restricted to the `k` smallest-magnitude
    /// eigenvalues — the `P_k` of the paper's Fig. 1 (lines 17 and 34).
    pub fn smallest_vectors(&self, k: usize) -> DMat<Complex<R>> {
        let idx = self.smallest_indices(k);
        let n = self.vectors.nrows();
        DMat::from_fn(n, idx.len(), |i, j| self.vectors[(i, idx[j])])
    }
}

/// Take the real part of a complex matrix (valid when the original problem
/// was real and eigenvectors are wanted in the original scalar type; complex
/// conjugate pairs are rotated to real form first via column phase).
pub fn realize_columns<R>(m: &DMat<Complex<R>>) -> DMat<R>
where
    R: Real + Scalar<Real = R>,
{
    // Rotate each column by the phase of its largest entry so that a
    // genuinely real eigenvector (up to phase) becomes real.
    let mut out = DMat::zeros(m.nrows(), m.ncols());
    for j in 0..m.ncols() {
        let mut best = Complex::<R>::zero();
        let mut best_abs = <R as Real>::zero();
        for i in 0..m.nrows() {
            let v = m[(i, j)];
            if v.abs() > best_abs {
                best_abs = v.abs();
                best = v;
            }
        }
        let phase = if best_abs > <R as Real>::zero() {
            best.conj().scale(<R as Real>::one() / best_abs)
        } else {
            Complex::one()
        };
        for i in 0..m.nrows() {
            out[(i, j)] = (m[(i, j)] * phase).re;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, Op};
    use kryst_scalar::C64;

    fn residual_ok<S: Scalar>(a: &DMat<S>, d: &EigDecomp<S::Real>, tol: f64) {
        let ac = to_complex(a);
        let av = matmul(&ac, Op::None, &d.vectors, Op::None);
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                let want = d.vectors[(i, j)] * d.values[j];
                let diff = (av[(i, j)] - want).abs().to_f64();
                assert!(
                    diff < tol * (1.0 + d.values[j].abs().to_f64()),
                    "eig residual {diff} at ({i},{j}), λ = {:?}",
                    d.values[j]
                );
            }
        }
    }

    #[test]
    fn eig_diagonal() {
        let a = DMat::<f64>::from_fn(4, 4, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let d = eig(&a);
        assert!(d.converged);
        let mut vals: Vec<f64> = d.values.iter().map(|v| v.re).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, v) in vals.iter().enumerate() {
            assert!((v - (i + 1) as f64).abs() < 1e-10);
        }
        residual_ok(&a, &d, 1e-9);
    }

    #[test]
    fn eig_symmetric_real() {
        // Tridiagonal 1D Laplacian: eigenvalues 2 − 2cos(kπ/(n+1)).
        let n = 12;
        let a = DMat::<f64>::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let d = eig(&a);
        assert!(d.converged);
        residual_ok(&a, &d, 1e-8);
        let mut vals: Vec<f64> = d.values.iter().map(|v| v.re).collect();
        vals.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (k, v) in vals.iter().enumerate() {
            let expect =
                2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n as f64 + 1.0)).cos();
            assert!((v - expect).abs() < 1e-8, "λ_{k} = {v}, expect {expect}");
        }
    }

    #[test]
    fn eig_real_with_complex_pairs() {
        // Rotation-like block has complex eigenvalues ±i plus real 3.
        let mut a = DMat::<f64>::zeros(3, 3);
        a[(0, 1)] = -1.0;
        a[(1, 0)] = 1.0;
        a[(2, 2)] = 3.0;
        let d = eig(&a);
        assert!(d.converged);
        residual_ok(&a, &d, 1e-9);
        let mut found_i = 0;
        for v in &d.values {
            if (v.re).abs() < 1e-9 && (v.im.abs() - 1.0).abs() < 1e-9 {
                found_i += 1;
            }
        }
        assert_eq!(found_i, 2, "expected the ±i pair, got {:?}", d.values);
    }

    #[test]
    fn eig_complex_matrix() {
        let a = DMat::<C64>::from_fn(6, 6, |i, j| {
            C64::from_parts(
                ((i * 5 + j * 3) % 7) as f64 - 3.0,
                ((i + 2 * j) % 5) as f64 - 2.0,
            ) + if i == j {
                C64::from_parts(6.0, 0.0)
            } else {
                C64::zero()
            }
        });
        let d = eig(&a);
        assert!(d.converged);
        residual_ok(&a, &d, 1e-8);
    }

    #[test]
    fn eig_nonnormal_hessenberg() {
        // A genuinely non-normal upper Hessenberg matrix like a GMRES H.
        let n = 10;
        let a = DMat::<f64>::from_fn(n, n, |i, j| {
            if i <= j + 1 {
                (((i * 7 + j * 11) % 13) as f64 - 6.0) / 3.0 + if i == j { 4.0 } else { 0.0 }
            } else {
                0.0
            }
        });
        let d = eig(&a);
        assert!(d.converged);
        residual_ok(&a, &d, 1e-7);
    }

    #[test]
    fn generalized_reduces_to_standard_when_w_is_identity() {
        let a = DMat::<f64>::from_fn(5, 5, |i, j| {
            ((i + 2 * j) % 5) as f64 + if i == j { 4.0 } else { 0.0 }
        });
        let w = DMat::<f64>::eye(5);
        let dg = eig_generalized(&a, &w);
        let ds = eig(&a);
        let mut g: Vec<f64> = dg.values.iter().map(|v| v.abs()).collect();
        let mut s: Vec<f64> = ds.values.iter().map(|v| v.abs()).collect();
        g.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (x, y) in g.iter().zip(&s) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn generalized_eig_residual() {
        // T z = θ W z with W SPD.
        let n = 6;
        let t = DMat::<f64>::from_fn(n, n, |i, j| {
            ((i * 3 + j) % 7) as f64 - 3.0 + if i == j { 5.0 } else { 0.0 }
        });
        let m = DMat::<f64>::from_fn(n, n, |i, j| ((i + j * 2) % 5) as f64 * 0.2);
        let mut w = matmul(&m, Op::ConjTrans, &m, Op::None);
        for i in 0..n {
            w[(i, i)] += 3.0;
        }
        let d = eig_generalized(&t, &w);
        assert!(d.converged);
        let tc = to_complex(&t);
        let wc = to_complex(&w);
        let tv = matmul(&tc, Op::None, &d.vectors, Op::None);
        let wv = matmul(&wc, Op::None, &d.vectors, Op::None);
        for j in 0..n {
            for i in 0..n {
                let want = wv[(i, j)] * d.values[j];
                assert!(
                    (tv[(i, j)] - want).abs() < 1e-7 * (1.0 + d.values[j].abs()),
                    "generalized residual at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn smallest_selection() {
        let a = DMat::<f64>::from_fn(5, 5, |i, j| {
            if i == j {
                [5.0, -0.5, 3.0, 0.1, -2.0][i]
            } else {
                0.0
            }
        });
        let d = eig(&a);
        let idx = d.smallest_indices(2);
        let mags: Vec<f64> = idx.iter().map(|&i| d.values[i].abs()).collect();
        assert!((mags[0] - 0.1).abs() < 1e-12);
        assert!((mags[1] - 0.5).abs() < 1e-12);
        assert_eq!(d.smallest_vectors(2).ncols(), 2);
    }
}
