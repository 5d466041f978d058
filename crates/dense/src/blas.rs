//! BLAS-3-style general matrix–matrix multiply.
//!
//! `gemm` computes `C ⟵ α·op(A)·op(B) + β·C` where `op` is identity,
//! transpose, or conjugate transpose.
//!
//! Every tall product of the solvers goes through the panel kernels of
//! [`crate::fused`]; what reaches `gemm` is small: the `p × p` products of
//! the Arnoldi step and the Gram downdate, and GCRO-DR's extraction and
//! refresh products of at most `(kc + (j+1)·p) × (kc + j·p)`. Each output
//! column is one column-at-a-time loop — an axpy form for `A·B`, a dot form
//! for `AᴴB`/`AᵀB` — so an entry is summed over `k` in index order whatever
//! the shape; columns run in parallel above a work threshold, and the
//! result does not depend on the thread count.

#![allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms

use crate::DMat;
use kryst_rt::par::{for_each_chunk_mut, for_each_range, SendPtr};
use kryst_scalar::Scalar;

/// How an operand enters the product.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    None,
    /// Use the transpose.
    Trans,
    /// Use the conjugate transpose (adjoint).
    ConjTrans,
}

impl Op {
    /// Rows of `op(A)` given the stored shape.
    fn rows(self, a: &DMat<impl Scalar>) -> usize {
        match self {
            Op::None => a.nrows(),
            _ => a.ncols(),
        }
    }
    /// Columns of `op(A)` given the stored shape.
    fn cols(self, a: &DMat<impl Scalar>) -> usize {
        match self {
            Op::None => a.ncols(),
            _ => a.nrows(),
        }
    }
    /// Element `(i, j)` of `op(A)`.
    #[inline(always)]
    fn at<S: Scalar>(self, a: &DMat<S>, i: usize, j: usize) -> S {
        match self {
            Op::None => a[(i, j)],
            Op::Trans => a[(j, i)],
            Op::ConjTrans => a[(j, i)].conj(),
        }
    }
}

/// Work threshold (in multiply–adds) below which gemm stays single-threaded.
const PAR_THRESHOLD: usize = 64 * 1024;

/// `C ⟵ α·op(A)·op(B) + β·C`.
///
/// Panics on dimension mismatch.
pub fn gemm<S: Scalar>(
    alpha: S,
    a: &DMat<S>,
    opa: Op,
    b: &DMat<S>,
    opb: Op,
    beta: S,
    c: &mut DMat<S>,
) {
    let m = opa.rows(a);
    let k = opa.cols(a);
    let k2 = opb.rows(b);
    let n = opb.cols(b);
    assert_eq!(k, k2, "gemm: inner dimensions {k} vs {k2}");
    assert_eq!(c.nrows(), m, "gemm: C row mismatch");
    assert_eq!(c.ncols(), n, "gemm: C col mismatch");

    let work = m * n * k;
    let ldc = c.nrows();
    let cdata = c.as_mut_slice();

    let col_kernel = |j: usize, ccol: &mut [S]| {
        // Scale the output column first.
        if beta == S::zero() {
            ccol.iter_mut().for_each(|x| *x = S::zero());
        } else if beta != S::one() {
            ccol.iter_mut().for_each(|x| *x *= beta);
        }
        match (opa, opb) {
            (Op::None, Op::None) => {
                // C[:,j] += alpha * A * B[:,j]  — stream columns of A (axpy form).
                let bcol = b.col(j);
                for l in 0..k {
                    let blj = alpha * bcol[l];
                    if blj == S::zero() {
                        continue;
                    }
                    let acol = a.col(l);
                    for i in 0..m {
                        ccol[i] += acol[i] * blj;
                    }
                }
            }
            (Op::ConjTrans, Op::None) => {
                // C[i,j] += alpha * conj(A[:,i]) · B[:,j]  — dot form.
                let bcol = b.col(j);
                for i in 0..m {
                    let acol = a.col(i);
                    let mut acc = S::zero();
                    for l in 0..k {
                        acc += acol[l].conj() * bcol[l];
                    }
                    ccol[i] += alpha * acc;
                }
            }
            (Op::Trans, Op::None) => {
                let bcol = b.col(j);
                for i in 0..m {
                    let acol = a.col(i);
                    let mut acc = S::zero();
                    for l in 0..k {
                        acc += acol[l] * bcol[l];
                    }
                    ccol[i] += alpha * acc;
                }
            }
            _ => {
                // General fallback for transposed B: elementwise definition.
                for i in 0..m {
                    let mut acc = S::zero();
                    for l in 0..k {
                        acc += opa.at(a, i, l) * opb.at(b, l, j);
                    }
                    ccol[i] += alpha * acc;
                }
            }
        }
    };

    if work >= PAR_THRESHOLD && n > 1 {
        for_each_chunk_mut(cdata, ldc, 0, col_kernel);
    } else if work >= PAR_THRESHOLD && (opa, opb) == (Op::None, Op::None) {
        // Tall gemv (n == 1): split the axpy form over row ranges. Each
        // output element keeps its serial accumulation order, so the result
        // is identical for any thread count.
        let bcol = b.col(0);
        let base = SendPtr::new(cdata.as_mut_ptr());
        for_each_range(m, 0, |r0, r1| {
            // SAFETY: row ranges are disjoint and `cdata` outlives the call.
            let ccol = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(r0), r1 - r0) };
            if beta == S::zero() {
                ccol.iter_mut().for_each(|x| *x = S::zero());
            } else if beta != S::one() {
                ccol.iter_mut().for_each(|x| *x *= beta);
            }
            for l in 0..k {
                let blj = alpha * bcol[l];
                if blj == S::zero() {
                    continue;
                }
                let acol = &a.col(l)[r0..r1];
                for (ci, &av) in ccol.iter_mut().zip(acol) {
                    *ci += av * blj;
                }
            }
        });
    } else {
        for (j, ccol) in cdata.chunks_mut(ldc).enumerate() {
            col_kernel(j, ccol);
        }
    }
}

/// Convenience: allocate and return `op(A)·op(B)`.
pub fn matmul<S: Scalar>(a: &DMat<S>, opa: Op, b: &DMat<S>, opb: Op) -> DMat<S> {
    let mut c = DMat::zeros(opa.rows(a), opb.cols(b));
    gemm(S::one(), a, opa, b, opb, S::zero(), &mut c);
    c
}

/// Gram matrix `Aᴴ·B` — one fused "reduction" in the distributed setting.
pub fn adjoint_times<S: Scalar>(a: &DMat<S>, b: &DMat<S>) -> DMat<S> {
    matmul(a, Op::ConjTrans, b, Op::None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_scalar::C64;

    fn naive<S: Scalar>(a: &DMat<S>, b: &DMat<S>) -> DMat<S> {
        DMat::from_fn(a.nrows(), b.ncols(), |i, j| {
            let mut acc = S::zero();
            for l in 0..a.ncols() {
                acc += a[(i, l)] * b[(l, j)];
            }
            acc
        })
    }

    #[test]
    fn gemm_matches_naive_real() {
        let a = DMat::<f64>::from_fn(7, 5, |i, j| (i as f64 - 2.0) * (j as f64 + 1.0) + 0.5);
        let b = DMat::<f64>::from_fn(5, 4, |i, j| (i + 2 * j) as f64 - 3.0);
        let c = matmul(&a, Op::None, &b, Op::None);
        let r = naive(&a, &b);
        for i in 0..7 {
            for j in 0..4 {
                assert!((c[(i, j)] - r[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_adjoint_complex() {
        let a = DMat::<C64>::from_fn(6, 3, |i, j| C64::from_parts(i as f64, (j as f64) - 1.0));
        let b = DMat::<C64>::from_fn(6, 2, |i, j| C64::from_parts((i * j) as f64, 1.0));
        let c = adjoint_times(&a, &b);
        let ah = a.adjoint();
        let r = naive(&ah, &b);
        for i in 0..3 {
            for j in 0..2 {
                assert!((c[(i, j)] - r[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_accumulates_with_beta() {
        let a = DMat::<f64>::eye(3);
        let b = DMat::<f64>::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut c = DMat::<f64>::from_fn(3, 3, |i, j| if i == j { 10.0 } else { 0.0 });
        gemm(2.0, &a, Op::None, &b, Op::None, 0.5, &mut c);
        // c = 2*b + 0.5*diag(10)
        assert_eq!(c[(0, 0)], 5.0);
        assert_eq!(c[(1, 2)], 6.0);
        assert_eq!(c[(2, 2)], 13.0);
    }

    #[test]
    fn gemm_trans_b_fallback() {
        let a = DMat::<f64>::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let b = DMat::<f64>::from_fn(5, 4, |i, j| (i as f64) - (j as f64));
        let c = matmul(&a, Op::None, &b, Op::Trans);
        let bt = b.transpose();
        let r = naive(&a, &bt);
        for i in 0..3 {
            for j in 0..5 {
                assert!((c[(i, j)] - r[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn large_gemm_parallel_path_consistent() {
        let a = DMat::<f64>::from_fn(200, 60, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = DMat::<f64>::from_fn(60, 50, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        let c = matmul(&a, Op::None, &b, Op::None);
        let r = naive(&a, &b);
        for i in (0..200).step_by(37) {
            for j in (0..50).step_by(7) {
                assert!((c[(i, j)] - r[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn blocked_path_matches_reference_across_ops() {
        // Big enough for the parallel column path, every op combination.
        let m = 67;
        let k = 131;
        let n = 23;
        let mk = DMat::<f64>::from_fn(m, k, |i, j| ((i * 13 + j * 5) % 17) as f64 - 8.0);
        let km = mk.transpose();
        let kn = DMat::<f64>::from_fn(k, n, |i, j| ((i * 7 + j * 11) % 19) as f64 - 9.0);
        let nk = kn.transpose();
        for (a, opa) in [(&mk, Op::None), (&km, Op::Trans), (&km, Op::ConjTrans)] {
            for (b, opb) in [(&kn, Op::None), (&nk, Op::Trans), (&nk, Op::ConjTrans)] {
                let c = matmul(a, opa, b, opb);
                let r = naive(&mk, &kn);
                for i in (0..m).step_by(13) {
                    for j in 0..n {
                        assert!(
                            (c[(i, j)] - r[(i, j)]).abs() < 1e-9,
                            "({opa:?},{opb:?}) at ({i},{j})"
                        );
                    }
                }
            }
        }
    }
}
