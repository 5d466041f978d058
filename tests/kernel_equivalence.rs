//! Equivalence properties for the fast kernel layer.
//!
//! The blocked/packed GEMM, the register-blocked SpMM, and the persistent
//! worker pool are performance rewrites of straightforward reference
//! kernels: every result here must match a naive implementation to
//! floating-point roundoff, across shapes that exercise the dispatch
//! thresholds, the packed-panel remainders, all `Op` combinations, both
//! scalar types, and nontrivial α/β accumulation.

use kryst_dense::{blas, DMat};
use kryst_rt::par::for_each_chunk_mut;
use kryst_scalar::{Scalar, C64};
use kryst_sparse::Coo;

/// Textbook triple loop `C ⟵ α·op(A)·op(B) + β·C`.
fn naive_gemm<S: Scalar>(
    alpha: S,
    a: &DMat<S>,
    opa: blas::Op,
    b: &DMat<S>,
    opb: blas::Op,
    beta: S,
    c: &mut DMat<S>,
) {
    let at = |i: usize, l: usize| match opa {
        blas::Op::None => a[(i, l)],
        blas::Op::Trans => a[(l, i)],
        blas::Op::ConjTrans => a[(l, i)].conj(),
    };
    let bt = |l: usize, j: usize| match opb {
        blas::Op::None => b[(l, j)],
        blas::Op::Trans => b[(j, l)],
        blas::Op::ConjTrans => b[(j, l)].conj(),
    };
    let m = c.nrows();
    let n = c.ncols();
    let k = match opa {
        blas::Op::None => a.ncols(),
        _ => a.nrows(),
    };
    for j in 0..n {
        for i in 0..m {
            let mut acc = S::zero();
            for l in 0..k {
                acc += at(i, l) * bt(l, j);
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
}

fn max_diff<S: Scalar>(x: &DMat<S>, y: &DMat<S>) -> f64 {
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0, f64::max)
}

fn shaped<S: Scalar>(m: usize, n: usize, f: impl Fn(usize) -> S) -> DMat<S> {
    DMat::from_fn(m, n, |i, j| f(i * 31 + j * 7))
}

fn fill_f64(s: usize) -> f64 {
    ((s % 23) as f64 - 11.0) / 4.0
}

fn fill_c64(s: usize) -> C64 {
    C64::new(((s % 17) as f64 - 8.0) / 4.0, ((s % 13) as f64 - 6.0) / 8.0)
}

fn op_dims(op: blas::Op, rows: usize, cols: usize) -> (usize, usize) {
    match op {
        blas::Op::None => (rows, cols),
        _ => (cols, rows),
    }
}

fn gemm_case<S: Scalar>(m: usize, k: usize, n: usize, fill: impl Fn(usize) -> S + Copy, tol: f64) {
    let ops = [blas::Op::None, blas::Op::Trans, blas::Op::ConjTrans];
    // (α, β) pairs: plain product, accumulate, scale-and-subtract.
    let coeffs: [(S, S); 3] = [
        (S::one(), S::zero()),
        (S::one(), S::one()),
        (S::one() + S::one(), S::zero() - S::one()),
    ];
    for opa in ops {
        for opb in ops {
            let (am, ak) = op_dims(opa, m, k);
            let (bk, bn) = op_dims(opb, k, n);
            let a = shaped(am, ak, fill);
            let b = shaped(bk, bn, fill);
            for (alpha, beta) in coeffs {
                let c0 = shaped::<S>(m, n, fill);
                let mut fast = c0.clone();
                blas::gemm(alpha, &a, opa, &b, opb, beta, &mut fast);
                let mut slow = c0;
                naive_gemm(alpha, &a, opa, &b, opb, beta, &mut slow);
                let d = max_diff(&fast, &slow);
                assert!(d < tol, "gemm {m}x{k}x{n} {opa:?}x{opb:?} diff {d:.3e}");
            }
        }
    }
}

#[test]
fn blocked_gemm_matches_naive_f64() {
    // Shapes on both sides of the parallel-column threshold, long k, odd
    // remainders, and a Gram-like tall-skinny operand.
    for (m, k, n) in [
        (64, 64, 16),
        (67, 131, 23),
        (128, 300, 64),
        (129, 257, 65),
        (4, 16384, 4),
        (5, 3, 2),
        (1000, 30, 30),
    ] {
        gemm_case::<f64>(m, k, n, fill_f64, 1e-9 * k as f64);
    }
}

#[test]
fn blocked_gemm_matches_naive_complex() {
    for (m, k, n) in [(64, 64, 16), (67, 131, 23), (40, 500, 8), (6, 5, 4)] {
        gemm_case::<C64>(m, k, n, fill_c64, 1e-9 * k as f64);
    }
}

#[test]
fn spmm_matches_per_column_dense_product() {
    // 2-D Laplacian-ish pattern; p sweeps across the SPMM_COLS=8 register
    // block boundary (1 hits the spmv fast path).
    let nx = 24;
    let n = nx * nx;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
        if i % nx != 0 {
            coo.push(i, i - 1, -1.0);
        }
        if i % nx != nx - 1 {
            coo.push(i, i + 1, -1.0);
        }
        if i >= nx {
            coo.push(i, i - nx, -1.0);
        }
        if i + nx < n {
            coo.push(i, i + nx, -1.0);
        }
    }
    let a = coo.to_csr();
    let dense = DMat::from_fn(n, n, |i, j| a.get(i, j));
    for p in [1usize, 2, 3, 7, 8, 9, 16] {
        let x = shaped::<f64>(n, p, fill_f64);
        let mut y = DMat::zeros(n, p);
        a.spmm(&x, &mut y);
        let mut yref = DMat::zeros(n, p);
        naive_gemm(
            1.0,
            &dense,
            blas::Op::None,
            &x,
            blas::Op::None,
            0.0,
            &mut yref,
        );
        let d = max_diff(&y, &yref);
        assert!(d < 1e-10, "spmm p={p} diff {d:.3e}");
    }
}

#[test]
fn pool_parallel_matches_serial_chunked_update() {
    // The pool partitions work differently than a serial loop, but chunk
    // updates are elementwise: results must be bit-identical.
    let n = 200_000;
    let init: Vec<f64> = (0..n).map(fill_f64).collect();
    let update = |ci: usize, c: &mut [f64]| {
        for (k, x) in c.iter_mut().enumerate() {
            *x = 1.0000001 * *x + (ci * 64 + k) as f64 * 1e-9;
        }
    };
    let mut serial = init.clone();
    for_each_chunk_mut(&mut serial, 64, 1, update);
    let mut parallel = init;
    for_each_chunk_mut(&mut parallel, 64, 0, update);
    assert_eq!(serial, parallel, "pool execution must be bit-identical");
}

#[test]
fn pool_survives_panicking_job_and_keeps_working() {
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut v = vec![0u8; 4096];
        for_each_chunk_mut(&mut v, 64, 0, |ci, _c| {
            if ci == 13 {
                panic!("injected kernel failure");
            }
        });
    }));
    assert!(panic.is_err(), "panic must propagate to the dispatcher");
    // The pool must still process subsequent jobs normally.
    let mut v = vec![1u32; 100_000];
    for_each_chunk_mut(&mut v, 128, 0, |_ci, c| {
        for x in c.iter_mut() {
            *x += 1;
        }
    });
    assert!(v.iter().all(|&x| x == 2));
}
