//! Iterative-refinement correctness of mixed-precision preconditioning.
//!
//! The f32-storage ILU(0)/AMG variants are *inexact* preconditioners; the
//! flexible outer methods (FGMRES, GCRO-DR with flexible preconditioning)
//! must still drive the **f64** residual to the same outer tolerance as the
//! all-f64 golden runs, at an iteration count within +15%. The operator is
//! the paper's Fig. 7 benchmark: 2-D convection–diffusion with first-order
//! upwind convection.
//!
//! Every preconditioner here names its storage precision
//! (`with_precision`); nothing is read from the environment.

use kryst_core::{gcrodr, gmres, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_par::{PrecondOp, PrecondPrecision};
use kryst_precond::{Amg, AmgOpts, Ilu0, SmootherKind};
use kryst_sparse::{Coo, Csr};

/// The Fig. 7 benchmark operator: 2-D convection–diffusion, first-order
/// upwind convection.
fn convdiff2d(nx: usize, eps: f64, bx: f64, by: f64) -> Csr<f64> {
    let n = nx * nx;
    let h = 1.0 / (nx as f64 + 1.0);
    let mut c = Coo::new(n, n);
    let idx = |i: usize, j: usize| i * nx + j;
    for i in 0..nx {
        for j in 0..nx {
            let row = idx(i, j);
            c.push(row, row, 4.0 * eps / (h * h) + (bx.abs() + by.abs()) / h);
            if i > 0 {
                c.push(row, idx(i - 1, j), -eps / (h * h) - bx.max(0.0) / h);
            }
            if i + 1 < nx {
                c.push(row, idx(i + 1, j), -eps / (h * h) + bx.min(0.0) / h);
            }
            if j > 0 {
                c.push(row, idx(i, j - 1), -eps / (h * h) - by.max(0.0) / h);
            }
            if j + 1 < nx {
                c.push(row, idx(i, j + 1), -eps / (h * h) + by.min(0.0) / h);
            }
        }
    }
    c.to_csr()
}

fn rhs_block(n: usize, p: usize) -> DMat<f64> {
    DMat::from_fn(n, p, |i, j| (((i * 7 + j * 13) % 19) as f64) - 9.0)
}

fn true_relres(a: &Csr<f64>, b: &DMat<f64>, x: &DMat<f64>) -> f64 {
    let mut r = a.apply(x);
    r.axpy(-1.0, b);
    let mut worst = 0.0f64;
    for l in 0..b.ncols() {
        worst = worst.max(r.col_norm(l) / b.col_norm(l).max(1e-300));
    }
    worst
}

/// Golden vs mixed run of one flexible solver/preconditioner pair: both
/// must converge to the same f64 tolerance, the mixed run within +15%
/// of the golden iteration count, and the final *true* f64 residuals of
/// both must actually sit under the tolerance.
fn assert_mixed_tracks_golden(
    a: &Csr<f64>,
    make_pc: impl Fn(PrecondPrecision) -> Box<dyn PrecondOp<f64>>,
    p: usize,
    recycle: bool,
    what: &str,
) {
    let n = a.nrows();
    let b = rhs_block(n, p);
    let rtol = 1e-8;
    let opts = SolveOpts {
        rtol,
        side: PrecondSide::Flexible,
        max_iters: 2000,
        ..Default::default()
    };
    let run = |pc: &dyn PrecondOp<f64>| {
        let mut x = DMat::zeros(n, p);
        let res = if recycle {
            let mut ctx = SolverContext::new();
            gcrodr::solve(a, pc, &b, &mut x, &opts, &mut ctx)
        } else {
            gmres::solve(a, pc, &b, &mut x, &opts)
        };
        (res, true_relres(a, &b, &x))
    };
    let (gold, gold_rr) = run(&*make_pc(PrecondPrecision::Full));
    let (mixed, mixed_rr) = run(&*make_pc(PrecondPrecision::Single));
    assert!(gold.converged, "{what}: golden f64 run did not converge");
    assert!(mixed.converged, "{what}: mixed run did not converge");
    assert!(
        gold_rr < 20.0 * rtol,
        "{what}: golden true residual {gold_rr}"
    );
    assert!(
        mixed_rr < 20.0 * rtol,
        "{what}: mixed true residual {mixed_rr} — the f32 preconditioner may not limit the f64 outer accuracy"
    );
    let bound = (gold.iterations as f64 * 1.15).ceil() as usize;
    assert!(
        mixed.iterations <= bound,
        "{what}: mixed took {} iterations vs golden {} (+15% bound {bound})",
        mixed.iterations,
        gold.iterations
    );
}

#[test]
fn fgmres_ilu_mixed_matches_golden_iterations() {
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    for p in [1usize, 4] {
        assert_mixed_tracks_golden(
            &a,
            |prec| Box::new(Ilu0::with_precision(&a, prec).expect("ILU(0) factors")),
            p,
            false,
            "fgmres+ilu0",
        );
    }
}

#[test]
fn gcrodr_ilu_mixed_matches_golden_iterations() {
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    assert_mixed_tracks_golden(
        &a,
        |prec| Box::new(Ilu0::with_precision(&a, prec).expect("ILU(0) factors")),
        1,
        true,
        "gcrodr+ilu0",
    );
}

#[test]
fn fgmres_amg_mixed_matches_golden_iterations() {
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let amg_opts = AmgOpts {
        smoother: SmootherKind::Jacobi {
            omega: 0.67,
            iters: 2,
        },
        ..Default::default()
    };
    assert_mixed_tracks_golden(
        &a,
        |prec| Box::new(Amg::with_precision(&a, None, &amg_opts, prec)),
        1,
        false,
        "fgmres+amg",
    );
}

#[test]
fn gcrodr_amg_mixed_matches_golden_iterations() {
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let amg_opts = AmgOpts {
        smoother: SmootherKind::Jacobi {
            omega: 0.67,
            iters: 2,
        },
        ..Default::default()
    };
    assert_mixed_tracks_golden(
        &a,
        |prec| Box::new(Amg::with_precision(&a, None, &amg_opts, prec)),
        1,
        true,
        "gcrodr+amg",
    );
}
