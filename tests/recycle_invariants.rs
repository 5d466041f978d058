//! The recycle space verified, not assumed.
//!
//! GCRO-DR rests on two properties of the pair it carries: `C` has
//! orthonormal columns and `A·U = C` (`U` lives in the solution space, so a
//! right or flexible preconditioner is already inside it). Both are only as
//! good as the products that build the pair — the start-of-solve
//! re-orthonormalisation `[Q, R] = qr(A·U)`, the first cycle's extraction
//! `C = V·Q`, `U = Z·P·R⁻¹`, and every refresh `C = [C V]·Q`,
//! `U = [U Z]·P·R⁻¹`. This suite checks
//!
//! * `‖CᴴC − I‖_F ≤ 1e-10 · k` and
//! * `‖A·U − C‖_F ≤ 1e-8 · ‖C‖_F`
//!
//! at every such point of a four-system sequence with a varying operator:
//! a solve capped at the end of its `c`-th cycle stops right after that
//! cycle's refresh and leaves the pair in the context, so replaying a solve
//! with caps of 0, 1, 2, … cycles shows the pair after the
//! re-orthonormalisation and after each refresh of the uncapped solve.

use kryst_core::{gcrodr, PrecondSide, RecycleStrategy, SolveOpts, SolverContext};
use kryst_dense::{blas, DMat};
use kryst_par::LinOp;
use kryst_pde::elasticity::{elasticity3d, ElasticityOpts, PAPER_INCLUSIONS};
use kryst_precond::Jacobi;
use kryst_scalar::{Real, Scalar, C64};
use kryst_sparse::{Coo, Csr};

const RESTART: usize = 30;
const RECYCLE: usize = 10;

fn copy_of<S: Scalar>(ctx: &SolverContext<S>) -> SolverContext<S> {
    SolverContext {
        recycle: ctx.recycle.as_ref().map(|r| gcrodr::RecycleSpace {
            u: r.u.clone(),
            c: r.c.clone(),
        }),
        solves: ctx.solves,
    }
}

fn check_pair<S: Scalar>(a: &Csr<S>, ctx: &SolverContext<S>, at: &str) {
    let rec = ctx
        .recycle
        .as_ref()
        .unwrap_or_else(|| panic!("{at}: no recycle space"));
    let k = rec.c.ncols();
    assert_eq!(rec.u.ncols(), k, "{at}");
    let mut gram = blas::adjoint_times(&rec.c, &rec.c);
    for i in 0..k {
        gram[(i, i)] -= S::one();
    }
    let orth = gram.fro_norm().to_f64();
    assert!(orth <= 1e-10 * k as f64, "{at}: ‖CᴴC − I‖_F = {orth:e}");
    let mut au = a.apply_new(&rec.u);
    au.axpy(-S::one(), &rec.c);
    let rel = au.fro_norm().to_f64() / rec.c.fro_norm().to_f64();
    assert!(rel <= 1e-8, "{at}: ‖A·U − C‖_F / ‖C‖_F = {rel:e}");
}

/// Solve the sequence `(A_i, b_i)` with one context, checking the pair at
/// every cycle end of every solve.
fn check_sequence<S: Scalar>(
    name: &str,
    systems: &[(Csr<S>, DMat<S>)],
    strategy: RecycleStrategy,
    side: PrecondSide,
) {
    let mut ctx = SolverContext::new();
    for (i, (a, b)) in systems.iter().enumerate() {
        let jac = Jacobi::new(a, 1.0);
        let p = b.ncols();
        let case = format!("{name} {strategy:?} {side:?} p={p} system {i}");
        let opts = |max_iters| SolveOpts {
            rtol: 1e-8,
            restart: RESTART,
            recycle: RECYCLE,
            max_iters,
            side,
            recycle_strategy: strategy,
            ..Default::default()
        };
        // Cycle ends of this solve: the first system opens with a plain
        // GMRES cycle, the later ones with the re-orthonormalisation (a cap
        // of no iterations at all); deflated cycles follow.
        let mut cap = if i == 0 { RESTART } else { 0 };
        let full = loop {
            let mut replay = copy_of(&ctx);
            let mut x = DMat::zeros(b.nrows(), p);
            let res = gcrodr::solve(a, &jac, b, &mut x, &opts(cap), &mut replay);
            check_pair(a, &replay, &format!("{case}, after {cap} iterations"));
            if res.converged {
                break replay;
            }
            assert!(cap < 2000, "{case}: no convergence");
            cap += RESTART - RECYCLE;
        };
        ctx = full;
    }
}

fn block_rhs<S: Scalar>(b: &DMat<S>, p: usize) -> DMat<S> {
    DMat::from_fn(b.nrows(), p, |i, l| {
        b[(i, 0)] * S::from_f64(1.0 + ((i * (l + 1)) % 7) as f64 * l as f64 / 7.0)
    })
}

#[test]
fn elasticity_sequence_keeps_c_orthonormal_and_au_equal_c() {
    let systems: Vec<(Csr<f64>, DMat<f64>)> = PAPER_INCLUSIONS
        .iter()
        .map(|inc| {
            let sys = elasticity3d::<f64>(&ElasticityOpts {
                ne: 4,
                inclusion: Some(*inc),
                ..Default::default()
            });
            let n = sys.rhs.len();
            (sys.problem.a, DMat::from_col_major(n, 1, sys.rhs))
        })
        .collect();
    for p in [1, 4] {
        let blocks: Vec<_> = systems
            .iter()
            .map(|(a, b)| (a.clone(), block_rhs(b, p)))
            .collect();
        for strategy in [RecycleStrategy::A, RecycleStrategy::B] {
            for side in [PrecondSide::Right, PrecondSide::Flexible] {
                check_sequence("elasticity", &blocks, strategy, side);
            }
        }
    }
}

/// A damped Helmholtz operator on a `nx × nx` grid: the 5-point Laplacian
/// less `k²h²`, plus an imaginary shift — complex symmetric, not Hermitian.
fn helmholtz(nx: usize, k2h2: f64, damping: f64) -> Csr<C64> {
    let n = nx * nx;
    let mut c = Coo::new(n, n);
    for i in 0..nx {
        for j in 0..nx {
            let row = i * nx + j;
            c.push(row, row, C64::from_parts(4.0 - k2h2, damping));
            let mut link = |col: usize| c.push(row, col, C64::from_parts(-1.0, 0.0));
            if i > 0 {
                link(row - nx);
            }
            if i + 1 < nx {
                link(row + nx);
            }
            if j > 0 {
                link(row - 1);
            }
            if j + 1 < nx {
                link(row + 1);
            }
        }
    }
    c.to_csr()
}

#[test]
fn complex_symmetric_sequence_keeps_c_orthonormal_and_au_equal_c() {
    let nx = 14;
    let b = DMat::from_fn(nx * nx, 1, |i, _| {
        C64::from_parts(((i * 7) % 11) as f64 - 5.0, ((i * 3) % 5) as f64 - 2.0)
    });
    for p in [1, 4] {
        let systems: Vec<_> = (0..4)
            .map(|s| {
                let a = helmholtz(nx, 0.3 + 0.02 * s as f64, 0.4 + 0.05 * s as f64);
                (a, block_rhs(&b, p))
            })
            .collect();
        for strategy in [RecycleStrategy::A, RecycleStrategy::B] {
            for side in [PrecondSide::Right, PrecondSide::Flexible] {
                check_sequence("helmholtz", &systems, strategy, side);
            }
        }
    }
}
