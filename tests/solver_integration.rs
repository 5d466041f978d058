//! Cross-crate integration: solvers × preconditioners × problems.

use kryst_core::pseudo::{self, PseudoMethod};
use kryst_core::{gcrodr, gmres, lgmres, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_par::{IdentityPrecond, LinOp, PrecondOp};
use kryst_pde::elasticity::{elasticity3d, ElasticityOpts};
use kryst_pde::maxwell::{antenna_ring_rhs, maxwell3d, MaxwellParams};
use kryst_pde::poisson::{paper_rhs_block, poisson2d};
use kryst_precond::{Amg, AmgOpts, Schwarz, SchwarzOpts, SchwarzVariant, SmootherKind};
use kryst_scalar::{Scalar, C64};
use kryst_sparse::partition::partition_rcb;
use kryst_sparse::{Csr, SparseDirect};
use std::sync::Mutex;
use std::thread::ThreadId;

fn true_relres<S: Scalar>(a: &Csr<S>, b: &DMat<S>, x: &DMat<S>) -> f64 {
    let mut r = a.apply(x);
    r.axpy(-S::one(), b);
    let mut worst = 0.0f64;
    for l in 0..b.ncols() {
        worst = worst.max(r.col_norm(l) / b.col_norm(l).max(1e-300));
    }
    worst
}

#[test]
fn amg_fgmres_poisson_matches_direct_solution() {
    let prob = poisson2d::<f64>(40, 40);
    let n = prob.a.nrows();
    let amg = Amg::new(
        &prob.a,
        prob.near_nullspace.as_ref(),
        &AmgOpts {
            smoother: SmootherKind::Gmres { iters: 2 },
            ..Default::default()
        },
    );
    let b = DMat::from_fn(n, 1, |i, _| ((i * 13) % 17) as f64 - 8.0);
    let mut x = DMat::zeros(n, 1);
    let opts = SolveOpts {
        rtol: 1e-10,
        side: PrecondSide::Flexible,
        ..Default::default()
    };
    let res = gmres::solve(&prob.a, &amg, &b, &mut x, &opts);
    assert!(res.converged);
    assert!(
        res.iterations <= 30,
        "AMG-FGMRES took {} iterations",
        res.iterations
    );
    // Compare against the sparse direct solution.
    let f = SparseDirect::factor(&prob.a).unwrap();
    let xd = f.solve_one(b.col(0));
    let mut diff = 0.0f64;
    let mut scale = 0.0f64;
    for i in 0..n {
        diff = diff.max((x[(i, 0)] - xd[i]).abs());
        scale = scale.max(xd[i].abs());
    }
    assert!(diff < 1e-7 * scale.max(1.0), "iterative vs direct: {diff}");
}

/// Right-preconditioned GMRES under a Chebyshev-smoothed AMG (a linear
/// cycle, so no flexible variant is needed) on 3-D elasticity.
#[test]
fn amg_preconditioned_gmres_on_elasticity() {
    let prob = elasticity3d::<f64>(&ElasticityOpts {
        ne: 5,
        ..Default::default()
    });
    let a = &prob.problem.a;
    let n = a.nrows();
    let amg = Amg::new(
        a,
        prob.problem.near_nullspace.as_ref(),
        &AmgOpts {
            smoother: SmootherKind::Chebyshev { degree: 2 },
            ..Default::default()
        },
    );
    let b = DMat::from_fn(n, 1, |i, _| prob.rhs[i]);
    let mut x = DMat::zeros(n, 1);
    let opts = SolveOpts {
        rtol: 1e-8,
        max_iters: 300,
        side: PrecondSide::Right,
        ..Default::default()
    };
    let res = gmres::solve(a, &amg, &b, &mut x, &opts);
    assert!(
        res.converged,
        "AMG-GMRES elasticity: {:?}",
        res.final_relres
    );
    // Measured: 10 iterations.
    assert!(res.iterations <= 12, "AMG-GMRES took {}", res.iterations);
    assert!(true_relres(a, &b, &x) < 1e-6);
}

#[test]
fn oras_gmres_maxwell_multiple_antennas() {
    let params = MaxwellParams::matching_solution(8);
    let (prob, geom) = maxwell3d(&params);
    let part = partition_rcb(&prob.coords, 4);
    let oras = Schwarz::<C64>::new(
        &prob.a,
        &part,
        &SchwarzOpts {
            variant: SchwarzVariant::Oras,
            overlap: 2,
            impedance: params.omega,
        },
    );
    let b = antenna_ring_rhs(&geom, &params, 4, 0.3, 0.5);
    let mut x = DMat::<C64>::zeros(prob.a.nrows(), 4);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 60,
        max_iters: 600,
        ..Default::default()
    };
    let res = gmres::solve(&prob.a, &oras, &b, &mut x, &opts);
    assert!(res.converged, "ORAS-BGMRES: {:?}", res.final_relres);
    assert!(true_relres(&prob.a, &b, &x) < 1e-6);
}

#[test]
fn all_krylov_methods_agree_on_the_solution() {
    let prob = poisson2d::<f64>(20, 20);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 1, |i, _| ((i % 11) as f64) - 5.0);
    let opts = SolveOpts {
        rtol: 1e-11,
        restart: 25,
        recycle: 6,
        max_iters: 3000,
        ..Default::default()
    };
    let f = SparseDirect::factor(&prob.a).unwrap();
    let reference = f.solve_one(b.col(0));

    let mut solutions: Vec<(&str, DMat<f64>)> = Vec::new();
    let mut x = DMat::zeros(n, 1);
    assert!(gmres::solve(&prob.a, &id, &b, &mut x, &opts).converged);
    solutions.push(("gmres", x));
    let mut x = DMat::zeros(n, 1);
    assert!(lgmres::solve(&prob.a, &id, &b, &mut x, &opts).converged);
    solutions.push(("lgmres", x));
    let mut x = DMat::zeros(n, 1);
    let mut ctx = SolverContext::new();
    assert!(gcrodr::solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx).converged);
    solutions.push(("gcrodr", x));

    for (name, x) in &solutions {
        let mut diff = 0.0f64;
        for i in 0..n {
            diff = diff.max((x[(i, 0)] - reference[i]).abs());
        }
        assert!(
            diff < 1e-7,
            "{name} disagrees with the direct solve by {diff}"
        );
    }
}

#[test]
fn left_right_flexible_sides_reach_same_solution() {
    let prob = poisson2d::<f64>(16, 16);
    let n = prob.a.nrows();
    let amg = Amg::new(&prob.a, prob.near_nullspace.as_ref(), &AmgOpts::default());
    let b = DMat::from_fn(n, 1, |i, _| 1.0 + ((i * 3) % 7) as f64);
    let mut xs = Vec::new();
    for side in [PrecondSide::Left, PrecondSide::Right, PrecondSide::Flexible] {
        let mut x = DMat::zeros(n, 1);
        let opts = SolveOpts {
            rtol: 1e-10,
            side,
            ..Default::default()
        };
        let res = gmres::solve(&prob.a, &amg, &b, &mut x, &opts);
        assert!(res.converged, "{side:?}");
        xs.push(x);
    }
    for pair in xs.windows(2) {
        let mut diff = pair[0].clone();
        diff.axpy(-1.0, &pair[1]);
        assert!(diff.max_abs() < 1e-6, "sides disagree: {}", diff.max_abs());
    }
}

#[test]
fn block_width_does_not_change_the_answer() {
    let prob = poisson2d::<f64>(18, 18);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let p = 3;
    let b = DMat::from_fn(n, p, |i, j| (((i + 7 * j) % 13) as f64) - 6.0);
    let opts = SolveOpts {
        rtol: 1e-10,
        restart: 40,
        ..Default::default()
    };
    let mut xb = DMat::zeros(n, p);
    assert!(gmres::solve(&prob.a, &id, &b, &mut xb, &opts).converged);
    for l in 0..p {
        let bl = DMat::from_col_major(n, 1, b.col(l).to_vec());
        let mut xl = DMat::zeros(n, 1);
        assert!(gmres::solve(&prob.a, &id, &bl, &mut xl, &opts).converged);
        for i in 0..n {
            assert!(
                (xb[(i, l)] - xl[(i, 0)]).abs() < 1e-6,
                "block vs single mismatch at ({i},{l})"
            );
        }
    }
}

#[test]
fn gcrodr_handles_singular_rhs_block_via_rank_revealing_cholqr() {
    // Two identical RHS columns: the initial residual block is rank 1; the
    // rank-revealing CholQR (§V-C breakdown detection) must cope.
    let prob = poisson2d::<f64>(14, 14);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let mut b = DMat::zeros(n, 2);
    for i in 0..n {
        let v = ((i % 9) as f64) - 4.0;
        b[(i, 0)] = v;
        b[(i, 1)] = v; // duplicate column
    }
    let mut x = DMat::zeros(n, 2);
    let mut ctx = SolverContext::new();
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        recycle: 4,
        ..Default::default()
    };
    let res = gcrodr::solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
    assert!(
        res.converged,
        "rank-deficient block: {:?}",
        res.final_relres
    );
    assert!(true_relres(&prob.a, &b, &x) < 1e-6);
}

/// An operator and a preconditioner (the identity) that note the thread
/// of every apply.
struct Noting<'a> {
    a: &'a Csr<f64>,
    threads: Mutex<Vec<ThreadId>>,
}

impl Noting<'_> {
    fn note(&self) {
        let mut threads = self.threads.lock().expect("no panic under the lock");
        threads.push(std::thread::current().id());
    }
}

impl LinOp<f64> for Noting<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn apply(&self, x: &DMat<f64>, y: &mut DMat<f64>) {
        self.note();
        self.a.spmm(x, y);
    }
}

impl PrecondOp<f64> for Noting<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn apply(&self, r: &DMat<f64>, z: &mut DMat<f64>) {
        self.note();
        z.copy_from(r);
    }
}

/// The lanes are one instruction stream: every operator and
/// preconditioner apply of a pseudo-block solve runs on the caller's
/// thread.
#[test]
fn every_apply_runs_on_the_callers_thread() {
    let prob = poisson2d::<f64>(12, 12);
    let b = paper_rhs_block::<f64>(12, 12);
    let op = Noting {
        a: &prob.a,
        threads: Mutex::default(),
    };
    for method in [PseudoMethod::Gmres, PseudoMethod::GcroDr] {
        let mut x = DMat::zeros(prob.a.nrows(), b.ncols());
        let opts = SolveOpts::default();
        let res = pseudo::solve(&op, &op, &b, &mut x, &opts, method, None);
        assert!(res.converged, "{method:?}");
    }
    let threads = op.threads.into_inner().expect("no panic under the lock");
    assert!(threads.len() > 20, "{} applies", threads.len());
    let me = std::thread::current().id();
    assert!(threads.iter().all(|&t| t == me));
}
